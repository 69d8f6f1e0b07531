// Versioned, CRC-guarded snapshot container — the durable envelope for a
// complete resumable run state (extending the nn::checkpoint flat-weight
// format from "just the model" to "the whole engine").
//
// File layout (little-endian):
//   8-byte magic "TIFLSNP1"
//   u32  format version (kSnapshotVersion)
//   u64  payload byte count
//   u32  crc32 over the payload bytes
//   payload (engine-defined, built with util::ByteSink)
//
// Write path durability: the snapshot is written to a temporary file in
// the *same directory*, fsync'd, and renamed over the target — so readers
// only ever observe either the previous complete snapshot or the new one,
// never a torn write (the rethinkdb serializer discipline).  A process
// killed mid-checkpoint therefore always leaves a loadable file behind.
//
// Read path safety: magic, version, size (validated against the actual
// file size before any allocation) and CRC are all checked before a byte
// of payload reaches the engine; every failure is a clean
// std::runtime_error.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "fl/metrics.h"
#include "util/serial.h"

namespace tifl::fl {

inline constexpr char kSnapshotMagic[8] = {'T', 'I', 'F', 'L',
                                           'S', 'N', 'P', '1'};
// Bumped whenever an engine's payload layout changes: a file written
// under another version is rejected on load, never misread.
inline constexpr std::uint32_t kSnapshotVersion = 2;

// Atomically replaces `path` with a snapshot wrapping `payload`; returns
// the total bytes written (header + payload).  Throws std::runtime_error
// on any I/O failure (the temp file is removed on error).
std::size_t save_snapshot(const std::string& path, std::string_view payload);

// Loads and validates the snapshot at `path`, returning its payload.
// Throws std::runtime_error on missing file, foreign magic, unsupported
// version, a size header inconsistent with the file, or a CRC mismatch.
std::string load_snapshot(const std::string& path);

// --- payload pieces shared by every engine's snapshot ------------------------
// The per-version round series.
void put_records(util::ByteSink& sink, const std::vector<RoundRecord>& records);
std::vector<RoundRecord> get_records(util::ByteSource& source);

// The process-global metrics registry, as one length-prefixed blob.
// get_metrics adds the saved values back into the global registry (see
// obs::Registry::restore), so a resumed run's end-of-run totals equal the
// uninterrupted run's for every deterministic instrument.
void put_metrics(util::ByteSink& sink);
void get_metrics(util::ByteSource& source);

}  // namespace tifl::fl
