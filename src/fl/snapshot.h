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
//
// Engines checkpoint through one SnapshotWriter.  The event-loop thread
// only encodes the payload into one of two reused buffers and hands it
// off; one writer thread (started at the first checkpoint, never when
// checkpointing is off) runs save_snapshot: CRC, write, fsync, rename and
// directory fsync, unchanged.  At most one write is in flight: a hand-off
// first waits for the previous write.  flush() at run end and the
// destructor (which also runs on unwind, e.g. an injected crash) wait for
// the write in flight, so a finished or crashed run leaves its last
// checkpoint complete on disk.  A write error is rethrown on the loop
// thread at the next hand-off or flush().  Counters, all updated on the
// loop thread: checkpoint.writes and checkpoint.bytes (header + payload);
// checkpoint.write_ns, the whole cost of a checkpoint wherever it runs
// (encode on the loop thread plus CRC and I/O on the writer, added when
// the loop thread collects the write); checkpoint.loop_ns, the part the
// event loop waits for (encode plus any wait for the previous write).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "fl/metrics.h"
#include "util/serial.h"
#include "util/thread_pool.h"

namespace tifl::fl {

inline constexpr char kSnapshotMagic[8] = {'T', 'I', 'F', 'L',
                                           'S', 'N', 'P', '1'};
// Bumped whenever an engine's payload layout changes: a file written
// under another version is rejected on load, never misread.
inline constexpr std::uint32_t kSnapshotVersion = 2;

// Bytes the container header adds before the payload: the magic, then
// the u32 version, u64 payload size and u32 CRC.
inline constexpr std::size_t kSnapshotHeaderBytes =
    sizeof(kSnapshotMagic) + 4 + 8 + 4;

// Atomically replaces `path` with a snapshot wrapping `payload`.  Throws
// std::runtime_error on any I/O failure (the temp file is removed on
// error).
void save_snapshot(const std::string& path, std::string_view payload);

// The one checkpoint path of every engine (see the file comment).  Not
// thread-safe: one loop thread calls write() and flush().
class SnapshotWriter {
 public:
  explicit SnapshotWriter(std::string path);
  // Waits for the write in flight; an error it raised is logged, since a
  // destructor cannot throw (the normal path calls flush() first).
  ~SnapshotWriter();
  SnapshotWriter(const SnapshotWriter&) = delete;
  SnapshotWriter& operator=(const SnapshotWriter&) = delete;

  // Encodes one snapshot payload with `encode`, waits for the previous
  // write (rethrowing its error) and hands the payload to the writer
  // thread.  `virtual_time`, `version` and `events` stamp the trace's
  // durability instant.
  void write(double virtual_time, std::size_t version, std::size_t events,
             const std::function<void(util::ByteSink&)>& encode);
  // Waits for the write in flight and rethrows its error.
  void flush();

 private:
  const std::string path_;
  // Two payload buffers: the loop thread encodes into sinks_[next_] while
  // the writer may still read the other one.
  std::array<util::ByteSink, 2> sinks_;
  std::size_t next_ = 0;
  // Set by the writer task; read only after flush() collected it.
  std::uint64_t io_ns_ = 0;
  std::future<void> in_flight_;
  // Declared last, so its thread is joined before the buffers go.
  std::unique_ptr<util::ThreadPool> writer_;
};

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
