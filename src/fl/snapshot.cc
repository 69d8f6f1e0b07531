#include "fl/snapshot.h"

#include <fcntl.h>
#include <unistd.h>

#include <cassert>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/wall_time.h"
#include "util/log.h"

namespace tifl::fl {

namespace {

// Directory of `path` ("." for bare filenames) — the temp file must live
// on the same filesystem for rename() to be atomic.
std::string dir_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string(".")
                                    : path.substr(0, slash + 1);
}

void fsync_or_throw(int fd, const std::string& what) {
  if (::fsync(fd) != 0) {
    throw std::runtime_error("snapshot: fsync failed for " + what + ": " +
                             std::strerror(errno));
  }
}

struct CheckpointMetrics {
  obs::Counter& writes;
  obs::Counter& bytes;
  obs::Counter& write_ns;
  obs::Counter& loop_ns;
};

CheckpointMetrics& checkpoint_metrics() {
  obs::Registry& reg = obs::Registry::global();
  static CheckpointMetrics m{
      reg.counter("checkpoint.writes"),
      reg.counter("checkpoint.bytes"),
      reg.counter("checkpoint.write_ns"),
      reg.counter("checkpoint.loop_ns"),
  };
  return m;
}

}  // namespace

SnapshotWriter::SnapshotWriter(std::string path) : path_(std::move(path)) {
  checkpoint_metrics();  // registered whether or not a checkpoint is due
}

SnapshotWriter::~SnapshotWriter() {
  if (!in_flight_.valid()) return;
  try {
    in_flight_.get();
  } catch (const std::exception& error) {
    util::log_error("snapshot: last write failed: ", error.what());
  }
}

void SnapshotWriter::write(
    double virtual_time, std::size_t version, std::size_t events,
    const std::function<void(util::ByteSink&)>& encode) {
  CheckpointMetrics& metrics = checkpoint_metrics();
  const auto start = obs::wall_now();
  util::ByteSink& sink = sinks_[next_];
  sink.clear();
  encode(sink);
  metrics.write_ns.add(obs::wall_ns_count_since(start));
  flush();
  if (!writer_) writer_ = std::make_unique<util::ThreadPool>(1);
  in_flight_ = writer_->submit([this, &sink] {
    const auto io_start = obs::wall_now();
    save_snapshot(path_, sink.bytes());
    io_ns_ = obs::wall_ns_count_since(io_start);
  });
  next_ ^= 1;
  metrics.writes.add();
  metrics.bytes.add(kSnapshotHeaderBytes + sink.size());
  metrics.loop_ns.add(obs::wall_ns_count_since(start));
  if (obs::Tracer* t = obs::tracer()) {
    t->instant(virtual_time, "durability", "checkpoint", /*actor=*/0,
               {obs::field("version", version), obs::field("events", events)});
  }
}

void SnapshotWriter::flush() {
  if (!in_flight_.valid()) return;
  std::future<void> done = std::move(in_flight_);
  done.get();
  checkpoint_metrics().write_ns.add(io_ns_);
}

void save_snapshot(const std::string& path, std::string_view payload) {
  util::ByteSink header;
  header.put_bytes(kSnapshotMagic, sizeof(kSnapshotMagic));
  header.put_u32(kSnapshotVersion);
  header.put_u64(payload.size());
  header.put_u32(util::crc32(payload));
  assert(header.size() == kSnapshotHeaderBytes);

  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    throw std::runtime_error("snapshot: cannot create " + tmp + ": " +
                             std::strerror(errno));
  }
  bool ok = false;
  try {
    auto write_all = [&](const char* data, std::size_t size) {
      std::size_t done = 0;
      while (done < size) {
        const ssize_t n = ::write(fd, data + done, size - done);
        if (n < 0) {
          throw std::runtime_error("snapshot: write failed for " + tmp +
                                   ": " + std::strerror(errno));
        }
        done += static_cast<std::size_t>(n);
      }
    };
    write_all(header.bytes().data(), header.bytes().size());
    write_all(payload.data(), payload.size());
    fsync_or_throw(fd, tmp);
    ok = true;
  } catch (...) {
    ::close(fd);
    std::remove(tmp.c_str());
    throw;
  }
  ::close(fd);
  (void)ok;
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("snapshot: rename to " + path + " failed: " +
                             std::strerror(errno));
  }
  // Persist the rename itself: fsync the containing directory so the new
  // name survives a crash of the whole host, not just the process.
  const int dirfd = ::open(dir_of(path).c_str(), O_RDONLY | O_DIRECTORY);
  if (dirfd >= 0) {
    ::fsync(dirfd);
    ::close(dirfd);
  }
}

std::string load_snapshot(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("snapshot: cannot open " + path);
  }
  char magic[sizeof(kSnapshotMagic)] = {};
  in.read(magic, sizeof(magic));
  if (in.gcount() != static_cast<std::streamsize>(sizeof(magic)) ||
      std::memcmp(magic, kSnapshotMagic, sizeof(magic)) != 0) {
    throw std::runtime_error("snapshot: bad magic in " + path);
  }
  char fixed[kSnapshotHeaderBytes - sizeof(kSnapshotMagic)] = {};
  in.read(fixed, sizeof(fixed));
  if (in.gcount() != static_cast<std::streamsize>(sizeof(fixed))) {
    throw std::runtime_error("snapshot: truncated header in " + path);
  }
  util::ByteSource header(std::string_view(fixed, sizeof(fixed)));
  const std::uint32_t version = header.get_u32();
  if (version != kSnapshotVersion) {
    throw std::runtime_error("snapshot: unsupported version " +
                             std::to_string(version) + " in " + path);
  }
  const std::uint64_t payload_size = header.get_u64();
  const std::uint32_t expected_crc = header.get_u32();
  // Size the payload from the file itself before allocating: a corrupted
  // count must not drive a huge allocation or a silent short read.
  const std::streampos payload_start = in.tellg();
  in.seekg(0, std::ios::end);
  const std::streampos file_end = in.tellg();
  if (payload_start < 0 || file_end < payload_start ||
      payload_size !=
          static_cast<std::uint64_t>(file_end - payload_start)) {
    throw std::runtime_error("snapshot: size mismatch in " + path +
                             " (truncated or corrupt)");
  }
  in.seekg(payload_start);
  std::string payload(static_cast<std::size_t>(payload_size), '\0');
  in.read(payload.data(), static_cast<std::streamsize>(payload.size()));
  if (in.gcount() != static_cast<std::streamsize>(payload.size())) {
    throw std::runtime_error("snapshot: truncated payload in " + path);
  }
  if (util::crc32(payload) != expected_crc) {
    throw std::runtime_error("snapshot: CRC mismatch in " + path +
                             " (corrupt payload)");
  }
  return payload;
}

void put_records(util::ByteSink& sink,
                 const std::vector<RoundRecord>& records) {
  sink.put_u64(records.size());
  for (const RoundRecord& r : records) {
    sink.put_u64(r.round);
    sink.put_f64(r.virtual_time);
    sink.put_f64(r.round_latency);
    sink.put_f64(r.global_accuracy);
    sink.put_f64(r.global_loss);
    sink.put_f64(r.train_loss);
    sink.put_i64(r.selected_tier);
    sink.put_size_vec(r.selected_clients);
  }
}

std::vector<RoundRecord> get_records(util::ByteSource& source) {
  const std::size_t count = source.checked_count(source.get_u64(), 8 * 7);
  std::vector<RoundRecord> records;
  records.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    RoundRecord r;
    r.round = static_cast<std::size_t>(source.get_u64());
    r.virtual_time = source.get_f64();
    r.round_latency = source.get_f64();
    r.global_accuracy = source.get_f64();
    r.global_loss = source.get_f64();
    r.train_loss = source.get_f64();
    r.selected_tier = static_cast<int>(source.get_i64());
    r.selected_clients = source.get_size_vec();
    records.push_back(std::move(r));
  }
  return records;
}

void put_metrics(util::ByteSink& sink) {
  util::ByteSink blob;
  obs::Registry::global().save(blob);
  sink.put_string(blob.bytes());
}

void get_metrics(util::ByteSource& source) {
  const std::string blob = source.get_string();
  util::ByteSource blob_source(blob);
  obs::Registry::global().restore(blob_source);
}

}  // namespace tifl::fl
