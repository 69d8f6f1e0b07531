// Runtime metrics registry: named counters, gauges and HDR-style
// histograms shared by every subsystem (engines, client pool, event queue,
// tensor kernels).
//
// Design constraints, in order:
//   1. Hot-path updates must be cheap enough to leave enabled
//      unconditionally: counters and histograms are single relaxed atomic
//      RMWs; no locks, no allocation after registration.
//   2. Instrument addresses are stable for the life of the process:
//      callers look a name up once (Registry::counter/gauge/histogram) and
//      cache the reference.  `reset()` zeroes values but never invalidates
//      references, so per-run snapshots (benches, tests) can reuse the
//      cached pointers.
//   3. Snapshots are deterministic: `to_json()` walks instruments in name
//      order and formats doubles with shortest-round-trip `std::to_chars`,
//      so two runs with identical instrument values emit identical bytes.
//
// Histogram buckets come from util::histogram's HDR-style log-linear
// geometry (`util::hdr`): bounded memory for any value range, and
// percentile estimation via the same linear-within-bin interpolation that
// `util::Histogram::percentile` uses for exact samples.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/histogram.h"
#include "util/mutex.h"
#include "util/serial.h"
#include "util/thread_annotations.h"

namespace tifl::obs {

// Appends `v` to `out` in shortest-round-trip form (std::to_chars): the
// one double formatter every observability writer shares, so metric
// snapshots and trace streams are byte-stable given equal values.
void append_double(std::string& out, double v);

// Monotonic event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

// Last-written (or maximum) level.
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  // Raises the gauge to `v` if above the current value (high-water marks).
  void set_max(double v) noexcept {
    double cur = value_.load(std::memory_order_relaxed);
    while (v > cur &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  void add(double v) noexcept {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + v,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// HDR-style histogram over util::hdr's log-linear bucket geometry:
// bounded memory (one atomic per bucket), lock-free recording, ~4%
// relative value resolution.  Negative and zero samples land in the
// underflow bucket; the exact running min/max/sum are kept alongside so
// snapshots report true extremes even though buckets quantize.
class Histo {
 public:
  void record(double v) noexcept;

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
  double min() const noexcept;  // +inf when empty
  double max() const noexcept;  // -inf when empty
  double mean() const noexcept;
  // Quantile estimate in [0, 1] via cumulative bucket walk with linear
  // interpolation inside the target bucket (util::Histogram::percentile
  // semantics, applied to quantized buckets).  Returns 0 when empty.
  double percentile(double q) const noexcept;

  void reset() noexcept;

  // Non-empty buckets as (lower_edge, upper_edge, count), in value order.
  struct Bucket {
    double lo;
    double hi;
    std::uint64_t n;
  };
  std::vector<Bucket> buckets() const;

  // Checkpoint/resume: full lossless state (sparse bucket counts plus the
  // exact count/sum/min/max aggregates — buckets() alone quantizes).
  // restore() replaces this histogram's contents wholesale.
  void save(util::ByteSink& sink) const;
  void restore(util::ByteSource& source);

 private:
  std::atomic<std::uint64_t> counts_[util::hdr::kBucketCount] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};  // valid iff count_ > 0
  std::atomic<double> max_{0.0};  // valid iff count_ > 0
};

// Name -> instrument table.  Registration (first lookup of a name) takes a
// mutex; the returned reference is stable forever after, so steady-state
// updates never touch the lock.
class Registry {
 public:
  Counter& counter(std::string_view name) EXCLUDES(mutex_);
  Gauge& gauge(std::string_view name) EXCLUDES(mutex_);
  Histo& histogram(std::string_view name) EXCLUDES(mutex_);

  // Zeroes every registered instrument.  References stay valid.
  void reset() EXCLUDES(mutex_);

  // Deterministic snapshot: one JSON object with "counters", "gauges" and
  // "histograms" sub-objects, keys in lexicographic order.  Histograms
  // report count/sum/min/max/mean and p50/p90/p99 estimates.
  std::string to_json() const EXCLUDES(mutex_);

  // Checkpoint/resume: serializes every instrument (name-sorted, so the
  // bytes are deterministic); restore() adds the saved values back into
  // this registry's instruments, creating them on first sight — call on a
  // reset registry to reproduce the saved state exactly.
  void save(util::ByteSink& sink) const EXCLUDES(mutex_);
  void restore(util::ByteSource& source) EXCLUDES(mutex_);

  // Same snapshot restricted to instruments where `keep(name)` is true —
  // how determinism tests drop host-dependent instruments (the wall-clock
  // `*_ns` histograms) before comparing runs byte for byte.
  std::string to_json(const std::function<bool(std::string_view)>& keep) const
      EXCLUDES(mutex_);

  // The process-wide registry every built-in instrumentation site uses.
  static Registry& global();

 private:
  mutable util::Mutex mutex_;
  // std::map: stable addresses via unique_ptr and sorted iteration for
  // free.  Lookup cost only matters at registration time.  The maps are
  // guarded; the *instruments* they point to are lock-free atomics, which
  // is why handing out plain references is safe.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Histo>, std::less<>> histograms_
      GUARDED_BY(mutex_);
};

}  // namespace tifl::obs
