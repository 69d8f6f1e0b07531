// Durability benchmark: what checkpointing costs and what resume saves.
//
// Three runs over the same churned dynamic-path federation (identical
// seed, fresh build per point so no state leaks between them):
//
//   1. baseline    — no durability at all; reference wall time and the
//                    final weight hash every other point must reproduce.
//   2. checkpointed — snapshots every span/8 virtual seconds plus the
//                    CRC-framed event log.  Reports snapshot count, mean
//                    snapshot bytes, the mean whole cost of a checkpoint
//                    (checkpoint.write_ns: encode, CRC and I/O), the
//                    mean part of it the event loop waits for
//                    (checkpoint.loop_ns: encode plus any wait for the
//                    previous write) and the end-to-end overhead versus
//                    the baseline.
//   3. crash+resume — the same checkpointed run killed by an injected
//                    crash at 60% of the span, then resumed from the last
//                    snapshot.  Reports the resume wall time, the
//                    wall-clock fraction saved versus rerunning from
//                    scratch, and asserts the resumed final weight hash
//                    equals the baseline's (exit 1 if not — the bench is
//                    also a correctness gate).
//
// Results land in BENCH_recovery.json.
//
// Flags: --smoke (short run), --clients N, --updates N, --json PATH.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.h"
#include "obs/metrics.h"
#include "util/cli.h"
#include "util/log.h"

namespace tifl::bench {
namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t weight_hash(const std::vector<float>& weights) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (float w : weights) {
    std::uint32_t bits;
    std::memcpy(&bits, &w, sizeof(bits));
    for (int shift = 0; shift < 32; shift += 8) {
      hash ^= (bits >> shift) & 0xFF;
      hash *= 0x100000001b3ULL;
    }
  }
  return hash;
}

ScenarioConfig recovery_config(std::size_t clients, std::size_t updates,
                               std::uint64_t seed) {
  ScenarioConfig config;
  config.name = "recovery/" + std::to_string(clients);
  config.spec.classes = 4;
  config.spec.dims = data::ImageDims{1, 6, 6};
  config.spec.train_samples = 2000;
  config.spec.test_samples = 256;
  config.spec.seed = seed;
  config.num_clients = clients;
  config.clients_per_round = 8;
  config.rounds = updates;
  config.batch_size = 10;
  config.local_epochs = 1;
  config.optimizer.kind = nn::OptimizerConfig::Kind::kSgd;
  config.optimizer.lr = 0.05;
  config.lr_decay = 1.0;
  config.eval_every = 64;
  config.seed = seed;
  config.model = ScenarioConfig::Model::kMlp;
  config.mlp_hidden = 16;
  config.cpu_groups = sim::cifar_cpu_groups();
  config.comm_seconds = 0.0;
  config.jitter_sigma = 0.05;
  config.cost = sim::CostModel{0.01, 1.0};
  config.profiler.tmax = 1000.0;
  config.lazy.samples_per_client = 50;
  config.lazy.spread = 0.5;
  return config;
}

fl::AsyncConfig recovery_async(std::size_t updates) {
  fl::AsyncConfig async;
  async.staleness = fl::StalenessFn::kInverseFrequency;
  async.total_updates = updates;
  async.clients_per_tier_round = 8;
  async.eval_every = 64;
  // Churn + a little update loss: the durability machinery has to carry
  // the dynamic path's full state (membership, in-flight cohorts, fault
  // streams), so that is what the bench prices.
  async.churn.join_rate = 0.5;
  async.churn.leave_rate = 0.5;
  async.churn.slowdown_rate = 1.0;
  async.fault.loss_prob = 0.05;
  return async;
}

struct RunPoint {
  std::string label;
  double build_seconds = 0.0;
  double run_seconds = 0.0;
  std::size_t events = 0;
  std::size_t updates = 0;
  std::uint64_t final_weight_hash = 0;
  // Checkpoint accounting (zero for the baseline point).
  std::size_t snapshots = 0;
  double snapshot_mean_kib = 0.0;
  double snapshot_mean_ms = 0.0;
  double snapshot_mean_loop_ms = 0.0;
};

// Runs the async engine over a fresh federation; throws sim::SimulatedCrash
// through when `async.fault.crash_at` fires.
RunPoint run_point(const std::string& label, std::size_t clients,
                   std::size_t updates, const fl::AsyncConfig& async) {
  RunPoint point;
  point.label = label;
  obs::Registry::global().reset();

  double t0 = now_seconds();
  Scenario scenario =
      build_virtual_scenario(recovery_config(clients, updates, /*seed=*/1));
  point.build_seconds = now_seconds() - t0;

  t0 = now_seconds();
  const fl::AsyncRunResult run = scenario.system->run_async(async);
  point.run_seconds = now_seconds() - t0;

  point.events = run.processed_events;
  point.updates = run.result.rounds.size();
  point.final_weight_hash = weight_hash(run.final_weights);
  obs::Registry& reg = obs::Registry::global();
  point.snapshots = reg.counter("checkpoint.writes").value();
  if (point.snapshots > 0) {
    point.snapshot_mean_kib =
        static_cast<double>(reg.counter("checkpoint.bytes").value()) /
        static_cast<double>(point.snapshots) / 1024.0;
    point.snapshot_mean_ms =
        static_cast<double>(reg.counter("checkpoint.write_ns").value()) /
        static_cast<double>(point.snapshots) / 1e6;
    point.snapshot_mean_loop_ms =
        static_cast<double>(reg.counter("checkpoint.loop_ns").value()) /
        static_cast<double>(point.snapshots) / 1e6;
  }
  return point;
}

// Virtual span of the run: the last global version's event timestamp.
double virtual_span(std::size_t clients, std::size_t updates) {
  obs::Registry::global().reset();
  Scenario scenario =
      build_virtual_scenario(recovery_config(clients, updates, /*seed=*/1));
  const fl::AsyncRunResult run =
      scenario.system->run_async(recovery_async(updates));
  return run.result.rounds.back().virtual_time;
}

}  // namespace
}  // namespace tifl::bench

int main(int argc, char** argv) {
  using namespace tifl;
  using bench::RunPoint;

  util::set_log_level(util::LogLevel::kWarn);
  bool smoke = false;
  std::string json_path = "BENCH_recovery.json";
  std::size_t clients = 2000;
  std::size_t updates = 1024;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--smoke") {
        smoke = true;
      } else if (arg == "--json" && i + 1 < argc) {
        json_path = argv[++i];
      } else if (arg == "--clients" && i + 1 < argc) {
        clients = util::parse_count("clients", argv[++i]);
      } else if (arg == "--updates" && i + 1 < argc) {
        updates = util::parse_count("updates", argv[++i]);
      } else {
        std::fprintf(stderr,
                     "usage: bench_recovery [--smoke] [--clients N] "
                     "[--updates N] [--json PATH]\n");
        return 2;
      }
    }
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "bench_recovery: %s\n", error.what());
    return 1;
  }
  if (smoke) {
    clients = 500;
    updates = 256;
  }

  const std::string snap = json_path + ".snap";
  const std::string elog = json_path + ".elog";
  std::remove(snap.c_str());
  std::remove(elog.c_str());

  // The checkpoint cadence and crash point are fractions of the run's
  // virtual span, which takes one throwaway run to discover.
  const double span = bench::virtual_span(clients, updates);
  std::printf("recovery bench: %zu clients, %zu updates, span %.1f s\n",
              clients, updates, span);

  const auto print_row = [](const RunPoint& r) {
    std::printf(
        "%-14s %9.2f %9.2f %8zu %8zu  %016llx %5zu %9.1f %8.2f %8.2f\n",
        r.label.c_str(), r.build_seconds, r.run_seconds, r.updates, r.events,
        static_cast<unsigned long long>(r.final_weight_hash), r.snapshots,
        r.snapshot_mean_kib, r.snapshot_mean_ms, r.snapshot_mean_loop_ms);
  };
  std::printf("%-14s %9s %9s %8s %8s  %-16s %5s %9s %8s %8s\n", "point",
              "build [s]", "run [s]", "updates", "events", "hash", "snaps",
              "KiB/snap", "ms/snap", "loop ms");

  const fl::AsyncConfig base_async = bench::recovery_async(updates);
  const RunPoint baseline =
      bench::run_point("baseline", clients, updates, base_async);
  print_row(baseline);

  fl::AsyncConfig checkpointed = base_async;
  checkpointed.checkpoint_every = span / 8.0;
  checkpointed.checkpoint_path = snap;
  checkpointed.event_log_path = elog;
  const RunPoint with_checkpoints =
      bench::run_point("checkpointed", clients, updates, checkpointed);
  print_row(with_checkpoints);

  fl::AsyncConfig crashing = checkpointed;
  crashing.fault.crash_at = 0.6 * span;
  double crash_seconds = 0.0;
  bool crashed = false;
  const double crash_t0 = bench::now_seconds();
  try {
    bench::run_point("crash", clients, updates, crashing);
  } catch (const sim::SimulatedCrash&) {
    crashed = true;
    crash_seconds = bench::now_seconds() - crash_t0;
  }
  if (!crashed) {
    std::fprintf(stderr, "FATAL: injected crash at t=%.1f never fired\n",
                 crashing.fault.crash_at);
    return 1;
  }

  fl::AsyncConfig resuming = checkpointed;
  resuming.resume_path = snap;
  const RunPoint resumed =
      bench::run_point("resumed", clients, updates, resuming);
  print_row(resumed);

  const double overhead =
      baseline.run_seconds > 0.0
          ? (with_checkpoints.run_seconds - baseline.run_seconds) /
                baseline.run_seconds
          : 0.0;
  const double saved =
      baseline.run_seconds > 0.0
          ? 1.0 - resumed.run_seconds / baseline.run_seconds
          : 0.0;
  std::printf(
      "checkpoint overhead %.1f%%; crashed leg %.2f s; resume replayed the "
      "tail in %.2f s (%.1f%% of a from-scratch rerun saved)\n",
      overhead * 100.0, crash_seconds, resumed.run_seconds, saved * 100.0);

  // Correctness gate: every completed point must land on the baseline's
  // weights, bit for bit.
  for (const RunPoint* point : {&with_checkpoints, &resumed}) {
    if (point->final_weight_hash != baseline.final_weight_hash) {
      std::fprintf(stderr,
                   "FATAL: %s final weights diverged (%016llx vs baseline "
                   "%016llx)\n",
                   point->label.c_str(),
                   static_cast<unsigned long long>(point->final_weight_hash),
                   static_cast<unsigned long long>(baseline.final_weight_hash));
      return 1;
    }
  }

  const auto emit = [](std::ofstream& json, const RunPoint& r) {
    json << "    {\"label\": \"" << r.label << "\""
         << ", \"build_seconds\": " << r.build_seconds
         << ", \"run_seconds\": " << r.run_seconds
         << ", \"updates\": " << r.updates << ", \"events\": " << r.events
         << ", \"final_weight_hash\": \"" << std::hex << r.final_weight_hash
         << std::dec << "\""
         << ", \"snapshots\": " << r.snapshots
         << ", \"snapshot_mean_kib\": " << r.snapshot_mean_kib
         << ", \"snapshot_mean_ms\": " << r.snapshot_mean_ms
         << ", \"snapshot_mean_loop_ms\": " << r.snapshot_mean_loop_ms
         << "}";
  };
  std::ofstream json(json_path);
  json << "{\n  \"bench\": \"recovery\",\n  \"build\": "
       << bench::build_header_json() << ",\n  \"smoke\": "
       << (smoke ? "true" : "false") << ",\n  \"clients\": " << clients
       << ",\n  \"updates\": " << updates << ",\n  \"span\": " << span
       << ",\n  \"checkpoint_overhead\": " << overhead
       << ",\n  \"crash_seconds\": " << crash_seconds
       << ",\n  \"resume_saved_fraction\": " << saved << ",\n  \"points\": [\n";
  const std::vector<const RunPoint*> points = {&baseline, &with_checkpoints,
                                               &resumed};
  for (std::size_t i = 0; i < points.size(); ++i) {
    emit(json, *points[i]);
    json << (i + 1 < points.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::printf("wrote %s\n", json_path.c_str());
  std::remove(snap.c_str());
  std::remove(elog.c_str());
  return 0;
}
