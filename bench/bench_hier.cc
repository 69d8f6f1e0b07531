// Hierarchical aggregation benchmark: what a regional aggregator tree
// buys (and costs) against the flat async engine.
//
// Three runs over the same MNIST-shaped scenario (identical seed and
// federation, fresh build per point):
//
//   1. flat      — the async engine via a single-node topology (the tree
//                  engine's collapse path, so the comparison shares every
//                  code path the tree adds).
//   2. 2 regions — clients split across two regional aggregators under
//                  one root; regional links cost latency + bandwidth.
//   3. 4 regions — the same population under four regional aggregators.
//
// For each point the bench reports time-to-accuracy (virtual seconds to
// reach 90% of the flat run's final accuracy), final accuracy, and the
// bytes shipped over the root's uplinks — the quantity a hierarchy
// exists to compress: leaves aggregate locally and only report every
// `report-every` tier rounds, so the root link carries a fraction of the
// model traffic the flat server would see.  Results land in
// BENCH_hier.json with each point's obs:: metrics snapshot embedded.
//
// Flags: --smoke (short run), --rounds N, --scale S, --report-every N,
//        --json PATH.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.h"
#include "obs/metrics.h"
#include "scenarios.h"
#include "util/cli.h"
#include "util/log.h"

namespace tifl::bench {
namespace {

struct HierPoint {
  std::string label;
  std::size_t regions = 0;  // 0 = flat
  double final_accuracy = 0.0;
  double time_to_target = -1.0;  // virtual s; -1 = never reached
  double virtual_span = 0.0;
  std::uint64_t root_link_bytes = 0;
  std::size_t uplinks = 0;
  std::size_t downlinks = 0;
  std::size_t rounds = 0;
  std::string metrics_json;
};

double time_to(const fl::RunResult& result, double target) {
  for (const fl::RoundRecord& round : result.rounds) {
    if (round.global_accuracy >= target) return round.virtual_time;
  }
  return -1.0;
}

}  // namespace
}  // namespace tifl::bench

int main(int argc, char** argv) {
  using namespace tifl;
  using bench::HierPoint;

  util::set_log_level(util::LogLevel::kWarn);
  bench::BenchOptions options;
  options.scale = 0.05;
  options.rounds = 40;
  std::size_t report_every = 2;
  std::string json_path = "BENCH_hier.json";
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--smoke") {
        options.scale = 0.02;
        options.rounds = 8;
      } else if (arg == "--rounds" && i + 1 < argc) {
        options.rounds = util::parse_count("rounds", argv[++i]);
      } else if (arg == "--scale" && i + 1 < argc) {
        options.scale = util::parse_double("scale", argv[++i]);
      } else if (arg == "--report-every" && i + 1 < argc) {
        report_every = util::parse_count("report-every", argv[++i]);
      } else if (arg == "--json" && i + 1 < argc) {
        json_path = argv[++i];
      } else {
        std::fprintf(stderr,
                     "usage: bench_hier [--smoke] [--rounds N] [--scale S] "
                     "[--report-every N] [--json PATH]\n");
        return 2;
      }
    }
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "bench_hier: %s\n", error.what());
    return 1;
  }

  // The flat point doubles as the accuracy yardstick: every tree run is
  // measured against 90% of what the flat server reached.  Re-run its
  // series through `time_to` once the target is known.
  std::vector<HierPoint> points;
  const struct {
    const char* label;
    std::size_t regions;
  } kPoints[] = {{"flat", 0}, {"2 regions", 2}, {"4 regions", 4}};

  std::vector<fl::hier::HierRunResult> keep;  // keep series alive for time_to
  for (const auto& p : kPoints) {
    obs::Registry::global().reset();
    bench::Scenario scenario =
        bench::build_scenario(bench::mnist_scenario(options, false));
    fl::hier::HierConfig hier;
    if (p.regions <= 1) {
      hier.topology = fl::hier::Topology::flat();
    } else {
      hier.topology = fl::hier::Topology::regions(p.regions);
      for (std::size_t n = 1; n < hier.topology.nodes.size(); ++n) {
        hier.topology.nodes[n].link.latency_seconds = 0.05;
        hier.topology.nodes[n].link.bandwidth_mbps = 100.0;
        hier.topology.nodes[n].report_every = report_every;
      }
    }
    fl::AsyncConfig async;
    async.staleness = fl::StalenessFn::kInverseFrequency;
    async.eval_every = 1;
    keep.push_back(scenario.system->run_hier(std::move(hier), async));
    const fl::hier::HierRunResult& run = keep.back();

    HierPoint point;
    point.label = p.label;
    point.regions = p.regions;
    point.final_accuracy = run.result.final_accuracy();
    point.virtual_span = run.result.total_time();
    point.root_link_bytes = run.root_link_bytes;
    point.uplinks = run.uplinks;
    point.downlinks = run.downlinks;
    point.rounds = run.result.rounds.size();
    point.metrics_json = obs::Registry::global().to_json();
    points.push_back(std::move(point));
  }

  const double target = 0.9 * points[0].final_accuracy;
  for (std::size_t i = 0; i < points.size(); ++i) {
    points[i].time_to_target = bench::time_to(keep[i].result, target);
  }

  std::printf("hier bench: %zu rounds, scale %.3f, report-every %zu, "
              "target accuracy %.2f%%\n",
              options.rounds, options.scale, report_every, target * 100.0);
  std::printf("%-10s %8s %10s %12s %14s %8s %8s\n", "point", "rounds",
              "acc [%]", "t->target", "root [KiB]", "uplinks", "downlinks");
  for (const HierPoint& p : points) {
    std::printf("%-10s %8zu %10.2f %12.2f %14.1f %8zu %8zu\n",
                p.label.c_str(), p.rounds, p.final_accuracy * 100.0,
                p.time_to_target,
                static_cast<double>(p.root_link_bytes) / 1024.0, p.uplinks,
                p.downlinks);
  }

  std::ofstream json(json_path);
  json << "{\n  \"bench\": \"hier\",\n  \"rounds\": " << options.rounds
       << ",\n  \"scale\": " << options.scale
       << ",\n  \"report_every\": " << report_every
       << ",\n  \"target_accuracy\": " << target << ",\n  \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const HierPoint& p = points[i];
    json << "    {\"label\": \"" << p.label << "\""
         << ", \"regions\": " << p.regions
         << ", \"rounds\": " << p.rounds
         << ", \"final_accuracy\": " << p.final_accuracy
         << ", \"time_to_target\": " << p.time_to_target
         << ", \"virtual_span\": " << p.virtual_span
         << ", \"root_link_bytes\": " << p.root_link_bytes
         << ", \"uplinks\": " << p.uplinks
         << ", \"downlinks\": " << p.downlinks << ",\n     \"metrics\": "
         << p.metrics_json << "}";
    json << (i + 1 < points.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}
