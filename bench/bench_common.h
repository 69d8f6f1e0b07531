// Shared scaffolding for the table/figure reproduction binaries.
//
// Every bench builds one or more `ScenarioConfig`s (dataset + partition +
// resource groups + engine parameters), turns them into a live
// `core::TiflSystem` with `build_scenario`, sweeps policies with
// `run_policies`, and prints paper-shaped tables/series via the printers
// below.  `BenchOptions::from_cli` gives all binaries the same flags:
//
//   --full          paper-scale rounds and dataset sizes (slow)
//   --rounds N      override round count
//   --scale S       dataset geometry/sample scale in (0, 1]
//   --runs R        independent seeds averaged for headline numbers
//   --csv DIR       also dump per-round series as CSV files
//   --seed S        base RNG seed
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/deadline_policy.h"
#include "core/system.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "nn/model_zoo.h"
#include "util/cli.h"
#include "util/table.h"

namespace tifl::bench {

struct BenchOptions {
  bool full = false;
  double scale = 0.0;          // 0 = use scenario default
  std::size_t rounds = 0;      // 0 = use scenario default
  std::size_t runs = 1;
  std::string csv_dir;
  std::uint64_t seed = 1;

  // The flags from_cli reads (tools that reject unknown flags accept
  // these too).
  static constexpr std::array<std::string_view, 6> kFlags = {
      "full", "scale", "rounds", "runs", "csv", "seed"};

  static BenchOptions from_cli(int argc, char** argv);
};

struct ScenarioConfig {
  std::string name;

  // Dataset + partition.
  data::SyntheticSpec spec;
  enum class Partition { kIid, kClasses, kQuantity, kClassesQuantity, kLeaf };
  Partition partition = Partition::kIid;
  std::size_t classes_per_client = 5;            // kClasses[Quantity]
  std::vector<double> quantity_fractions;        // kQuantity / k..Quantity
  // kClassesQuantity only: correlation between a client's resource group
  // and the classes it holds (data::ClassSkewOptions affinity).  0 keeps
  // class draws independent of the group.
  double group_class_affinity = 0.0;
  data::LeafOptions leaf;                        // kLeaf

  // Clients + resources.
  std::size_t num_clients = 50;
  std::vector<double> cpu_groups = sim::cifar_cpu_groups();
  double comm_seconds = 0.5;
  double jitter_sigma = 0.05;
  bool shuffle_groups = false;
  sim::CostModel cost = sim::cifar_cost_model();
  // When > 0, per-sample compute cost is rescaled so the *mean* client
  // shard costs as much as `calibrate_samples` paper-scale samples would.
  // Keeps simulated round latencies at the paper's magnitudes even when
  // the synthetic dataset is scaled down for CI speed.
  double calibrate_samples = 0.0;

  // Engine.
  std::size_t rounds = 80;
  double time_budget_seconds = 0.0;  // §4.5 finite budget; 0 = unlimited
  std::size_t clients_per_round = 5;
  std::size_t local_epochs = 1;
  std::size_t batch_size = 10;
  std::size_t eval_every = 1;
  nn::OptimizerConfig optimizer;  // RMSprop lr 0.01 decay handled by engine
  double lr_decay = 0.995;
  std::uint64_t seed = 1;

  // Model: an MLP by default (fast enough for CI-scale benches); the CNN
  // stacks from the model zoo are selectable for paper-faithful runs.
  enum class Model { kMlp, kMnistCnn, kCifarCnn, kFemnistCnn };
  Model model = Model::kMlp;
  std::int64_t mlp_hidden = 32;
  std::int64_t femnist_hidden = 128;

  // TiFL.
  std::size_t num_tiers = 5;
  core::ProfilerConfig profiler;

  // Virtualized population (build_virtual_scenario): per-client lazy
  // shard sizing and the ClientPool's live-client cache bound.
  data::LazyShardOptions lazy;
  std::size_t pool_cache_capacity = 64;

  void apply(const BenchOptions& options);
};

// A live scenario: the datasets are heap-allocated so client/system
// pointers stay valid for the lifetime of the struct.
struct Scenario {
  std::unique_ptr<data::SyntheticData> data;
  std::unique_ptr<core::TiflSystem> system;
  ScenarioConfig config;
};

Scenario build_scenario(ScenarioConfig config);

// Million-client variant: instead of materializing a partition and a
// Client per id, backs the system with a virtualized fl::ClientPool
// (lazy IID shards over a shared permutation + per-client profiles).
// Memory is O(dataset + num_clients * sizeof(profile)) — independent of
// how many clients ever train.  Only `run_async` is available on the
// resulting system; the partition/model knobs of `config` are honored
// except the partition scheme, which is IID by construction.
Scenario build_virtual_scenario(ScenarioConfig config);

struct PolicyRun {
  std::string policy;
  fl::RunResult result;
};

// Runs each named policy through the scenario's system.  Recognized names:
// "vanilla", "adaptive", and every Table 1 preset.  When `runs > 1`, the
// run is repeated with shifted seeds and the *first* run's series is kept
// while total time / final accuracy are averaged in-place.
std::vector<PolicyRun> run_policies(Scenario& scenario,
                                    const std::vector<std::string>& names,
                                    const BenchOptions& options);

// --- printers ---------------------------------------------------------------

// Total-training-time bars (Figs. 3a/3b/5a/5b/6a/6b/7a/9a) with speedup
// relative to `baseline` (usually "vanilla").
void print_time_table(const std::string& title,
                      const std::vector<PolicyRun>& runs,
                      const std::string& baseline = "vanilla");

// Accuracy-over-rounds series sampled at `points` round marks
// (Figs. 1b/3c/3d/4/5c/5d/6c/6d/8/9b).
void print_accuracy_over_rounds(const std::string& title,
                                const std::vector<PolicyRun>& runs,
                                std::size_t points = 10);

// Accuracy-over-virtual-time series (Figs. 3e/3f/6e/6f).
void print_accuracy_over_time(const std::string& title,
                              const std::vector<PolicyRun>& runs,
                              std::size_t points = 10);

// Final/best accuracy summary (Fig. 7b-style bars).
void print_accuracy_table(const std::string& title,
                          const std::vector<PolicyRun>& runs);

// Optional CSV export of every run's per-round series.
void maybe_write_csv(const BenchOptions& options, const std::string& figure,
                     const std::vector<PolicyRun>& runs);

// Echo of the tier structure (clients per tier, avg latency).
void print_tiering(const core::TiflSystem& system);

// Per-tier cadence of an async run: submissions, mean staleness, final
// cross-tier weight.  Shared by tifl_run and the async benches.
util::TablePrinter async_cadence_table(const fl::AsyncRunResult& run);

// The build and host a BENCH_*.json record was measured on, as one JSON
// object: compiler and version, build type and flags, CPU model, the GEMM
// microkernel ISA picked at run time, hardware threads and git revision.
// Numbers from two builds of the same source can differ many times over,
// so every record carries this.
std::string build_header_json();

}  // namespace tifl::bench
