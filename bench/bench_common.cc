#include "bench_common.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "tensor/gemm.h"
#include "util/log.h"
#include "util/table.h"

// Build facts the root CMakeLists passes in; other builds of this file say
// "unknown" rather than guess.
#ifndef TIFL_BUILD_TYPE
#define TIFL_BUILD_TYPE "unknown"
#endif
#ifndef TIFL_BUILD_FLAGS
#define TIFL_BUILD_FLAGS "unknown"
#endif
#ifndef TIFL_SOURCE_DIR
#define TIFL_SOURCE_DIR "."
#endif

namespace tifl::bench {

BenchOptions BenchOptions::from_cli(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  BenchOptions options;
  options.full = cli.get_bool("full");
  options.scale = cli.get_double("scale", 0.0);
  options.rounds = static_cast<std::size_t>(cli.get_int("rounds", 0));
  options.runs = static_cast<std::size_t>(cli.get_int("runs", 1));
  options.csv_dir = cli.get("csv", "");
  options.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  util::set_log_level(util::LogLevel::kWarn);  // keep tables clean
  return options;
}

void ScenarioConfig::apply(const BenchOptions& options) {
  if (options.full) {
    // Paper scale: 500 rounds (2000 for LEAF), full-geometry datasets.
    rounds = partition == Partition::kLeaf ? 2000 : 500;
    const double full_scale = 1.0;
    spec.dims.height = std::max<std::int64_t>(spec.dims.height, 8);
    (void)full_scale;
  }
  if (options.rounds > 0) rounds = options.rounds;
  if (options.seed != 1) seed = options.seed;
}

namespace {

data::Partition make_partition(const ScenarioConfig& config,
                               const data::Dataset& train, util::Rng& rng) {
  switch (config.partition) {
    case ScenarioConfig::Partition::kIid:
      return data::partition_iid(train, config.num_clients, rng);
    case ScenarioConfig::Partition::kClasses:
      return data::partition_classes(train, config.num_clients,
                                     config.classes_per_client, rng);
    case ScenarioConfig::Partition::kQuantity:
      return data::partition_quantity(train, config.num_clients,
                                      config.quantity_fractions, rng);
    case ScenarioConfig::Partition::kClassesQuantity: {
      // Per-client weights: each group's fraction split over its members;
      // group ids follow the (ordered) resource-group blocks.
      const std::size_t groups = std::max<std::size_t>(
          1, config.quantity_fractions.size());
      data::ClassSkewOptions skew;
      skew.classes_per_client = config.classes_per_client;
      skew.group_class_affinity = config.group_class_affinity;
      skew.client_weights.assign(config.num_clients, 1.0);
      skew.client_groups.assign(config.num_clients, 0);
      for (std::size_t c = 0; c < config.num_clients; ++c) {
        const std::size_t g = c * groups / config.num_clients;
        if (!config.quantity_fractions.empty()) {
          skew.client_weights[c] = config.quantity_fractions[g];
        }
        skew.client_groups[c] = g;
      }
      return data::partition_classes_skewed(train, config.num_clients, skew,
                                            rng);
    }
    case ScenarioConfig::Partition::kLeaf: {
      data::LeafOptions leaf = config.leaf;
      leaf.num_clients = config.num_clients;
      return data::partition_leaf(train, leaf, rng);
    }
  }
  throw std::logic_error("make_partition: unknown partition kind");
}

nn::ModelFactory make_factory(const ScenarioConfig& config) {
  const data::ImageDims dims = config.spec.dims;
  const std::int64_t classes = config.spec.classes;
  const nn::ImageGeometry geometry{dims.channels, dims.height, dims.width};
  switch (config.model) {
    case ScenarioConfig::Model::kMlp: {
      const std::int64_t hidden = config.mlp_hidden;
      return [inputs = dims.flat(), hidden, classes](std::uint64_t seed) {
        return nn::mlp(inputs, hidden, classes, seed);
      };
    }
    case ScenarioConfig::Model::kMnistCnn:
      return [geometry, classes](std::uint64_t seed) {
        return nn::mnist_cnn(geometry, classes, seed);
      };
    case ScenarioConfig::Model::kCifarCnn:
      return [geometry, classes](std::uint64_t seed) {
        return nn::cifar_cnn(geometry, classes, seed);
      };
    case ScenarioConfig::Model::kFemnistCnn:
      return [geometry, classes, hidden = config.femnist_hidden](
                 std::uint64_t seed) {
        return nn::femnist_cnn(geometry, classes, seed, hidden);
      };
  }
  throw std::logic_error("make_factory: unknown model kind");
}

core::SystemConfig make_system_config(const ScenarioConfig& config) {
  core::SystemConfig system_config;
  system_config.num_tiers = config.num_tiers;
  system_config.profiler = config.profiler;
  system_config.clients_per_round = config.clients_per_round;
  system_config.engine.rounds = config.rounds;
  system_config.engine.time_budget_seconds = config.time_budget_seconds;
  system_config.engine.local.epochs = config.local_epochs;
  system_config.engine.local.batch_size = config.batch_size;
  system_config.engine.local.optimizer = config.optimizer;
  system_config.engine.lr_decay_per_round = config.lr_decay;
  system_config.engine.eval_every = config.eval_every;
  system_config.engine.seed = config.seed;
  system_config.profile_seed = util::mix_seed(config.seed, 0x9806);
  return system_config;
}

}  // namespace

Scenario build_scenario(ScenarioConfig config) {
  // The CNN stacks have minimum viable input sizes (the CIFAR net loses
  // 2+2 pixels to valid convolutions around two 2x pools); clamp the
  // geometry up when a scaled-down spec would underflow a layer.
  std::int64_t min_hw = 1;
  switch (config.model) {
    case ScenarioConfig::Model::kCifarCnn: min_hw = 12; break;
    case ScenarioConfig::Model::kMnistCnn: min_hw = 8; break;
    case ScenarioConfig::Model::kFemnistCnn: min_hw = 8; break;
    case ScenarioConfig::Model::kMlp: min_hw = 1; break;
  }
  if (config.spec.dims.height < min_hw || config.spec.dims.width < min_hw) {
    util::log_warn("scenario '", config.name, "': raising image size to ",
                   min_hw, "x", min_hw, " for the selected CNN");
    config.spec.dims.height = std::max(config.spec.dims.height, min_hw);
    config.spec.dims.width = std::max(config.spec.dims.width, min_hw);
  }

  Scenario scenario;
  scenario.data =
      std::make_unique<data::SyntheticData>(data::make_synthetic(config.spec));

  util::Rng rng(util::mix_seed(config.seed, 0xDA7A));
  const data::Partition partition =
      make_partition(config, scenario.data->train, rng);

  // LEAF's writers differ in style, not just content: add per-writer
  // brightness/contrast skew on each client's own samples.
  if (config.partition == ScenarioConfig::Partition::kLeaf) {
    for (const auto& shard : partition) {
      const float gain = static_cast<float>(rng.normal(1.0, 0.08));
      const float bias = static_cast<float>(rng.normal(0.0, 0.05));
      scenario.data->train.apply_feature_skew(shard, gain, bias);
    }
  }

  if (config.calibrate_samples > 0.0) {
    double mean_shard = 0.0;
    for (const auto& shard : partition) {
      mean_shard += static_cast<double>(shard.size());
    }
    mean_shard /= static_cast<double>(partition.size());
    if (mean_shard > 0.0) {
      config.cost.seconds_per_sample *=
          config.calibrate_samples / mean_shard;
    }
  }
  const auto test_shards = data::matched_test_indices(
      scenario.data->train, partition, scenario.data->test, rng);
  const auto resources = sim::assign_equal_groups(
      config.num_clients, config.cpu_groups, config.comm_seconds,
      config.jitter_sigma, rng, config.shuffle_groups);
  auto clients = fl::make_clients(&scenario.data->train, partition,
                                  test_shards, resources);

  scenario.system = std::make_unique<core::TiflSystem>(
      make_system_config(config), make_factory(config), &scenario.data->test,
      std::move(clients), sim::LatencyModel(config.cost));
  scenario.config = std::move(config);
  return scenario;
}

Scenario build_virtual_scenario(ScenarioConfig config) {
  Scenario scenario;
  scenario.data =
      std::make_unique<data::SyntheticData>(data::make_synthetic(config.spec));
  const std::size_t dataset_size = scenario.data->train.size();

  util::Rng rng(util::mix_seed(config.seed, 0xDA7A));
  data::LazyShards shards(dataset_size, config.num_clients, config.lazy,
                          util::mix_seed(config.seed, 0x1A2));

  if (config.calibrate_samples > 0.0) {
    // Mean shard size is the lazy base (spread jitter is symmetric), so
    // the same latency calibration as the materialized path applies.
    double mean_shard = 0.0;
    for (std::size_t probe = 0;
         probe < std::min<std::size_t>(config.num_clients, 1024); ++probe) {
      mean_shard += static_cast<double>(shards.shard_size(probe));
    }
    mean_shard /= static_cast<double>(
        std::min<std::size_t>(config.num_clients, 1024));
    if (mean_shard > 0.0) {
      config.cost.seconds_per_sample *= config.calibrate_samples / mean_shard;
    }
  }

  fl::ClientPool::VirtualConfig pool_config;
  pool_config.train = &scenario.data->train;
  pool_config.shards = std::move(shards);
  pool_config.profiles = sim::assign_equal_groups(
      config.num_clients, config.cpu_groups, config.comm_seconds,
      config.jitter_sigma, rng, config.shuffle_groups);
  pool_config.cache_capacity =
      std::max(config.pool_cache_capacity, 4 * config.clients_per_round);

  scenario.system = std::make_unique<core::TiflSystem>(
      make_system_config(config), make_factory(config), &scenario.data->test,
      fl::ClientPool(std::move(pool_config)),
      sim::LatencyModel(config.cost));
  scenario.config = std::move(config);
  return scenario;
}

namespace {

std::unique_ptr<fl::SelectionPolicy> make_policy(core::TiflSystem& system,
                                                 const std::string& name) {
  // All names — "vanilla", "overprovision", "deadline", "adaptive"/"TiFL",
  // the Table 1 presets, and any user-registered policy — resolve through
  // the registry, bound to this system's tiering/profiling snapshot.
  auto policy = system.make_policy(name);
  if (!policy->supports(fl::EngineKind::kSync)) {
    throw std::invalid_argument(
        "policy '" + name + "' does not support the sync engine "
        "(sync-capable: " +
        fl::join_policy_names(fl::PolicyRegistry::instance().names(
            fl::EngineKind::kSync)) +
        ")");
  }
  return policy;
}

}  // namespace

std::vector<PolicyRun> run_policies(Scenario& scenario,
                                    const std::vector<std::string>& names,
                                    const BenchOptions& options) {
  std::vector<PolicyRun> runs;
  runs.reserve(names.size());
  for (const std::string& name : names) {
    PolicyRun run;
    run.policy = name;
    {
      auto policy = make_policy(*scenario.system, name);
      run.result = scenario.system->run(*policy);
      run.result.policy_name = name;  // presets report Table 1 names
    }
    // Additional seeds: average the headline numbers into the last round
    // record so tables show means while series keep the first run's shape.
    if (options.runs > 1 && !run.result.rounds.empty()) {
      double time_sum = run.result.total_time();
      double acc_sum = run.result.final_accuracy();
      for (std::size_t extra = 1; extra < options.runs; ++extra) {
        // Fresh policy instance + shifted engine seed per repeat.
        auto policy = make_policy(*scenario.system, name);
        fl::RunResult repeat = scenario.system->run(
            *policy, util::mix_seed(options.seed, extra, 0xBEEF));
        time_sum += repeat.total_time();
        acc_sum += repeat.final_accuracy();
      }
      fl::RoundRecord& last = run.result.rounds.back();
      const double n = static_cast<double>(options.runs);
      last.virtual_time = time_sum / n;
      last.global_accuracy = acc_sum / n;
    }
    std::cerr << "  [" << scenario.config.name << "] " << name << ": time "
              << util::format_double(run.result.total_time(), 1)
              << "s, final acc "
              << util::format_double(run.result.final_accuracy(), 4) << "\n";
    runs.push_back(std::move(run));
  }
  return runs;
}

void print_time_table(const std::string& title,
                      const std::vector<PolicyRun>& runs,
                      const std::string& baseline) {
  double base_time = 0.0;
  for (const PolicyRun& run : runs) {
    if (run.policy == baseline) base_time = run.result.total_time();
  }
  util::TablePrinter table(
      {"policy", "training time [s]", "time [10^3 s]", "speedup vs " + baseline});
  for (const PolicyRun& run : runs) {
    const double t = run.result.total_time();
    table.add_row({run.policy, util::format_double(t, 1),
                   util::format_double(t / 1000.0, 2),
                   base_time > 0 && t > 0
                       ? util::format_double(base_time / t, 2) + "x"
                       : "-"});
  }
  std::cout << "\n== " << title << " ==\n" << table.to_string();
}

namespace {
std::vector<std::size_t> sample_marks(std::size_t total, std::size_t points) {
  std::vector<std::size_t> marks;
  points = std::max<std::size_t>(2, std::min(points, total));
  for (std::size_t p = 1; p <= points; ++p) {
    marks.push_back(p * total / points - 1);
  }
  return marks;
}
}  // namespace

void print_accuracy_over_rounds(const std::string& title,
                                const std::vector<PolicyRun>& runs,
                                std::size_t points) {
  if (runs.empty() || runs.front().result.rounds.empty()) return;
  const std::size_t total = runs.front().result.rounds.size();
  const std::vector<std::size_t> marks = sample_marks(total, points);

  std::vector<std::string> headers{"round"};
  for (const PolicyRun& run : runs) headers.push_back(run.policy);
  util::TablePrinter table(std::move(headers));
  for (std::size_t mark : marks) {
    std::vector<std::string> row{std::to_string(mark + 1)};
    for (const PolicyRun& run : runs) {
      const auto& rounds = run.result.rounds;
      const std::size_t idx = std::min(mark, rounds.size() - 1);
      row.push_back(util::format_double(rounds[idx].global_accuracy, 4));
    }
    table.add_row(std::move(row));
  }
  std::cout << "\n== " << title << " (accuracy over rounds) ==\n"
            << table.to_string();
}

void print_accuracy_over_time(const std::string& title,
                              const std::vector<PolicyRun>& runs,
                              std::size_t points) {
  if (runs.empty()) return;
  // Time axis spans the fastest policy's completion (the paper plots a
  // fixed window where slow policies appear truncated).
  double horizon = 0.0;
  for (const PolicyRun& run : runs) {
    if (run.result.total_time() > 0) {
      horizon = horizon == 0.0
                    ? run.result.total_time()
                    : std::min(horizon, run.result.total_time());
    }
  }
  if (horizon <= 0.0) return;

  std::vector<std::string> headers{"time [s]"};
  for (const PolicyRun& run : runs) headers.push_back(run.policy);
  util::TablePrinter table(std::move(headers));
  for (std::size_t p = 1; p <= points; ++p) {
    const double t = horizon * static_cast<double>(p) /
                     static_cast<double>(points);
    std::vector<std::string> row{util::format_double(t, 0)};
    for (const PolicyRun& run : runs) {
      row.push_back(util::format_double(run.result.accuracy_at_time(t), 4));
    }
    table.add_row(std::move(row));
  }
  std::cout << "\n== " << title << " (accuracy over wall-clock time) ==\n"
            << table.to_string();
}

void print_accuracy_table(const std::string& title,
                          const std::vector<PolicyRun>& runs) {
  util::TablePrinter table({"policy", "final accuracy [%]", "best [%]"});
  for (const PolicyRun& run : runs) {
    table.add_row({run.policy,
                   util::format_double(run.result.final_accuracy() * 100, 2),
                   util::format_double(run.result.best_accuracy() * 100, 2)});
  }
  std::cout << "\n== " << title << " ==\n" << table.to_string();
}

void maybe_write_csv(const BenchOptions& options, const std::string& figure,
                     const std::vector<PolicyRun>& runs) {
  if (options.csv_dir.empty()) return;
  for (const PolicyRun& run : runs) {
    run.result.write_csv(options.csv_dir + "/" + figure + "_" + run.policy +
                         ".csv");
  }
}

void print_tiering(const core::TiflSystem& system) {
  util::TablePrinter table({"tier", "clients", "avg latency [s]"});
  const core::TierInfo& tiers = system.tiers();
  for (std::size_t t = 0; t < tiers.tier_count(); ++t) {
    table.add_row({"tier " + std::to_string(t + 1),
                   std::to_string(tiers.members[t].size()),
                   util::format_double(tiers.avg_latency[t], 2)});
  }
  std::cout << "\n== tiering (" << tiers.tier_count() << " tiers, "
            << tiers.dropouts.size() << " dropouts) ==\n"
            << table.to_string();
}

util::TablePrinter async_cadence_table(const fl::AsyncRunResult& run) {
  util::TablePrinter table({"tier", "updates", "mean staleness",
                            "final weight"});
  for (std::size_t t = 0; t < run.tier_updates.size(); ++t) {
    table.add_row({"tier " + std::to_string(t + 1),
                   std::to_string(run.tier_updates[t]),
                   util::format_double(run.mean_staleness[t], 2),
                   util::format_double(run.final_tier_weights[t], 3)});
  }
  return table;
}

namespace {

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

// The checkout's revision at run time, "-dirty" when it has local edits.
std::string git_rev() {
  const std::string command = std::string("git -C \"") + TIFL_SOURCE_DIR +
                              "\" describe --always --dirty --abbrev=12 "
                              "2>/dev/null";
  std::string rev;
  if (FILE* pipe = popen(command.c_str(), "r")) {
    char buffer[128];
    while (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) rev += buffer;
    pclose(pipe);
  }
  while (!rev.empty() && (rev.back() == '\n' || rev.back() == ' ')) {
    rev.pop_back();
  }
  return rev.empty() ? "unknown" : rev;
}

}  // namespace

std::string build_header_json() {
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("g++ ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  std::ostringstream out;
  out << "{\"compiler\": " << json_string(compiler)
      << ", \"build_type\": " << json_string(TIFL_BUILD_TYPE)
      << ", \"flags\": " << json_string(TIFL_BUILD_FLAGS)
      << ", \"cpu\": " << json_string(cpu_model())
      << ", \"gemm_isa\": "
      << json_string(tensor::detail::active_microkernel().isa)
      << ", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"git_rev\": " << json_string(git_rev()) << "}";
  return out.str();
}

}  // namespace tifl::bench
