// tifl_bench — one invocation of one benchmark workload, in its own
// process, so setup time and peak RSS belong to that workload alone.
//
//   tifl_bench --workload million_churn|cnn_sync|tree_durable --seed N
//              [--size full|tiny] [--trace 0|1] [--workdir DIR]
//              [--reference-setup]
//
// Prints one JSON object on stdout: the end-to-end numbers, the layer
// numbers read from outside the program (setup spans timed here, the
// obs::Registry counters and RunResult::phases the program exports, and —
// with --trace 1 — per-nn-layer times from a timing decorator installed
// through the nn::ModelFactory seam), the run's output fingerprints, and
// the list of correctness checks that failed.  perfbench/run.py repeats
// invocations, gates them against each other and reports medians.
//
// --seed draws the federation's population: client partition, shard
// layout and resource profiles.  The program's own run seed (engine
// streams, model init, profiling) is configuration, fixed at kRunSeed.
//
// --reference-setup builds the scenario through bench::build_scenario /
// build_virtual_scenario instead of the step-by-step timed replica below.
// The presets seed population and run alike, so at --seed kRunSeed the two
// must give the same fingerprints; the self-check asserts it.
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.h"
#include "fl/hier/topology.h"
#include "fl/snapshot.h"
#include "nn/activations.h"
#include "nn/checkpoint.h"
#include "obs/metrics.h"
#include "scenarios.h"
#include "util/log.h"
#include "util/thread_pool.h"

namespace {

using namespace tifl;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

double current_rss_mb() {
  std::ifstream statm("/proc/self/statm");
  std::size_t pages = 0;
  std::size_t resident = 0;
  statm >> pages >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

// Host-wide CPU ticks from /proc/stat: {steal, total}.  On a virtual
// machine, steal is time the hypervisor ran something else while a vCPU
// had work: the host slowing the run down, not the program.
std::array<double, 2> cpu_ticks() {
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;
  double total = 0.0;
  double steal = 0.0;
  for (int field = 0; field < 8; ++field) {
    double ticks = 0.0;
    if (!(stat >> ticks)) break;
    total += ticks;
    if (field == 7) steal = ticks;
  }
  return {steal, total};
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// --- spans -------------------------------------------------------------------
// Setup steps and the run, timed around the driver's own calls into each
// layer.  Kept in memory; the traced invocation writes them out at exit.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  std::size_t open(std::string name, int parent) {
    spans_.push_back({std::move(name), parent, offset(), -1.0});
    return spans_.size() - 1;
  }
  void close(std::size_t id) { spans_[id].end_s = offset(); }
  // Duration of the first span called `name`; 0 when there is none.
  double seconds(const std::string& name) const {
    for (const Span& s : spans_) {
      if (s.name == name) return s.end_s - s.start_s;
    }
    return 0.0;
  }

  std::string to_json() const {
    std::ostringstream out;
    out << "[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n " : "") << "{\"id\": " << i << ", \"name\": \""
          << s.name << "\", \"parent\": " << s.parent
          << ", \"start_s\": " << json_number(s.start_s)
          << ", \"end_s\": " << json_number(s.end_s) << "}";
    }
    out << "]\n";
    return out.str();
  }

 private:
  struct Span {
    std::string name;
    int parent;
    double start_s;
    double end_s;
  };
  double offset() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// --- nn layer timing decorator ------------------------------------------------
// The layer types of the model zoo's stacks.  ReLU is deliberately absent:
// Sequential::plan_fusion fuses a Dense/Conv2D with the following layer
// only when dynamic_cast<ReLU*> on it succeeds, so ReLUs stay unwrapped and
// the traced run keeps the fused path the untraced run takes.
constexpr std::array<const char*, 5> kLayerTypes = {
    "Conv2D", "MaxPool2D", "Dropout", "Flatten", "Dense"};

struct LayerTimes {
  double fwd_train_s = 0.0;
  double fwd_eval_s = 0.0;
  double bwd_s = 0.0;
  std::uint64_t calls = 0;  // forward calls, training and eval
};
using ThreadLayerTimes = std::array<LayerTimes, kLayerTypes.size()>;

// Per-thread accumulators (the sync engine trains clients on pool workers
// concurrently), merged once the run has returned.  Slots are owned here,
// so they outlive the worker threads that fill them.
class LayerClock {
 public:
  static LayerClock& instance() {
    static LayerClock clock;
    return clock;
  }

  ThreadLayerTimes& local() {
    thread_local ThreadLayerTimes* slot = nullptr;
    if (slot == nullptr) {
      std::lock_guard<std::mutex> lock(mutex_);
      slots_.push_back(std::make_unique<ThreadLayerTimes>());
      slot = slots_.back().get();
    }
    return *slot;
  }

  ThreadLayerTimes merged() const {
    std::lock_guard<std::mutex> lock(mutex_);
    ThreadLayerTimes total{};
    for (const auto& slot : slots_) {
      for (std::size_t k = 0; k < total.size(); ++k) {
        total[k].fwd_train_s += (*slot)[k].fwd_train_s;
        total[k].fwd_eval_s += (*slot)[k].fwd_eval_s;
        total[k].bwd_s += (*slot)[k].bwd_s;
        total[k].calls += (*slot)[k].calls;
      }
    }
    return total;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<ThreadLayerTimes>> slots_;
};

class TimedLayer final : public nn::Layer {
 public:
  TimedLayer(std::shared_ptr<nn::Sequential> owner, nn::Layer& inner,
             std::size_t type)
      : owner_(std::move(owner)), inner_(inner), type_(type) {}

  nn::Tensor forward(const nn::Tensor& x,
                     const nn::PassContext& ctx) override {
    const Clock::time_point start = Clock::now();
    nn::Tensor y = inner_.forward(x, ctx);
    LayerTimes& times = LayerClock::instance().local()[type_];
    (ctx.training ? times.fwd_train_s : times.fwd_eval_s) +=
        seconds_since(start);
    ++times.calls;
    return y;
  }
  nn::Tensor backward(const nn::Tensor& dy) override {
    const Clock::time_point start = Clock::now();
    nn::Tensor dx = inner_.backward(dy);
    LayerClock::instance().local()[type_].bwd_s += seconds_since(start);
    return dx;
  }
  std::vector<nn::Tensor*> params() override { return inner_.params(); }
  std::vector<nn::Tensor*> grads() override { return inner_.grads(); }
  bool supports_relu_fusion() const override {
    return inner_.supports_relu_fusion();
  }
  void set_fused_relu(bool fused) override { inner_.set_fused_relu(fused); }
  std::string name() const override { return inner_.name(); }

 private:
  std::shared_ptr<nn::Sequential> owner_;  // keeps inner_ alive
  nn::Layer& inner_;
  std::size_t type_;
};

// Rebuilds `model` with every non-ReLU layer behind a TimedLayer.  The
// original layers (and their parameters) stay in `owner`; ReLUs are
// stateless between passes, so fresh ones stand in for them.
nn::Sequential timed(nn::Sequential model) {
  auto owner = std::make_shared<nn::Sequential>(std::move(model));
  nn::Sequential out;
  for (std::size_t i = 0; i < owner->layer_count(); ++i) {
    nn::Layer& layer = owner->layer(i);
    if (dynamic_cast<nn::ReLU*>(&layer) != nullptr) {
      out.add(std::make_unique<nn::ReLU>());
      continue;
    }
    const std::string name = layer.name();
    const auto type = std::find(kLayerTypes.begin(), kLayerTypes.end(), name);
    if (type == kLayerTypes.end()) {
      throw std::invalid_argument("tifl_bench: no timing slot for layer " +
                                  name);
    }
    out.add(std::make_unique<TimedLayer>(
        owner, layer, static_cast<std::size_t>(type - kLayerTypes.begin())));
  }
  return out;
}

// --- workloads ----------------------------------------------------------------
constexpr std::uint64_t kRunSeed = 1;

enum class Engine { kAsync, kSync, kTree };

struct Workload {
  Engine engine = Engine::kAsync;
  bool virtualized = false;
  bench::ScenarioConfig scenario;  // scenario.seed is the run seed
  std::uint64_t population_seed = kRunSeed;
  double target_accuracy = 0.0;  // virtual_tta_s target, reached pre-end
};

Workload make_workload(const std::string& name, std::uint64_t seed,
                       bool tiny) {
  bench::BenchOptions options;  // CI-scale presets (scale 0.25)
  options.seed = kRunSeed;
  Workload w;
  w.population_seed = seed;
  if (name == "million_churn") {
    // `tifl_run --engine async --clients 1000000 --rounds 200 --churn 0.5
    // --reprofile-every 50`: the cifar-like base over a virtual pool.
    w.engine = Engine::kAsync;
    w.virtualized = true;
    w.scenario = bench::cifar_base(options);
    w.scenario.name = "million_churn";
    w.scenario.num_clients = tiny ? 20000 : 1000000;
    w.scenario.rounds = tiny ? 40 : 200;
    w.scenario.lazy.samples_per_client = 50;
    w.scenario.lazy.spread = 0.5;
    w.target_accuracy = tiny ? 0.3 : 0.4;
  } else if (name == "cnn_sync") {
    // Fig. 5 MNIST combine, the paper's CNN, Alg. 2 adaptive selection.
    w.engine = Engine::kSync;
    w.scenario = bench::mnist_scenario(options, /*fashion=*/false);
    w.scenario.name = "cnn_sync";
    w.scenario.model = bench::ScenarioConfig::Model::kMnistCnn;
    // Evaluations at rounds 0, 14 and 15 keep training above 2/3 of run
    // wall, and of rounds 8 to 14, round 14's virtual time varies least
    // across seeds.
    w.scenario.rounds = tiny ? 4 : 16;
    w.scenario.eval_every = tiny ? 2 : 14;
    // Every client holds all ten classes (quantity and resource skew
    // stay).  With the preset's two classes per client, final accuracy
    // at this run length ranged from 0.12 to 0.38 across seeds, wider
    // than any bound a regression check could use.
    w.scenario.classes_per_client = 10;
    w.target_accuracy = tiny ? 0.2 : 0.4;
  } else if (name == "tree_durable") {
    // Fig. 5 MNIST combine (MLP) under a 4-region aggregator tree.
    w.engine = Engine::kTree;
    w.scenario = bench::mnist_scenario(options, /*fashion=*/false);
    w.scenario.name = "tree_durable";
    w.scenario.num_clients = tiny ? 100 : 400;
    w.scenario.rounds = tiny ? 60 : 600;
    w.target_accuracy = tiny ? 0.2 : 0.45;
  } else {
    throw std::invalid_argument(
        "unknown --workload " + name +
        " (million_churn | cnn_sync | tree_durable)");
  }
  w.scenario.seed = kRunSeed;
  return w;
}

nn::ModelFactory model_factory(const bench::ScenarioConfig& config,
                               bool traced) {
  const data::ImageDims dims = config.spec.dims;
  const std::int64_t classes = config.spec.classes;
  nn::ModelFactory base;
  if (config.model == bench::ScenarioConfig::Model::kMnistCnn) {
    const nn::ImageGeometry geometry{dims.channels, dims.height, dims.width};
    base = [geometry, classes](std::uint64_t s) {
      return nn::mnist_cnn(geometry, classes, s);
    };
  } else {
    base = [inputs = dims.flat(), hidden = config.mlp_hidden,
            classes](std::uint64_t s) {
      return nn::mlp(inputs, hidden, classes, s);
    };
  }
  if (!traced) return base;
  return [base](std::uint64_t s) { return timed(base(s)); };
}

// Mirrors bench_common.cc's make_system_config.
core::SystemConfig system_config(const bench::ScenarioConfig& config) {
  core::SystemConfig sc;
  sc.num_tiers = config.num_tiers;
  sc.profiler = config.profiler;
  sc.clients_per_round = config.clients_per_round;
  sc.engine.rounds = config.rounds;
  sc.engine.time_budget_seconds = config.time_budget_seconds;
  sc.engine.local.epochs = config.local_epochs;
  sc.engine.local.batch_size = config.batch_size;
  sc.engine.local.optimizer = config.optimizer;
  sc.engine.lr_decay_per_round = config.lr_decay;
  sc.engine.eval_every = config.eval_every;
  sc.engine.seed = config.seed;
  sc.profile_seed = util::mix_seed(config.seed, 0x9806);
  return sc;
}

struct Setup {
  std::unique_ptr<data::SyntheticData> data;
  std::unique_ptr<core::TiflSystem> system;
};

// bench::build_virtual_scenario, one timed span per layer call.
Setup setup_virtual(bench::ScenarioConfig config,
                    std::uint64_t population_seed, nn::ModelFactory factory,
                    SpanLog& spans, int parent) {
  Setup s;
  const std::size_t data_span = spans.open("data.synth", parent);
  s.data = std::make_unique<data::SyntheticData>(
      data::make_synthetic(config.spec));
  spans.close(data_span);

  const std::size_t pop_span = spans.open("fl.population", parent);
  util::Rng rng(util::mix_seed(population_seed, 0xDA7A));
  data::LazyShards shards(s.data->train.size(), config.num_clients,
                          config.lazy, util::mix_seed(population_seed, 0x1A2));
  if (config.calibrate_samples > 0.0) {
    const std::size_t probes =
        std::min<std::size_t>(config.num_clients, 1024);
    double mean_shard = 0.0;
    for (std::size_t probe = 0; probe < probes; ++probe) {
      mean_shard += static_cast<double>(shards.shard_size(probe));
    }
    mean_shard /= static_cast<double>(probes);
    if (mean_shard > 0.0) {
      config.cost.seconds_per_sample *= config.calibrate_samples / mean_shard;
    }
  }
  fl::ClientPool::VirtualConfig pool_config;
  pool_config.train = &s.data->train;
  pool_config.shards = std::move(shards);
  pool_config.profiles = sim::assign_equal_groups(
      config.num_clients, config.cpu_groups, config.comm_seconds,
      config.jitter_sigma, rng, config.shuffle_groups);
  pool_config.cache_capacity =
      std::max(config.pool_cache_capacity, 4 * config.clients_per_round);
  fl::ClientPool pool(std::move(pool_config));
  spans.close(pop_span);

  const std::size_t core_span = spans.open("core.profile_tier", parent);
  s.system = std::make_unique<core::TiflSystem>(
      system_config(config), std::move(factory), &s.data->test,
      std::move(pool), sim::LatencyModel(config.cost));
  spans.close(core_span);
  return s;
}

// bench::build_scenario for the class+quantity partition the MNIST combine
// preset uses, one timed span per layer call.
Setup setup_materialized(bench::ScenarioConfig config,
                         std::uint64_t population_seed,
                         nn::ModelFactory factory, SpanLog& spans,
                         int parent) {
  if (config.partition !=
      bench::ScenarioConfig::Partition::kClassesQuantity) {
    throw std::logic_error("setup_materialized: combine partition only");
  }
  Setup s;
  const std::size_t data_span = spans.open("data.synth", parent);
  s.data = std::make_unique<data::SyntheticData>(
      data::make_synthetic(config.spec));
  spans.close(data_span);

  const std::size_t pop_span = spans.open("fl.population", parent);
  util::Rng rng(util::mix_seed(population_seed, 0xDA7A));
  const std::size_t groups =
      std::max<std::size_t>(1, config.quantity_fractions.size());
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
  const data::Partition partition = data::partition_classes_skewed(
      s.data->train, config.num_clients, skew, rng);
  if (config.calibrate_samples > 0.0) {
    double mean_shard = 0.0;
    for (const auto& shard : partition) {
      mean_shard += static_cast<double>(shard.size());
    }
    mean_shard /= static_cast<double>(partition.size());
    if (mean_shard > 0.0) {
      config.cost.seconds_per_sample *= config.calibrate_samples / mean_shard;
    }
  }
  const auto test_shards = data::matched_test_indices(
      s.data->train, partition, s.data->test, rng);
  const auto resources = sim::assign_equal_groups(
      config.num_clients, config.cpu_groups, config.comm_seconds,
      config.jitter_sigma, rng, config.shuffle_groups);
  auto clients = fl::make_clients(&s.data->train, partition, test_shards,
                                  resources);
  spans.close(pop_span);

  const std::size_t core_span = spans.open("core.profile_tier", parent);
  s.system = std::make_unique<core::TiflSystem>(
      system_config(config), std::move(factory), &s.data->test,
      std::move(clients), sim::LatencyModel(config.cost));
  spans.close(core_span);
  return s;
}

Setup setup_reference(const Workload& w) {
  bench::Scenario scenario = w.virtualized
                                 ? bench::build_virtual_scenario(w.scenario)
                                 : bench::build_scenario(w.scenario);
  return {std::move(scenario.data), std::move(scenario.system)};
}

// --- outputs ------------------------------------------------------------------
std::uint64_t fnv1a_doubles(const std::vector<double>& values) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (double v : values) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int b = 0; b < 8; ++b) {
      hash ^= (bits >> (8 * b)) & 0xFFu;
      hash *= 0x100000001b3ULL;
    }
  }
  return hash;
}

// The per-version learning curve — the sync engine's output fingerprint
// (it returns no final weights) and a second one on the other paths.
std::vector<double> series(const fl::RunResult& result) {
  std::vector<double> out;
  for (const fl::RoundRecord& r : result.rounds) {
    out.insert(out.end(), {static_cast<double>(r.round), r.virtual_time,
                           r.global_loss, r.global_accuracy, r.train_loss});
  }
  return out;
}

struct RunOutput {
  fl::RunResult result;
  std::vector<float> weights;  // empty on the sync path
};

// The workload's engine run.  `snapshot_path` is tree_durable's checkpoint
// target.
RunOutput run_engine(const Workload& w, core::TiflSystem& system,
                     const std::string& snapshot_path) {
  RunOutput out;
  if (w.engine == Engine::kAsync) {
    fl::AsyncConfig async;
    async.churn.join_rate = 0.5;
    async.churn.leave_rate = 0.5;
    async.churn.slowdown_rate = 0.5;
    async.reprofile_every = 50.0;
    fl::AsyncRunResult run = system.run_async(async);
    out.result = std::move(run.result);
    out.weights = std::move(run.final_weights);
  } else if (w.engine == Engine::kSync) {
    std::unique_ptr<fl::SelectionPolicy> policy =
        system.make_policy("adaptive");
    out.result = system.run(*policy);
  } else {
    fl::hier::HierConfig hier;
    hier.topology = fl::hier::Topology::regions(4);
    fl::AsyncConfig async;
    async.checkpoint_every = 5.0;
    async.checkpoint_path = snapshot_path;
    async.fault.loss_prob = 0.05;
    fl::hier::HierRunResult run = system.run_hier(std::move(hier), async);
    out.result = std::move(run.result);
    out.weights = std::move(run.final_weights);
  }
  return out;
}

// This invocation's own correctness checks; returns the names of those
// that failed.
std::vector<std::string> check_outputs(const Workload& w,
                                       const RunOutput& run,
                                       const std::vector<double>& curve,
                                       const std::string& snapshot_path) {
  std::vector<std::string> failed;
  const double tta = run.result.time_to_accuracy(w.target_accuracy);
  if (tta < 0.0) failed.push_back("target_not_reached");
  if (run.result.rounds.empty() ||
      tta >= run.result.rounds.back().virtual_time) {
    failed.push_back("target_not_before_last_version");
  }
  if (!std::all_of(run.weights.begin(), run.weights.end(),
                   [](float v) { return std::isfinite(v); })) {
    failed.push_back("weights_not_finite");
  }
  if (!std::all_of(curve.begin(), curve.end(),
                   [](double v) { return std::isfinite(v); })) {
    failed.push_back("series_not_finite");
  }
  if (w.engine == Engine::kTree) {
    try {
      fl::load_snapshot(snapshot_path);
    } catch (const std::exception& error) {
      failed.push_back("snapshot_unloadable");
      std::cerr << "tifl_bench: " << error.what() << "\n";
    }
  }
  return failed;
}

struct PoolProbe {
  double p50_us = 0.0;
  double p99_us = 0.0;
};

// Empty 4-chunk parallel_for calls on the process pool: what one dispatch
// (enqueue, wake a worker, wait on the futures) costs on this host right
// now.  Run before the timed region so a host-slowed invocation can be
// told apart from a slower program.
PoolProbe probe_pool(std::size_t samples) {
  util::ThreadPool& pool = util::global_pool();
  std::vector<double> us;
  us.reserve(samples);
  for (std::size_t i = 0; i < samples; ++i) {
    const Clock::time_point start = Clock::now();
    pool.parallel_for(0, 4, [](std::size_t) {});
    us.push_back(seconds_since(start) * 1e6);
  }
  std::sort(us.begin(), us.end());
  const auto at = [&us](double q) {
    return us[std::min(us.size() - 1,
                       static_cast<std::size_t>(q * static_cast<double>(us.size())))];
  };
  return {at(0.5), at(0.99)};
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  bool tiny = false;
  bool trace = false;
  bool reference_setup = false;
  std::string workdir = ".";
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.seed = std::stoull(value());
    } else if (flag == "--size") {
      const std::string size = value();
      if (size != "full" && size != "tiny") {
        throw std::invalid_argument("--size full | tiny");
      }
      args.tiny = size == "tiny";
    } else if (flag == "--trace") {
      args.trace = value() == "1";
    } else if (flag == "--workdir") {
      args.workdir = value();
    } else if (flag == "--reference-setup") {
      args.reference_setup = true;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.workload.empty()) throw std::invalid_argument("--workload is required");
  return args;
}

class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v) {
    return raw(key, json_number(v));
  }
  JsonObject& text(const std::string& key, const std::string& v) {
    return raw(key, "\"" + v + "\"");
  }
  JsonObject& raw(const std::string& key, const std::string& v) {
    out_ << (first_ ? "" : ", ") << "\"" << key << "\": " << v;
    first_ = false;
    return *this;
  }
  std::string str() const {
    std::string text = "{";
    text += out_.str();
    text += "}";
    return text;
  }

 private:
  std::ostringstream out_;
  bool first_ = true;
};

int run(const Args& args) {
  const PoolProbe probe = probe_pool(400);

  // The timed region: setup, the engine run and its final evaluation.
  const std::array<double, 2> ticks0 = cpu_ticks();
  const Clock::time_point t0 = Clock::now();
  const double cpu0 = process_cpu_seconds();
  SpanLog spans(t0);
  const std::size_t root = spans.open(args.workload, -1);

  const Workload w = make_workload(args.workload, args.seed, args.tiny);
  Setup setup;
  if (args.reference_setup) {
    setup = setup_reference(w);
  } else {
    nn::ModelFactory factory = model_factory(w.scenario, args.trace);
    setup = w.virtualized
                ? setup_virtual(w.scenario, w.population_seed,
                                std::move(factory), spans,
                                static_cast<int>(root))
                : setup_materialized(w.scenario, w.population_seed,
                                     std::move(factory), spans,
                                     static_cast<int>(root));
  }
  const double setup_s = seconds_since(t0);
  const double setup_cpu_s = process_cpu_seconds() - cpu0;
  const double population_rss_mb = current_rss_mb();

  const std::string snapshot_path = args.workdir + "/" + args.workload +
                                    "-" + std::to_string(args.seed) +
                                    ".snapshot";
  const std::size_t run_span = spans.open("fl.run", static_cast<int>(root));
  const double run_cpu0 = process_cpu_seconds();
  const RunOutput run = run_engine(w, *setup.system, snapshot_path);
  const double run_cpu_s = process_cpu_seconds() - run_cpu0;
  spans.close(run_span);
  spans.close(root);
  const double wall_s = seconds_since(t0);
  const double run_wall_s = spans.seconds("fl.run");
  const std::array<double, 2> ticks1 = cpu_ticks();
  const double elapsed_ticks = ticks1[1] - ticks0[1];

  const fl::RunResult& result = run.result;
  const std::vector<double> curve = series(result);
  const std::vector<std::string> failed =
      check_outputs(w, run, curve, snapshot_path);
  std::remove(snapshot_path.c_str());
  const std::uint64_t model_hash =
      w.engine == Engine::kSync ? fnv1a_doubles(curve)
                                : nn::weights_fnv1a(run.weights);

  double updates = 0.0;
  for (const fl::RoundRecord& r : result.rounds) {
    updates += static_cast<double>(r.selected_clients.size());
  }

  // --- layer numbers the program exports ------------------------------------
  obs::Registry& reg = obs::Registry::global();
  const auto counter = [&reg](const char* name) {
    return static_cast<double>(reg.counter(name).value());
  };
  JsonObject layers;
  layers.num("data.synth_s", spans.seconds("data.synth"))
      .num("fl.population_s", spans.seconds("fl.population"))
      .num("fl.population_rss_mb", population_rss_mb)
      .num("core.profile_tier_s", spans.seconds("core.profile_tier"))
      .num("setup.cpu_s", setup_cpu_s);
  double phase_sum = 0.0;
  for (const char* phase : {"select", "train", "aggregate", "eval"}) {
    double seconds = 0.0;
    double calls = 0.0;
    for (const obs::PhaseStat& stat : result.phases) {
      if (stat.name == phase) {
        seconds = stat.seconds;
        calls = static_cast<double>(stat.calls);
      }
    }
    phase_sum += seconds;
    layers.num(std::string("fl.") + phase + "_s", seconds);
    if (std::string(phase) == "train" || std::string(phase) == "eval") {
      layers.num(std::string("fl.") + phase + "_calls", calls);
    }
  }
  const double pool_size = static_cast<double>(util::global_pool().size());
  const double small = counter("gemm.small");
  const double stream = counter("gemm.stream");
  const double blocked = counter("gemm.blocked");
  const double gemm_total = small + stream + blocked;
  const double hits = counter("pool.lease_hits");
  const double misses = counter("pool.lease_misses");
  const double dropped = counter("fault.dropped_updates");
  const double writes = counter("checkpoint.writes");
  const double write_s = counter("checkpoint.write_ns") * 1e-9;
  layers.num("fl.loop_other_s", run_wall_s - phase_sum)
      .num("fl.run_wall_s", run_wall_s)
      .num("fl.run_cpu_s", run_cpu_s)
      .num("tensor.gemm.small_calls", small)
      .num("tensor.gemm.stream_calls", stream)
      .num("tensor.gemm.blocked_calls", blocked)
      .num("tensor.gemm.blocked_share",
           gemm_total > 0 ? blocked / gemm_total : 0.0)
      .num("tensor.workspace_bytes", reg.gauge("tensor.workspace_bytes").value())
      .num("util.pool.dispatch_p50_us", probe.p50_us)
      .num("util.pool.dispatch_p99_us", probe.p99_us)
      .num("util.pool.busy_share",
           run_wall_s > 0 ? run_cpu_s / (run_wall_s * pool_size) : 0.0)
      .num("host.steal_share",
           elapsed_ticks > 0 ? (ticks1[0] - ticks0[0]) / elapsed_ticks : 0.0)
      .num("sim.events_popped", counter("sim.events_popped"))
      .num("sim.pop_ns_p50", reg.histogram("sim.pop_ns").percentile(0.5))
      .num("sim.schedule_ns_p50",
           reg.histogram("sim.schedule_ns").percentile(0.5))
      .num("sim.queue_depth_max", reg.gauge("sim.queue_depth_max").value())
      .num("fl.pool.lease_misses", misses)
      .num("fl.pool.hit_share", hits + misses > 0 ? hits / (hits + misses) : 0.0)
      .num("fl.pool.evictions", counter("pool.evictions"))
      .num("fl.pool.peak_live_clients",
           reg.gauge("pool.peak_live_clients").value())
      .num("fl.hier.events", counter("hier.events"))
      .num("fl.hier.uplinks", counter("hier.uplinks"))
      .num("fl.hier.downlinks", counter("hier.downlinks"))
      .num("fl.hier.root_link_bytes", counter("hier.root_link_bytes"))
      .num("fl.checkpoint.writes", writes)
      .num("fl.checkpoint.bytes", counter("checkpoint.bytes"))
      .num("fl.checkpoint.write_s", write_s)
      .num("fl.checkpoint.ms_per_write", writes > 0 ? 1e3 * write_s / writes : 0.0)
      .num("sim.fault.lost_updates", counter("fault.lost_updates"))
      .num("sim.fault.dropped_updates", dropped)
      .num("sim.fault.failed_share",
           updates + dropped > 0 ? dropped / (updates + dropped) : 0.0);
  if (args.trace) {
    const ThreadLayerTimes times = LayerClock::instance().merged();
    for (std::size_t k = 0; k < kLayerTypes.size(); ++k) {
      const std::string prefix = std::string("nn.") + kLayerTypes[k] + ".";
      layers.num(prefix + "fwd_train_s", times[k].fwd_train_s)
          .num(prefix + "fwd_eval_s", times[k].fwd_eval_s)
          .num(prefix + "bwd_s", times[k].bwd_s)
          .num(prefix + "calls", static_cast<double>(times[k].calls));
    }
    const std::string spans_path = args.workdir + "/spans-" + args.workload +
                                   "-" + std::to_string(args.seed) + ".json";
    std::ofstream(spans_path) << spans.to_json();
  }

  std::ostringstream failed_json;
  failed_json << "[";
  for (std::size_t i = 0; i < failed.size(); ++i) {
    failed_json << (i ? ", " : "") << "\"" << failed[i] << "\"";
  }
  failed_json << "]";

  JsonObject out;
  out.text("workload", args.workload)
      .num("seed", static_cast<double>(args.seed))
      .num("traced", args.trace ? 1.0 : 0.0)
      .num("wall_s", wall_s)
      .num("setup_s", setup_s)
      .num("client_updates", updates)
      .num("client_updates_per_s",
           wall_s > setup_s ? updates / (wall_s - setup_s) : 0.0)
      .num("peak_rss_mb", peak_rss_mb())
      .num("virtual_tta_s", result.time_to_accuracy(w.target_accuracy))
      .num("final_accuracy", result.final_accuracy())
      .num("versions", static_cast<double>(result.rounds.size()))
      .text("model_hash", hex64(model_hash))
      .text("series_hash", hex64(fnv1a_doubles(curve)))
      .raw("failed_checks", failed_json.str())
      .raw("layers", layers.str());
  std::cout << out.str() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::set_log_level(util::LogLevel::kWarn);
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& error) {
    std::cerr << "tifl_bench: " << error.what() << "\n";
    return 1;
  }
}
