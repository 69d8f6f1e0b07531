#include "fl/async_engine.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>

#include "fl/aggregator.h"
#include "fl/evaluation.h"
#include "fl/policy.h"
#include "fl/snapshot.h"
#include "obs/metrics.h"
#include "obs/phase.h"
#include "obs/trace.h"
#include "obs/wall_time.h"
#include "sim/event_log.h"
#include "sim/event_queue.h"
#include "util/log.h"
#include "util/segmented_id_set.h"
#include "util/thread_pool.h"

namespace tifl::fl {

StalenessFn parse_staleness(const std::string& name) {
  if (name == "constant") return StalenessFn::kConstant;
  if (name == "poly" || name == "polynomial") return StalenessFn::kPolynomial;
  if (name == "invfreq" || name == "inverse-frequency" || name == "fedat") {
    return StalenessFn::kInverseFrequency;
  }
  throw std::invalid_argument(
      "unknown staleness function '" + name +
      "' (valid: constant, poly | polynomial, invfreq | inverse-frequency | "
      "fedat)");
}

std::string staleness_name(StalenessFn fn) {
  switch (fn) {
    case StalenessFn::kConstant: return "constant";
    case StalenessFn::kPolynomial: return "poly";
    case StalenessFn::kInverseFrequency: return "invfreq";
  }
  return "unknown";
}

double staleness_factor(StalenessFn fn, double alpha, std::size_t staleness) {
  if (fn == StalenessFn::kPolynomial) {
    return std::pow(1.0 + static_cast<double>(staleness), -alpha);
  }
  return 1.0;
}

std::vector<double> cross_tier_weights(
    StalenessFn fn, double alpha, std::span<const std::size_t> update_counts,
    std::span<const std::size_t> staleness) {
  if (update_counts.size() != staleness.size()) {
    throw std::invalid_argument("cross_tier_weights: size mismatch");
  }
  std::vector<double> weights(update_counts.size(), 0.0);
  std::size_t u_max = 0;
  for (std::size_t u : update_counts) u_max = std::max(u_max, u);

  double total = 0.0;
  for (std::size_t t = 0; t < update_counts.size(); ++t) {
    if (update_counts[t] == 0) continue;  // never submitted: no model yet
    double w = 1.0;
    switch (fn) {
      case StalenessFn::kConstant:
        break;
      case StalenessFn::kPolynomial:
        w = staleness_factor(fn, alpha, staleness[t]);
        break;
      case StalenessFn::kInverseFrequency:
        // FedAT-style: a tier that submitted u_max - u_t fewer times than
        // the busiest tier gets proportionally more mass, countering the
        // fast-tier bias of naive async averaging.
        w = 1.0 + static_cast<double>(u_max - update_counts[t]);
        break;
    }
    weights[t] = w;
    total += w;
  }
  if (total > 0.0) {
    for (double& w : weights) w /= total;
  }
  return weights;
}

namespace {

// Per-tier selection/latency streams, shared by both run paths so a
// zero-churn dynamic configuration consumes the exact streams of a
// static run.  Tier 0 reuses the sync engine's fork tags (0xF01
// selection, 0xF02 latency): a single-tier async run consumes the
// byte-for-byte streams of a sync VanillaPolicy run.
struct TierRngs {
  std::vector<util::Rng> selection;
  std::vector<util::Rng> latency;
};

TierRngs make_tier_rngs(std::uint64_t seed, std::size_t num_tiers) {
  util::Rng root(seed);
  TierRngs rngs;
  rngs.selection.reserve(num_tiers);
  rngs.latency.reserve(num_tiers);
  for (std::size_t t = 0; t < num_tiers; ++t) {
    rngs.selection.push_back(
        root.fork(t == 0 ? 0xF01 : util::mix_seed(0xA51C, t)));
    rngs.latency.push_back(
        root.fork(t == 0 ? 0xF02 : util::mix_seed(0xA51D, t)));
  }
  return rngs;
}

// Final per-tier accounting shared by both run paths (final_live_clients
// stays path-specific).
void finalize_result(AsyncRunResult& out, std::vector<float>&& global,
                     const std::vector<std::size_t>& tier_updates,
                     const std::vector<double>& staleness_sum,
                     std::vector<double>&& current_weights) {
  const std::size_t num_tiers = tier_updates.size();
  out.final_weights = std::move(global);
  out.tier_updates = tier_updates;
  out.mean_staleness.assign(num_tiers, 0.0);
  for (std::size_t t = 0; t < num_tiers; ++t) {
    if (tier_updates[t] > 0) {
      out.mean_staleness[t] =
          staleness_sum[t] / static_cast<double>(tier_updates[t]);
    }
  }
  out.final_tier_weights = std::move(current_weights);
  if (out.final_tier_weights.empty()) {
    out.final_tier_weights.assign(num_tiers, 0.0);
  }
}

}  // namespace

// Recompute the global model as the staleness-weighted cross-tier average
// (double-precision reduction in tier order, shared by both run paths and
// the fl/hier aggregator tree).  `accum` is caller-owned scratch, hoisted
// out of the event loops: the dynamic path aggregates once per client
// update.
void aggregate_global(const std::vector<std::vector<float>>& tier_models,
                      const std::vector<double>& weights,
                      std::vector<float>& global, std::vector<double>& accum) {
  const std::size_t weight_count = global.size();
  accum.assign(weight_count, 0.0);
  for (std::size_t t = 0; t < tier_models.size(); ++t) {
    if (weights[t] == 0.0) continue;
    const double w = weights[t];
    const std::vector<float>& model = tier_models[t];
    for (std::size_t i = 0; i < weight_count; ++i) {
      accum[i] += w * static_cast<double>(model[i]);
    }
  }
  for (std::size_t i = 0; i < weight_count; ++i) {
    global[i] = static_cast<float>(accum[i]);
  }
}

namespace {

// Engine-level instruments, resolved once.  Counter/histogram updates are
// relaxed atomics; the trace layer is a branch-on-null when disabled.
struct AsyncMetrics {
  obs::Counter& events;
  obs::Counter& tier_rounds;
  obs::Counter& parks;
  obs::Counter& park_retries;
  obs::Counter& stale_events;
  obs::Counter& joins;
  obs::Counter& leaves;
  obs::Counter& slowdowns;
  obs::Counter& reprofiles;
  // One-time run setup (per-client state arrays, membership sets, initial
  // heap fill) and end-of-run finalization (flat membership reporting)
  // — wall time, so benches can report
  // steady-state event throughput separately from the O(population)
  // bookends.
  obs::Counter& setup_ns;
  obs::Counter& finalize_ns;
  // Durability: snapshot writes (count/bytes/wall time) and the fault
  // model's lost-then-retried vs permanently-dropped update deliveries.
  obs::Counter& checkpoint_writes;
  obs::Counter& checkpoint_bytes;
  obs::Counter& checkpoint_write_ns;
  obs::Counter& lost_updates;
  obs::Counter& dropped_updates;
  obs::Histo& staleness;
  obs::Histo& event_batch;
};

AsyncMetrics& async_metrics() {
  obs::Registry& reg = obs::Registry::global();
  static AsyncMetrics m{
      reg.counter("async.events"),
      reg.counter("async.tier_rounds"),
      reg.counter("async.parks"),
      reg.counter("async.park_retries"),
      reg.counter("async.stale_events"),
      reg.counter("async.joins"),
      reg.counter("async.leaves"),
      reg.counter("async.slowdowns"),
      reg.counter("async.reprofiles"),
      reg.counter("async.setup_ns"),
      reg.counter("async.finalize_ns"),
      reg.counter("checkpoint.writes"),
      reg.counter("checkpoint.bytes"),
      reg.counter("checkpoint.write_ns"),
      reg.counter("fault.lost_updates"),
      reg.counter("fault.dropped_updates"),
      reg.histogram("async.staleness"),
      reg.histogram("async.event_batch"),
  };
  return m;
}

// --- snapshot payload helpers -----------------------------------------------
// The payload wrapped by fl::save_snapshot is one flat ByteSink stream;
// these helpers encode the composite pieces both run paths share.

constexpr std::uint64_t kSnapStatic = 0;   // run_static payload tag
constexpr std::uint64_t kSnapDynamic = 1;  // run_dynamic payload tag

void put_rng(util::ByteSink& sink, const util::Rng& rng) {
  for (std::uint64_t word : rng.state()) sink.put_u64(word);
}

void get_rng(util::ByteSource& source, util::Rng& rng) {
  std::array<std::uint64_t, 4> state;
  for (std::uint64_t& word : state) word = source.get_u64();
  rng.set_state(state);
}

void put_update(util::ByteSink& sink, const LocalUpdate& update) {
  sink.put_f32_vec(update.weights);
  sink.put_u64(update.num_samples);
  sink.put_f64(update.train_loss);
  sink.put_f64(update.train_accuracy);
}

LocalUpdate get_update(util::ByteSource& source) {
  LocalUpdate update;
  update.weights = source.get_f32_vec();
  update.num_samples = static_cast<std::size_t>(source.get_u64());
  update.train_loss = source.get_f64();
  update.train_accuracy = source.get_f64();
  return update;
}

// Guards a resume against a drifted configuration: every knob that shapes
// the deterministic trajectory is folded in.  Deliberately excluded:
// fault.crash_at (the crash point is process fate, not trajectory) and
// the durability paths themselves.
std::uint64_t config_fingerprint(const EngineConfig& config,
                                 const AsyncConfig& async, std::uint64_t seed,
                                 std::size_t num_tiers,
                                 std::size_t num_clients,
                                 std::size_t weight_count) {
  const auto f = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  std::uint64_t h = util::mix_seed(0xD0C5, seed);
  h = util::mix_seed(h, static_cast<std::uint64_t>(async.staleness),
                     f(async.poly_alpha));
  h = util::mix_seed(h, async.total_updates, async.clients_per_tier_round);
  h = util::mix_seed(h, f(async.time_budget_seconds), async.eval_every);
  h = util::mix_seed(h, f(async.churn.join_rate), f(async.churn.leave_rate));
  h = util::mix_seed(h, f(async.churn.slowdown_rate),
                     f(async.churn.slowdown_log_mu));
  h = util::mix_seed(h, f(async.churn.slowdown_log_sigma), async.churn.seed);
  h = util::mix_seed(h, f(async.reprofile_every),
                     async.dynamic_lifecycle ? 1 : 0);
  h = util::mix_seed(h, f(async.fault.loss_prob), async.fault.max_retries);
  h = util::mix_seed(h, f(async.fault.backoff_base),
                     f(async.fault.backoff_factor));
  h = util::mix_seed(h, f(async.fault.backoff_max), async.fault.seed);
  h = util::mix_seed(h, config.local.epochs, config.local.batch_size);
  h = util::mix_seed(h, f(config.local.optimizer.lr),
                     f(config.lr_decay_per_round));
  h = util::mix_seed(h, static_cast<std::uint64_t>(config.local.optimizer.kind),
                     config.eval_chunk);
  h = util::mix_seed(h, f(config.local.dp_clip_norm),
                     f(config.local.dp_noise_sigma));
  h = util::mix_seed(h, num_tiers, num_clients);
  h = util::mix_seed(h, weight_count);
  return h;
}

// Common payload prologue: path tag, fingerprint, dimensions, policy
// identity.  Readers validate every field before touching the rest.
void put_prologue(util::ByteSink& sink, std::uint64_t tag,
                  std::uint64_t fingerprint, std::size_t num_tiers,
                  std::size_t num_clients, std::size_t weight_count,
                  const std::string& policy_name) {
  sink.put_u64(tag);
  sink.put_u64(fingerprint);
  sink.put_u64(num_tiers);
  sink.put_u64(num_clients);
  sink.put_u64(weight_count);
  sink.put_string(policy_name);
}

void check_prologue(util::ByteSource& source, std::uint64_t tag,
                    std::uint64_t fingerprint, std::size_t num_tiers,
                    std::size_t num_clients, std::size_t weight_count,
                    const std::string& policy_name) {
  const std::uint64_t snap_tag = source.get_u64();
  if (snap_tag != tag) {
    throw std::runtime_error(
        "AsyncEngine: snapshot was taken on the " +
        std::string(snap_tag == kSnapDynamic ? "dynamic" : "static") +
        " path but this configuration runs the " +
        std::string(tag == kSnapDynamic ? "dynamic" : "static") + " path");
  }
  if (source.get_u64() != fingerprint) {
    throw std::runtime_error(
        "AsyncEngine: snapshot config fingerprint mismatch (resume requires "
        "the same seed, population, schedule and fault configuration)");
  }
  if (source.get_u64() != num_tiers || source.get_u64() != num_clients ||
      source.get_u64() != weight_count) {
    throw std::runtime_error(
        "AsyncEngine: snapshot population/model dimensions mismatch");
  }
  const std::string snap_policy = source.get_string();
  if (snap_policy != policy_name) {
    throw std::runtime_error("AsyncEngine: snapshot was taken with policy '" +
                             snap_policy + "' but '" + policy_name +
                             "' is installed");
  }
}

// Opens (or, on resume, truncates to the snapshot's processed-event
// horizon) the append-only event log.  A fresh run clobbers any stale log
// under the same name, mirroring how metrics/trace outputs behave.
void open_event_log(sim::EventLogWriter& log, const std::string& path,
                    bool resuming, std::uint64_t processed_events) {
  if (path.empty()) return;
  if (resuming) {
    log.truncate_to(path, processed_events);
  } else {
    std::remove(path.c_str());
    log.open(path);
  }
}

}  // namespace

struct AsyncEngine::PendingRound {
  std::vector<std::size_t> selected;  // client ids, selection order
  std::vector<LocalUpdate> updates;   // same order
  std::size_t dispatch_version = 0;   // global version at snapshot time
  double latency = 0.0;               // tier-round duration (max member)
};

AsyncEngine::AsyncEngine(EngineConfig config, AsyncConfig async,
                         nn::ModelFactory factory, ClientPool* pool,
                         std::vector<std::vector<std::size_t>> tier_members,
                         const data::Dataset* test,
                         sim::LatencyModel latency_model)
    : config_(config),
      async_(async),
      factory_(std::move(factory)),
      clients_(pool),
      tier_members_(std::move(tier_members)),
      test_(test),
      latency_model_(latency_model) {
  validate();
}

AsyncEngine::AsyncEngine(EngineConfig config, AsyncConfig async,
                         nn::ModelFactory factory,
                         const std::vector<Client>* clients,
                         std::vector<std::vector<std::size_t>> tier_members,
                         const data::Dataset* test,
                         sim::LatencyModel latency_model)
    : config_(config),
      async_(async),
      factory_(std::move(factory)),
      owned_pool_(clients != nullptr && !clients->empty()
                      ? std::make_unique<ClientPool>(clients)
                      : nullptr),
      clients_(owned_pool_.get()),
      tier_members_(std::move(tier_members)),
      test_(test),
      latency_model_(latency_model) {
  validate();
}

void AsyncEngine::validate() const {
  if (clients_ == nullptr || clients_->size() == 0) {
    throw std::invalid_argument("AsyncEngine: no clients");
  }
  if (test_ == nullptr) {
    throw std::invalid_argument("AsyncEngine: null test dataset");
  }
  if (async_.total_updates == 0) {
    throw std::invalid_argument("AsyncEngine: total_updates must be > 0");
  }
  if (async_.clients_per_tier_round == 0) {
    throw std::invalid_argument(
        "AsyncEngine: clients_per_tier_round must be > 0");
  }
  if (async_.poly_alpha < 0.0) {
    throw std::invalid_argument("AsyncEngine: negative poly_alpha");
  }
  if (async_.eval_every == 0) {
    throw std::invalid_argument("AsyncEngine: eval_every must be > 0");
  }
  if (std::isnan(async_.reprofile_every) || async_.reprofile_every < 0.0) {
    throw std::invalid_argument("AsyncEngine: negative reprofile_every");
  }
  if (std::isnan(async_.checkpoint_every) || async_.checkpoint_every < 0.0) {
    throw std::invalid_argument(
        "AsyncEngine: negative or NaN checkpoint_every");
  }
  if (async_.checkpoint_every > 0.0 && async_.checkpoint_path.empty()) {
    throw std::invalid_argument(
        "AsyncEngine: checkpoint_every > 0 requires a checkpoint_path");
  }
  for (double rate : {async_.churn.join_rate, async_.churn.leave_rate,
                      async_.churn.slowdown_rate}) {
    if (std::isnan(rate) || rate < 0.0) {
      throw std::invalid_argument("AsyncEngine: negative or NaN churn rate");
    }
  }
  bool any_members = false;
  for (const std::vector<std::size_t>& members : tier_members_) {
    any_members = any_members || !members.empty();
    for (std::size_t id : members) {
      if (id >= clients_->size()) {
        throw std::invalid_argument("AsyncEngine: tier member out of range");
      }
    }
  }
  if (!any_members) {
    throw std::invalid_argument("AsyncEngine: every tier is empty");
  }
}

nn::Sequential& AsyncEngine::scratch_model(std::size_t slot) {
  while (scratch_.size() <= slot) {
    scratch_.push_back(factory_(/*seed=*/slot + 1));
  }
  return scratch_[slot];
}

util::ThreadPool& AsyncEngine::pool() {
  return pool_ != nullptr ? *pool_ : util::global_pool();
}

void AsyncEngine::set_lifecycle_hooks(LifecycleHooks hooks) {
  hooks_ = std::move(hooks);
}

void AsyncEngine::set_policy(SelectionPolicy* policy) {
  if (policy != nullptr && !policy->supports(EngineKind::kAsync)) {
    throw std::invalid_argument(
        "AsyncEngine: policy '" + policy->name() +
        "' does not support the async engine");
  }
  policy_ = policy;
}

void AsyncEngine::set_tier_eval_sets(std::vector<data::Dataset> sets) {
  if (!sets.empty() && sets.size() != tier_members_.size()) {
    throw std::invalid_argument(
        "AsyncEngine: tier eval set count does not match tier count");
  }
  tier_eval_sets_ = std::move(sets);
}

std::vector<double> AsyncEngine::evaluate_tiers(
    std::span<const float> weights) {
  std::vector<double> accuracies;
  accuracies.reserve(tier_eval_sets_.size());
  for (const data::Dataset& set : tier_eval_sets_) {
    accuracies.push_back(set.size() > 0 ? evaluate(weights, set).accuracy
                                        : 0.0);
  }
  return accuracies;
}

nn::LossResult AsyncEngine::evaluate(std::span<const float> weights,
                                     const data::Dataset& dataset) {
  return evaluate_weights(scratch_model(0), weights, dataset,
                          config_.eval_chunk);
}

std::vector<LocalUpdate> AsyncEngine::train_cohort(
    std::span<const std::size_t> cohort, std::span<const float> global,
    double lr, std::uint64_t seed, std::size_t dispatch_seq,
    obs::PhaseTimer& phases) {
  const std::size_t count = cohort.size();
  LocalTrainParams params = config_.local;
  params.lr = lr;
  for (std::size_t i = 0; i < count; ++i) scratch_model(i + 1);
  std::vector<LocalUpdate> updates(count);
  obs::ScopedPhase phase(&phases, obs::Phase::kTrain);
  // Leases pin (and on a virtualized pool, materialize) the cohort's
  // training state for exactly the duration of local training.
  std::vector<ClientPool::Lease> leases;
  leases.reserve(count);
  for (std::size_t id : cohort) leases.push_back(clients_->lease(id));
  pool().parallel_for(0, count, [&](std::size_t i) {
    const Client& client = *leases[i];
    // Deterministic stream per (dispatch seq, client id): the async
    // analogue of the sync engine's (round, client id) fork.
    util::Rng client_rng(util::mix_seed(seed, dispatch_seq, client.id()));
    updates[i] =
        client.local_update(global, scratch_[i + 1], params, client_rng);
  });
  return updates;
}

AsyncRunResult AsyncEngine::run(std::optional<std::uint64_t> seed_override) {
  const std::uint64_t seed = seed_override.value_or(config_.seed);
  // Default policy: uniform self-sampling — an explicit instance of the
  // same class a caller could install, so "no policy" and "uniform
  // policy" are one code path (a determinism ctest asserts the replay of
  // the pre-seam engine is bit-for-bit).
  UniformTierPolicy uniform(async_.clients_per_tier_round);
  SelectionPolicy& policy = policy_ != nullptr ? *policy_ : uniform;
  // The static path below is kept byte-for-byte: a configuration with no
  // churn and reprofile_every == 0 must replay PR 1's engine exactly.
  return dynamic() ? run_dynamic(seed, policy) : run_static(seed, policy);
}

AsyncRunResult AsyncEngine::run_static(std::uint64_t seed,
                                       SelectionPolicy& policy) {
  const std::size_t num_tiers = tier_members_.size();
  AsyncMetrics& metrics = async_metrics();
  const auto setup_start = obs::wall_now();
  obs::PhaseTimer phases;

  TierRngs rngs = make_tier_rngs(seed, num_tiers);

  std::vector<float> global = factory_(seed).weights();

  // Per-tier server state (FedAT keeps one model version per tier).
  std::vector<std::vector<float>> tier_models(num_tiers, global);
  std::vector<std::size_t> tier_updates(num_tiers, 0);
  std::vector<std::size_t> last_submit_version(num_tiers, 0);
  // Iterated per-tier lr decay (multiplicative, like the sync engine, so
  // a single-tier run reproduces the sync lr sequence bit for bit).
  std::vector<double> tier_lr(num_tiers, config_.local.optimizer.lr);
  std::vector<double> staleness_sum(num_tiers, 0.0);
  std::vector<PendingRound> pending(num_tiers);

  // Tier-round completions are the only scheduled events here, so tiers
  // are the actor space.
  sim::EventQueue queue;
  AsyncRunResult out;
  out.result.policy_name =
      policy_ != nullptr
          ? "async/" + policy.name() + "/" + staleness_name(async_.staleness)
          : "async/" + staleness_name(async_.staleness);
  out.result.rounds.reserve(async_.total_updates);
  std::vector<double> current_weights;
  std::vector<std::size_t> model_age;     // reused per aggregation
  std::vector<double> accum_scratch;      // aggregate_global scratch

  std::size_t dispatch_seq = 0;   // event-order dispatch counter
  std::size_t scheduled = 0;      // dispatched tier rounds (in flight + done)
  // Tiers whose last selection came back empty (cadence parked by the
  // policy); retried once per *later* recorded version — `parked_at`
  // keeps a just-parked tier from being re-asked at the same version.
  // The default uniform policy never parks, keeping this path cold on
  // pre-seam replays.
  std::vector<char> parked(num_tiers, 0);
  std::vector<std::size_t> parked_at(num_tiers, 0);
  std::vector<std::size_t> staleness_scratch(num_tiers, 0);

  // --- durability state ------------------------------------------------------
  sim::FaultModel fault(async_.fault, seed);
  // Redelivery attempts for the tier's lost completion (the static path's
  // unit of delivery is the whole tier round).
  std::vector<std::size_t> retry_count(num_tiers, 0);
  double next_checkpoint_due = async_.checkpoint_every > 0.0
                                   ? async_.checkpoint_every
                                   : std::numeric_limits<double>::infinity();
  bool last_evaluated = false;
  bool budget_exhausted = false;

  const auto dispatch = [&](std::size_t tier) {
    parked[tier] = 0;
    const std::vector<std::size_t>& members = tier_members_[tier];

    const std::size_t version = out.result.rounds.size();
    for (std::size_t t = 0; t < num_tiers; ++t) {
      staleness_scratch[t] =
          tier_updates[t] > 0 ? version - last_submit_version[t] : 0;
    }
    SelectionContext context;
    context.round = version;
    context.virtual_time = queue.now();
    context.tier = static_cast<int>(tier);
    context.candidates = members;
    context.tiers = TierView{.members = tier_members_,
                             .update_counts = tier_updates,
                             .staleness = staleness_scratch};
    context.rng = &rngs.selection[tier];
    Selection selection;
    {
      obs::ScopedPhase phase(&phases, obs::Phase::kSelect);
      selection = policy.select(context);
    }
    if (selection.clients.empty()) {
      parked[tier] = 1;
      parked_at[tier] = version;
      metrics.parks.add();
      if (obs::Tracer* t = obs::tracer()) {
        t->instant(queue.now(), "async", "park",
                   static_cast<std::int64_t>(tier),
                   {obs::field("version", version)});
      }
      return;
    }
    for (std::size_t id : selection.clients) {
      if (id >= clients_->size()) {
        throw std::logic_error(
            "AsyncEngine: policy selected a client outside the population");
      }
    }
    const std::size_t count = selection.clients.size();

    PendingRound& round = pending[tier];
    round.selected = std::move(selection.clients);
    round.dispatch_version = version;

    round.updates = train_cohort(round.selected, global, tier_lr[tier], seed,
                                 dispatch_seq, phases);
    ++dispatch_seq;

    // A tier round is internally synchronous: it completes when its
    // slowest sampled member responds.  Latency needs only pool-level
    // state (profile + shard size), never a materialized client.
    round.latency = 0.0;
    for (std::size_t id : round.selected) {
      round.latency = std::max(
          round.latency,
          latency_model_.sample_latency(clients_->resource(id),
                                        clients_->train_size(id),
                                        config_.local.epochs,
                                        rngs.latency[tier]));
    }
    queue.schedule(round.latency, /*kind=*/0, /*actor=*/tier);
    ++scheduled;
    if (obs::Tracer* t = obs::tracer()) {
      t->span(queue.now(), round.latency, "async", "tier_round",
              static_cast<std::int64_t>(tier),
              {obs::field("version", version), obs::field("clients", count)});
    }
  };

  metrics.setup_ns.add(obs::wall_ns_count_since(setup_start));

  // --- snapshot payload (static path) ----------------------------------------
  // Serializes every loop-local that determines the run's future: stream
  // positions, per-tier server state, in-flight rounds (trained at
  // dispatch, so their updates travel with the snapshot), the queue, the
  // fault/policy state and the metrics registry.  Restore is the exact
  // mirror; both sides stream through the same flat ByteSink layout.
  const std::uint64_t fingerprint = config_fingerprint(
      config_, async_, seed, num_tiers, clients_->size(), global.size());
  const auto save_state = [&](util::ByteSink& sink) {
    put_prologue(sink, kSnapStatic, fingerprint, num_tiers, clients_->size(),
                 global.size(), policy.name());
    for (std::size_t t = 0; t < num_tiers; ++t) {
      put_rng(sink, rngs.selection[t]);
      put_rng(sink, rngs.latency[t]);
    }
    sink.put_f32_vec(global);
    for (const std::vector<float>& model : tier_models) {
      sink.put_f32_vec(model);
    }
    sink.put_size_vec(tier_updates);
    sink.put_size_vec(last_submit_version);
    sink.put_f64_vec(tier_lr);
    sink.put_f64_vec(staleness_sum);
    put_records(sink, out.result.rounds);
    sink.put_f64_vec(current_weights);
    sink.put_u64(dispatch_seq);
    sink.put_u64(scheduled);
    for (std::size_t t = 0; t < num_tiers; ++t) {
      sink.put_bool(parked[t] != 0);
    }
    sink.put_size_vec(parked_at);
    sink.put_size_vec(retry_count);
    for (const PendingRound& round : pending) {
      sink.put_size_vec(round.selected);
      sink.put_u64(round.updates.size());
      for (const LocalUpdate& update : round.updates) {
        put_update(sink, update);
      }
      sink.put_u64(round.dispatch_version);
      sink.put_f64(round.latency);
    }
    sink.put_bool(last_evaluated);
    sink.put_u64(out.processed_events);
    sink.put_u64(out.max_event_batch);
    sink.put_f64(next_checkpoint_due);
    queue.save_state(sink);
    {
      util::ByteSink blob;
      fault.save_state(blob);
      sink.put_string(blob.bytes());
    }
    {
      util::ByteSink blob;
      policy.save_state(blob);
      sink.put_string(blob.bytes());
    }
    put_metrics(sink);
  };

  const bool resuming = !async_.resume_path.empty();
  if (resuming) {
    const std::string payload = load_snapshot(async_.resume_path);
    util::ByteSource source(payload);
    check_prologue(source, kSnapStatic, fingerprint, num_tiers,
                   clients_->size(), global.size(), policy.name());
    for (std::size_t t = 0; t < num_tiers; ++t) {
      get_rng(source, rngs.selection[t]);
      get_rng(source, rngs.latency[t]);
    }
    global = source.get_f32_vec();
    for (std::vector<float>& model : tier_models) {
      model = source.get_f32_vec();
    }
    tier_updates = source.get_size_vec();
    last_submit_version = source.get_size_vec();
    tier_lr = source.get_f64_vec();
    staleness_sum = source.get_f64_vec();
    out.result.rounds = get_records(source);
    current_weights = source.get_f64_vec();
    dispatch_seq = static_cast<std::size_t>(source.get_u64());
    scheduled = static_cast<std::size_t>(source.get_u64());
    for (std::size_t t = 0; t < num_tiers; ++t) {
      parked[t] = source.get_bool() ? 1 : 0;
    }
    parked_at = source.get_size_vec();
    retry_count = source.get_size_vec();
    for (PendingRound& round : pending) {
      round.selected = source.get_size_vec();
      const std::size_t updates = source.checked_count(source.get_u64(), 8);
      round.updates.assign(updates, LocalUpdate{});
      for (LocalUpdate& update : round.updates) {
        update = get_update(source);
      }
      round.dispatch_version = static_cast<std::size_t>(source.get_u64());
      round.latency = source.get_f64();
    }
    last_evaluated = source.get_bool();
    out.processed_events = static_cast<std::size_t>(source.get_u64());
    out.max_event_batch = static_cast<std::size_t>(source.get_u64());
    // The stored due point documents the crashed run's cadence; the
    // resumed run recomputes it from its *own* config (a resume without
    // --checkpoint must never attempt a write).
    (void)source.get_f64();
    queue.restore_state(source);
    next_checkpoint_due =
        async_.checkpoint_every > 0.0
            ? (std::floor(queue.now() / async_.checkpoint_every) + 1.0) *
                  async_.checkpoint_every
            : std::numeric_limits<double>::infinity();
    {
      const std::string blob = source.get_string();
      util::ByteSource blob_source(blob);
      fault.restore_state(blob_source);
    }
    {
      const std::string blob = source.get_string();
      util::ByteSource blob_source(blob);
      policy.restore_state(blob_source);
    }
    get_metrics(source);
    util::log_info("async: resumed from ", async_.resume_path, " at version ",
                   out.result.rounds.size(), ", t=", queue.now());
  }

  sim::EventLogWriter event_log;
  open_event_log(event_log, async_.event_log_path, resuming,
                 out.processed_events);

  const auto write_checkpoint = [&]() {
    const auto start = obs::wall_now();
    util::ByteSink sink;
    save_state(sink);
    const std::size_t bytes =
        save_snapshot(async_.checkpoint_path, sink.bytes());
    if (event_log.is_open()) event_log.sync();
    metrics.checkpoint_writes.add();
    metrics.checkpoint_bytes.add(bytes);
    metrics.checkpoint_write_ns.add(obs::wall_ns_count_since(start));
    if (obs::Tracer* t = obs::tracer()) {
      t->instant(queue.now(), "durability", "checkpoint", /*actor=*/0,
                 {obs::field("version", out.result.rounds.size()),
                  obs::field("events", out.processed_events)});
    }
  };

  if (!resuming) {
    for (std::size_t t = 0; t < num_tiers; ++t) {
      if (!tier_members_[t].empty() && scheduled < async_.total_updates) {
        dispatch(t);
      }
    }
  }

  std::vector<sim::Event> batch;  // reused across pop_batch calls
  while (!queue.empty() && !budget_exhausted) {
    if (fault.crash_at() > 0.0 && queue.peek().time >= fault.crash_at()) {
      // The injected kill point: flush the log (a real SIGKILL would leave
      // at most a torn tail, which the reader tolerates) and die *before*
      // popping or drawing anything, so the crashed run's streams stay
      // aligned with the uninterrupted oracle it is diffed against.
      if (event_log.is_open()) event_log.sync();
      throw sim::SimulatedCrash(queue.peek().time);
    }
    // Drain simultaneous completions in one heap pass.  Events scheduled
    // by the handlers below land at strictly later (time, seq) keys, so
    // per-event handling in batch order replays the one-pop-at-a-time
    // sequence byte for byte (see EventQueue::pop_batch).
    queue.pop_batch(batch);
    out.max_event_batch = std::max(out.max_event_batch, batch.size());
    metrics.event_batch.record(static_cast<double>(batch.size()));
    for (const sim::Event& event : batch) {
      ++out.processed_events;
      metrics.events.add();
      if (event_log.is_open()) event_log.append(event);
      const std::size_t tier = static_cast<std::size_t>(event.actor);
      if (fault.active()) {
        if (fault.lose_update()) {
          metrics.lost_updates.add();
          if (retry_count[tier] < async_.fault.max_retries) {
            // Lost in transit: park the round and retry the delivery after
            // a deterministic backoff (no RNG draw — the rescheduled event
            // flows through the queue like any other).
            ++retry_count[tier];
            queue.schedule(fault.backoff(retry_count[tier]), /*kind=*/0,
                           /*actor=*/tier);
            if (obs::Tracer* t = obs::tracer()) {
              t->instant(queue.now(), "fault", "lost",
                         static_cast<std::int64_t>(tier),
                         {obs::field("attempt", retry_count[tier])});
            }
            continue;
          }
          // Retries exhausted: the round's updates are gone for good (the
          // timeout case).  Un-count the dispatch and restart the tier so
          // the run still converges to total_updates versions.
          metrics.dropped_updates.add();
          retry_count[tier] = 0;
          --scheduled;
          if (obs::Tracer* t = obs::tracer()) {
            t->instant(queue.now(), "fault", "dropped",
                       static_cast<std::int64_t>(tier),
                       {obs::field("retries", async_.fault.max_retries)});
          }
          if (scheduled < async_.total_updates) dispatch(tier);
          continue;
        }
        retry_count[tier] = 0;
      }
      PendingRound& round = pending[tier];

      obs::ScopedPhase agg_phase(&phases, obs::Phase::kAggregate);
      // --- tier-level FedAvg (reduce in selection order) ---------------------
      std::vector<WeightedUpdate> weighted;
      weighted.reserve(round.updates.size());
      double train_loss = 0.0;
      for (const LocalUpdate& update : round.updates) {
        weighted.push_back(WeightedUpdate{
            .weights = update.weights,
            .sample_count = static_cast<double>(update.num_samples)});
        train_loss += update.train_loss;
      }
      train_loss /= static_cast<double>(round.updates.size());
      tier_models[tier] = fedavg(weighted);

      const std::size_t version = out.result.rounds.size();
      staleness_sum[tier] +=
          static_cast<double>(version - round.dispatch_version);
      ++tier_updates[tier];
      last_submit_version[tier] = version;
      tier_lr[tier] *= config_.lr_decay_per_round;
      metrics.tier_rounds.add();
      metrics.staleness.record(
          static_cast<double>(version - round.dispatch_version));

      // --- staleness-weighted cross-tier aggregation -------------------------
      model_age.assign(num_tiers, 0);
      for (std::size_t t = 0; t < num_tiers; ++t) {
        if (tier_updates[t] > 0) model_age[t] = version - last_submit_version[t];
      }
      current_weights = cross_tier_weights(async_.staleness, async_.poly_alpha,
                                           tier_updates, model_age);
      aggregate_global(tier_models, current_weights, global, accum_scratch);
      agg_phase.stop();
      if (obs::Tracer* t = obs::tracer()) {
        t->instant(queue.now(), "async", "aggregate",
                   static_cast<std::int64_t>(tier),
                   {obs::field("version", version),
                    obs::field("staleness", version - round.dispatch_version),
                    obs::field("weight", current_weights[tier])});
      }

      // --- record + evaluation ----------------------------------------------
      RoundRecord record;
      record.round = version;
      record.round_latency = round.latency;
      record.virtual_time = queue.now();
      record.train_loss = train_loss;
      record.selected_tier = static_cast<int>(tier);
      record.selected_clients = round.selected;

      last_evaluated = version % async_.eval_every == 0 ||
                       version + 1 == async_.total_updates;
      if (last_evaluated) {
        obs::ScopedPhase phase(&phases, obs::Phase::kEval);
        const nn::LossResult r = evaluate(global, *test_);
        phase.stop();
        record.global_accuracy = r.accuracy;
        record.global_loss = r.loss;
        if (obs::Tracer* t = obs::tracer()) {
          t->instant(queue.now(), "async", "eval",
                     static_cast<std::int64_t>(tier),
                     {obs::field("version", version),
                      obs::field("accuracy", r.accuracy)});
        }
      } else if (!out.result.rounds.empty()) {
        record.global_accuracy = out.result.rounds.back().global_accuracy;
        record.global_loss = out.result.rounds.back().global_loss;
      }

      RoundFeedback feedback;
      feedback.round = version;
      feedback.virtual_time = queue.now();
      feedback.global_accuracy = record.global_accuracy;
      feedback.global_loss = record.global_loss;
      feedback.submitting_tier = static_cast<int>(tier);
      feedback.staleness = version - round.dispatch_version;
      if (last_evaluated) {
        obs::ScopedPhase phase(&phases, obs::Phase::kEval);
        feedback.tier_accuracies = evaluate_tiers(global);
      }
      policy.observe(feedback);

      out.result.rounds.push_back(std::move(record));

      if (version % 50 == 0) {
        util::log_debug("async v", version, " tier=", tier,
                        " acc=", out.result.rounds.back().global_accuracy,
                        " t=", queue.now());
      }

      if (async_.time_budget_seconds > 0.0 &&
          queue.now() >= async_.time_budget_seconds) {
        util::log_info("async time budget of ", async_.time_budget_seconds,
                       "s exhausted after ", version + 1, " updates");
        budget_exhausted = true;
        break;
      }
      // Total dispatches are capped at total_updates, so draining the queue
      // records exactly that many versions (fewer on a time-budget break).
      if (scheduled < async_.total_updates) dispatch(tier);
      // Policy-parked tiers get another chance at the new global version
      // (skipping any tier parked at this very version just above).
      for (std::size_t t = 0; t < num_tiers; ++t) {
        if (parked[t] && parked_at[t] < out.result.rounds.size() &&
            scheduled < async_.total_updates) {
          metrics.park_retries.add();
          dispatch(t);
        }
      }
    }
    // Checkpoint at batch boundaries once virtual time crosses the due
    // point: the trigger is a pure function of event times (never a queue
    // event), so it perturbs no seqs.
    if (!budget_exhausted && queue.now() >= next_checkpoint_due) {
      write_checkpoint();
      next_checkpoint_due =
          (std::floor(queue.now() / async_.checkpoint_every) + 1.0) *
          async_.checkpoint_every;
    }
  }

  // A time-budget break (or a carry-forward cadence) can leave the last
  // record holding a stale accuracy; refresh it from the final weights.
  if (!out.result.rounds.empty() && !last_evaluated) {
    obs::ScopedPhase phase(&phases, obs::Phase::kEval);
    const nn::LossResult r = evaluate(global, *test_);
    out.result.rounds.back().global_accuracy = r.accuracy;
    out.result.rounds.back().global_loss = r.loss;
  }

  const auto finalize_start = obs::wall_now();
  finalize_result(out, std::move(global), tier_updates, staleness_sum,
                  std::move(current_weights));
  out.result.phases = phases.stats();
  out.final_members = tier_members_;
  for (const std::vector<std::size_t>& members : tier_members_) {
    out.final_live_clients += members.size();
  }
  metrics.finalize_ns.add(obs::wall_ns_count_since(finalize_start));
  return out;
}

// Dynamic client lifecycle: joins, leaves, mid-round slowdowns and online
// re-tiering share the event queue with training.  The unit of submission
// is the *client*, not the tier: every sampled client's update arrives as
// its own kClientUpdate event after that client's individual latency, is
// folded into its tier's running (staleness-weighted) FedAvg, and
// triggers one cross-tier aggregation — so a straggler whose multiplier
// changed mid-flight lands late and is discounted by its own age, while
// its on-time cohort already moved the model.  A tier re-dispatches when
// every awaited member has arrived or left.
AsyncRunResult AsyncEngine::run_dynamic(std::uint64_t seed,
                                        SelectionPolicy& policy) {
  const std::size_t num_tiers = tier_members_.size();
  const std::size_t num_clients = clients_->size();
  AsyncMetrics& metrics = async_metrics();
  const auto setup_start = obs::wall_now();
  obs::PhaseTimer phases;
  if (async_.reprofile_every > 0.0 && !hooks_.retier) {
    throw std::invalid_argument(
        "AsyncEngine: reprofile_every > 0 requires a retier hook");
  }

  // Membership evolves during the run (leaves, joins, re-tierings), so
  // work on run-local state: repeated run() calls stay a pure function
  // of the seed.  Authoritative membership lives in order-statistics sets
  // (SegmentedIdSet: O(block) churn instead of an O(n) memmove per event
  // at million-client scale); `tiers_flat` is a dirty-cached ascending
  // copy rebuilt only where an interface needs a plain vector (custom
  // selection policies, re-tier callbacks, final reporting).  Both views
  // iterate in ascending id order, exactly like the flat sorted vectors
  // they replace, so sampling and picks are bit-identical.
  std::vector<std::vector<std::size_t>> tiers_flat = tier_members_;
  for (std::vector<std::size_t>& members : tiers_flat) {
    std::sort(members.begin(), members.end());
  }

  // Same stream layout as the static path; churn draws come from the
  // ChurnModel's own forked streams, so enabling re-profiling alone does
  // not perturb selection or latency sequences.
  TierRngs rngs = make_tier_rngs(seed, num_tiers);

  std::vector<float> global = factory_(seed).weights();
  const std::size_t weight_count = global.size();

  std::vector<std::vector<float>> tier_models(num_tiers, global);
  std::vector<std::size_t> tier_updates(num_tiers, 0);
  std::vector<std::size_t> last_submit_version(num_tiers, 0);
  std::vector<double> tier_lr(num_tiers, config_.local.optimizer.lr);
  std::vector<double> staleness_sum(num_tiers, 0.0);

  // One open round per tier, folded into incrementally as members arrive.
  struct DynRound {
    bool active = false;       // a cohort is in flight
    std::size_t awaiting = 0;  // members not yet arrived nor departed
    std::size_t arrivals = 0;
    std::vector<double> accum;  // sum of weight * update (doubles)
    double weight_total = 0.0;
  };
  std::vector<DynRound> rounds(num_tiers);

  // Per-client lifecycle state.
  constexpr std::size_t kNoTier = static_cast<std::size_t>(-1);
  std::vector<char> live(num_clients, 0);
  std::vector<std::size_t> tier_of(num_clients, kNoTier);
  std::vector<double> latency_scale(num_clients, 1.0);
  std::vector<char> in_flight(num_clients, 0);
  std::size_t in_flight_count = 0;
  std::vector<double> arrival_time(num_clients, 0.0);
  std::vector<double> flight_dispatch_time(num_clients, 0.0);
  std::vector<std::size_t> flight_dispatch_version(num_clients, 0);
  std::vector<std::size_t> flight_tier(num_clients, 0);
  std::vector<LocalUpdate> flight_update(num_clients);
  // Redelivery attempts for a lost in-flight update (fault injection).
  std::vector<std::size_t> flight_retries(num_clients, 0);

  std::vector<util::SegmentedIdSet> tier_sets;
  tier_sets.reserve(num_tiers);
  for (std::size_t t = 0; t < num_tiers; ++t) {
    tier_sets.emplace_back(num_clients);
  }
  std::vector<char> tier_dirty(num_tiers, 0);
  util::SegmentedIdSet live_set(num_clients);
  util::SegmentedIdSet inactive_set(num_clients);  // join reserve
  for (std::size_t t = 0; t < num_tiers; ++t) {
    for (std::size_t id : tiers_flat[t]) {
      live[id] = 1;
      tier_of[id] = t;
      tier_sets[t].insert(id);
    }
  }
  for (std::size_t c = 0; c < num_clients; ++c) {
    (live[c] ? live_set : inactive_set).insert(c);
  }

  // Refresh + return the flat membership copies; every plain-vector
  // consumer below goes through this.
  const auto flat_tiers = [&]() -> std::vector<std::vector<std::size_t>>& {
    for (std::size_t t = 0; t < num_tiers; ++t) {
      if (tier_dirty[t]) {
        tiers_flat[t] = tier_sets[t].to_vector();
        tier_dirty[t] = 0;
      }
    }
    return tiers_flat;
  };

  // In-flight members keyed by their *current* tier (cohort-sized sorted
  // vectors).  The default-policy fast path subtracts these from a tier
  // by rank instead of scanning its whole membership for busy clients;
  // rebucketed on re-tiering, erased on arrival and departure.
  std::vector<std::vector<std::size_t>> inflight_by_tier(num_tiers);
  const auto sorted_insert = [](std::vector<std::size_t>& ids,
                                std::size_t id) {
    ids.insert(std::lower_bound(ids.begin(), ids.end(), id), id);
  };
  const auto sorted_erase = [](std::vector<std::size_t>& ids,
                               std::size_t id) {
    const auto it = std::lower_bound(ids.begin(), ids.end(), id);
    if (it != ids.end() && *it == id) ids.erase(it);
  };

  // Clients are the actor space (lifecycle/reprofile events ride on
  // actor 0).
  sim::EventQueue queue;
  AsyncRunResult out;
  out.result.policy_name =
      policy_ != nullptr ? "async-dyn/" + policy.name() + "/" +
                               staleness_name(async_.staleness)
                         : "async-dyn/" + staleness_name(async_.staleness);
  out.result.rounds.reserve(async_.total_updates);
  std::vector<double> current_weights;
  std::vector<std::size_t> model_age;     // reused per aggregation
  std::vector<double> accum_scratch;      // aggregate_global scratch

  std::size_t dispatch_seq = 0;

  const auto expected_latency = [&](std::size_t c) {
    return latency_model_.expected_latency(clients_->resource(c),
                                           clients_->train_size(c),
                                           config_.local.epochs) *
           latency_scale[c];
  };

  // Hook-free join placement: the tier whose live members' mean expected
  // latency sits nearest the joiner's.
  const auto place_fallback = [&](std::size_t c) {
    const double mine = expected_latency(c);
    std::size_t best = 0;
    double best_distance = std::numeric_limits<double>::infinity();
    for (std::size_t t = 0; t < num_tiers; ++t) {
      if (tier_sets[t].empty()) continue;
      double mean = 0.0;
      tier_sets[t].for_each(
          [&](std::size_t id) { mean += expected_latency(id); });
      mean /= static_cast<double>(tier_sets[t].size());
      const double distance = std::abs(mean - mine);
      if (distance < best_distance) {
        best_distance = distance;
        best = t;
      }
    }
    return best;
  };

  // Tiers whose last selection came back empty (cadence parked by the
  // policy); retried once per *later* recorded version (`parked_at`
  // prevents a same-version re-ask).  The default uniform policy never
  // parks, so pre-seam replays never take the retry path.
  std::vector<char> parked(num_tiers, 0);
  std::vector<std::size_t> parked_at(num_tiers, 0);
  std::vector<std::size_t> staleness_scratch(num_tiers, 0);

  // --- durability state ------------------------------------------------------
  sim::FaultModel fault(async_.fault, seed);
  double next_checkpoint_due = async_.checkpoint_every > 0.0
                                   ? async_.checkpoint_every
                                   : std::numeric_limits<double>::infinity();
  const bool resuming = !async_.resume_path.empty();

  const auto dispatch = [&](std::size_t tier) {
    DynRound& round = rounds[tier];
    round.active = false;
    parked[tier] = 0;
    if (out.result.rounds.size() >= async_.total_updates) return;
    const std::size_t version = out.result.rounds.size();

    std::vector<std::size_t> selected;
    if (policy_ == nullptr) {
      // Default-policy fast path.  UniformTierPolicy::select draws
      // sample_without_replacement(|eligible|, count) and returns
      // eligible[draw], where eligible = tier members minus in-flight
      // clients in ascending id order.  Replicate that draw-for-draw
      // against the order-statistics set: the in-flight "holes" are
      // rank-adjusted away instead of materializing an O(tier size)
      // eligible list per dispatch.  Both paths consume the exact same
      // selection-stream values, so installing an explicit
      // UniformTierPolicy replays this path bit for bit (ctest-pinned).
      const std::size_t busy = inflight_by_tier[tier].size();
      const std::size_t eligible_count = tier_sets[tier].size() - busy;
      if (eligible_count == 0) return;
      obs::ScopedPhase phase(&phases, obs::Phase::kSelect);
      const std::size_t count =
          std::min(async_.clients_per_tier_round, eligible_count);
      const std::vector<std::size_t> draws = sample_without_replacement(
          eligible_count, count, rngs.selection[tier]);
      // Ranks of the busy members within the tier's ascending id order
      // (ascending, because inflight_by_tier is sorted by id).
      std::vector<std::size_t> blocked;
      blocked.reserve(busy);
      for (std::size_t id : inflight_by_tier[tier]) {
        blocked.push_back(tier_sets[tier].rank(id));
      }
      selected.reserve(count);
      for (std::size_t local : draws) {
        std::size_t idx = local;
        for (std::size_t r : blocked) {
          if (r <= idx) {
            ++idx;
          } else {
            break;
          }
        }
        selected.push_back(tier_sets[tier].kth(idx));
      }
    } else {
      // Custom policy: materialize the eligible list and ask.  A client
      // already training for another tier (possible right after a
      // re-tiering migration) cannot take a second task.
      std::vector<std::size_t> eligible;
      for (std::size_t id : flat_tiers()[tier]) {
        if (!in_flight[id]) eligible.push_back(id);
      }
      if (eligible.empty()) return;

      for (std::size_t t = 0; t < num_tiers; ++t) {
        staleness_scratch[t] =
            tier_updates[t] > 0 ? version - last_submit_version[t] : 0;
      }
      SelectionContext context;
      context.round = version;
      context.virtual_time = queue.now();
      context.tier = static_cast<int>(tier);
      context.candidates = eligible;
      context.tiers = TierView{.members = tiers_flat,
                               .update_counts = tier_updates,
                               .staleness = staleness_scratch};
      context.rng = &rngs.selection[tier];
      Selection selection;
      {
        obs::ScopedPhase phase(&phases, obs::Phase::kSelect);
        selection = policy.select(context);
      }
      if (selection.clients.empty()) {
        parked[tier] = 1;
        parked_at[tier] = version;
        metrics.parks.add();
        if (obs::Tracer* t = obs::tracer()) {
          t->instant(queue.now(), "async", "park",
                     static_cast<std::int64_t>(tier),
                     {obs::field("version", version)});
        }
        return;
      }
      for (std::size_t id : selection.clients) {
        if (id >= num_clients || !live[id] || in_flight[id]) {
          throw std::logic_error(
              "AsyncEngine: policy selected a dead or busy client");
        }
      }
      selected = std::move(selection.clients);
    }
    const std::size_t count = selected.size();

    round.active = true;
    round.awaiting = count;
    round.arrivals = 0;
    round.accum.assign(weight_count, 0.0);
    round.weight_total = 0.0;

    // Train the cohort at dispatch; each update waits in flight_update
    // until its member's arrival folds it in.
    std::vector<LocalUpdate> updates = train_cohort(
        selected, global, tier_lr[tier], seed, dispatch_seq, phases);
    ++dispatch_seq;

    // One bulk insert for the whole cohort: same (time, seq) keys as the
    // per-client schedule_at calls this replaces, one heap rebuild.
    std::vector<sim::PendingEvent> cohort;
    cohort.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t c = selected[i];
      const double latency =
          latency_model_.sample_latency(clients_->resource(c),
                                        clients_->train_size(c),
                                        config_.local.epochs,
                                        rngs.latency[tier]) *
          latency_scale[c];
      flight_update[c] = std::move(updates[i]);
      in_flight[c] = 1;
      ++in_flight_count;
      flight_retries[c] = 0;
      sorted_insert(inflight_by_tier[tier], c);
      flight_tier[c] = tier;
      flight_dispatch_time[c] = queue.now();
      flight_dispatch_version[c] = version;
      arrival_time[c] = queue.now() + latency;
      cohort.push_back(sim::PendingEvent{
          .delay = latency,
          .kind = static_cast<std::uint64_t>(sim::EventKind::kClientUpdate),
          .actor = c});
    }
    queue.schedule_bulk(cohort);
    if (obs::Tracer* t = obs::tracer()) {
      t->instant(queue.now(), "async", "cohort",
                 static_cast<std::int64_t>(tier),
                 {obs::field("version", version),
                  obs::field("clients", count)});
    }
  };

  // A round whose last awaited member arrived or departed: decay the lr
  // (once per completed cohort, matching the static path's per-round
  // decay) and start the tier's next round.
  const auto complete_round = [&](std::size_t tier) {
    if (rounds[tier].arrivals > 0) {
      tier_lr[tier] *= config_.lr_decay_per_round;
      metrics.tier_rounds.add();
    }
    dispatch(tier);
  };

  // Lifecycle event source: exactly one churn event is scheduled at a
  // time (the queue's Event carries no payload, so the pending
  // LifecycleEvent rides alongside in `pending_churn`).
  sim::ChurnModel churn(async_.churn, seed);
  std::optional<sim::LifecycleEvent> pending_churn;
  const auto schedule_next_churn = [&]() {
    pending_churn = churn.next();
    if (pending_churn.has_value()) {
      queue.schedule_at(pending_churn->time,
                        static_cast<std::uint64_t>(pending_churn->kind),
                        /*actor=*/0);
    }
  };
  if (!resuming) {
    schedule_next_churn();
    if (async_.reprofile_every > 0.0) {
      queue.schedule_at(async_.reprofile_every,
                        static_cast<std::uint64_t>(sim::EventKind::kReProfile),
                        /*actor=*/0);
    }
  }

  metrics.setup_ns.add(obs::wall_ns_count_since(setup_start));

  bool last_evaluated = false;
  bool stopped = false;

  // --- snapshot payload (dynamic path) ---------------------------------------
  // Everything the event loop's future depends on: stream positions,
  // per-tier server state, the evolved membership, in-flight cohorts
  // (trained at dispatch, so their updates travel with the snapshot),
  // churn/re-tierer/policy/fault state, the queue, and the metrics
  // registry.
  const std::uint64_t fingerprint = config_fingerprint(
      config_, async_, seed, num_tiers, num_clients, weight_count);
  const auto save_state = [&](util::ByteSink& sink) {
    put_prologue(sink, kSnapDynamic, fingerprint, num_tiers, num_clients,
                 weight_count, policy.name());
    for (std::size_t t = 0; t < num_tiers; ++t) {
      put_rng(sink, rngs.selection[t]);
      put_rng(sink, rngs.latency[t]);
    }
    sink.put_f32_vec(global);
    for (const std::vector<float>& model : tier_models) {
      sink.put_f32_vec(model);
    }
    sink.put_size_vec(tier_updates);
    sink.put_size_vec(last_submit_version);
    sink.put_f64_vec(tier_lr);
    sink.put_f64_vec(staleness_sum);
    put_records(sink, out.result.rounds);
    sink.put_f64_vec(current_weights);
    sink.put_u64(dispatch_seq);
    for (const std::vector<std::size_t>& members : flat_tiers()) {
      sink.put_size_vec(members);
    }
    // Latency multipliers, sparse: only clients a slowdown touched.
    std::uint64_t scaled = 0;
    for (double s : latency_scale) scaled += s != 1.0 ? 1 : 0;
    sink.put_u64(scaled);
    for (std::size_t c = 0; c < num_clients; ++c) {
      if (latency_scale[c] != 1.0) {
        sink.put_u64(c);
        sink.put_f64(latency_scale[c]);
      }
    }
    // In-flight cohort members, ascending id order (restore re-buckets
    // inflight_by_tier from tier_of, so per-tier lists stay sorted).
    sink.put_u64(in_flight_count);
    for (std::size_t c = 0; c < num_clients; ++c) {
      if (!in_flight[c]) continue;
      sink.put_u64(c);
      sink.put_u64(flight_tier[c]);
      sink.put_f64(flight_dispatch_time[c]);
      sink.put_u64(flight_dispatch_version[c]);
      sink.put_f64(arrival_time[c]);
      sink.put_u64(flight_retries[c]);
      put_update(sink, flight_update[c]);
    }
    for (const DynRound& round : rounds) {
      sink.put_bool(round.active);
      sink.put_u64(round.awaiting);
      sink.put_u64(round.arrivals);
      sink.put_f64(round.weight_total);
      sink.put_f64_vec(round.accum);
    }
    for (std::size_t t = 0; t < num_tiers; ++t) {
      sink.put_bool(parked[t] != 0);
    }
    sink.put_size_vec(parked_at);
    {
      util::ByteSink blob;
      churn.save_state(blob);
      sink.put_string(blob.bytes());
    }
    sink.put_bool(pending_churn.has_value());
    if (pending_churn.has_value()) {
      sink.put_f64(pending_churn->time);
      sink.put_u64(static_cast<std::uint64_t>(pending_churn->kind));
      sink.put_u64(pending_churn->pick);
      sink.put_f64(pending_churn->factor);
    }
    {
      util::ByteSink blob;
      if (hooks_.save_state) hooks_.save_state(blob);
      sink.put_string(blob.bytes());
    }
    sink.put_bool(last_evaluated);
    sink.put_u64(out.join_count);
    sink.put_u64(out.leave_count);
    sink.put_u64(out.slowdown_count);
    sink.put_u64(out.reprofile_count);
    sink.put_u64(out.processed_events);
    sink.put_u64(out.max_event_batch);
    sink.put_f64(next_checkpoint_due);
    queue.save_state(sink);
    {
      util::ByteSink blob;
      fault.save_state(blob);
      sink.put_string(blob.bytes());
    }
    {
      util::ByteSink blob;
      policy.save_state(blob);
      sink.put_string(blob.bytes());
    }
    put_metrics(sink);
  };

  if (resuming) {
    const std::string payload = load_snapshot(async_.resume_path);
    util::ByteSource source(payload);
    check_prologue(source, kSnapDynamic, fingerprint, num_tiers, num_clients,
                   weight_count, policy.name());
    for (std::size_t t = 0; t < num_tiers; ++t) {
      get_rng(source, rngs.selection[t]);
      get_rng(source, rngs.latency[t]);
    }
    global = source.get_f32_vec();
    for (std::vector<float>& model : tier_models) {
      model = source.get_f32_vec();
    }
    tier_updates = source.get_size_vec();
    last_submit_version = source.get_size_vec();
    tier_lr = source.get_f64_vec();
    staleness_sum = source.get_f64_vec();
    out.result.rounds = get_records(source);
    current_weights = source.get_f64_vec();
    dispatch_seq = static_cast<std::size_t>(source.get_u64());
    // Rebuild every membership view from the snapshot's flat tiers.
    std::fill(live.begin(), live.end(), 0);
    std::fill(tier_of.begin(), tier_of.end(), kNoTier);
    live_set.clear();
    inactive_set.clear();
    for (std::size_t t = 0; t < num_tiers; ++t) {
      tiers_flat[t] = source.get_size_vec();
      tier_sets[t].clear();
      tier_dirty[t] = 0;
      for (std::size_t id : tiers_flat[t]) {
        if (id >= num_clients) {
          throw std::runtime_error(
              "AsyncEngine: snapshot member out of range");
        }
        live[id] = 1;
        tier_of[id] = t;
        tier_sets[t].insert(id);
      }
    }
    for (std::size_t c = 0; c < num_clients; ++c) {
      (live[c] ? live_set : inactive_set).insert(c);
    }
    std::fill(latency_scale.begin(), latency_scale.end(), 1.0);
    const std::size_t scaled = source.checked_count(source.get_u64(), 16);
    for (std::size_t i = 0; i < scaled; ++i) {
      const std::size_t c = static_cast<std::size_t>(source.get_u64());
      latency_scale.at(c) = source.get_f64();
    }
    std::fill(in_flight.begin(), in_flight.end(), 0);
    for (std::vector<std::size_t>& list : inflight_by_tier) list.clear();
    in_flight_count = source.checked_count(source.get_u64(), 8);
    for (std::size_t i = 0; i < in_flight_count; ++i) {
      const std::size_t c = static_cast<std::size_t>(source.get_u64());
      in_flight.at(c) = 1;
      flight_tier[c] = static_cast<std::size_t>(source.get_u64());
      flight_dispatch_time[c] = source.get_f64();
      flight_dispatch_version[c] = static_cast<std::size_t>(source.get_u64());
      arrival_time[c] = source.get_f64();
      flight_retries[c] = static_cast<std::size_t>(source.get_u64());
      flight_update[c] = get_update(source);
      inflight_by_tier[tier_of[c]].push_back(c);
    }
    for (DynRound& round : rounds) {
      round.active = source.get_bool();
      round.awaiting = static_cast<std::size_t>(source.get_u64());
      round.arrivals = static_cast<std::size_t>(source.get_u64());
      round.weight_total = source.get_f64();
      round.accum = source.get_f64_vec();
    }
    for (std::size_t t = 0; t < num_tiers; ++t) {
      parked[t] = source.get_bool() ? 1 : 0;
    }
    parked_at = source.get_size_vec();
    {
      const std::string blob = source.get_string();
      util::ByteSource blob_source(blob);
      churn.restore_state(blob_source);
    }
    if (source.get_bool()) {
      sim::LifecycleEvent event;
      event.time = source.get_f64();
      event.kind = static_cast<sim::EventKind>(source.get_u64());
      event.pick = source.get_u64();
      event.factor = source.get_f64();
      pending_churn = event;
    } else {
      pending_churn.reset();
    }
    {
      const std::string blob = source.get_string();
      if (hooks_.restore_state && !blob.empty()) {
        util::ByteSource blob_source(blob);
        hooks_.restore_state(blob_source);
      }
    }
    last_evaluated = source.get_bool();
    out.join_count = static_cast<std::size_t>(source.get_u64());
    out.leave_count = static_cast<std::size_t>(source.get_u64());
    out.slowdown_count = static_cast<std::size_t>(source.get_u64());
    out.reprofile_count = static_cast<std::size_t>(source.get_u64());
    out.processed_events = static_cast<std::size_t>(source.get_u64());
    out.max_event_batch = static_cast<std::size_t>(source.get_u64());
    // The stored due point documents the crashed run's cadence; the
    // resumed run recomputes it from its *own* config (a resume without
    // --checkpoint must never attempt a write).
    (void)source.get_f64();
    queue.restore_state(source);
    next_checkpoint_due =
        async_.checkpoint_every > 0.0
            ? (std::floor(queue.now() / async_.checkpoint_every) + 1.0) *
                  async_.checkpoint_every
            : std::numeric_limits<double>::infinity();
    {
      const std::string blob = source.get_string();
      util::ByteSource blob_source(blob);
      fault.restore_state(blob_source);
    }
    {
      const std::string blob = source.get_string();
      util::ByteSource blob_source(blob);
      policy.restore_state(blob_source);
    }
    get_metrics(source);
    util::log_info("async-dyn: resumed from ", async_.resume_path,
                   " at version ", out.result.rounds.size(),
                   ", t=", queue.now());
  }

  sim::EventLogWriter event_log;
  open_event_log(event_log, async_.event_log_path, resuming,
                 out.processed_events);

  const auto write_checkpoint = [&]() {
    const auto start = obs::wall_now();
    util::ByteSink sink;
    save_state(sink);
    const std::size_t bytes =
        save_snapshot(async_.checkpoint_path, sink.bytes());
    if (event_log.is_open()) event_log.sync();
    metrics.checkpoint_writes.add();
    metrics.checkpoint_bytes.add(bytes);
    metrics.checkpoint_write_ns.add(obs::wall_ns_count_since(start));
    if (obs::Tracer* t = obs::tracer()) {
      t->instant(queue.now(), "durability", "checkpoint", /*actor=*/0,
                 {obs::field("version", out.result.rounds.size()),
                  obs::field("events", out.processed_events)});
    }
  };

  if (!resuming) {
    for (std::size_t t = 0; t < num_tiers; ++t) {
      if (!tier_sets[t].empty()) dispatch(t);
    }
  }

  std::vector<sim::Event> batch;  // reused across pop_batch calls
  while (!queue.empty() && !stopped) {
    // Injected server crash: fires strictly between batches, so the last
    // checkpoint is a consistent prefix.
    if (fault.crash_at() > 0.0 && queue.peek().time >= fault.crash_at()) {
      if (event_log.is_open()) event_log.sync();
      throw sim::SimulatedCrash(queue.peek().time);
    }
    // Same-timestamp batch drain as the static loop: in-batch order is
    // the exact (time, seq) pop order, and anything the handlers schedule
    // sorts after the whole batch, so the replay sequence is unchanged.
    queue.pop_batch(batch);
    out.max_event_batch = std::max(out.max_event_batch, batch.size());
    metrics.event_batch.record(static_cast<double>(batch.size()));
    for (const sim::Event& event : batch) {
      ++out.processed_events;
      metrics.events.add();
      if (event_log.is_open()) event_log.append(event);
      // Budget crossings must be caught on *any* event kind: the churn and
      // reprofile streams re-arm forever, so an update-starved run (e.g.
      // heavy leave rates) would otherwise spin on lifecycle events
      // arbitrarily far past the budget.  A client update crossing the
      // budget still falls through and is recorded before the post-record
      // check below stops the run.
      if (async_.time_budget_seconds > 0.0 &&
          queue.now() >= async_.time_budget_seconds &&
          static_cast<sim::EventKind>(event.kind) !=
              sim::EventKind::kClientUpdate) {
        util::log_info("async time budget of ", async_.time_budget_seconds,
                       "s exhausted after ", out.result.rounds.size(),
                       " updates");
        stopped = true;
        break;
      }
      switch (static_cast<sim::EventKind>(event.kind)) {
        case sim::EventKind::kClientUpdate: {
          const std::size_t c = static_cast<std::size_t>(event.actor);
          // A leave or slowdown invalidated this arrival: the client either
          // departed or now lands at a different (rescheduled) time.
          if (!in_flight[c] || event.time != arrival_time[c]) {
            metrics.stale_events.add();
            break;
          }
          // Injected network loss: one Bernoulli draw per delivery attempt,
          // in pop order.
          if (fault.active() && fault.lose_update()) {
            metrics.lost_updates.add();
            if (flight_retries[c] < async_.fault.max_retries) {
              ++flight_retries[c];
              arrival_time[c] = queue.now() + fault.backoff(flight_retries[c]);
              queue.schedule_at(
                  arrival_time[c],
                  static_cast<std::uint64_t>(sim::EventKind::kClientUpdate),
                  event.actor);
              if (obs::Tracer* t = obs::tracer()) {
                t->instant(queue.now(), "fault", "lost",
                           static_cast<std::int64_t>(c),
                           {obs::field("attempt", flight_retries[c])});
              }
              break;
            }
            // Retries exhausted: the update is gone for good.  The client
            // stays live and eligible for its tier's next cohort.
            metrics.dropped_updates.add();
            if (obs::Tracer* t = obs::tracer()) {
              t->instant(queue.now(), "fault", "dropped",
                         static_cast<std::int64_t>(c),
                         {obs::field("retries", flight_retries[c])});
            }
            flight_retries[c] = 0;
            in_flight[c] = 0;
            --in_flight_count;
            sorted_erase(inflight_by_tier[tier_of[c]], c);
            flight_update[c] = LocalUpdate{};
            DynRound& lost_round = rounds[flight_tier[c]];
            --lost_round.awaiting;
            if (lost_round.awaiting == 0) complete_round(flight_tier[c]);
            break;
          }
          flight_retries[c] = 0;
          in_flight[c] = 0;
          --in_flight_count;
          sorted_erase(inflight_by_tier[tier_of[c]], c);
          const std::size_t tier = flight_tier[c];
          DynRound& round = rounds[tier];
          --round.awaiting;
          ++round.arrivals;

          const std::size_t version = out.result.rounds.size();
          const std::size_t age = version - flight_dispatch_version[c];
          const double observed = queue.now() - flight_dispatch_time[c];
          if (hooks_.observe) hooks_.observe(c, observed);

          obs::ScopedPhase agg_phase(&phases, obs::Phase::kAggregate);
          // Fold this client into the tier's running FedAvg, discounted by
          // the update's *own* staleness (constant/invfreq leave the
          // factor at 1 and weigh by update counts instead).
          const LocalUpdate& update = flight_update[c];
          const double w =
              static_cast<double>(update.num_samples) *
              staleness_factor(async_.staleness, async_.poly_alpha, age);
          if (w > 0.0) {
            for (std::size_t i = 0; i < weight_count; ++i) {
              round.accum[i] += w * static_cast<double>(update.weights[i]);
            }
            round.weight_total += w;
          }
          const double client_train_loss = update.train_loss;
          // Folded in: release the weight copy (peak flight_update memory
          // stays bounded by the in-flight set, not the federation size).
          flight_update[c] = LocalUpdate{};
          if (round.weight_total > 0.0) {
            for (std::size_t i = 0; i < weight_count; ++i) {
              tier_models[tier][i] = static_cast<float>(
                  round.accum[i] / round.weight_total);
            }
          }

          staleness_sum[tier] += static_cast<double>(age);
          ++tier_updates[tier];
          last_submit_version[tier] = version;

          model_age.assign(num_tiers, 0);
          for (std::size_t t = 0; t < num_tiers; ++t) {
            if (tier_updates[t] > 0) {
              model_age[t] = version - last_submit_version[t];
            }
          }
          current_weights = cross_tier_weights(
              async_.staleness, async_.poly_alpha, tier_updates, model_age);
          aggregate_global(tier_models, current_weights, global, accum_scratch);
          agg_phase.stop();
          metrics.staleness.record(static_cast<double>(age));
          if (obs::Tracer* t = obs::tracer()) {
            t->instant(queue.now(), "async", "update",
                       static_cast<std::int64_t>(c),
                       {obs::field("version", version),
                        obs::field("tier", tier),
                        obs::field("staleness", age)});
          }

          RoundRecord record;
          record.round = version;
          record.round_latency = observed;
          record.virtual_time = queue.now();
          record.train_loss = client_train_loss;
          record.selected_tier = static_cast<int>(tier);
          record.selected_clients = {c};

          last_evaluated = version % async_.eval_every == 0 ||
                           version + 1 == async_.total_updates;
          if (last_evaluated) {
            obs::ScopedPhase phase(&phases, obs::Phase::kEval);
            const nn::LossResult r = evaluate(global, *test_);
            phase.stop();
            record.global_accuracy = r.accuracy;
            record.global_loss = r.loss;
            if (obs::Tracer* t = obs::tracer()) {
              t->instant(queue.now(), "async", "eval",
                         static_cast<std::int64_t>(tier),
                         {obs::field("version", version),
                          obs::field("accuracy", r.accuracy)});
            }
          } else if (!out.result.rounds.empty()) {
            record.global_accuracy = out.result.rounds.back().global_accuracy;
            record.global_loss = out.result.rounds.back().global_loss;
          }

          RoundFeedback feedback;
          feedback.round = version;
          feedback.virtual_time = queue.now();
          feedback.global_accuracy = record.global_accuracy;
          feedback.global_loss = record.global_loss;
          feedback.submitting_tier = static_cast<int>(tier);
          feedback.staleness = age;
          if (last_evaluated) {
            obs::ScopedPhase phase(&phases, obs::Phase::kEval);
            feedback.tier_accuracies = evaluate_tiers(global);
          }
          policy.observe(feedback);

          out.result.rounds.push_back(std::move(record));

          if (version + 1 >= async_.total_updates) {
            stopped = true;
            break;
          }
          if (async_.time_budget_seconds > 0.0 &&
              queue.now() >= async_.time_budget_seconds) {
            util::log_info("async time budget of ", async_.time_budget_seconds,
                           "s exhausted after ", version + 1, " updates");
            stopped = true;
            break;
          }

          if (round.awaiting == 0) complete_round(tier);
          // A re-tiering may have parked this client's new tier with no
          // eligible members while it was in flight; revive it now.
          if (tier_of[c] != kNoTier && !rounds[tier_of[c]].active) {
            dispatch(tier_of[c]);
          }
          // Policy-parked tiers get another chance at the new version
          // (skipping any tier parked at this very version just above).
          for (std::size_t t = 0; t < num_tiers; ++t) {
            if (parked[t] && parked_at[t] < out.result.rounds.size() &&
                !rounds[t].active) {
              metrics.park_retries.add();
              dispatch(t);
            }
          }
          break;
        }

        case sim::EventKind::kClientLeave: {
          const sim::LifecycleEvent churn_event = *pending_churn;
          schedule_next_churn();
          if (live_set.empty()) break;
          const std::size_t c =
              live_set.kth(churn_event.pick % live_set.size());
          ++out.leave_count;
          metrics.leaves.add();
          if (obs::Tracer* t = obs::tracer()) {
            t->instant(queue.now(), "churn", "leave",
                       static_cast<std::int64_t>(c),
                       {obs::field("in_flight",
                                   static_cast<std::int64_t>(in_flight[c]))});
          }
          live[c] = 0;
          live_set.erase(c);
          inactive_set.insert(c);
          if (tier_of[c] != kNoTier) {
            if (in_flight[c]) sorted_erase(inflight_by_tier[tier_of[c]], c);
            tier_sets[tier_of[c]].erase(c);
            tier_dirty[tier_of[c]] = 1;
            tier_of[c] = kNoTier;
          }
          if (hooks_.left) hooks_.left(c);
          policy.on_leave(c);
          if (in_flight[c]) {
            // Mid-round departure: its pending update is lost; the cohort
            // no longer waits for it.
            in_flight[c] = 0;
            --in_flight_count;
            flight_update[c] = LocalUpdate{};
            DynRound& round = rounds[flight_tier[c]];
            --round.awaiting;
            if (round.awaiting == 0) complete_round(flight_tier[c]);
          }
          break;
        }

        case sim::EventKind::kClientJoin: {
          const sim::LifecycleEvent churn_event = *pending_churn;
          schedule_next_churn();
          if (inactive_set.empty()) break;  // nobody waiting to (re)join
          const std::size_t c =
              inactive_set.kth(churn_event.pick % inactive_set.size());
          ++out.join_count;
          live[c] = 1;
          inactive_set.erase(c);
          live_set.insert(c);
          const std::size_t tier = hooks_.joined
                                       ? hooks_.joined(c, expected_latency(c))
                                       : place_fallback(c);
          if (tier >= num_tiers) {
            throw std::runtime_error(
                "AsyncEngine: joined hook returned tier out of range");
          }
          tier_sets[tier].insert(c);
          tier_dirty[tier] = 1;
          tier_of[c] = tier;
          metrics.joins.add();
          if (obs::Tracer* t = obs::tracer()) {
            t->instant(queue.now(), "churn", "join",
                       static_cast<std::int64_t>(c),
                       {obs::field("tier", tier)});
          }
          policy.on_join(c, tier);
          if (!rounds[tier].active) dispatch(tier);
          break;
        }

        case sim::EventKind::kClientSlowdown: {
          const sim::LifecycleEvent churn_event = *pending_churn;
          schedule_next_churn();
          if (live_set.empty()) break;
          const std::size_t c =
              live_set.kth(churn_event.pick % live_set.size());
          ++out.slowdown_count;
          // The event *sets* the multiplier relative to the client's
          // profiled baseline rather than compounding it: compounded
          // multipliers (mean ~2x) drift exponentially, and an in-flight
          // client hit repeatedly would see its arrival recede faster than
          // virtual time advances — a round that never completes.
          const double previous = latency_scale[c];
          latency_scale[c] = churn_event.factor;
          metrics.slowdowns.add();
          if (obs::Tracer* t = obs::tracer()) {
            t->instant(queue.now(), "churn", "slowdown",
                       static_cast<std::int64_t>(c),
                       {obs::field("factor", churn_event.factor)});
          }
          if (in_flight[c]) {
            // Mid-round straggler: the remaining flight time rescales from
            // the old multiplier to the new one; the stale arrival event is
            // left in the queue and ignored by the time check above.
            const double remaining = arrival_time[c] - queue.now();
            arrival_time[c] =
                queue.now() + remaining * (churn_event.factor / previous);
            queue.schedule_at(arrival_time[c],
                              static_cast<std::uint64_t>(
                                  sim::EventKind::kClientUpdate),
                              c);
          }
          break;
        }

        case sim::EventKind::kReProfile: {
          queue.schedule_at(queue.now() + async_.reprofile_every,
                            static_cast<std::uint64_t>(
                                sim::EventKind::kReProfile),
                            /*actor=*/0);
          if (live_set.empty()) break;  // nobody to tier until a join lands
          ++out.reprofile_count;
          metrics.reprofiles.add();
          if (obs::Tracer* t = obs::tracer()) {
            t->instant(queue.now(), "churn", "reprofile", /*actor=*/0,
                       {obs::field("live",
                                   static_cast<std::int64_t>(
                                       live_set.size()))});
          }
          std::vector<std::vector<std::size_t>> members = hooks_.retier();
          if (members.size() != num_tiers) {
            throw std::runtime_error(
                "AsyncEngine: retier hook returned wrong tier count");
          }
          std::vector<char> seen(num_clients, 0);
          std::size_t total = 0;
          for (std::vector<std::size_t>& tier : members) {
            std::sort(tier.begin(), tier.end());
            for (std::size_t id : tier) {
              if (id >= num_clients || !live[id] || seen[id]) {
                throw std::runtime_error(
                    "AsyncEngine: retier hook returned invalid membership");
              }
              seen[id] = 1;
              ++total;
            }
          }
          if (total != live_set.size()) {
            throw std::runtime_error(
                "AsyncEngine: retier hook dropped live clients");
          }
          tiers_flat = std::move(members);
          // Re-bucket the in-flight lists under the migrated tier_of
          // (collected ascending, so per-tier order stays sorted).
          std::vector<std::size_t> migrated;
          for (std::vector<std::size_t>& list : inflight_by_tier) {
            migrated.insert(migrated.end(), list.begin(), list.end());
            list.clear();
          }
          std::sort(migrated.begin(), migrated.end());
          for (std::size_t t = 0; t < num_tiers; ++t) {
            tier_dirty[t] = 0;
            tier_sets[t].clear();
            for (std::size_t id : tiers_flat[t]) {
              tier_sets[t].insert(id);
              tier_of[id] = t;
            }
          }
          for (std::size_t id : migrated) {
            inflight_by_tier[tier_of[id]].push_back(id);
          }
          policy.on_retier(tiers_flat);
          // Pending cohorts keep running under their dispatching tier; the
          // migrated membership only shapes future sampling.  Tiers that
          // gained their first members start their cadence now.
          for (std::size_t t = 0; t < num_tiers; ++t) {
            if (!rounds[t].active && !tier_sets[t].empty()) dispatch(t);
          }
          break;
        }

        default:
          throw std::logic_error("AsyncEngine: unexpected event kind");
      }
      if (stopped) break;

      // Training can die out entirely (every client left mid-run).  Churn
      // streams never end, so stop unless a join could revive the run.
      if (in_flight_count == 0 && async_.churn.join_rate <= 0.0) {
        bool any_active = false;
        for (const DynRound& round : rounds) any_active |= round.active;
        if (!any_active) {
          util::log_info("async-dyn: population died out after ",
                         out.result.rounds.size(), " updates");
          stopped = true;
          break;
        }
      }
    }
    // Checkpoint at batch boundaries once virtual time crosses the due
    // point: the trigger is a pure function of event times (never a queue
    // event), so it perturbs no seqs.
    if (!stopped && queue.now() >= next_checkpoint_due) {
      write_checkpoint();
      next_checkpoint_due =
          (std::floor(queue.now() / async_.checkpoint_every) + 1.0) *
          async_.checkpoint_every;
    }
  }

  if (!out.result.rounds.empty() && !last_evaluated) {
    obs::ScopedPhase phase(&phases, obs::Phase::kEval);
    const nn::LossResult r = evaluate(global, *test_);
    out.result.rounds.back().global_accuracy = r.accuracy;
    out.result.rounds.back().global_loss = r.loss;
  }

  const auto finalize_start = obs::wall_now();
  finalize_result(out, std::move(global), tier_updates, staleness_sum,
                  std::move(current_weights));
  out.result.phases = phases.stats();
  out.final_members = std::move(flat_tiers());
  out.final_live_clients = live_set.size();
  metrics.finalize_ns.add(obs::wall_ns_count_since(finalize_start));
  return out;
}

}  // namespace tifl::fl
