// ClientPool: the lazy client-state substrate for million-client
// federations — materialized pass-through backend, virtual LRU backend,
// and the equivalence between the two.
#include "fl/client_pool.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core/profiler.h"
#include "core/system.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "test_helpers.h"

namespace tifl::fl {
namespace {

using testing::FederationBuilder;
using testing::tiny_data;
using testing::tiny_engine_config;
using testing::tiny_factory;
using testing::TinyFederation;

ClientPool make_virtual_pool(const data::Dataset* train,
                             std::size_t num_clients,
                             std::size_t cache_capacity,
                             std::size_t samples_per_client = 30) {
  ClientPool::VirtualConfig config;
  config.train = train;
  config.shards =
      data::LazyShards(train->size(), num_clients,
                       {.samples_per_client = samples_per_client}, 77);
  config.profiles.assign(num_clients, sim::ResourceProfile{});
  for (std::size_t c = 0; c < num_clients; ++c) {
    config.profiles[c].cpus = 1.0 + static_cast<double>(c % 5);
  }
  config.cache_capacity = cache_capacity;
  return ClientPool(std::move(config));
}

TEST(ClientPool, MaterializedBackendAliasesTheVector) {
  TinyFederation fed = FederationBuilder().clients(6).build();
  ClientPool pool(&fed.clients);
  EXPECT_FALSE(pool.virtualized());
  EXPECT_EQ(pool.size(), 6u);
  for (std::size_t c = 0; c < 6; ++c) {
    EXPECT_EQ(pool.train_size(c), fed.clients[c].train_size());
    EXPECT_EQ(pool.resource(c).cpus, fed.clients[c].resource().cpus);
    ClientPool::Lease lease = pool.lease(c);
    EXPECT_EQ(&*lease, &fed.clients[c]);  // no copy, no cache
  }
  EXPECT_EQ(pool.materializations(), 0u);
  EXPECT_THROW(pool.resource(99), std::out_of_range);
}

TEST(ClientPool, VirtualBackendMaterializesOnDemand) {
  const data::SyntheticData data = tiny_data();
  ClientPool pool = make_virtual_pool(&data.train, 100, /*cache=*/4);
  EXPECT_TRUE(pool.virtualized());
  EXPECT_EQ(pool.size(), 100u);
  EXPECT_EQ(pool.live_clients(), 0u);  // nothing exists until leased

  // Pool-level accessors never materialize.
  for (std::size_t c = 0; c < 100; ++c) {
    EXPECT_GT(pool.train_size(c), 0u);
    EXPECT_GT(pool.resource(c).cpus, 0.0);
  }
  EXPECT_EQ(pool.live_clients(), 0u);
  EXPECT_EQ(pool.materializations(), 0u);

  {
    ClientPool::Lease lease = pool.lease(42);
    EXPECT_EQ(lease->id(), 42u);
    EXPECT_EQ(lease->train_size(), pool.train_size(42));
    for (std::size_t idx : lease->train_indices()) {
      EXPECT_LT(idx, data.train.size());
    }
    EXPECT_EQ(pool.live_clients(), 1u);
    EXPECT_EQ(pool.materializations(), 1u);
  }
  // Released but under capacity: stays cached, re-lease is a hit.
  EXPECT_EQ(pool.live_clients(), 1u);
  ClientPool::Lease again = pool.lease(42);
  EXPECT_EQ(pool.materializations(), 1u);
}

TEST(ClientPool, LruEvictsColdClientsButNeverPinnedOnes) {
  const data::SyntheticData data = tiny_data();
  ClientPool pool = make_virtual_pool(&data.train, 100, /*cache=*/3);

  {
    // Pin 5 clients at once with capacity 3: the cache must grow rather
    // than evict a leased client.
    std::vector<ClientPool::Lease> leases;
    for (std::size_t c = 0; c < 5; ++c) leases.push_back(pool.lease(c));
    EXPECT_EQ(pool.live_clients(), 5u);
    EXPECT_EQ(pool.peak_live_clients(), 5u);
  }
  // All unpinned: shrink back to capacity.
  EXPECT_EQ(pool.live_clients(), 3u);

  // Touch a long run of distinct clients: live set stays at capacity.
  for (std::size_t c = 10; c < 60; ++c) pool.lease(c);
  EXPECT_EQ(pool.live_clients(), 3u);
  EXPECT_EQ(pool.peak_live_clients(), 5u);
  EXPECT_GE(pool.materializations(), 50u);
}

TEST(ClientPool, EvictionNeverChangesClientBytes) {
  // Materialization is a pure function of the id: a client evicted and
  // rebuilt yields exactly the training state of its first lease.
  const data::SyntheticData data = tiny_data();
  ClientPool pool = make_virtual_pool(&data.train, 64, /*cache=*/4);
  const auto pass = [&pool]() {
    std::vector<std::vector<std::size_t>> indices;
    for (std::size_t id = 0; id < 64; id += 7) {
      ClientPool::Lease lease = pool.lease(id);
      indices.push_back(lease->train_indices());
    }
    return indices;
  };
  const std::vector<std::vector<std::size_t>> first = pass();
  const std::size_t built = pool.materializations();
  EXPECT_EQ(pass(), first);
  EXPECT_GT(pool.materializations(), built);  // the cache really evicted
}

TEST(ClientPool, VirtualClientsTrainIdenticallyToMaterializedTwins) {
  // A client materialized through the pool must behave exactly like a
  // Client built eagerly from the same shard: same indices, same local
  // update bit for bit.
  const data::SyntheticData data = tiny_data();
  const std::size_t num_clients = 12;
  ClientPool pool = make_virtual_pool(&data.train, num_clients, 4);

  data::LazyShards shards(data.train.size(), num_clients,
                          {.samples_per_client = 30}, 77);
  nn::Sequential model = tiny_factory()(1);
  nn::Sequential scratch = tiny_factory()(2);
  const std::vector<float> global = model.weights();
  LocalTrainParams params;
  params.epochs = 1;
  params.batch_size = 10;
  params.optimizer.kind = nn::OptimizerConfig::Kind::kSgd;
  params.lr = 0.05;

  for (std::size_t c = 0; c < num_clients; c += 3) {
    const Client twin(c, &data.train, shards.shard(c).materialize(), {},
                      pool.resource(c));
    const LocalUpdate expected =
        twin.local_update(global, model, params, util::Rng(1000 + c));
    ClientPool::Lease lease = pool.lease(c);
    const LocalUpdate got =
        lease->local_update(global, scratch, params, util::Rng(1000 + c));
    EXPECT_EQ(got.num_samples, expected.num_samples);
    EXPECT_EQ(got.weights, expected.weights);
    EXPECT_DOUBLE_EQ(got.train_loss, expected.train_loss);
  }
}

TEST(ClientPool, ProfilerMatchesVectorOverloadOnWrappedPool) {
  // The pool overload of profile_clients must consume the identical RNG
  // stream and produce identical latencies to the historical vector
  // overload (which now delegates to it).
  TinyFederation fed = FederationBuilder().clients(10).jitter(0.05).build();
  core::ProfilerConfig config;
  config.sync_rounds = 3;
  config.tmax = 500.0;

  util::Rng rng_a(99);
  const core::ProfileResult via_vector =
      core::profile_clients(fed.clients, fed.latency, config, rng_a);
  util::Rng rng_b(99);
  const ClientPool pool(&fed.clients);
  const core::ProfileResult via_pool =
      core::profile_clients(pool, fed.latency, config, rng_b);

  ASSERT_EQ(via_vector.mean_latency.size(), via_pool.mean_latency.size());
  for (std::size_t c = 0; c < via_vector.mean_latency.size(); ++c) {
    EXPECT_DOUBLE_EQ(via_vector.mean_latency[c], via_pool.mean_latency[c]);
    EXPECT_EQ(via_vector.dropout[c], via_pool.dropout[c]);
  }
  EXPECT_DOUBLE_EQ(via_vector.profiling_time, via_pool.profiling_time);
}

TEST(ClientPool, VirtualSystemRunsAsyncWithChurnInBoundedLiveSet) {
  // End-to-end: a pool-mode TiflSystem over a virtual population runs the
  // dynamic async path (churn + re-tiering hooks) while only ever
  // materializing a cohort-sized working set.
  auto data = std::make_unique<data::SyntheticData>(tiny_data());
  const std::size_t num_clients = 5000;
  ClientPool pool = make_virtual_pool(&data->train, num_clients, 16);

  core::SystemConfig config;
  config.num_tiers = 3;
  config.clients_per_round = 4;
  config.profiler.tmax = 1000.0;
  config.engine.rounds = 24;
  config.engine.local.epochs = 1;
  config.engine.local.batch_size = 10;
  config.engine.local.optimizer.kind = nn::OptimizerConfig::Kind::kSgd;
  config.engine.local.optimizer.lr = 0.05;
  config.engine.eval_every = 8;
  config.engine.seed = 5;

  core::TiflSystem system(config, tiny_factory(), &data->test,
                          std::move(pool), sim::LatencyModel({0.01, 1.0}));
  EXPECT_TRUE(system.virtualized());
  EXPECT_THROW(system.engine(), std::logic_error);
  EXPECT_THROW(system.client(0), std::logic_error);
  EXPECT_EQ(system.profile().mean_latency.size(), num_clients);

  AsyncConfig async;
  async.total_updates = 24;
  async.clients_per_tier_round = 4;
  async.eval_every = 8;
  async.churn.join_rate = 0.05;
  async.churn.leave_rate = 0.05;
  async.churn.slowdown_rate = 0.1;
  async.reprofile_every = 40.0;
  const AsyncRunResult run = system.run_async(async);

  EXPECT_EQ(run.result.rounds.size(), 24u);
  EXPECT_GE(run.processed_events, 24u);  // updates (+ churn + reprofiles)
  const ClientPool& used = system.client_pool();
  EXPECT_GT(used.materializations(), 0u);
  // The whole point: a 5000-client federation never materialized more
  // than the cache high-water mark of clients at once.
  EXPECT_LE(used.peak_live_clients(), 24u);

  // An identically-built virtual system replays the run bit for bit.
  core::TiflSystem twin(config, tiny_factory(), &data->test,
                        make_virtual_pool(&data->train, num_clients, 16),
                        sim::LatencyModel({0.01, 1.0}));
  const AsyncRunResult replay = twin.run_async(async);
  EXPECT_EQ(replay.final_weights, run.final_weights);
  ASSERT_EQ(replay.result.rounds.size(), run.result.rounds.size());
  for (std::size_t i = 0; i < run.result.rounds.size(); ++i) {
    EXPECT_EQ(replay.result.rounds[i].selected_clients,
              run.result.rounds[i].selected_clients);
    EXPECT_DOUBLE_EQ(replay.result.rounds[i].virtual_time,
                     run.result.rounds[i].virtual_time);
  }
}

}  // namespace
}  // namespace tifl::fl
