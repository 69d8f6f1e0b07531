// Client population abstraction: the engines' view of "who exists".
//
// The materialized backend wraps the classic std::vector<Client> (every
// client's shard vectors resident for the whole run — fine up to a few
// thousand clients).  The virtual backend holds only {resource profile,
// lazy shard descriptor} per client — O(bytes) each — and materializes a
// Client's training state (its index vectors) on demand while it is
// selected / in flight, behind a small LRU of live scratch.  Cold clients
// cost nothing beyond their profile, which is what lets `tifl_run
// --clients 1000000` run in bounded memory: the working set is the
// in-flight cohort, not the federation.
//
// Access pattern contract: leases are acquired and released on the
// engine's event thread (dispatch is serial); worker threads only *read*
// through leased const Client&.  The cache is mutex-guarded anyway so
// concurrent leases stay safe.
#pragma once

#include <cstddef>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "data/partition.h"
#include "fl/client.h"
#include "sim/resource_profile.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace tifl::fl {

class ClientPool {
 public:
  // Materialized backend: borrows an existing population (non-owning;
  // `clients` must outlive the pool).  Leases alias the vector directly —
  // no caching, no copies.
  explicit ClientPool(const std::vector<Client>* clients);

  // Virtual backend: lazy shards + per-client profiles, materializing at
  // most ~cache_capacity clients at a time (never fewer than the pinned
  // set — the cache grows past capacity rather than evict a leased
  // client, and shrinks back as leases drop).
  struct VirtualConfig {
    const data::Dataset* train = nullptr;
    data::LazyShards shards{1, 1, {}, 0};
    std::vector<sim::ResourceProfile> profiles;  // size == shards.num_clients()
    std::size_t cache_capacity = 64;
  };
  explicit ClientPool(VirtualConfig config);

  ClientPool(ClientPool&&) noexcept = default;
  ClientPool& operator=(ClientPool&&) noexcept = default;
  ClientPool(const ClientPool&) = delete;
  ClientPool& operator=(const ClientPool&) = delete;

  std::size_t size() const;
  bool virtualized() const { return clients_ == nullptr; }

  // O(1), no materialization: profiles and shard sizes are pool state,
  // not Client state — latency sampling over a million cold clients never
  // touches the cache.
  const sim::ResourceProfile& resource(std::size_t id) const;
  std::size_t train_size(std::size_t id) const;

  // Pins client `id`'s materialized state for the lease's lifetime.
  // Virtual backend: a cache hit is free, a miss generates the shard's
  // index vector from its ShardView.  Move-only RAII; unpinning may evict.
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& other) noexcept;
    Lease& operator=(Lease&& other) noexcept;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease();

    const Client& operator*() const { return *client_; }
    const Client* operator->() const { return client_; }

   private:
    friend class ClientPool;
    Lease(const Client* client, ClientPool* pool, std::size_t id)
        : client_(client), pool_(pool), id_(id) {}

    const Client* client_ = nullptr;
    ClientPool* pool_ = nullptr;  // null for the materialized backend
    std::size_t id_ = 0;
  };
  Lease lease(std::size_t id);

  // Cache accounting (bench/tests): currently materialized clients, the
  // high-water mark, and how many misses built a Client from its shard.
  std::size_t live_clients() const;
  std::size_t peak_live_clients() const;
  std::size_t materializations() const;

 private:
  struct Entry {
    Client client;
    std::size_t pins = 0;
    std::list<std::size_t>::iterator lru;  // valid iff pins == 0

    Entry(Client c) : client(std::move(c)) {}
  };

  // The virtual cache: unique_ptr-held so the mutex stays pinned in place
  // while the pool itself moves.
  struct Cache {
    mutable util::Mutex mutex;
    std::unordered_map<std::size_t, std::unique_ptr<Entry>> entries
        GUARDED_BY(mutex);
    std::list<std::size_t> lru GUARDED_BY(mutex);  // unpinned, MRU first
    std::size_t peak_live GUARDED_BY(mutex) = 0;
    std::size_t materializations GUARDED_BY(mutex) = 0;
  };

  void release(std::size_t id);
  void evict_overflow_locked() REQUIRES(cache_->mutex);

  // Materialized backend (null for virtual).
  const std::vector<Client>* clients_ = nullptr;

  // Virtual backend state.
  const data::Dataset* train_ = nullptr;
  data::LazyShards shards_{1, 1, {}, 0};
  std::vector<sim::ResourceProfile> profiles_;
  std::size_t cache_capacity_ = 0;
  std::unique_ptr<Cache> cache_;
};

}  // namespace tifl::fl
