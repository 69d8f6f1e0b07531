#include "fl/client_pool.h"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.h"

namespace tifl::fl {

namespace {

// lease() is called once per sampled client per round — cheap enough to
// count unconditionally.  Hit rate is derived at snapshot time from
// hits / (hits + misses).
struct PoolMetrics {
  obs::Counter& lease_hits;
  obs::Counter& lease_misses;
  obs::Counter& evictions;
  obs::Gauge& live;
  obs::Gauge& peak_live;
};

PoolMetrics& pool_metrics() {
  static PoolMetrics m{
      obs::Registry::global().counter("pool.lease_hits"),
      obs::Registry::global().counter("pool.lease_misses"),
      obs::Registry::global().counter("pool.evictions"),
      obs::Registry::global().gauge("pool.live_clients"),
      obs::Registry::global().gauge("pool.peak_live_clients"),
  };
  return m;
}

}  // namespace

ClientPool::ClientPool(const std::vector<Client>* clients)
    : clients_(clients) {
  if (clients_ == nullptr || clients_->empty()) {
    throw std::invalid_argument("ClientPool: null or empty client vector");
  }
}

ClientPool::ClientPool(VirtualConfig config)
    : train_(config.train),
      shards_(std::move(config.shards)),
      profiles_(std::move(config.profiles)),
      cache_capacity_(std::max<std::size_t>(1, config.cache_capacity)),
      cache_(std::make_unique<Cache>()) {
  if (train_ == nullptr) {
    throw std::invalid_argument("ClientPool: null training dataset");
  }
  if (profiles_.size() != shards_.num_clients()) {
    throw std::invalid_argument("ClientPool: profile/shard count mismatch");
  }
}

std::size_t ClientPool::size() const {
  return clients_ != nullptr ? clients_->size() : shards_.num_clients();
}

const sim::ResourceProfile& ClientPool::resource(std::size_t id) const {
  if (clients_ != nullptr) return clients_->at(id).resource();
  if (id >= profiles_.size()) {
    throw std::out_of_range("ClientPool: client out of range");
  }
  return profiles_[id];
}

std::size_t ClientPool::train_size(std::size_t id) const {
  if (clients_ != nullptr) return clients_->at(id).train_size();
  return shards_.shard_size(id);
}

ClientPool::Lease ClientPool::lease(std::size_t id) {
  if (clients_ != nullptr) {
    return Lease(&clients_->at(id), nullptr, id);
  }
  if (id >= shards_.num_clients()) {
    throw std::out_of_range("ClientPool: client out of range");
  }
  PoolMetrics& metrics = pool_metrics();
  util::MutexLock lock(cache_->mutex);
  auto it = cache_->entries.find(id);
  if (it == cache_->entries.end()) {
    // Miss: generate the shard from its view.  Virtual clients carry no
    // matched test shard — per-tier eval sets are a materialized-path
    // feature; the async engine evaluates on the shared test set.
    ++cache_->materializations;
    metrics.lease_misses.add();
    auto entry = std::make_unique<Entry>(
        Client(id, train_, shards_.shard(id).materialize(), {},
               profiles_[id]));
    it = cache_->entries.emplace(id, std::move(entry)).first;
    const std::size_t live = cache_->entries.size();
    cache_->peak_live = std::max(cache_->peak_live, live);
    metrics.live.set(static_cast<double>(live));
    metrics.peak_live.set_max(static_cast<double>(live));
  } else {
    metrics.lease_hits.add();
    if (it->second->pins == 0) {
      cache_->lru.erase(it->second->lru);  // pinned entries leave the list
    }
  }
  ++it->second->pins;
  return Lease(&it->second->client, this, id);
}

void ClientPool::release(std::size_t id) {
  util::MutexLock lock(cache_->mutex);
  const auto it = cache_->entries.find(id);
  if (it == cache_->entries.end() || it->second->pins == 0) return;
  if (--it->second->pins == 0) {
    cache_->lru.push_front(id);
    it->second->lru = cache_->lru.begin();
    evict_overflow_locked();
  }
}

void ClientPool::evict_overflow_locked() {
  PoolMetrics& metrics = pool_metrics();
  while (cache_->entries.size() > cache_capacity_ && !cache_->lru.empty()) {
    const std::size_t victim = cache_->lru.back();
    cache_->lru.pop_back();
    cache_->entries.erase(victim);
    metrics.evictions.add();
  }
  metrics.live.set(static_cast<double>(cache_->entries.size()));
}

std::size_t ClientPool::live_clients() const {
  if (clients_ != nullptr) return clients_->size();
  util::MutexLock lock(cache_->mutex);
  return cache_->entries.size();
}

std::size_t ClientPool::peak_live_clients() const {
  if (clients_ != nullptr) return clients_->size();
  util::MutexLock lock(cache_->mutex);
  return cache_->peak_live;
}

std::size_t ClientPool::materializations() const {
  if (clients_ != nullptr) return 0;
  util::MutexLock lock(cache_->mutex);
  return cache_->materializations;
}

ClientPool::Lease::Lease(Lease&& other) noexcept
    : client_(other.client_), pool_(other.pool_), id_(other.id_) {
  other.client_ = nullptr;
  other.pool_ = nullptr;
}

ClientPool::Lease& ClientPool::Lease::operator=(Lease&& other) noexcept {
  if (this != &other) {
    if (pool_ != nullptr) pool_->release(id_);
    client_ = other.client_;
    pool_ = other.pool_;
    id_ = other.id_;
    other.client_ = nullptr;
    other.pool_ = nullptr;
  }
  return *this;
}

ClientPool::Lease::~Lease() {
  if (pool_ != nullptr) pool_->release(id_);
}

}  // namespace tifl::fl
