#include "cache/chunk_cache.h"

#include <chrono>

#include "common/fault_injector.h"
#include "common/logging.h"

namespace chunkcache::cache {

namespace {
uint32_t RoundUpPow2(uint32_t n) {
  uint32_t p = 1;
  while (p < n) p <<= 1;
  return p;
}
}  // namespace

ChunkCache::ChunkCache(uint64_t capacity_bytes,
                       std::unique_ptr<ReplacementPolicy> policy,
                       MetricsRegistry* metrics)
    : capacity_bytes_(capacity_bytes) {
  CHUNKCACHE_CHECK(policy != nullptr);
  auto shard = std::make_unique<Shard>();
  shard->policy = std::move(policy);
  shard->capacity_bytes = capacity_bytes;
  shards_.push_back(std::move(shard));
  metrics_ = metrics;
  WireMetrics();
}

ChunkCache::ChunkCache(uint64_t capacity_bytes, const std::string& policy,
                       uint32_t num_shards, MetricsRegistry* metrics)
    : capacity_bytes_(capacity_bytes) {
  const uint32_t n = RoundUpPow2(num_shards == 0 ? 1 : num_shards);
  shards_.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->policy = MakePolicyOrDie(policy);
    shard->capacity_bytes = capacity_bytes / n;
    shards_.push_back(std::move(shard));
  }
  metrics_ = metrics;
  WireMetrics();
}

void ChunkCache::WireMetrics() {
  if (metrics_ == nullptr) {
    owned_metrics_ = std::make_unique<MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  insertions_ = metrics_->GetCounter("cache.insertions");
  evictions_ = metrics_->GetCounter("cache.evictions");
  rejected_ = metrics_->GetCounter("cache.rejected");
  lock_wait_ns_ = metrics_->GetHistogram("cache.lock_wait_ns");
  for (size_t i = 0; i < shards_.size(); ++i) {
    const std::string prefix = "cache.shard" + std::to_string(i);
    shards_[i]->lookups = metrics_->GetCounter(prefix + ".lookups");
    shards_[i]->hits = metrics_->GetCounter(prefix + ".hits");
  }
}

std::unique_lock<std::mutex> ChunkCache::LockShard(const Shard& s) const {
  std::unique_lock<std::mutex> lock(s.mu, std::try_to_lock);
  if (!lock.owns_lock()) {
    const auto t0 = std::chrono::steady_clock::now();
    lock.lock();
    const auto waited = std::chrono::steady_clock::now() - t0;
    lock_wait_ns_->Record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(waited).count()));
  }
  return lock;
}

ChunkHandle ChunkCache::Lookup(uint32_t group_by_id, uint64_t chunk_num,
                               uint64_t filter_hash) {
  const Key key{group_by_id, chunk_num, filter_hash};
  Shard& s = ShardFor(key);
  ChunkHandle out;
  {
    auto lock = LockShard(s);
    s.lookups->Increment();
    auto it = s.by_key.find(key);
    if (it == s.by_key.end()) return nullptr;
    s.hits->Increment();
    s.policy->OnAccess(it->second);
    out = s.by_handle.at(it->second);
  }
  // Shadow simulation sees every policy event (hits here, inserts in
  // Insert), outside the shard lock so it never extends hold times.
  if (GhostCacheSet* ghosts = this->ghosts()) {
    ghosts->Access(KeyHash{}(key), out->ByteSize(), out->benefit);
  }
  return out;
}

bool ChunkCache::Contains(uint32_t group_by_id, uint64_t chunk_num,
                          uint64_t filter_hash) const {
  const Key key{group_by_id, chunk_num, filter_hash};
  Shard& s = ShardFor(key);
  auto lock = LockShard(s);
  return s.by_key.find(key) != s.by_key.end();
}

std::vector<uint64_t> ChunkCache::GroupByCounts(
    uint32_t num_group_by_ids) const {
  std::vector<uint64_t> counts(num_group_by_ids, 0);
  for (const auto& shard : shards_) {
    auto lock = LockShard(*shard);
    for (const auto& [gb, n] : shard->per_group_by) {
      if (gb < num_group_by_ids) counts[gb] += n;
    }
  }
  return counts;
}

void ChunkCache::EraseLocked(Shard& s, uint64_t handle) {
  auto it = s.by_handle.find(handle);
  CHUNKCACHE_DCHECK(it != s.by_handle.end());
  const CachedChunk& chunk = *it->second;
  s.bytes_used -= chunk.ByteSize();
  auto pg = s.per_group_by.find(chunk.group_by_id);
  if (pg != s.per_group_by.end() && --pg->second == 0) {
    s.per_group_by.erase(pg);
  }
  s.by_key.erase(Key{chunk.group_by_id, chunk.chunk_num, chunk.filter_hash});
  s.policy->OnErase(handle);
  // Outstanding ChunkHandles keep the data alive; this only drops the
  // cache's own reference.
  s.by_handle.erase(it);
}

void ChunkCache::Insert(CachedChunk chunk) {
  Insert(std::make_shared<CachedChunk>(std::move(chunk)));
}

void ChunkCache::Insert(std::shared_ptr<CachedChunk> chunk) {
  CHUNKCACHE_CHECK(chunk != nullptr);
  // Injected admission loss: the chunk is simply not cached. Correctness
  // is unaffected — every producer holds its own handle to the data — so
  // this exercises "cache dropped my insert" paths (e.g. degraded answers
  // must not assume their sources stayed resident).
  {
    FaultInjector& fi = FaultInjector::Global();
    if (fi.armed() && fi.ShouldInject(FaultSite::kCacheInsert)) return;
  }
  const Key key{chunk->group_by_id, chunk->chunk_num, chunk->filter_hash};
  Shard& s = ShardFor(key);
  const uint64_t bytes = chunk->ByteSize();
  const double benefit = chunk->benefit;
  // Event-sink bookkeeping: victim keys are collected under the shard lock
  // but delivered only after it is dropped (same discipline as the ghost
  // feed below), so the WAL writer never extends shard hold times.
  std::vector<Key> evicted;
  bool admitted = false;
  std::shared_ptr<const CachedChunk> admitted_entry;
  // Locked admission body as a lambda so every exit path — reject paths
  // included — still feeds the ghost simulators below: a rejected insert
  // is still a reference to the key, and the sims replicate the rejection
  // logic themselves.
  [&] {
    auto lock = LockShard(s);
    if (bytes > s.capacity_bytes) {
      rejected_->Increment();
      return;
    }
    // Replace an existing entry for the same key. Not reported as an
    // eviction to the sink: the admit event that follows overwrites it.
    auto existing = s.by_key.find(key);
    if (existing != s.by_key.end()) EraseLocked(s, existing->second);

    // Evict until the newcomer fits.
    while (s.bytes_used + bytes > s.capacity_bytes) {
      auto victim = s.policy->PickVictim(benefit);
      if (!victim) break;  // empty shard; nothing to evict
      const CachedChunk& v = *s.by_handle.at(*victim);
      evicted.push_back(Key{v.group_by_id, v.chunk_num, v.filter_hash});
      EraseLocked(s, *victim);
      evictions_->Increment();
    }
    if (s.bytes_used + bytes > s.capacity_bytes) {
      rejected_->Increment();
      return;
    }
    const uint64_t handle = s.next_handle++;
    // Keyed insert: the key hash is stable across re-insertions of the
    // same chunk under fresh handles, which is what ghost-listed policies
    // (ARC, 2Q) need to recognize a re-fetched key.
    s.policy->OnInsertKeyed(handle, KeyHash{}(key), benefit);
    s.per_group_by[chunk->group_by_id]++;
    s.by_key[key] = handle;
    s.bytes_used += bytes;
    admitted_entry = chunk;
    admitted = true;
    s.by_handle.emplace(handle, std::move(chunk));
    insertions_->Increment();
  }();
  if (CacheEventSink* sink = sink_live_.load(std::memory_order_acquire)) {
    for (const Key& k : evicted) sink->OnEvict(k);
    if (admitted) sink->OnAdmit(admitted_entry);
  }
  if (GhostCacheSet* ghosts = this->ghosts()) {
    ghosts->Access(KeyHash{}(key), bytes, benefit);
  }
}

void ChunkCache::EnableGhostPolicies(
    const std::vector<std::string>& policies) {
  ghosts_live_.store(nullptr, std::memory_order_release);
  ghosts_.reset();
  if (policies.empty()) return;
  ghosts_ =
      std::make_unique<GhostCacheSet>(policies, capacity_bytes_, metrics_);
  ghosts_live_.store(ghosts_.get(), std::memory_order_release);
}

void ChunkCache::Clear() {
  CacheEventSink* sink = sink_live_.load(std::memory_order_acquire);
  std::vector<Key> evicted;
  for (const auto& shard : shards_) {
    {
      auto lock = LockShard(*shard);
      for (const auto& [handle, chunk] : shard->by_handle) {
        shard->policy->OnErase(handle);
        if (sink != nullptr) {
          evicted.push_back(
              Key{chunk->group_by_id, chunk->chunk_num, chunk->filter_hash});
        }
      }
      shard->by_handle.clear();
      shard->by_key.clear();
      shard->per_group_by.clear();
      shard->bytes_used = 0;
    }
    // One shard at a time, outside its lock — same contract as Insert.
    for (const Key& k : evicted) sink->OnEvict(k);
    evicted.clear();
  }
}

void ChunkCache::ForEachEntry(
    const std::function<void(const ChunkHandle&)>& fn) const {
  std::vector<ChunkHandle> pinned;
  for (const auto& shard : shards_) {
    pinned.clear();
    {
      auto lock = LockShard(*shard);
      pinned.reserve(shard->by_handle.size());
      for (const auto& [handle, chunk] : shard->by_handle) {
        pinned.push_back(chunk);
      }
    }
    for (const ChunkHandle& h : pinned) fn(h);
  }
}

uint64_t ChunkCache::bytes_used() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    auto lock = LockShard(*shard);
    total += shard->bytes_used;
  }
  return total;
}

size_t ChunkCache::num_chunks() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    auto lock = LockShard(*shard);
    total += shard->by_key.size();
  }
  return total;
}

std::string ChunkCache::policy_name() const {
  return shards_[0]->policy->name();
}

ChunkCacheStats ChunkCache::stats() const {
  ChunkCacheStats out;
  out.shards.reserve(shards_.size());
  for (const auto& shard : shards_) {
    ChunkShardStats per;
    per.lookups = shard->lookups->Value();
    per.hits = shard->hits->Value();
    {
      auto lock = LockShard(*shard);
      per.chunks = shard->by_key.size();
      per.bytes_used = shard->bytes_used;
    }
    out.lookups += per.lookups;
    out.hits += per.hits;
    out.shards.push_back(per);
  }
  out.insertions = insertions_->Value();
  out.evictions = evictions_->Value();
  out.rejected = rejected_->Value();
  out.contention_ns = lock_wait_ns_->Snapshot().sum;
  return out;
}

void ChunkCache::ResetStats() {
  for (const auto& shard : shards_) {
    shard->lookups->Reset();
    shard->hits->Reset();
  }
  insertions_->Reset();
  evictions_->Reset();
  rejected_->Reset();
  lock_wait_ns_->Reset();
}

}  // namespace chunkcache::cache
