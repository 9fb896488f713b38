#include "cache/chunk_cache.h"

#include <algorithm>
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

ChunkCache::ChunkCache(uint64_t capacity_bytes, const std::string& policy,
                       uint32_t num_shards, MetricsRegistry* metrics)
    : capacity_bytes_(capacity_bytes), metrics_(metrics) {
  if (metrics_ == nullptr) {
    owned_metrics_ = std::make_unique<MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  lookups_ = metrics_->GetCounter("cache.lookups");
  hits_ = metrics_->GetCounter("cache.hits");
  insertions_ = metrics_->GetCounter("cache.insertions");
  evictions_ = metrics_->GetCounter("cache.evictions");
  rejected_ = metrics_->GetCounter("cache.rejected");
  lock_wait_ns_ = metrics_->GetHistogram("cache.lock_wait_ns");
  const uint32_t n = RoundUpPow2(num_shards == 0 ? 1 : num_shards);
  shards_.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->policy = MakePolicy(policy);
    shard->capacity_bytes = capacity_bytes / n;
    shards_.push_back(std::move(shard));
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
  auto lock = LockShard(s);
  lookups_->Increment();
  auto it = s.entries.find(key);
  if (it == s.entries.end()) return nullptr;
  hits_->Increment();
  s.policy->OnAccess(&it->second);
  return it->second.chunk;
}

bool ChunkCache::Contains(uint32_t group_by_id, uint64_t chunk_num,
                          uint64_t filter_hash) const {
  const Key key{group_by_id, chunk_num, filter_hash};
  Shard& s = ShardFor(key);
  auto lock = LockShard(s);
  return s.entries.find(key) != s.entries.end();
}

std::vector<uint64_t> ChunkCache::GroupByCounts(
    uint32_t num_group_by_ids) const {
  std::vector<uint64_t> counts(num_group_by_ids, 0);
  for (const auto& shard : shards_) {
    auto lock = LockShard(*shard);
    const size_t n = std::min<size_t>(num_group_by_ids,
                                      shard->per_group_by.size());
    for (size_t gb = 0; gb < n; ++gb) counts[gb] += shard->per_group_by[gb];
  }
  return counts;
}

void ChunkCache::EraseLocked(Shard& s, Map::iterator it) {
  const CachedChunk& chunk = *it->second.chunk;
  s.bytes_used -= chunk.ByteSize();
  --s.per_group_by[chunk.group_by_id];
  s.policy->OnErase(&it->second);
  // Outstanding ChunkHandles keep the data alive; this only drops the
  // cache's own reference.
  s.entries.erase(it);
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
  // but delivered only after it is dropped, so a sink never extends shard
  // hold times.
  std::vector<Key> evicted;
  std::shared_ptr<const CachedChunk> admitted;
  {
    auto lock = LockShard(s);
    if (bytes > s.capacity_bytes) {
      rejected_->Increment();
      return;
    }
    // Replace an existing entry for the same key. Not reported as an
    // eviction to the sink: the admit event that follows overwrites it.
    auto existing = s.entries.find(key);
    if (existing != s.entries.end()) EraseLocked(s, existing);

    // Evict until the newcomer fits.
    while (s.bytes_used + bytes > s.capacity_bytes) {
      ReplacementNode* victim = s.policy->PickVictim(benefit);
      if (victim == nullptr) break;  // empty shard; nothing to evict
      const CachedChunk& v = *static_cast<ChunkCacheEntry*>(victim)->chunk;
      const Key victim_key{v.group_by_id, v.chunk_num, v.filter_hash};
      evicted.push_back(victim_key);
      EraseLocked(s, s.entries.find(victim_key));
      evictions_->Increment();
    }
    if (s.bytes_used + bytes > s.capacity_bytes) {
      rejected_->Increment();
    } else {
      ChunkCacheEntry& entry = s.entries[key];
      s.policy->OnInsert(&entry, benefit);
      if (chunk->group_by_id >= s.per_group_by.size()) {
        s.per_group_by.resize(chunk->group_by_id + 1, 0);
      }
      ++s.per_group_by[chunk->group_by_id];
      s.bytes_used += bytes;
      admitted = chunk;
      entry.chunk = std::move(chunk);
      insertions_->Increment();
    }
  }
  if (CacheEventSink* sink = sink_live_.load(std::memory_order_acquire)) {
    for (const Key& k : evicted) sink->OnEvict(k);
    if (admitted) sink->OnAdmit(admitted);
  }
}

void ChunkCache::Clear() {
  CacheEventSink* sink = sink_live_.load(std::memory_order_acquire);
  std::vector<Key> evicted;
  for (const auto& shard : shards_) {
    {
      auto lock = LockShard(*shard);
      for (auto& [key, entry] : shard->entries) {
        shard->policy->OnErase(&entry);
        if (sink != nullptr) evicted.push_back(key);
      }
      shard->entries.clear();
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
      pinned.reserve(shard->entries.size());
      for (const auto& [key, entry] : shard->entries) {
        pinned.push_back(entry.chunk);
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
    total += shard->entries.size();
  }
  return total;
}

std::string ChunkCache::policy_name() const {
  return shards_[0]->policy->name();
}

}  // namespace chunkcache::cache
