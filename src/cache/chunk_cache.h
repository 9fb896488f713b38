#ifndef CHUNKCACHE_CACHE_CHUNK_CACHE_H_
#define CHUNKCACHE_CACHE_CHUNK_CACHE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cache/replacement.h"
#include "chunks/group_by_spec.h"
#include "common/metrics.h"
#include "common/status.h"
#include "storage/chunk_payload.h"
#include "storage/tuple.h"

namespace chunkcache::cache {

/// One cached chunk: the aggregate rows of chunk `chunk_num` of group-by
/// `group_by_id`, computed under the non-group-by filter identified by
/// `filter_hash` (0 = unfiltered). Different filters produce different data
/// for the same chunk coordinates, so the filter is part of the identity
/// (Section 5.2.1 condition 3: non-group-by selections must match exactly).
struct CachedChunk {
  uint32_t group_by_id = 0;
  uint64_t chunk_num = 0;
  uint64_t filter_hash = 0;
  double benefit = 0;
  /// The entry's one allocation: the rows in canonical row-major order as
  /// a box payload (storage::ChunkPayload), which hits read in place.
  storage::ChunkPayload payload;

  size_t rows() const { return payload.size(); }

  /// Footprint charged against the cache budget: kChunkEntryBytes plus
  /// the payload allocation's full capacity.
  uint64_t ByteSize() const;
};

/// An owning, pinned reference to a cached chunk. The referenced data stays
/// valid for the handle's lifetime even if the entry is concurrently
/// evicted or replaced — eviction only drops the cache's own reference.
/// Null on a miss.
using ChunkHandle = std::shared_ptr<const CachedChunk>;

/// The cache's key triple, public so the miss-coalescing layer can key its
/// in-flight table on exactly the identity the cache uses.
struct ChunkKey {
  uint32_t group_by_id = 0;
  uint64_t chunk_num = 0;
  uint64_t filter_hash = 0;
  friend bool operator==(const ChunkKey& a, const ChunkKey& b) {
    return a.group_by_id == b.group_by_id && a.chunk_num == b.chunk_num &&
           a.filter_hash == b.filter_hash;
  }
};

/// A shard's map value for one cached chunk: the replacement policy's
/// node, embedded so the policy keeps no index of its own, and the cache's
/// reference to the chunk.
struct ChunkCacheEntry : ReplacementNode {
  std::shared_ptr<CachedChunk> chunk;
};

/// What the cache spends on an entry beside its payload: the make_shared
/// block (a 16-byte control block and the CachedChunk) and the shard
/// map's node (its next link, the key and ChunkCacheEntry, the cached
/// hash) with one bucket slot.
inline constexpr uint64_t kChunkEntryBytes =
    16 + sizeof(CachedChunk) + sizeof(void*) +
    sizeof(std::pair<const ChunkKey, ChunkCacheEntry>) + sizeof(size_t) +
    sizeof(void*);

inline uint64_t CachedChunk::ByteSize() const {
  return kChunkEntryBytes + payload.capacity_bytes();
}

struct ChunkKeyHash {
  // Full-avalanche finalizer (murmur3 fmix64): consecutive chunk numbers
  // — the common access pattern, since query boxes enumerate chunks in
  // row-major order — must spread across shards, so every input bit has
  // to reach the low bits used by ShardFor.
  size_t operator()(const ChunkKey& k) const {
    uint64_t x = k.chunk_num * 0x9E3779B97F4A7C15ULL;
    x ^= (static_cast<uint64_t>(k.group_by_id) << 32) ^ k.filter_hash;
    x ^= x >> 33;
    x *= 0xFF51AFD7ED558CCDULL;
    x ^= x >> 33;
    x *= 0xC4CEB9FE1A85EC53ULL;
    x ^= x >> 33;
    return static_cast<size_t>(x);
  }
};

/// Observer of cache admission state changes; the persistence layer counts
/// them to trigger background snapshots. Both callbacks run OUTSIDE every
/// shard lock, so implementations may call back into the cache without
/// holding up other shards. Because they run after the lock is dropped,
/// callbacks from concurrent inserts may interleave in an order different
/// from the cache mutations; consumers must treat the stream as hints.
class CacheEventSink {
 public:
  virtual ~CacheEventSink() = default;
  /// `entry` was admitted (fresh insert or same-key replacement). The
  /// shared_ptr pins the payload for the duration of the call.
  virtual void OnAdmit(const std::shared_ptr<const CachedChunk>& entry) = 0;
  /// The entry keyed `key` left the cache (eviction, replacement, Clear).
  virtual void OnEvict(const ChunkKey& key) = 0;
};

/// The middle-tier chunk cache: a byte-budgeted map from
/// (group-by, chunk number, filter) to aggregate rows, with a pluggable
/// replacement policy. This is the paper's core data structure.
///
/// Thread safety: the cache is split into `num_shards` (a power of two)
/// independent shards, each with its own mutex, replacement-policy
/// instance and byte budget (capacity / num_shards); entries
/// map to shards by the same hash that keys the tables, so concurrent
/// Lookup/Insert/Contains from many clients are mostly uncontended. With
/// one shard the behavior (eviction order included) is identical to the
/// original single-map cache, which is what the serial paper reproductions
/// use.
class ChunkCache {
 public:
  /// `num_shards` is rounded up to a power of two, and each shard gets its
  /// own `MakePolicy(policy)` instance and an equal slice of
  /// `capacity_bytes`; one shard is the serial configuration. All
  /// statistics live on `metrics` (under "cache." names); passing nullptr
  /// gives the cache a private registry so its stats stay attributable.
  ChunkCache(uint64_t capacity_bytes, const std::string& policy,
             uint32_t num_shards = 1, MetricsRegistry* metrics = nullptr);

  ChunkCache(const ChunkCache&) = delete;
  ChunkCache& operator=(const ChunkCache&) = delete;

  /// Returns a pinned handle to the cached chunk, or null on a miss. A hit
  /// refreshes the entry's replacement state. The handle (and the rows it
  /// points at) stays valid for its whole lifetime regardless of later
  /// Insert/Clear calls.
  ChunkHandle Lookup(uint32_t group_by_id, uint64_t chunk_num,
                     uint64_t filter_hash);

  /// Probes without touching replacement state or the cache.lookups and
  /// cache.hits counters (used by planners to inspect cache contents).
  bool Contains(uint32_t group_by_id, uint64_t chunk_num,
                uint64_t filter_hash) const;

  /// Inserts `chunk`, evicting per policy until it fits its shard. A chunk
  /// larger than the shard budget is rejected (counted on cache.rejected).
  /// Re-inserting an existing key replaces the old rows.
  void Insert(CachedChunk chunk);

  /// Shared-ownership insert: stores `chunk` without copying its rows, so
  /// the miss-coalescing layer can hand the very same allocation to the
  /// cache and to every waiter's ChunkHandle. Same admission/eviction
  /// semantics as the by-value overload.
  void Insert(std::shared_ptr<CachedChunk> chunk);

  /// Drops everything.
  void Clear();

  uint64_t bytes_used() const;
  uint64_t capacity_bytes() const { return capacity_bytes_; }
  size_t num_chunks() const;
  uint32_t num_shards() const { return static_cast<uint32_t>(shards_.size()); }
  std::string policy_name() const;

  /// The registry backing every "cache.*" statistic — the one passed at
  /// construction, or the cache's own private one.
  MetricsRegistry& metrics() const { return *metrics_; }

  /// Cached-chunk count (any filter) of every group-by id below
  /// `num_group_by_ids`, indexed by id, taking each shard lock once to add
  /// its flat per-id counts. The in-cache aggregation planner reads it once
  /// per query to skip source group-bys that cannot cover a source box.
  std::vector<uint64_t> GroupByCounts(uint32_t num_group_by_ids) const;

  /// Attaches (or with nullptr detaches) an admission/eviction observer.
  /// Call during setup or shutdown, not concurrently with traffic: events
  /// already past their shard unlock may still be delivered to the old
  /// sink for a moment.
  void SetEventSink(CacheEventSink* sink) {
    sink_live_.store(sink, std::memory_order_release);
  }

  /// Visits a point-in-time copy of every cached entry, shard by shard.
  /// At most one shard lock is held at a time, and `fn` always runs with
  /// no lock held (on pinned handle copies), so snapshotting a large cache
  /// never stalls more than one shard's traffic and `fn` may freely call
  /// back into the cache. Entries inserted or evicted concurrently may or
  /// may not be visited — the usual point-in-time iteration contract.
  void ForEachEntry(const std::function<void(const ChunkHandle&)>& fn) const;

 private:
  using Key = ChunkKey;
  using KeyHash = ChunkKeyHash;
  using Map = std::unordered_map<Key, ChunkCacheEntry, KeyHash>;

  struct Shard {
    mutable std::mutex mu;
    std::unique_ptr<ReplacementPolicy> policy;
    uint64_t capacity_bytes = 0;
    Map entries;
    std::vector<uint64_t> per_group_by;  // group-by id -> cached chunks
    uint64_t bytes_used = 0;
  };

  /// Shard selection reuses KeyHash (well mixed; libstdc++'s table uses
  /// prime bucket counts, so masking low bits here doesn't correlate with
  /// in-shard bucketing).
  Shard& ShardFor(const Key& k) const {
    return *shards_[KeyHash{}(k) & (shards_.size() - 1)];
  }

  /// Locks a shard, recording contended-acquisition wait time into the
  /// "cache.lock_wait_ns" histogram.
  std::unique_lock<std::mutex> LockShard(const Shard& s) const;

  /// Removes the entry `it` points at from `s`. Caller holds s.mu.
  void EraseLocked(Shard& s, Map::iterator it);

  uint64_t capacity_bytes_;
  std::vector<std::unique_ptr<Shard>> shards_;

  // Not owned; published with release so hot-path readers can load
  // without a lock.
  std::atomic<CacheEventSink*> sink_live_{nullptr};

  std::unique_ptr<MetricsRegistry> owned_metrics_;  // when none was passed
  MetricsRegistry* metrics_ = nullptr;
  // Registry-backed, cached at construction so the hot path never touches
  // the registry lock.
  Counter* lookups_ = nullptr;
  Counter* hits_ = nullptr;
  Counter* insertions_ = nullptr;
  Counter* evictions_ = nullptr;
  Counter* rejected_ = nullptr;
  Histogram* lock_wait_ns_ = nullptr;
};

}  // namespace chunkcache::cache

#endif  // CHUNKCACHE_CACHE_CHUNK_CACHE_H_
