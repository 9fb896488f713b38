#ifndef CHUNKCACHE_CACHE_CHUNK_CACHE_H_
#define CHUNKCACHE_CACHE_CHUNK_CACHE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/ghost_cache.h"
#include "cache/replacement.h"
#include "chunks/group_by_spec.h"
#include "common/metrics.h"
#include "common/status.h"
#include "storage/agg_columns.h"
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
  /// Columnar rows in canonical row-major order. Only the group-by's
  /// active dimensions have coordinate columns, so the cache no longer
  /// charges for kMaxDims padding per row. Empty when the entry is held
  /// in encoded form instead.
  storage::AggColumns cols;

  /// Codec-encoded payload (storage/codec blob) when the manager's
  /// compressed in-memory tier holds this entry; empty otherwise. Exactly
  /// one of `cols` / `encoded` is populated for a non-empty chunk. Hits
  /// decode on demand (ChunkCacheManager::ResolveCols), so the budget
  /// charges encoded bytes and effective capacity rises.
  std::vector<uint8_t> encoded;
  /// Raw (decoded) payload bytes of `encoded`, for ratio accounting.
  uint64_t raw_bytes = 0;
  /// Rows in the payload regardless of representation.
  uint32_t encoded_rows = 0;

  bool compressed() const { return !encoded.empty(); }
  size_t rows() const { return compressed() ? encoded_rows : cols.size(); }

  /// Heap footprint charged against the cache budget. Charges column
  /// capacity(), not size(): the allocator really holds capacity() slots,
  /// and budgeting by size() would let slack capacity silently exceed the
  /// configured cache size. A compressed entry charges its encoded bytes.
  uint64_t ByteSize() const {
    return sizeof(CachedChunk) - sizeof(storage::AggColumns) +
           cols.ByteSize() + encoded.capacity();
  }
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

/// Per-shard counters, reported inside ChunkCacheStats so callers can see
/// hash skew and per-shard hit rates.
struct ChunkShardStats {
  uint64_t lookups = 0;
  uint64_t hits = 0;
  uint64_t chunks = 0;
  uint64_t bytes_used = 0;
};

struct ChunkCacheStats {
  uint64_t lookups = 0;
  uint64_t hits = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  uint64_t rejected = 0;  ///< Entries larger than their shard's budget.

  /// Nanoseconds threads spent blocked on shard mutexes (contended
  /// acquisitions only); the "mostly uncontended" claim is checkable.
  uint64_t contention_ns = 0;

  /// Per-shard breakdown (empty until stats() fills it).
  std::vector<ChunkShardStats> shards;

  // Executor counters, filled by ChunkCacheManager::StatsSnapshot when a
  // worker pool is attached; zero otherwise. steal_queue_depth is always
  // zero by construction (the executor is work-stealing-free).
  uint64_t exec_tasks_submitted = 0;
  uint64_t exec_tasks_run = 0;
  uint64_t exec_queue_peak = 0;
  uint64_t exec_steal_queue_depth = 0;
  uint64_t async_prefetched_chunks = 0;

  // Aggregation-kernel and run-I/O counters, filled by
  // ChunkCacheManager::StatsSnapshot from the backend engine; zero when
  // read straight off a ChunkCache.
  uint64_t dense_kernels = 0;
  uint64_t hash_kernels = 0;
  uint64_t rows_folded_dense = 0;
  uint64_t rows_folded_hash = 0;
  uint64_t coalesced_reads = 0;
  uint64_t single_run_reads = 0;
  uint64_t runs_merged = 0;

  // Miss-coalescing counters, filled by ChunkCacheManager::StatsSnapshot
  // from the in-flight table and the shared-scan scheduler; zero when read
  // straight off a ChunkCache.
  uint64_t coalesced_waits = 0;       ///< Misses that waited on an owner.
  uint64_t dedup_saved_chunks = 0;    ///< Computations avoided (waits+drops).
  uint64_t prefetch_dropped_inflight = 0;  ///< Prefetch chunks already pending.
  uint64_t inflight_peak = 0;         ///< In-flight table high-water mark.
  uint64_t shared_scan_batches = 0;   ///< Backend scans issued by the scheduler.
  uint64_t shared_scan_requests = 0;  ///< Miss batches routed through it.
  uint64_t scan_queue_depth_hwm = 0;  ///< Open-batch queue high-water mark.

  // Robustness counters, filled by ChunkCacheManager::StatsSnapshot from
  // the fault injector, retry plumbing, disk manager and scheduler; zero
  // when read straight off a ChunkCache.
  uint64_t faults_injected = 0;    ///< Faults fired by the global injector.
  uint64_t retries = 0;            ///< Backend compute attempts repeated.
  uint64_t degraded_answers = 0;   ///< Chunks answered via closure fallback.
  uint64_t deadline_expired = 0;   ///< Chunk waits/computes cut by deadline.
  uint64_t checksum_failures = 0;  ///< Page CRC mismatches caught on read.
  uint64_t scan_deadline_sheds = 0;  ///< Scheduler admissions given up.

  // Compressed-tier counters, filled by ChunkCacheManager::StatsSnapshot
  // when enable_compression is on; zero otherwise.
  uint64_t compressed_chunks = 0;   ///< Entries admitted in encoded form.
  uint64_t compression_skipped = 0;  ///< Entries where encoding didn't pay.
  uint64_t codec_raw_bytes = 0;      ///< Raw payload bytes before encoding.
  uint64_t codec_encoded_bytes = 0;  ///< Encoded payload bytes produced.
  uint64_t decode_calls = 0;         ///< Hits that had to decode.
  uint64_t decoded_lru_hits = 0;     ///< Hits served by the decoded front.
  uint64_t decoded_lru_evictions = 0;

  /// Active SIMD dispatch level (simd::IsaLevel: 0 = scalar, 1 = avx2),
  /// filled by ChunkCacheManager::StatsSnapshot.
  uint64_t simd_level = 0;

  // Persistence counters, filled by ChunkCacheManager::StatsSnapshot when
  // persist_dir is configured; zero otherwise. (DESIGN.md §14.)
  uint64_t persist_wal_records = 0;    ///< WAL records appended.
  uint64_t persist_wal_bytes = 0;      ///< WAL bytes appended.
  uint64_t persist_wal_errors = 0;     ///< Failed appends/fsyncs (dropped).
  uint64_t persist_snapshots = 0;      ///< Snapshot generations completed.
  uint64_t persist_snapshot_bytes = 0;
  uint64_t persist_snapshot_errors = 0;
  uint64_t persist_recovered_entries = 0;  ///< Entries served warm at boot.
  uint64_t persist_replayed_records = 0;   ///< WAL records replayed at boot.
  uint64_t persist_truncated_bytes = 0;    ///< Torn-tail bytes dropped.
  uint64_t persist_quarantined = 0;        ///< Corrupt entries dropped.
  uint64_t persist_recovery_ns = 0;        ///< Wall time of last recovery.
  uint64_t disk_write_errors = 0;  ///< DiskManager short writes / fsyncs.
};

/// Observer of cache admission state changes, used by the persistence WAL.
/// Both callbacks run OUTSIDE every shard lock (same discipline as the
/// ghost-cache feed), so implementations may block on I/O or call back
/// into the cache without holding up other shards. Because they run after
/// the lock is dropped, callbacks from concurrent inserts may interleave
/// in an order different from the cache mutations; consumers must treat
/// the stream as idempotent hints (the WAL replay does).
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
/// instance, byte budget (capacity / num_shards) and statistics; entries
/// map to shards by the same hash that keys the tables, so concurrent
/// Lookup/Insert/Contains from many clients are mostly uncontended. With
/// one shard the behavior (eviction order included) is identical to the
/// original single-map cache, which is what the serial paper reproductions
/// use.
class ChunkCache {
 public:
  /// Single-shard cache using the given policy instance (the serial
  /// configuration; exact legacy semantics). All statistics live on
  /// `metrics` (under "cache." names); passing nullptr gives the cache a
  /// private registry so its stats stay attributable.
  ChunkCache(uint64_t capacity_bytes,
             std::unique_ptr<ReplacementPolicy> policy,
             MetricsRegistry* metrics = nullptr);

  /// Sharded cache: `num_shards` is rounded up to a power of two, and each
  /// shard gets its own `MakePolicy(policy)` instance and an equal slice
  /// of `capacity_bytes`.
  ChunkCache(uint64_t capacity_bytes, const std::string& policy,
             uint32_t num_shards, MetricsRegistry* metrics = nullptr);

  ChunkCache(const ChunkCache&) = delete;
  ChunkCache& operator=(const ChunkCache&) = delete;

  /// Returns a pinned handle to the cached chunk, or null on a miss. A hit
  /// refreshes the entry's replacement state. The handle (and the rows it
  /// points at) stays valid for its whole lifetime regardless of later
  /// Insert/Clear calls.
  ChunkHandle Lookup(uint32_t group_by_id, uint64_t chunk_num,
                     uint64_t filter_hash);

  /// Probes without touching replacement state or hit statistics (used by
  /// planners to inspect cache contents).
  bool Contains(uint32_t group_by_id, uint64_t chunk_num,
                uint64_t filter_hash) const;

  /// Inserts `chunk`, evicting per policy until it fits its shard. A chunk
  /// larger than the shard budget is rejected (counted in stats).
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

  /// Merged snapshot of all shard counters (per-shard breakdown included).
  /// Counter totals come from atomic registry folds, so concurrent readers
  /// never see torn 32/32 values (the old plain-uint64 fields could tear
  /// when read off-shard); map sizes/bytes are read under the shard locks.
  ChunkCacheStats stats() const;
  void ResetStats();

  /// The registry backing every "cache.*" statistic — the one passed at
  /// construction, or the cache's own private one.
  MetricsRegistry& metrics() const { return *metrics_; }

  /// Cached-chunk count (any filter) of every group-by id below
  /// `num_group_by_ids`, indexed by id, taking each shard lock once. The
  /// in-cache aggregation planner reads it once per query to skip source
  /// group-bys that cannot cover a source box.
  std::vector<uint64_t> GroupByCounts(uint32_t num_group_by_ids) const;

  /// Attaches a ghost-cache shadow simulation: every subsequent lookup hit
  /// and insert is also fed (key hash + bytes + benefit only) to one
  /// simulator per named policy, each budgeted at this cache's full
  /// capacity, so alternative policies are scored online against the real
  /// access stream. Standings export to the registry as
  /// "cache.ghost.<policy>.*". Call during setup, before concurrent use;
  /// calling again replaces the simulators.
  void EnableGhostPolicies(const std::vector<std::string>& policies);

  /// The attached shadow simulation, or nullptr when disabled.
  GhostCacheSet* ghosts() const {
    return ghosts_live_.load(std::memory_order_acquire);
  }

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

  struct Shard {
    mutable std::mutex mu;
    std::unique_ptr<ReplacementPolicy> policy;
    uint64_t capacity_bytes = 0;
    uint64_t next_handle = 1;
    std::unordered_map<Key, uint64_t, KeyHash> by_key;  // key -> handle
    std::unordered_map<uint64_t, std::shared_ptr<CachedChunk>> by_handle;
    std::unordered_map<uint32_t, uint64_t> per_group_by;  // gb -> count
    uint64_t bytes_used = 0;
    // Registry-backed counters ("cache.shard<i>.*"), cached at
    // construction so the hot path never touches the registry lock.
    Counter* lookups = nullptr;
    Counter* hits = nullptr;
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

  /// Removes `handle` from `s`. Caller holds s.mu.
  void EraseLocked(Shard& s, uint64_t handle);

  /// Registers cache-level metrics and per-shard counters on metrics_.
  /// Called once from each constructor after shards_ is populated.
  void WireMetrics();

  uint64_t capacity_bytes_;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::unique_ptr<GhostCacheSet> ghosts_;
  // Published with release so hot-path readers can load without a lock.
  std::atomic<GhostCacheSet*> ghosts_live_{nullptr};
  // Not owned; published the same way as the ghost feed.
  std::atomic<CacheEventSink*> sink_live_{nullptr};

  std::unique_ptr<MetricsRegistry> owned_metrics_;  // when none was passed
  MetricsRegistry* metrics_ = nullptr;
  Counter* insertions_ = nullptr;
  Counter* evictions_ = nullptr;
  Counter* rejected_ = nullptr;
  Histogram* lock_wait_ns_ = nullptr;
};

}  // namespace chunkcache::cache

#endif  // CHUNKCACHE_CACHE_CHUNK_CACHE_H_
