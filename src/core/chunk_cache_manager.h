#ifndef CHUNKCACHE_CORE_CHUNK_CACHE_MANAGER_H_
#define CHUNKCACHE_CORE_CHUNK_CACHE_MANAGER_H_

#include <array>
#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "backend/engine.h"
#include "backend/scan_scheduler.h"
#include "cache/chunk_cache.h"
#include "cache/decoded_cache.h"
#include "common/inflight_table.h"
#include "common/metrics.h"
#include "common/retry.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "core/middle_tier.h"
#include "storage/cache_persist.h"
#include "storage/codec.h"

namespace chunkcache::core {

/// Configuration of the chunk-caching middle tier.
struct ChunkManagerOptions {
  uint64_t cache_bytes = 30ull << 20;   ///< Paper: 30 MB cache.
  /// Replacement policy: any cache::KnownPolicyNames() name (lru, clock,
  /// benefit-clock, arc, slru, 2q, lfu-aging, benefit-lfu-aging). Unknown
  /// names abort with a message listing the valid set.
  std::string policy = "benefit-clock";
  CostModel cost_model;

  /// Ghost-cache shadow policies: for each name listed here the chunk
  /// cache runs an online simulator (keys + sizes only) against the real
  /// access stream and exports would-be-hit counters as
  /// "cache.ghost.<policy>.*". Empty = no shadow simulation (no overhead).
  std::vector<std::string> ghost_policies;

  /// Worker threads for the parallel miss pipeline. With <= 1 the manager
  /// runs the exact serial paper path (no pool is created); with more, a
  /// fixed-size executor (a) fans missing-chunk computation across
  /// workers, (b) overlaps cache-hit assembly with backend work, and
  /// (c) makes drill-down prefetch asynchronous.
  uint32_t num_workers = 1;

  /// Shards of the chunk cache (rounded up to a power of two). 1 keeps
  /// the original single-map replacement semantics — what the serial
  /// reproductions use; concurrent deployments want >= 2x the client
  /// count so Lookup/Insert stay mostly uncontended.
  uint32_t cache_shards = 1;

  /// Paper §7 future work: answer a missing chunk by aggregating *finer*
  /// chunks already in the cache instead of going to the backend.
  bool enable_in_cache_aggregation = false;

  /// Paper §7 future work: after answering a query, prefetch the
  /// corresponding chunks one hierarchy level finer (anticipating drill
  /// down), up to prefetch_budget_chunks per query. With num_workers > 1
  /// the prefetch runs as a fire-and-forget background task (drain with
  /// DrainPrefetch); serially it runs inline as before.
  bool enable_drill_down_prefetch = false;
  uint32_t prefetch_budget_chunks = 32;

  /// Retry policy for backend chunk computation: a retryable failure
  /// (I/O error, corruption, resource exhaustion) re-attempts the compute
  /// with jittered exponential backoff instead of failing the query.
  RetryPolicy retry;

  /// Compressed in-memory cache tier: admitted chunks are stored
  /// codec-encoded (the budget charges encoded bytes, so effective
  /// capacity rises at fixed cache_bytes) and hits decode on demand
  /// through a small decoded-LRU front. Entries whose encoding doesn't
  /// save bytes stay raw. Off == today's raw entries; query results are
  /// bit-identical either way (the codecs are lossless), which
  /// compression_test checks end to end.
  bool enable_compression = false;

  /// Budget of the decoded-LRU front (used only with enable_compression).
  /// Holds the most recently decoded chunks so back-to-back hits on the
  /// same chunk decode once. 0 disables the front (every hit decodes).
  uint64_t decoded_cache_bytes = 4ull << 20;

  /// Crash-safe persistent cache (DESIGN.md §14). When non-empty, the
  /// cache's contents (each entry with its benefit) live in this
  /// directory as generation-numbered snapshots plus a CRC32C-framed WAL
  /// of admissions/evictions. Construction recovers: newest
  /// readable snapshot + WAL replay, torn tails truncated, corrupt
  /// entries quarantined (dropped + counted, never served), then traffic
  /// is served warm — bit-identical to a cold run, since cache warmth
  /// never changes answers. Empty = no persistence (today's behavior).
  std::string persist_dir;

  /// WAL records between automatic snapshots (0 = snapshot only on
  /// explicit PersistSnapshot() calls and at clean shutdown). The
  /// destructor always writes a final snapshot unless SimulateCrash()
  /// fired, so a clean shutdown restarts without a long WAL replay.
  uint64_t persist_snapshot_every = 4096;

  /// WAL records per fsync (1 = every record — full durability; 0 =
  /// never fsync; N amortizes, risking the last < N records on a crash).
  uint64_t persist_wal_fsync_every = 1;

  /// Per-query trace spans retained in a ring buffer (0 = tracing off).
  /// When off, every trace hook in Execute is a disarmed branch-and-return
  /// (bench_observability measures both modes).
  uint32_t trace_capacity = 0;

  /// Registry all middle-tier statistics are homed on — the cache's,
  /// the scheduler's and the manager's own. nullptr (the default) gives
  /// the manager a private registry so concurrently-running tiers stay
  /// attributable; pass one shared registry for a process-wide export.
  MetricsRegistry* metrics = nullptr;
};

/// The paper's middle tier (Sections 3 and 5): decomposes each query into
/// the chunks it needs, answers what it can from the chunk cache, asks the
/// backend to compute only the missing chunks, post-filters boundary
/// extras, and admits the fresh chunks into the cache under the
/// benefit-weighted replacement policy.
///
/// Misses are coalesced across queries: the first query to miss a
/// (group-by, chunk, filter) owns it through the in-flight table and
/// publishes the result, concurrent missers wait on it instead of
/// duplicating backend work, and concurrent same-group-by miss batches
/// merge into one scan in the shared-scan scheduler. A chunk the backend
/// cannot deliver (retries exhausted, deadline expired) is assembled from
/// cached chunks of a strictly finer group-by when the closure property
/// allows; QueryStats::degraded_answers records that provenance.
///
/// The ExecControl passed to Execute is honored at claim time, in backend
/// computation (entry + per chunk), at scan-scheduler admission, and while
/// waiting on chunks owned by other queries. An expired/cancelled query
/// fails fast with DeadlineExceeded/Cancelled without claiming in-flight
/// slots.
///
/// Thread safety: Execute may be called concurrently from many client
/// threads once num_workers/cache_shards are configured — the chunk cache
/// is sharded, lookups return pinned handles, and the backend's chunk
/// computation only touches thread-safe storage layers. Each caller passes
/// its own QueryStats.
class ChunkCacheManager final : public MiddleTier {
 public:
  ChunkCacheManager(backend::BackendEngine* engine,
                    ChunkManagerOptions options);
  ~ChunkCacheManager() override;

  std::string name() const override { return "chunk-cache"; }

  cache::ChunkCache& chunk_cache() { return cache_; }
  const ChunkManagerOptions& options() const { return options_; }

  /// Executor driving the parallel pipeline; null in serial configuration.
  ThreadPool* executor() { return pool_.get(); }

  /// Blocks until every fire-and-forget prefetch task issued so far has
  /// completed (the drain point for asynchronous drill-down prefetch).
  void DrainPrefetch();

  /// Cache stats plus executor counters (tasks submitted/run, queue peak,
  /// steal-queue depth — zero by construction), the async-prefetch count,
  /// and the miss-coalescing counters; what `examples/shell.cpp`'s `stats`
  /// command prints. Every cumulative value is served from the metrics
  /// registry (the single store); natively-atomic subsystem counters
  /// (executor, kernels, fault injector, disk) are folded into registry
  /// gauges here so the registry export and this struct always agree.
  cache::ChunkCacheStats StatsSnapshot() const;

  /// The registry every middle-tier statistic lives on (the one passed in
  /// options, or the manager's own private one).
  MetricsRegistry& metrics() const { return *metrics_; }

  /// Trace ring; null when options.trace_capacity == 0.
  TraceRecorder* trace_recorder() { return trace_.get(); }

  /// Shared-scan scheduler every owned miss batch goes through.
  backend::ScanScheduler* scan_scheduler() { return scheduler_.get(); }

  /// Writes a cache snapshot generation now (rotate WAL, shadow file,
  /// atomic rename, GC). No-op without persist_dir. Exposed so operators
  /// (shell) and tests can force a generation boundary.
  Status PersistSnapshot();

  /// Persistence subsystem; null when persist_dir is empty.
  storage::CachePersistence* persistence() { return persist_.get(); }

  /// What recovery found at construction (entry payloads excluded — they
  /// went into the cache). All-zero without persist_dir.
  const storage::RecoveryStats& recovery_stats() const {
    return recovery_info_;
  }

  /// Signature of a query's non-group-by predicate list; part of every
  /// cached chunk's identity (0 = no predicates). Exposed for tests.
  static uint64_t FilterHash(
      const std::vector<backend::NonGroupByPredicate>& preds);

 private:
  /// Drill-down prefetch target and the missing child chunks to fetch.
  struct PrefetchPlan {
    chunks::GroupBySpec drill;
    uint32_t drill_id = 0;
    double benefit = 0;
    std::vector<uint64_t> to_fetch;
  };

  /// One query's candidate sources for in-cache aggregation: the target's
  /// strictly finer group-bys that held any cached chunk when the plan was
  /// made, in ascending id order, each with that chunk count (any filter).
  struct RollupPlan {
    struct Source {
      uint32_t id = 0;
      chunks::GroupBySpec spec;
      uint64_t cached = 0;
    };
    std::vector<Source> sources;
  };

  /// Builds the plan for target group-by `target_id` from one snapshot of
  /// the cache's per-group-by counts.
  RollupPlan PlanRollup(uint32_t target_id) const;

  /// Tries to build the missing chunk by aggregating finer chunks already
  /// in the cache; returns the columnar rows (canonical order) or nullopt.
  /// The first plan source whose whole source box is cached wins. Boxes
  /// are probed with the statistics-free Contains and pinned only once
  /// complete, so a failed attempt leaves no trace in hit counters,
  /// replacement state or ghost simulators. The roll-up runs through the
  /// same per-chunk kernel dispatch as the backend (dense grid when the
  /// chunk's cell box allows), recorded in the engine's kernel counters.
  std::optional<storage::AggColumns> TryInCacheAggregation(
      const RollupPlan& plan, const chunks::GroupBySpec& target,
      uint64_t chunk_num, uint64_t filter_hash);

  /// Computes the drill-down spec (every grouped dimension one level
  /// finer, capped at base) and the missing child chunks of `chunk_nums`;
  /// nullopt when already at base or nothing is missing.
  std::optional<PrefetchPlan> PlanDrillDown(
      const backend::StarJoinQuery& query,
      const std::vector<uint64_t>& chunk_nums, uint64_t filter_hash);

  /// Singleflight table over the cache's own key triple.
  using Inflight =
      InflightTable<cache::ChunkKey, cache::ChunkHandle, cache::ChunkKeyHash>;

  /// Wraps ExecuteTraced with the per-query bookkeeping: latency
  /// histogram, registry counter flush, root-span tags and trace Finish.
  Result<std::vector<backend::ResultRow>> Run(
      const backend::StarJoinQuery& query, QueryStats* stats,
      const ExecControl& ctrl) override;

  /// The execution pipeline proper, instrumented with `trace` spans.
  Result<std::vector<backend::ResultRow>> ExecuteTraced(
      const backend::StarJoinQuery& query, QueryStats* stats,
      const ExecControl& ctrl, TraceBuilder* trace);

  /// Encodes `entry->cols` into `entry->encoded` when compression is on
  /// and the encoding actually saves bytes (otherwise the entry stays raw
  /// and compression_skipped counts it). On success the decoded columns
  /// move into the decoded-LRU front, so the query that computed the chunk
  /// — and its coalesced waiters — read them back without a decode.
  void MaybeCompressEntry(cache::CachedChunk* entry);

  /// The columns of a cache hit: raw entries alias the handle's own cols
  /// (no copy, the handle keeps them alive); compressed entries come from
  /// the decoded-LRU front or a fresh timed decode.
  std::shared_ptr<const storage::AggColumns> ResolveCols(
      const cache::ChunkHandle& h);

  /// Runs `plan`'s fetches (dropping chunks another query is already
  /// computing, claiming the rest through the in-flight table), admits and
  /// publishes each computed chunk, and returns how many were fetched.
  /// Best-effort: a backend failure fails the claimed slots and returns 0.
  /// Shared by the inline and the fire-and-forget prefetch paths.
  uint64_t RunPrefetch(
      const PrefetchPlan& plan,
      const std::vector<backend::NonGroupByPredicate>& preds,
      uint64_t filter_hash, WorkCounters* work);

  /// Records one backend recompute (`chunks` chunks produced since
  /// `start`) as per-chunk ns on "benefit.recompute_ns".
  void RecordRecompute(std::chrono::steady_clock::time_point start,
                       size_t chunks);

  /// Cache entry -> durable form: compressed entries persist their codec
  /// blob verbatim; raw entries encode here (the blob self-checksums).
  storage::PersistedChunk ToPersisted(const cache::CachedChunk& entry) const;

  /// Recovery half of the warm-restart path: opens the persistence
  /// subsystem, re-admits every recovered entry through the normal Insert
  /// path (decode-verifying each blob; failures are quarantined), and
  /// only then installs the WAL event sink so recovered state isn't
  /// re-logged.
  void RecoverPersistedCache();

  /// Auto-snapshot trigger, called by the event sink after each logged
  /// event; snapshots inline (try-lock, so concurrent triggers skip) once
  /// persist_snapshot_every records accumulate.
  void MaybeAutoSnapshot();

  /// Shared body of PersistSnapshot / MaybeAutoSnapshot: gathers entries
  /// via ForEachEntry (one shard lock at a time) inside the persistence
  /// rotate-then-gather protocol.
  Status SnapshotNow(bool only_if_idle);

  backend::BackendEngine* engine_;
  ChunkManagerOptions options_;
  // Declared before cache_: the cache (and scheduler) home their
  // statistics on this registry.
  std::unique_ptr<MetricsRegistry> owned_metrics_;
  MetricsRegistry* metrics_ = nullptr;
  cache::ChunkCache cache_;
  // Decoded-LRU front of the compressed tier; null unless
  // enable_compression && decoded_cache_bytes > 0.
  std::unique_ptr<cache::DecodedCache> decoded_;
  Inflight inflight_;
  std::unique_ptr<backend::ScanScheduler> scheduler_;
  std::unique_ptr<TraceRecorder> trace_;

  // Registry-backed cumulative counters; pointers cached at construction.
  // Chunk-provenance counters ("chunks.*") are flushed only for queries
  // that succeed, so chunks.requested == sum of the provenance counters
  // holds exactly (stats_invariant_test); robustness counters flush on
  // every path out.
  Counter* queries_ = nullptr;            // query.executions
  Counter* query_errors_ = nullptr;       // query.errors
  Counter* chunks_requested_ = nullptr;   // chunks.requested
  Counter* from_cache_ = nullptr;         // chunks.from_cache
  Counter* from_aggregation_ = nullptr;   // chunks.from_aggregation
  Counter* from_backend_ = nullptr;       // chunks.from_backend
  Counter* coalesced_waits_ = nullptr;    // chunks.coalesced_waits
  Counter* degraded_answers_ = nullptr;   // chunks.degraded_answers
  Counter* retries_ = nullptr;            // backend.retries
  Counter* deadline_expired_ = nullptr;   // query.deadline_expired
  Counter* async_prefetched_ = nullptr;   // prefetch.async_chunks
  Counter* prefetch_dropped_ = nullptr;   // prefetch.dropped_inflight
  Histogram* query_latency_ns_ = nullptr;  // query.latency_ns

  // Compressed-tier counters (all zero with compression off).
  Counter* compressed_chunks_ = nullptr;    // cache.compressed_chunks
  Counter* compression_skipped_ = nullptr;  // cache.compression_skipped
  Counter* codec_raw_bytes_ = nullptr;      // cache.codec_raw_bytes
  Counter* codec_encoded_bytes_ = nullptr;  // cache.codec_encoded_bytes
  Counter* decode_calls_ = nullptr;         // cache.decode_calls
  // Per-codec column traffic: cache.codec.<name>.{raw,encoded}_bytes and
  // .columns, indexed by storage::codec::ColumnCodec.
  std::array<Counter*, storage::codec::kNumCodecs> codec_col_raw_{};
  std::array<Counter*, storage::codec::kNumCodecs> codec_col_encoded_{};
  std::array<Counter*, storage::codec::kNumCodecs> codec_col_columns_{};
  Histogram* encode_ns_ = nullptr;  // codec.encode_ns
  Histogram* decode_ns_ = nullptr;  // codec.decode_ns
  Histogram* recompute_ns_ = nullptr;  // benefit.recompute_ns

  // Crash-safe persistence (persist_dir option). The sink is detached from
  // the cache before persist_ is destroyed (see the destructor), so no
  // event can reach a dead WAL writer.
  class PersistSink;
  std::unique_ptr<storage::CachePersistence> persist_;
  std::unique_ptr<PersistSink> persist_sink_;
  storage::RecoveryStats recovery_info_;

  WaitGroup prefetch_wg_;
  // Declared last: destroyed first, so in-flight tasks that capture `this`
  // finish while cache_ and engine_ are still alive.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace chunkcache::core

#endif  // CHUNKCACHE_CORE_CHUNK_CACHE_MANAGER_H_
