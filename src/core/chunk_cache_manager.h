#ifndef CHUNKCACHE_CORE_CHUNK_CACHE_MANAGER_H_
#define CHUNKCACHE_CORE_CHUNK_CACHE_MANAGER_H_

#include <array>
#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "backend/engine.h"
#include "cache/chunk_cache.h"
#include "common/inflight_table.h"
#include "common/metrics.h"
#include "common/retry.h"
#include "common/trace.h"
#include "core/middle_tier.h"
#include "storage/cache_persist.h"

namespace chunkcache::core {

/// Configuration of the chunk-caching middle tier.
struct ChunkManagerOptions {
  uint64_t cache_bytes = 30ull << 20;   ///< Paper: 30 MB cache.
  /// Replacement policy: any cache::KnownPolicyNames() name (lru, clock,
  /// benefit-clock). Unknown names abort with a message listing the
  /// valid set.
  std::string policy = "benefit-clock";

  /// Read by no code; kept only because bench/e2e/e2e.cc assigns it.
  uint32_t num_workers = 1;

  /// Shards of the chunk cache (rounded up to a power of two). 1 keeps
  /// the original single-map replacement semantics — what the serial
  /// reproductions use; concurrent deployments want >= 2x the client
  /// count so Lookup/Insert stay mostly uncontended.
  uint32_t cache_shards = 1;

  /// Paper §7 future work: answer a missing chunk by aggregating *finer*
  /// chunks already in the cache instead of going to the backend.
  bool enable_in_cache_aggregation = false;

  /// Read by no code; kept only because bench/e2e/e2e.cc assigns it.
  bool enable_compression = false;

  /// Crash-safe persistent cache (DESIGN.md §14). When non-empty, the
  /// cache's contents (each entry with its benefit) live in this
  /// directory as generation-numbered snapshots, written by one
  /// background thread so no query thread encodes, writes or fsyncs for
  /// persistence. Construction recovers the newest readable snapshot of
  /// the engine's data (backend::ChunkedFile::fingerprint(); a snapshot
  /// of other data is never read) with corrupt entries quarantined
  /// (dropped + counted, never served), then traffic is served warm —
  /// bit-identical to a cold run, since cache warmth never changes
  /// answers. A crash loses only the admissions since the last completed
  /// snapshot. Empty = no persistence.
  std::string persist_dir;

  /// Cache admit and evict events between background snapshots (0 =
  /// snapshot only on explicit PersistSnapshot() calls and at clean
  /// shutdown). The destructor always writes a final snapshot unless
  /// SimulateCrash() fired.
  uint64_t persist_snapshot_every = 4096;

  /// Per-query trace spans retained in a ring buffer (0 = tracing off).
  /// When off, every trace hook in Execute is a disarmed branch-and-return
  /// (bench_micro measures both modes).
  uint32_t trace_capacity = 0;

  /// Registry all middle-tier statistics are homed on — the cache's and
  /// the manager's own. nullptr (the default) gives the manager a private
  /// registry so concurrently-running tiers stay attributable; pass one
  /// shared registry for a process-wide export.
  MetricsRegistry* metrics = nullptr;
};

/// The paper's middle tier (Sections 3 and 5): decomposes each query into
/// the chunks it needs, answers what it can from the chunk cache, asks the
/// backend to compute only the missing chunks, post-filters boundary
/// extras, and admits the fresh chunks into the cache under the
/// benefit-weighted replacement policy.
///
/// Each query runs the four steps of §5.2 as stages over one QueryPlan
/// value, serially on the caller's thread: Plan (chunk numbers, then a
/// probe that claims every miss), Resolve (the chunks this query owns,
/// then the ones other queries compute), Assemble (rows, filter, sort)
/// and Account (statistics, derived from the plan once).
///
/// Misses are coalesced across queries: the first query to miss a
/// (group-by, chunk, filter) owns it through the in-flight table and
/// publishes the result, and concurrent missers wait on it instead of
/// duplicating backend work. Each query's owned misses go to the backend
/// as one call on the query's own thread, so the threads that call
/// Execute bound how many scans run at once. A chunk the backend cannot
/// deliver (retries exhausted, deadline expired) is assembled from cached
/// chunks of a strictly finer group-by when the closure property allows;
/// QueryStats::degraded_answers records that provenance.
///
/// The ExecControl passed to Execute is honored at claim time, before
/// each backend attempt and during retry backoff, and while waiting on
/// chunks owned by other queries; a backend scan that has started runs to
/// completion. An expired/cancelled query fails fast with
/// DeadlineExceeded/Cancelled without claiming in-flight slots, and a
/// waiter whose owner gave up for the owner's own deadline or
/// cancellation claims the chunk again.
///
/// Thread safety: Execute may be called concurrently from many threads —
/// the chunk cache is sharded and lookups return pinned handles, the
/// in-flight table hands each missing chunk to one owner. Each caller
/// passes its own QueryStats.
class ChunkCacheManager final : public MiddleTier {
 public:
  ChunkCacheManager(backend::BackendEngine* engine,
                    ChunkManagerOptions options);
  ~ChunkCacheManager() override;

  std::string name() const override { return "chunk-cache"; }

  cache::ChunkCache& chunk_cache() { return cache_; }
  const ChunkManagerOptions& options() const { return options_; }

  /// Cache stats plus the miss-coalescing, robustness and persistence
  /// counters; what `examples/shell.cpp`'s `stats` command
  /// prints. Every cumulative value is served from the metrics registry
  /// (the single store), after RefreshMetrics, so the registry export and
  /// this struct always agree.
  cache::ChunkCacheStats StatsSnapshot() const;

  /// Folds the natively-atomic subsystem counters (kernels, in-flight
  /// peak, fault injector, disk, SIMD level) into registry gauges.
  void RefreshMetrics() const override;

  /// The registry every middle-tier statistic lives on (the one passed in
  /// options, or the manager's own private one).
  MetricsRegistry& metrics() const { return *metrics_; }

  /// Trace ring; null when options.trace_capacity == 0.
  TraceRecorder* trace_recorder() { return trace_.get(); }

  /// Writes a cache snapshot generation now (shadow file, atomic rename,
  /// GC) on the calling thread, after any snapshot already running. No-op
  /// without persist_dir. Exposed so operators (shell) and tests can force
  /// a generation boundary.
  Status PersistSnapshot();

  /// Persistence subsystem; null when persist_dir is empty.
  storage::CachePersistence* persistence() { return persist_.get(); }

  /// What recovery found at construction. All-zero without persist_dir.
  const storage::RecoveryStats& recovery_stats() const {
    return recovery_info_;
  }

  /// Signature of a query's non-group-by predicate list; part of every
  /// cached chunk's identity (0 = no predicates). Exposed for tests.
  static uint64_t FilterHash(
      const std::vector<backend::NonGroupByPredicate>& preds);

 private:
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

  /// Singleflight table over the cache's own key triple.
  using Inflight =
      InflightTable<cache::ChunkKey, cache::ChunkHandle, cache::ChunkKeyHash>;

  /// How the probe found a needed chunk: cached, claimed by this query
  /// (which must publish or fail it), or being computed by another query.
  enum class ClaimKind : uint8_t { kHit, kOwned, kWait };

  /// Where a resolved chunk's rows came from; indexes provenance_.
  enum class Provenance : uint8_t {
    kCache,
    kAggregation,
    kBackend,
    kCoalesced,
    kDegraded,
  };
  static constexpr size_t kNumProvenances = 5;

  /// One chunk a query needs.
  struct PlannedChunk {
    uint64_t chunk_num = 0;
    // The pinned cache entry whose payload holds the chunk's rows: set by
    // the probe for a kHit claim, and by Resolve for every other chunk.
    cache::ChunkHandle entry;
    Inflight::SlotPtr slot;  // the in-flight slot of a kOwned/kWait claim
    ClaimKind claim = ClaimKind::kHit;
    Provenance source = Provenance::kCache;  // final, once resolved
  };

  /// A query's plan: what it needs, how each chunk was claimed and, once
  /// resolved, where each came from. Every QueryStats provenance field is
  /// derived from it (Account).
  struct QueryPlan {
    const backend::StarJoinQuery* query = nullptr;
    uint32_t gb_id = 0;
    uint64_t filter_hash = 0;
    double benefit = 0;  // of each insert: the paper's |base| / #chunks
    std::vector<PlannedChunk> chunks;  // in decomposition order
    std::optional<RollupPlan> rollup;  // planned on first roll-up

    cache::ChunkKey Key(uint64_t chunk_num) const {
      return cache::ChunkKey{gb_id, chunk_num, filter_hash};
    }
  };

  /// Runs the stages and does the per-query bookkeeping: latency
  /// histogram, robustness counters, root-span tags and trace Finish.
  Result<std::vector<backend::ResultRow>> Run(
      const backend::StarJoinQuery& query, QueryStats* stats,
      const ExecControl& ctrl) override;

  /// Query analysis and splitting (§5.2): decomposes `query` into the
  /// chunks it needs, probes the cache and claims every miss.
  QueryPlan Plan(const backend::StarJoinQuery& query, QueryStats* stats,
                 TraceBuilder* trace);

  /// Builds the chunks `plan` owns, then collects the ones other queries
  /// own. On success every chunk has its source and rows; on error every
  /// slot this query owned is already resolved.
  Status Resolve(QueryPlan* plan, const ExecControl& ctrl, QueryStats* stats,
                 TraceBuilder* trace);

  /// Builds `owned` (chunks whose slots this query holds): by in-cache
  /// roll-up when enabled, the rest with one backend call; if that call
  /// fails, the rest by degraded roll-up, all of them or none. Publishes
  /// every chunk, or fails every slot still held and returns the
  /// backend's error.
  Status ResolveOwned(QueryPlan* plan, std::vector<PlannedChunk*> owned,
                      const ExecControl& ctrl, QueryStats* stats,
                      TraceBuilder* trace);

  /// Waits for `c`, which another query owns. A chunk whose owner gave up
  /// for its own deadline or cancellation is claimed again while this
  /// query is live (owned: built at once through ResolveOwned as a set of
  /// one). Any other failed wait falls back to a cache re-probe, then a
  /// degraded roll-up.
  Status CollectWait(QueryPlan* plan, PlannedChunk* c, const ExecControl& ctrl,
                     QueryStats* stats);

  /// Post-processing: appends every chunk's rows inside the selection and
  /// sorts them canonically.
  std::vector<backend::ResultRow> Assemble(const QueryPlan& plan,
                                           TraceBuilder* trace);

  /// Derives the provenance fields, full_cache_hit, saved_fraction and
  /// modeled_ms of `stats` from the resolved plan, and adds them to the
  /// chunks.* counters.
  void Account(const QueryPlan& plan, QueryStats* stats);

  /// Claims `key` through the in-flight table. An owner re-probes the
  /// cache without touching statistics: the previous owner may have
  /// published between this query's miss and its claim, in which case
  /// the cached entry is published to the slot and returned as a hit.
  ClaimKind Claim(const cache::ChunkKey& key, cache::ChunkHandle* hit,
                  Inflight::SlotPtr* slot);

  /// Builds the roll-up plan for target group-by `target_id` from one
  /// snapshot of the cache's per-group-by counts.
  RollupPlan PlanRollup(uint32_t target_id) const;

  /// Tries to build chunk `chunk_num` of `plan`'s group-by by aggregating
  /// finer chunks already in the cache; returns the columnar rows
  /// (canonical order) or nullopt. The roll-up sources are planned on
  /// first use, and the first one whose whole source box is cached wins.
  /// Boxes are probed with the statistics-free Contains and pinned only
  /// once complete, so a failed attempt leaves no trace in hit counters or
  /// replacement state. The roll-up runs through the same per-chunk kernel
  /// dispatch as the backend (dense grid when the chunk's cell box
  /// allows), recorded in the engine's kernel counters.
  std::optional<storage::AggColumns> TryInCacheAggregation(QueryPlan* plan,
                                                           uint64_t chunk_num);

  /// Builds the cache entry for chunk `key` around `payload`, inserts it,
  /// and publishes it to `slot` when non-null. Returns the entry, pinned.
  cache::ChunkHandle AdmitChunk(const cache::ChunkKey& key, double benefit,
                                storage::ChunkPayload payload,
                                const Inflight::SlotPtr& slot);

  /// Computes `chunk_nums` of `query`'s group-by with one engine call,
  /// retrying transient failures under `ctrl`, and charges the work and
  /// retries to `stats`.
  Result<std::vector<backend::ChunkData>> ComputeFromBackend(
      const backend::StarJoinQuery& query,
      const std::vector<uint64_t>& chunk_nums, const ExecControl& ctrl,
      QueryStats* stats);

  /// Recovery half of the warm-restart path: opens the persistence
  /// subsystem against this engine's data fingerprint, re-admits every
  /// recovered entry through the normal Insert path, and only then
  /// installs the event sink that starts the background persister, so
  /// recovered inserts do not count toward a snapshot.
  void RecoverPersistedCache();

  backend::BackendEngine* engine_;
  ChunkManagerOptions options_;
  // Declared before cache_: the cache homes its statistics on this
  // registry.
  std::unique_ptr<MetricsRegistry> owned_metrics_;
  MetricsRegistry* metrics_ = nullptr;
  cache::ChunkCache cache_;
  Inflight inflight_;
  std::unique_ptr<TraceRecorder> trace_;

  // Registry-backed cumulative counters; pointers cached at construction.
  // Chunk-provenance counters ("chunks.*") are flushed only for queries
  // that succeed, so chunks.requested == sum of the provenance counters
  // holds exactly (stats_invariant_test); robustness counters flush on
  // every path out.
  Counter* queries_ = nullptr;            // query.executions
  Counter* query_errors_ = nullptr;       // query.errors
  Counter* chunks_requested_ = nullptr;   // chunks.requested
  // chunks.from_cache, .from_aggregation, .from_backend, .coalesced_waits
  // and .degraded_answers, indexed by Provenance.
  std::array<Counter*, kNumProvenances> provenance_{};
  Counter* retries_ = nullptr;            // backend.retries
  Counter* deadline_expired_ = nullptr;   // query.deadline_expired
  Histogram* query_latency_ns_ = nullptr;  // query.latency_ns

  // Crash-safe persistence (persist_dir option). The sink owns the
  // background persister; the destructor detaches and joins it before
  // the shutdown snapshot and before persist_ is destroyed.
  class PersistSink;
  std::unique_ptr<storage::CachePersistence> persist_;
  std::unique_ptr<PersistSink> persist_sink_;
  storage::RecoveryStats recovery_info_;
};

}  // namespace chunkcache::core

#endif  // CHUNKCACHE_CORE_CHUNK_CACHE_MANAGER_H_
