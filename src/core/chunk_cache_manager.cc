#include "core/chunk_cache_manager.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "backend/aggregator.h"
#include "common/fault_injector.h"
#include "common/logging.h"
#include "common/simd.h"

namespace chunkcache::core {

using backend::ChunkData;
using backend::NonGroupByPredicate;
using backend::ResultRow;
using backend::StarJoinQuery;
using cache::ChunkKey;
using chunks::ChunkBox;
using chunks::ChunkCoords;
using chunks::GroupBySpec;
using storage::AggTuple;

/// Retries of a failed backend call, RetryPolicy's defaults: three
/// attempts in all, sleeping 100 us then 200 us, each cut by up to half
/// at random.
constexpr RetryPolicy kBackendRetry{};

/// Background snapshot trigger: counts cache admit and evict events (the
/// cache delivers them outside every shard lock) and wakes one persister
/// thread once persist_snapshot_every of them have accumulated. A query
/// thread pays one atomic increment per event; encoding, writing and
/// fsync all happen on the persister, one snapshot at a time.
class ChunkCacheManager::PersistSink final : public cache::CacheEventSink {
 public:
  PersistSink(ChunkCacheManager* mgr, uint64_t every)
      : mgr_(mgr), every_(every), thread_([this] { Run(); }) {}

  /// Stops the persister after the snapshot it may be writing (which
  /// SimulateCrash() abandons).
  ~PersistSink() override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }

  PersistSink(const PersistSink&) = delete;
  PersistSink& operator=(const PersistSink&) = delete;

  void OnAdmit(const std::shared_ptr<const cache::CachedChunk>&) override {
    Count();
  }
  void OnEvict(const cache::ChunkKey&) override { Count(); }

 private:
  void Count() {
    if (events_.fetch_add(1, std::memory_order_relaxed) + 1 != every_) return;
    {
      std::lock_guard<std::mutex> lock(mu_);
      wake_ = true;
    }
    cv_.notify_one();
  }

  void Run() {
    std::unique_lock<std::mutex> lock(mu_);
    while (true) {
      cv_.wait(lock, [this] { return wake_ || stop_; });
      if (stop_) return;
      wake_ = false;
      lock.unlock();
      // Events from here on count toward the next snapshot. A failed
      // snapshot is counted on persist.snapshot_errors; the previous one
      // stays authoritative.
      events_.store(0, std::memory_order_relaxed);
      (void)mgr_->PersistSnapshot();
      lock.lock();
    }
  }

  ChunkCacheManager* const mgr_;
  const uint64_t every_;
  std::atomic<uint64_t> events_{0};
  std::mutex mu_;
  std::condition_variable cv_;
  bool wake_ = false;  // guarded by mu_
  bool stop_ = false;  // guarded by mu_
  std::thread thread_;  // declared last: starts once the above exist
};

ChunkCacheManager::ChunkCacheManager(backend::BackendEngine* engine,
                                     ChunkManagerOptions options)
    : engine_(engine),
      options_(std::move(options)),
      owned_metrics_(options_.metrics == nullptr
                         ? std::make_unique<MetricsRegistry>()
                         : nullptr),
      metrics_(options_.metrics != nullptr ? options_.metrics
                                           : owned_metrics_.get()),
      cache_(options_.cache_bytes, options_.policy,
             std::max<uint32_t>(1, options_.cache_shards), metrics_) {
  if (options_.trace_capacity > 0) {
    trace_ = std::make_unique<TraceRecorder>(options_.trace_capacity);
  }
  queries_ = metrics_->GetCounter("query.executions");
  query_errors_ = metrics_->GetCounter("query.errors");
  chunks_requested_ = metrics_->GetCounter("chunks.requested");
  provenance_ = {metrics_->GetCounter("chunks.from_cache"),
                 metrics_->GetCounter("chunks.from_aggregation"),
                 metrics_->GetCounter("chunks.from_backend"),
                 metrics_->GetCounter("chunks.coalesced_waits"),
                 metrics_->GetCounter("chunks.degraded_answers")};
  retries_ = metrics_->GetCounter("backend.retries");
  deadline_expired_ = metrics_->GetCounter("query.deadline_expired");
  query_latency_ns_ = metrics_->GetHistogram("query.latency_ns");
  // The buffer pool times its physical I/O into this registry
  // ("disk.read_ns"/"disk.write_ns"). Latest-binding-wins; the destructor
  // unbinds only its own binding, so stacked tiers sharing one engine
  // behave sanely.
  engine_->pool().BindMetrics(metrics_);
  RecoverPersistedCache();
}

ChunkCacheManager::~ChunkCacheManager() {
  if (persist_ != nullptr) {
    // Detach the sink and join the persister, then leave a final snapshot
    // (skipped after SimulateCrash — a killed process writes nothing on
    // the way down).
    cache_.SetEventSink(nullptr);
    persist_sink_.reset();
    (void)PersistSnapshot();
    persist_.reset();
  }
  engine_->pool().UnbindMetrics(metrics_);
}

void ChunkCacheManager::RecoverPersistedCache() {
  if (options_.persist_dir.empty()) return;
  // Each recovered entry is admitted as recovery reads it, through
  // AdmitChunk like a computed chunk, so the byte budget, replacement
  // policy and shard accounting all see it. Recovery already quarantined every record
  // whose frame CRC or payload failed to parse, and a parsed payload's
  // rows lie inside its box, strictly row-major, with COUNT >= 1. The
  // fingerprint vouches for the data, not for each record: one that names
  // no chunk of this scheme, holds rows of another width, or whose box
  // reaches outside its chunk is quarantined the same way.
  const chunks::ChunkingScheme& scheme = engine_->scheme();
  const auto admit = [this, &scheme](const storage::PersistedChunk& key,
                                     storage::ChunkPayload payload) {
    if (key.group_by_id >= scheme.NumGroupByIds() ||
        payload.num_dims() != scheme.num_dims()) {
      return false;
    }
    const GroupBySpec spec = scheme.SpecOfId(key.group_by_id);
    if (key.chunk_num >= scheme.GridFor(spec).num_chunks()) return false;
    if (!payload.empty()) {
      const auto extent = scheme.ChunkExtent(spec, key.chunk_num);
      for (uint32_t d = 0; d < payload.num_dims(); ++d) {
        if (payload.box_begin(d) < extent[d].begin ||
            payload.box_begin(d) + (payload.box_width(d) - 1) >
                extent[d].end) {
          return false;
        }
      }
    }
    AdmitChunk({key.group_by_id, key.chunk_num, key.filter_hash},
               key.benefit, std::move(payload), /*slot=*/nullptr);
    return true;
  };
  // Snapshots taken against other data (another tuple set or chunking)
  // are never read: their chunks would be served as this data's.
  auto opened = storage::CachePersistence::Open(
      options_.persist_dir, engine_->file().fingerprint(), admit, metrics_);
  CHUNKCACHE_CHECK_MSG(opened.ok(), "persist_dir is unusable");
  persist_ = std::move(*opened);
  recovery_info_ = persist_->recovery();
  // Only now start counting: the recovered entries are already durable.
  if (options_.persist_snapshot_every > 0) {
    persist_sink_ =
        std::make_unique<PersistSink>(this, options_.persist_snapshot_every);
    cache_.SetEventSink(persist_sink_.get());
  }
}

Status ChunkCacheManager::PersistSnapshot() {
  if (persist_ == nullptr) return Status::OK();
  // Streams shard by shard: ForEachEntry pins one shard's entries at a
  // time, and each entry's payload bytes are framed straight into the
  // writer's reused frame buffer.
  return persist_->WriteSnapshot([this](storage::SnapshotWriter* w) {
    cache_.ForEachEntry([w](const cache::ChunkHandle& h) {
      w->Add({h->group_by_id, h->chunk_num, h->filter_hash, h->benefit},
             h->payload);
    });
  });
}

void ChunkCacheManager::RefreshMetrics() const {
  const backend::AggKernelStats ks = engine_->kernel_stats();
  metrics_->GetGauge("kernels.dense")
      ->Set(static_cast<int64_t>(ks.dense_kernels));
  metrics_->GetGauge("kernels.hash")
      ->Set(static_cast<int64_t>(ks.hash_kernels));
  metrics_->GetGauge("kernels.rows_folded_dense")
      ->Set(static_cast<int64_t>(ks.rows_folded_dense));
  metrics_->GetGauge("kernels.rows_folded_hash")
      ->Set(static_cast<int64_t>(ks.rows_folded_hash));
  metrics_->GetGauge("kernels.coalesced_reads")
      ->Set(static_cast<int64_t>(ks.coalesced_reads));
  metrics_->GetGauge("kernels.single_run_reads")
      ->Set(static_cast<int64_t>(ks.single_run_reads));
  metrics_->GetGauge("kernels.runs_merged")
      ->Set(static_cast<int64_t>(ks.runs_merged));
  metrics_->GetGauge("inflight.peak")
      ->Set(static_cast<int64_t>(inflight_.peak()));
  metrics_->GetGauge("faults.injected")
      ->Set(static_cast<int64_t>(FaultInjector::Global().faults_injected()));
  metrics_->GetGauge("disk.checksum_failures")
      ->Set(static_cast<int64_t>(
          engine_->pool().disk()->stats().checksum_failures));
  // Active SIMD dispatch level (0 = scalar, 1 = avx2), so exported metrics
  // record which kernel family produced this process's numbers.
  metrics_->GetGauge("simd.level")
      ->Set(static_cast<int64_t>(simd::ActiveLevel()));
  // The chunk tier's memory: entries and the bytes charged for them.
  metrics_->GetGauge("cache.entries")
      ->Set(static_cast<int64_t>(cache_.num_chunks()));
  metrics_->GetGauge("cache.bytes_used")
      ->Set(static_cast<int64_t>(cache_.bytes_used()));
}

cache::ChunkCacheStats ChunkCacheManager::StatsSnapshot() const {
  // Build the whole struct from one registry snapshot — a single source
  // of truth for `.stats`, `.metrics` and this accessor.
  RefreshMetrics();
  cache::ChunkCacheStats s = cache_.stats();  // registry-backed already
  const MetricsRegistry::Snapshot snap = metrics_->TakeSnapshot();
  s.dense_kernels = static_cast<uint64_t>(snap.gauge("kernels.dense"));
  s.hash_kernels = static_cast<uint64_t>(snap.gauge("kernels.hash"));
  s.rows_folded_dense =
      static_cast<uint64_t>(snap.gauge("kernels.rows_folded_dense"));
  s.rows_folded_hash =
      static_cast<uint64_t>(snap.gauge("kernels.rows_folded_hash"));
  s.coalesced_reads =
      static_cast<uint64_t>(snap.gauge("kernels.coalesced_reads"));
  s.single_run_reads =
      static_cast<uint64_t>(snap.gauge("kernels.single_run_reads"));
  s.runs_merged = static_cast<uint64_t>(snap.gauge("kernels.runs_merged"));
  s.coalesced_waits = snap.counter("chunks.coalesced_waits");
  s.inflight_peak = static_cast<uint64_t>(snap.gauge("inflight.peak"));
  s.faults_injected = static_cast<uint64_t>(snap.gauge("faults.injected"));
  s.retries = snap.counter("backend.retries");
  s.degraded_answers = snap.counter("chunks.degraded_answers");
  s.deadline_expired = snap.counter("query.deadline_expired");
  s.checksum_failures =
      static_cast<uint64_t>(snap.gauge("disk.checksum_failures"));
  s.simd_level = static_cast<uint64_t>(snap.gauge("simd.level"));
  s.persist_snapshots = snap.counter("persist.snapshots");
  s.persist_snapshot_bytes = snap.counter("persist.snapshot_bytes");
  s.persist_snapshot_errors = snap.counter("persist.snapshot_errors");
  s.persist_recovered_entries = snap.counter("persist.recovered_entries");
  s.persist_quarantined = snap.counter("persist.quarantined");
  s.persist_recovery_ns = recovery_info_.recovery_ns;
  return s;
}

cache::ChunkHandle ChunkCacheManager::AdmitChunk(
    const ChunkKey& key, double benefit, storage::ChunkPayload payload,
    const Inflight::SlotPtr& slot) {
  auto entry = std::make_shared<cache::CachedChunk>();
  entry->group_by_id = key.group_by_id;
  entry->chunk_num = key.chunk_num;
  entry->filter_hash = key.filter_hash;
  entry->benefit = benefit;
  entry->payload = std::move(payload);
  cache::ChunkHandle handle = entry;
  cache_.Insert(std::move(entry));
  // Insert before Publish: a claimant that re-probes after the entry
  // retires must find the chunk in the cache.
  if (slot != nullptr) inflight_.Publish(key, slot, handle);
  return handle;
}

Result<std::vector<ChunkData>> ChunkCacheManager::ComputeFromBackend(
    const StarJoinQuery& query, const std::vector<uint64_t>& chunk_nums,
    const ExecControl& ctrl, QueryStats* stats) {
  // Bounded retries with backoff: transient backend faults (injected or
  // real) re-attempt instead of failing the query and its waiters.
  return RunWithRetry(kBackendRetry, ctrl, &stats->retries, [&] {
    return engine_->ComputeChunks(query.group_by, chunk_nums,
                                  query.non_group_by, &stats->backend_work);
  });
}

ChunkCacheManager::ClaimKind ChunkCacheManager::Claim(
    const ChunkKey& key, cache::ChunkHandle* hit, Inflight::SlotPtr* slot) {
  Inflight::Claim claim = inflight_.Acquire(key);
  *slot = std::move(claim.slot);
  if (!claim.owner) return ClaimKind::kWait;
  // Contains first: the common no-race case stays a statistics-free probe.
  if (cache_.Contains(key.group_by_id, key.chunk_num, key.filter_hash)) {
    *hit = cache_.Lookup(key.group_by_id, key.chunk_num, key.filter_hash);
    if (*hit != nullptr) {
      inflight_.Publish(key, *slot, *hit);
      slot->reset();
      return ClaimKind::kHit;
    }
  }
  return ClaimKind::kOwned;
}

uint64_t ChunkCacheManager::FilterHash(
    const std::vector<NonGroupByPredicate>& preds) {
  if (preds.empty()) return 0;
  // Order-insensitive: combine per-predicate hashes commutatively.
  uint64_t acc = 0;
  for (const auto& p : preds) {
    uint64_t h = 0xcbf29ce484222325ULL;
    for (uint64_t v : {static_cast<uint64_t>(p.dim),
                       static_cast<uint64_t>(p.level),
                       static_cast<uint64_t>(p.range.begin),
                       static_cast<uint64_t>(p.range.end)}) {
      h = (h ^ v) * 0x100000001b3ULL;
    }
    acc += h;  // commutative combine
  }
  return acc == 0 ? 1 : acc;  // reserve 0 for "no predicates"
}

Result<std::vector<ResultRow>> ChunkCacheManager::Run(
    const StarJoinQuery& query, QueryStats* stats, const ExecControl& ctrl) {
  TraceBuilder trace(trace_.get(), "execute");
  const auto t0 = std::chrono::steady_clock::now();
  Result<std::vector<ResultRow>> out = [&]() -> Result<std::vector<ResultRow>> {
    // Fail fast before claiming any in-flight slot: an already expired or
    // cancelled query must not become an owner other queries wait on.
    CHUNKCACHE_RETURN_IF_ERROR(ctrl.Check());
    QueryPlan plan = Plan(query, stats, &trace);
    CHUNKCACHE_RETURN_IF_ERROR(Resolve(&plan, ctrl, stats, &trace));
    std::vector<ResultRow> rows = Assemble(plan, &trace);
    Account(plan, stats);
    return rows;
  }();
  query_latency_ns_->Record(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count()));
  queries_->Increment();
  // Robustness counters flush on every path out; Account flushed the
  // chunk-provenance counters of a successful query.
  if (stats->retries != 0) retries_->Add(stats->retries);
  if (stats->deadline_expired != 0) {
    deadline_expired_->Add(stats->deadline_expired);
  }
  if (!out.ok()) query_errors_->Increment();
  if (trace.armed()) {
    const uint32_t root = trace.root();
    trace.Tag(root, "group_by", query.group_by.ToString());
    trace.Tag(root, "chunks_needed", stats->chunks_needed);
    trace.Tag(root, "status",
              out.ok() ? std::string("Ok")
                       : std::string(StatusCodeName(out.status().code())));
    if (stats->coalesced_waits != 0) {
      trace.Tag(root, "coalesced_waits", stats->coalesced_waits);
    }
    if (stats->degraded_answers != 0) {
      trace.Tag(root, "degraded_chunks", stats->degraded_answers);
    }
    trace.Finish();
  }
  return out;
}

ChunkCacheManager::QueryPlan ChunkCacheManager::Plan(
    const StarJoinQuery& query, QueryStats* stats, TraceBuilder* trace) {
  const chunks::ChunkingScheme& scheme = engine_->scheme();
  QueryPlan plan;
  plan.query = &query;
  plan.gb_id = scheme.GroupById(query.group_by);
  plan.filter_hash = FilterHash(query.non_group_by);
  plan.benefit = scheme.ChunkBenefit(query.group_by);

  // Query analysis: the chunk numbers needed (Section 5.2.2).
  const uint32_t decompose_span = trace->BeginSpan("decompose", trace->root());
  const ChunkBox box = scheme.BoxForSelection(query.group_by, query.selection);
  plan.chunks.reserve(box.NumChunks());
  box.ForEach(scheme.GridFor(query.group_by),
              [&](uint64_t num, const ChunkCoords&) {
                plan.chunks.emplace_back().chunk_num = num;
              });
  stats->chunks_needed = plan.chunks.size();
  stats->cost_estimate = static_cast<double>(plan.chunks.size()) * plan.benefit;
  trace->Tag(decompose_span, "chunks", stats->chunks_needed);
  trace->EndSpan(decompose_span);

  // Query splitting: CNumsPresent / CNumsMissing (Section 5.2.3). Hits come
  // back as pinned handles, so concurrent inserts or evictions by other
  // clients cannot invalidate them before assembly; every miss is claimed.
  const uint32_t probe_span = trace->BeginSpan("cache_probe", trace->root());
  std::array<uint64_t, 3> claims{};
  for (PlannedChunk& c : plan.chunks) {
    c.entry = cache_.Lookup(plan.gb_id, c.chunk_num, plan.filter_hash);
    if (c.entry == nullptr) {
      c.claim = Claim(plan.Key(c.chunk_num), &c.entry, &c.slot);
    }
    ++claims[static_cast<size_t>(c.claim)];
  }
  const auto count = [&](ClaimKind k) {
    return claims[static_cast<size_t>(k)];
  };
  trace->Tag(probe_span, "hits", count(ClaimKind::kHit));
  trace->Tag(probe_span, "owned", count(ClaimKind::kOwned));
  trace->Tag(probe_span, "waits", count(ClaimKind::kWait));
  trace->EndSpan(probe_span);
  return plan;
}

Status ChunkCacheManager::Resolve(QueryPlan* plan, const ExecControl& ctrl,
                                  QueryStats* stats, TraceBuilder* trace) {
  std::vector<PlannedChunk*> owned;
  std::vector<PlannedChunk*> waits;
  for (PlannedChunk& c : plan->chunks) {
    if (c.claim == ClaimKind::kOwned) owned.push_back(&c);
    if (c.claim == ClaimKind::kWait) waits.push_back(&c);
  }
  CHUNKCACHE_RETURN_IF_ERROR(
      ResolveOwned(plan, std::move(owned), ctrl, stats, trace));
  if (waits.empty()) return Status::OK();

  // Every chunk this query owned is published by now, so blocking on other
  // queries' chunks cannot deadlock, even when two queries wait on each
  // other's.
  ScopedSpan wait_span(trace, "wait_coalesced", trace->root());
  trace->Tag(wait_span.id(), "chunks", static_cast<uint64_t>(waits.size()));
  for (PlannedChunk* c : waits) {
    CHUNKCACHE_RETURN_IF_ERROR(CollectWait(plan, c, ctrl, stats));
  }
  return Status::OK();
}

Status ChunkCacheManager::ResolveOwned(QueryPlan* plan,
                                       std::vector<PlannedChunk*> owned,
                                       const ExecControl& ctrl,
                                       QueryStats* stats, TraceBuilder* trace) {
  // Middle-tier aggregation of finer cached chunks (paper §7) first. It
  // runs only for chunks this query owns, so it never duplicates a
  // computation in flight elsewhere.
  if (options_.enable_in_cache_aggregation && !owned.empty()) {
    ScopedSpan agg_span(trace, "aggregate_in_cache", trace->root());
    std::vector<PlannedChunk*> rest;
    for (PlannedChunk* c : owned) {
      auto cols = TryInCacheAggregation(plan, c->chunk_num);
      if (!cols) {
        rest.push_back(c);
        continue;
      }
      // Admitted, so the next query gets a direct hit and any waiter the
      // same allocation.
      c->entry = AdmitChunk(plan->Key(c->chunk_num), plan->benefit,
                            storage::ChunkPayload(*cols), c->slot);
      c->source = Provenance::kAggregation;
    }
    trace->Tag(agg_span.id(), "chunks",
               static_cast<uint64_t>(owned.size() - rest.size()));
    owned = std::move(rest);
  }
  // A full cache hit has no miss pipeline — and no span for it.
  if (owned.empty()) return Status::OK();

  // The rest: one backend call.
  const uint32_t miss_span = trace->BeginSpan("miss_pipeline", trace->root());
  trace->Tag(miss_span, "chunks", static_cast<uint64_t>(owned.size()));
  std::vector<uint64_t> nums;
  nums.reserve(owned.size());
  for (const PlannedChunk* c : owned) nums.push_back(c->chunk_num);
  Result<std::vector<ChunkData>> computed = [&] {
    ScopedSpan scan_span(trace, "scan_aggregate", miss_span);
    return ComputeFromBackend(*plan->query, nums, ctrl, stats);
  }();
  Provenance source = Provenance::kBackend;
  if (!computed.ok()) {
    if (computed.status().code() == StatusCode::kDeadlineExceeded) {
      stats->deadline_expired += owned.size();
    }
    // Degraded-mode answering (closure property): every chunk the backend
    // failed to deliver may still be assembled from cached chunks of a
    // strictly finer group-by. All-or-nothing — a partial assembly would
    // leave some owned slots with nothing to publish.
    ScopedSpan degraded_span(trace, "degraded_rollup", miss_span);
    std::vector<ChunkData> assembled;
    assembled.reserve(owned.size());
    for (const PlannedChunk* c : owned) {
      auto cols = TryInCacheAggregation(plan, c->chunk_num);
      if (!cols) break;
      assembled.push_back(ChunkData{c->chunk_num, std::move(*cols)});
    }
    trace->Tag(degraded_span.id(), "chunks",
               static_cast<uint64_t>(assembled.size()));
    if (assembled.size() != owned.size()) {
      // Waiters wake with the error and the entries retire, so a retry
      // recomputes.
      for (const PlannedChunk* c : owned) {
        inflight_.Fail(plan->Key(c->chunk_num), c->slot, computed.status());
      }
      return computed.status();
    }
    computed = std::move(assembled);
    source = Provenance::kDegraded;
  }
  for (size_t i = 0; i < owned.size(); ++i) {
    PlannedChunk* c = owned[i];
    c->entry = AdmitChunk(plan->Key(c->chunk_num), plan->benefit,
                          storage::ChunkPayload((*computed)[i].cols), c->slot);
    c->source = source;
  }
  trace->Tag(miss_span, "provenance",
             source == Provenance::kDegraded ? "degraded" : "backend");
  if (stats->retries != 0) trace->Tag(miss_span, "retries", stats->retries);
  trace->EndSpan(miss_span);
  return Status::OK();
}

Status ChunkCacheManager::CollectWait(QueryPlan* plan, PlannedChunk* c,
                                      const ExecControl& ctrl,
                                      QueryStats* stats) {
  const ChunkKey key = plan->Key(c->chunk_num);
  Result<cache::ChunkHandle> res = c->slot->WaitUntil(ctrl.deadline);
  // An owner that gave up for its own reasons — its deadline or
  // cancellation, never a backend error — does not decide this query's
  // fate: while this query is live it claims the chunk again.
  while (!res.ok() &&
         (res.status().code() == StatusCode::kDeadlineExceeded ||
          res.status().code() == StatusCode::kCancelled) &&
         ctrl.Check().ok()) {
    switch (Claim(key, &c->entry, &c->slot)) {
      case ClaimKind::kHit:
        c->source = Provenance::kCache;
        return Status::OK();
      case ClaimKind::kOwned: {
        // Built as a set of one; the wait_coalesced span times it, so its
        // stages emit no spans of their own.
        TraceBuilder untraced(nullptr, "reclaim");
        return ResolveOwned(plan, {c}, ctrl, stats, &untraced);
      }
      case ClaimKind::kWait:
        res = c->slot->WaitUntil(ctrl.deadline);
        break;
    }
  }
  if (res.ok()) {
    c->entry = std::move(res).value();
    c->source = Provenance::kCoalesced;
    return Status::OK();
  }
  // Any other failed wait — owner error, or this query's own deadline —
  // falls back: first re-probe the cache (a racing retry of the owner may
  // have published), then closure-property assembly, then give up.
  if (res.status().code() == StatusCode::kDeadlineExceeded) {
    ++stats->deadline_expired;
  }
  if (cache::ChunkHandle raced =
          cache_.Lookup(key.group_by_id, key.chunk_num, key.filter_hash)) {
    c->entry = std::move(raced);
    c->source = Provenance::kCache;
    return Status::OK();
  }
  auto cols = TryInCacheAggregation(plan, c->chunk_num);
  if (!cols) return res.status();
  // Not the owner of this key, so no slot to publish — just admit the
  // assembled chunk for future queries and use its rows.
  c->entry = AdmitChunk(key, plan->benefit, storage::ChunkPayload(*cols),
                        /*slot=*/nullptr);
  c->source = Provenance::kDegraded;
  return Status::OK();
}

std::vector<ResultRow> ChunkCacheManager::Assemble(const QueryPlan& plan,
                                                   TraceBuilder* trace) {
  // Every chunk's rows are read in place from its pinned entry. Each
  // chunk appends only its rows inside the selection (the §5.2.3 boundary
  // filter).
  const StarJoinQuery& query = *plan.query;
  size_t total = 0;
  for (const PlannedChunk& c : plan.chunks) total += c.entry->rows();
  std::vector<AggTuple> rows;
  rows.reserve(total);
  for (const PlannedChunk& c : plan.chunks) {
    c.entry->payload.AppendRowsInside(query.selection, &rows);
  }

  // Post-processing: canonical order.
  const uint32_t rollup_span = trace->BeginSpan("rollup", trace->root());
  backend::SortRows(&rows, query.group_by.num_dims);
  trace->Tag(rollup_span, "rows", static_cast<uint64_t>(rows.size()));
  trace->EndSpan(rollup_span);
  return rows;
}

void ChunkCacheManager::Account(const QueryPlan& plan, QueryStats* stats) {
  std::array<uint64_t, kNumProvenances> by_source{};
  // A full cache hit touched neither the backend nor another query's
  // work: every chunk was a hit or rolled up from cached chunks here.
  bool full_hit = true;
  for (const PlannedChunk& c : plan.chunks) {
    ++by_source[static_cast<size_t>(c.source)];
    full_hit = full_hit && c.claim != ClaimKind::kWait &&
               (c.source == Provenance::kCache ||
                c.source == Provenance::kAggregation);
  }
  const auto count = [&](Provenance p) {
    return by_source[static_cast<size_t>(p)];
  };
  stats->chunks_from_cache = count(Provenance::kCache);
  stats->chunks_from_aggregation = count(Provenance::kAggregation);
  stats->chunks_from_backend = count(Provenance::kBackend);
  stats->coalesced_waits = count(Provenance::kCoalesced);
  stats->degraded_answers = count(Provenance::kDegraded);
  stats->full_cache_hit = full_hit;
  // Every chunk the backend did not compute for this query counts as
  // saved; degraded answers too, served entirely from cached finer chunks.
  stats->saved_fraction =
      stats->chunks_needed == 0
          ? 0.0
          : static_cast<double>(stats->chunks_needed -
                                stats->chunks_from_backend) /
                static_cast<double>(stats->chunks_needed);
  stats->modeled_ms = CostModel().Cost(
      stats->backend_work.pages_read, stats->backend_work.pages_written,
      stats->backend_work.tuples_processed);
  // Flushed only for queries that succeed, so chunks.requested equals the
  // sum of the provenance counters once the tier quiesces.
  chunks_requested_->Add(stats->chunks_needed);
  for (size_t s = 0; s < kNumProvenances; ++s) {
    if (by_source[s] != 0) provenance_[s]->Add(by_source[s]);
  }
}

ChunkCacheManager::RollupPlan ChunkCacheManager::PlanRollup(
    uint32_t target_id) const {
  const chunks::ChunkingScheme& scheme = engine_->scheme();
  const std::vector<uint64_t> counts =
      cache_.GroupByCounts(scheme.NumGroupByIds());
  RollupPlan plan;
  for (uint32_t id : scheme.StrictlyFinerIds(target_id)) {
    if (counts[id] != 0) {
      plan.sources.push_back({id, scheme.SpecOfId(id), counts[id]});
    }
  }
  return plan;
}

std::optional<storage::AggColumns> ChunkCacheManager::TryInCacheAggregation(
    QueryPlan* plan, uint64_t chunk_num) {
  const chunks::ChunkingScheme& scheme = engine_->scheme();
  if (!plan->rollup) plan->rollup = PlanRollup(plan->gb_id);
  const GroupBySpec& target = plan->query->group_by;
  const uint64_t filter_hash = plan->filter_hash;
  std::vector<uint64_t> nums;
  std::vector<cache::ChunkHandle> sources;
  for (const RollupPlan::Source& src : plan->rollup->sources) {
    auto box = scheme.SourceBox(target, chunk_num, src.spec);
    if (!box.ok() || src.cached < box->NumChunks()) continue;
    // Probe the whole box before pinning anything: Contains touches no
    // statistics or replacement state, so an incomplete box costs nothing
    // beyond the probes.
    nums.clear();
    bool complete = true;
    box->ForEach(scheme.GridFor(src.spec),
                 [&](uint64_t src_num, const ChunkCoords&) {
                   if (!complete) return;
                   complete = cache_.Contains(src.id, src_num, filter_hash);
                   nums.push_back(src_num);
                 });
    if (!complete) continue;
    // Pin every source chunk; one evicted by a concurrent client since the
    // probe aborts this source.
    sources.clear();
    for (uint64_t src_num : nums) {
      cache::ChunkHandle h = cache_.Lookup(src.id, src_num, filter_hash);
      if (h == nullptr) break;
      sources.push_back(std::move(h));
    }
    if (sources.size() != nums.size()) continue;
    // Aggregate the pinned chunks through the per-chunk kernel dispatch
    // (dense grid when the target chunk's cell box is small enough).
    backend::ChunkAggregator agg(&scheme, target, chunk_num,
                                 engine_->options().dense_cell_limit,
                                 engine_->kernel_counters());
    for (const cache::ChunkHandle& chunk : sources) {
      agg.AddPayload(chunk->payload, src.spec);
    }
    return agg.TakeColumns();  // already canonical order
  }
  return std::nullopt;
}

}  // namespace chunkcache::core
