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
  if (options_.num_workers > 1) {
    pool_ = std::make_unique<ThreadPool>(options_.num_workers);
  }
  scheduler_ = std::make_unique<backend::ScanScheduler>(
      engine_, std::max<uint32_t>(2, options_.num_workers), metrics_);
  if (options_.trace_capacity > 0) {
    trace_ = std::make_unique<TraceRecorder>(options_.trace_capacity);
  }
  if (options_.enable_compression && options_.decoded_cache_bytes > 0) {
    decoded_ = std::make_unique<cache::DecodedCache>(
        options_.decoded_cache_bytes, metrics_);
  }
  queries_ = metrics_->GetCounter("query.executions");
  query_errors_ = metrics_->GetCounter("query.errors");
  chunks_requested_ = metrics_->GetCounter("chunks.requested");
  from_cache_ = metrics_->GetCounter("chunks.from_cache");
  from_aggregation_ = metrics_->GetCounter("chunks.from_aggregation");
  from_backend_ = metrics_->GetCounter("chunks.from_backend");
  coalesced_waits_ = metrics_->GetCounter("chunks.coalesced_waits");
  degraded_answers_ = metrics_->GetCounter("chunks.degraded_answers");
  retries_ = metrics_->GetCounter("backend.retries");
  deadline_expired_ = metrics_->GetCounter("query.deadline_expired");
  async_prefetched_ = metrics_->GetCounter("prefetch.async_chunks");
  prefetch_dropped_ = metrics_->GetCounter("prefetch.dropped_inflight");
  query_latency_ns_ = metrics_->GetHistogram("query.latency_ns");
  compressed_chunks_ = metrics_->GetCounter("cache.compressed_chunks");
  compression_skipped_ = metrics_->GetCounter("cache.compression_skipped");
  codec_raw_bytes_ = metrics_->GetCounter("cache.codec_raw_bytes");
  codec_encoded_bytes_ = metrics_->GetCounter("cache.codec_encoded_bytes");
  decode_calls_ = metrics_->GetCounter("cache.decode_calls");
  for (size_t c = 0; c < storage::codec::kNumCodecs; ++c) {
    const std::string base =
        std::string("cache.codec.") +
        storage::codec::CodecName(static_cast<storage::codec::ColumnCodec>(c));
    codec_col_raw_[c] = metrics_->GetCounter(base + ".raw_bytes");
    codec_col_encoded_[c] = metrics_->GetCounter(base + ".encoded_bytes");
    codec_col_columns_[c] = metrics_->GetCounter(base + ".columns");
  }
  encode_ns_ = metrics_->GetHistogram("codec.encode_ns");
  decode_ns_ = metrics_->GetHistogram("codec.decode_ns");
  // The buffer pool times its physical I/O into this registry
  // ("disk.read_ns"/"disk.write_ns"). Latest-binding-wins; the destructor
  // unbinds only its own binding, so stacked tiers sharing one engine
  // behave sanely.
  engine_->pool().BindMetrics(metrics_);
  RecoverPersistedCache();
}

ChunkCacheManager::~ChunkCacheManager() {
  DrainPrefetch();
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
  storage::PersistOptions popts;
  popts.dir = options_.persist_dir;
  auto opened = storage::CachePersistence::Open(std::move(popts), metrics_);
  CHUNKCACHE_CHECK_MSG(opened.ok(), "persist_dir is unusable");
  persist_ = std::move(*opened);
  storage::RecoveryStats rec = persist_->TakeRecovery();
  // Re-admit every recovered entry through the normal Insert path so the
  // byte budget, replacement policy and shard accounting all see it. Each
  // blob is decode-verified (its CRC32C trailer) before anything can be
  // served from it; a failed decode quarantines the entry — dropped and
  // counted, recomputed on first use — never a construction failure.
  for (storage::PersistedChunk& pc : rec.entries) {
    auto decoded =
        storage::codec::DecodeAggColumns(pc.blob.data(), pc.blob.size());
    if (!decoded.ok()) {
      persist_->CountQuarantined();
      rec.quarantined++;
      continue;
    }
    auto entry = std::make_shared<cache::CachedChunk>();
    entry->group_by_id = pc.group_by_id;
    entry->chunk_num = pc.chunk_num;
    entry->filter_hash = pc.filter_hash;
    entry->benefit = pc.benefit;
    if (options_.enable_compression && pc.blob.size() < pc.raw_bytes) {
      // Compressed tier: keep the codec blob verbatim (same bytes PR 6
      // admitted), charging encoded size as usual.
      entry->encoded_rows = static_cast<uint32_t>(decoded->size());
      entry->raw_bytes = pc.raw_bytes;
      entry->cols = storage::AggColumns(decoded->num_dims());
      entry->encoded = std::move(pc.blob);
    } else {
      entry->cols = std::move(*decoded);
    }
    cache_.Insert(std::move(entry));
  }
  rec.entries.clear();
  recovery_info_ = std::move(rec);
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
  // time, and each entry is encoded straight into the writer's reused
  // frame buffer (a compressed entry's blob is copied there verbatim).
  return persist_->WriteSnapshot([this](storage::SnapshotWriter* w) {
    cache_.ForEachEntry([w](const cache::ChunkHandle& h) {
      storage::PersistedChunk head;
      head.group_by_id = h->group_by_id;
      head.chunk_num = h->chunk_num;
      head.filter_hash = h->filter_hash;
      head.benefit = h->benefit;
      head.rows = static_cast<uint32_t>(h->rows());
      if (h->compressed()) {
        head.raw_bytes = h->raw_bytes;
        w->Add(head, [&h](std::vector<uint8_t>* out) {
          out->insert(out->end(), h->encoded.begin(), h->encoded.end());
        });
      } else {
        head.raw_bytes = storage::codec::RawPayloadBytes(h->cols);
        w->Add(head, [&h](std::vector<uint8_t>* out) {
          storage::codec::EncodeAggColumns(h->cols, out);
        });
      }
    });
  });
}

void ChunkCacheManager::DrainPrefetch() { prefetch_wg_.Wait(); }

cache::ChunkCacheStats ChunkCacheManager::StatsSnapshot() const {
  // Fold natively-atomic subsystem stores (executor, kernels, in-flight
  // table, fault injector, disk CRC) into registry gauges, then build the
  // whole struct from one registry snapshot — a single source of truth for
  // `.stats`, `.metrics` and this accessor.
  if (pool_ != nullptr) {
    const ThreadPoolStats es = pool_->stats();
    metrics_->GetGauge("exec.tasks_submitted")
        ->Set(static_cast<int64_t>(es.tasks_submitted));
    metrics_->GetGauge("exec.tasks_run")
        ->Set(static_cast<int64_t>(es.tasks_run));
    metrics_->GetGauge("exec.queue_peak")
        ->Set(static_cast<int64_t>(es.queue_peak));
  }
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
  // Decoded-LRU stats need no folding here: DecodedCache homes its own
  // hit/eviction counters and byte gauge on this registry directly.
  metrics_->GetGauge("faults.injected")
      ->Set(static_cast<int64_t>(FaultInjector::Global().faults_injected()));
  metrics_->GetGauge("disk.checksum_failures")
      ->Set(static_cast<int64_t>(
          engine_->pool().disk()->stats().checksum_failures));
  metrics_->GetGauge("disk.write_errors")
      ->Set(static_cast<int64_t>(
          engine_->pool().disk()->stats().write_errors));
  if (persist_ != nullptr) {
    metrics_->GetGauge("persist.recovery_ns")
        ->Set(static_cast<int64_t>(recovery_info_.recovery_ns));
  }
  // Active SIMD dispatch level (0 = scalar, 1 = avx2), so exported metrics
  // record which kernel family produced this process's numbers.
  metrics_->GetGauge("simd.level")
      ->Set(static_cast<int64_t>(simd::ActiveLevel()));

  cache::ChunkCacheStats s = cache_.stats();  // registry-backed already
  const MetricsRegistry::Snapshot snap = metrics_->TakeSnapshot();
  s.exec_tasks_submitted =
      static_cast<uint64_t>(snap.gauge("exec.tasks_submitted"));
  s.exec_tasks_run = static_cast<uint64_t>(snap.gauge("exec.tasks_run"));
  s.exec_queue_peak = static_cast<uint64_t>(snap.gauge("exec.queue_peak"));
  s.async_prefetched_chunks = snap.counter("prefetch.async_chunks");
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
  s.prefetch_dropped_inflight = snap.counter("prefetch.dropped_inflight");
  s.dedup_saved_chunks = s.coalesced_waits + s.prefetch_dropped_inflight;
  s.inflight_peak = static_cast<uint64_t>(snap.gauge("inflight.peak"));
  s.shared_scan_requests = snap.counter("scheduler.requests");
  s.scan_deadline_sheds = snap.counter("scheduler.deadline_sheds");
  s.faults_injected = static_cast<uint64_t>(snap.gauge("faults.injected"));
  s.retries = snap.counter("backend.retries");
  s.degraded_answers = snap.counter("chunks.degraded_answers");
  s.deadline_expired = snap.counter("query.deadline_expired");
  s.checksum_failures =
      static_cast<uint64_t>(snap.gauge("disk.checksum_failures"));
  s.compressed_chunks = snap.counter("cache.compressed_chunks");
  s.compression_skipped = snap.counter("cache.compression_skipped");
  s.codec_raw_bytes = snap.counter("cache.codec_raw_bytes");
  s.codec_encoded_bytes = snap.counter("cache.codec_encoded_bytes");
  s.decode_calls = snap.counter("cache.decode_calls");
  s.decoded_lru_hits = snap.counter("cache.decoded_lru_hits");
  s.decoded_lru_evictions = snap.counter("cache.decoded_lru_evictions");
  s.simd_level = static_cast<uint64_t>(snap.gauge("simd.level"));
  s.persist_snapshots = snap.counter("persist.snapshots");
  s.persist_snapshot_bytes = snap.counter("persist.snapshot_bytes");
  s.persist_snapshot_errors = snap.counter("persist.snapshot_errors");
  s.persist_recovered_entries = snap.counter("persist.recovered_entries");
  s.persist_quarantined = snap.counter("persist.quarantined");
  s.persist_recovery_ns =
      static_cast<uint64_t>(snap.gauge("persist.recovery_ns"));
  s.disk_write_errors = static_cast<uint64_t>(snap.gauge("disk.write_errors"));
  return s;
}

void ChunkCacheManager::MaybeCompressEntry(cache::CachedChunk* entry) {
  namespace codec = storage::codec;
  if (!options_.enable_compression || entry->cols.empty()) return;
  const uint64_t raw = codec::RawPayloadBytes(entry->cols);
  std::vector<uint8_t> blob;
  codec::CodecStats cs;
  const auto t0 = std::chrono::steady_clock::now();
  codec::EncodeAggColumns(entry->cols, &blob, &cs);
  encode_ns_->Record(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count()));
  codec_raw_bytes_->Add(raw);
  codec_encoded_bytes_->Add(blob.size());
  for (size_t c = 0; c < codec::kNumCodecs; ++c) {
    if (cs.columns[c] == 0) continue;
    codec_col_raw_[c]->Add(cs.raw_bytes[c]);
    codec_col_encoded_[c]->Add(cs.encoded_bytes[c]);
    codec_col_columns_[c]->Add(cs.columns[c]);
  }
  if (blob.size() >= raw) {
    // Encoding lost (already-random data): keep the raw columns, a decode
    // per hit would buy nothing.
    compression_skipped_->Increment();
    return;
  }
  blob.shrink_to_fit();
  const ChunkKey key{entry->group_by_id, entry->chunk_num,
                     entry->filter_hash};
  const uint32_t num_dims = entry->cols.num_dims();
  entry->encoded_rows = static_cast<uint32_t>(entry->cols.size());
  entry->raw_bytes = raw;
  entry->encoded = std::move(blob);
  if (decoded_ != nullptr) {
    // Seed the decoded front with the columns we already have: the query
    // that computed this chunk (and its coalesced waiters) re-reads them
    // without paying the first decode.
    auto dec =
        std::make_shared<storage::AggColumns>(std::move(entry->cols));
    decoded_->Put(key, std::move(dec));
  }
  entry->cols = storage::AggColumns(num_dims);  // release the raw columns
  compressed_chunks_->Increment();
}

std::shared_ptr<const storage::AggColumns> ChunkCacheManager::ResolveCols(
    const cache::ChunkHandle& h) {
  if (!h->compressed()) {
    // Aliasing share: the pinned handle keeps the columns alive, no copy.
    return std::shared_ptr<const storage::AggColumns>(h, &h->cols);
  }
  const ChunkKey key{h->group_by_id, h->chunk_num, h->filter_hash};
  if (decoded_ != nullptr) {
    if (auto hit = decoded_->Get(key)) return hit;  // counted by the cache
  }
  const auto t0 = std::chrono::steady_clock::now();
  auto res =
      storage::codec::DecodeAggColumns(h->encoded.data(), h->encoded.size());
  decode_ns_->Record(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count()));
  decode_calls_->Increment();
  // The blob was encoded by this process and CRC-validated on decode; a
  // failure here means in-memory corruption, not recoverable input.
  CHUNKCACHE_CHECK(res.ok());
  auto dec = std::make_shared<storage::AggColumns>(std::move(*res));
  if (decoded_ != nullptr) decoded_->Put(key, dec);
  return dec;
}

cache::ChunkHandle ChunkCacheManager::AdmitChunk(
    const ChunkKey& key, double benefit, storage::AggColumns cols,
    std::vector<AggTuple>* rows, const Inflight::SlotPtr& slot) {
  auto entry = std::make_shared<cache::CachedChunk>();
  entry->group_by_id = key.group_by_id;
  entry->chunk_num = key.chunk_num;
  entry->filter_hash = key.filter_hash;
  entry->benefit = benefit;
  entry->cols = std::move(cols);
  if (rows != nullptr) entry->cols.AppendToRows(rows);
  MaybeCompressEntry(entry.get());
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
  return RunWithRetry(options_.retry, ctrl, &stats->retries, [&] {
    return scheduler_->Compute(query.group_by, chunk_nums, query.non_group_by,
                               &stats->backend_work, pool_.get(), &ctrl);
  });
}

Result<cache::ChunkHandle> ChunkCacheManager::ComputeReclaimed(
    const StarJoinQuery& query, const ChunkKey& key,
    const Inflight::SlotPtr& slot, double benefit, const ExecControl& ctrl,
    QueryStats* stats) {
  // A query that claimed the key since the previous owner failed may have
  // published it already.
  if (cache_.Contains(key.group_by_id, key.chunk_num, key.filter_hash)) {
    cache::ChunkHandle hit =
        cache_.Lookup(key.group_by_id, key.chunk_num, key.filter_hash);
    if (hit != nullptr) {
      inflight_.Publish(key, slot, hit);
      ++stats->chunks_from_cache;
      return hit;
    }
  }
  auto computed = ComputeFromBackend(query, {key.chunk_num}, ctrl, stats);
  if (!computed.ok()) {
    inflight_.Fail(key, slot, computed.status());
    return computed.status();
  }
  ++stats->chunks_from_backend;
  return AdmitChunk(key, benefit, std::move(computed->front().cols),
                    /*rows=*/nullptr, slot);
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
  Result<std::vector<ResultRow>> out =
      ExecuteTraced(query, stats, ctrl, &trace);
  query_latency_ns_->Record(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count()));
  queries_->Increment();
  // Robustness counters flush on every path out; chunk-provenance counters
  // only for successful queries, so chunks.requested always equals the sum
  // of the provenance counters once the tier quiesces.
  if (stats->retries != 0) retries_->Add(stats->retries);
  if (stats->deadline_expired != 0) {
    deadline_expired_->Add(stats->deadline_expired);
  }
  if (out.ok()) {
    chunks_requested_->Add(stats->chunks_needed);
    if (stats->chunks_from_cache != 0) {
      from_cache_->Add(stats->chunks_from_cache);
    }
    if (stats->chunks_from_aggregation != 0) {
      from_aggregation_->Add(stats->chunks_from_aggregation);
    }
    if (stats->chunks_from_backend != 0) {
      from_backend_->Add(stats->chunks_from_backend);
    }
    if (stats->coalesced_waits != 0) {
      coalesced_waits_->Add(stats->coalesced_waits);
    }
    if (stats->degraded_answers != 0) {
      degraded_answers_->Add(stats->degraded_answers);
    }
  } else {
    query_errors_->Increment();
  }
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

Result<std::vector<ResultRow>> ChunkCacheManager::ExecuteTraced(
    const StarJoinQuery& query, QueryStats* stats, const ExecControl& ctrl,
    TraceBuilder* trace) {
  // Fail fast before claiming any in-flight slot: an already expired or
  // cancelled query must not become an owner other queries wait on.
  CHUNKCACHE_RETURN_IF_ERROR(ctrl.Check());
  const chunks::ChunkingScheme& scheme = engine_->scheme();
  const uint32_t gb_id = scheme.GroupById(query.group_by);
  const uint64_t filter_hash = FilterHash(query.non_group_by);
  // Benefit carried by this query's inserts: the paper's |base|/#chunks.
  const double benefit = scheme.ChunkBenefit(query.group_by);

  // 1. Query analysis: chunk numbers needed (Section 5.2.2).
  const uint32_t decompose_span = trace->BeginSpan("decompose", trace->root());
  const ChunkBox box = scheme.BoxForSelection(query.group_by, query.selection);
  const chunks::ChunkGrid grid = scheme.GridFor(query.group_by);
  std::vector<uint64_t> needed;
  needed.reserve(box.NumChunks());
  box.ForEach(grid, [&](uint64_t num, const ChunkCoords&) {
    needed.push_back(num);
  });
  stats->chunks_needed = needed.size();
  stats->cost_estimate = static_cast<double>(needed.size()) * benefit;
  trace->Tag(decompose_span, "chunks", static_cast<uint64_t>(needed.size()));
  trace->EndSpan(decompose_span);

  // 2. Query splitting: CNumsPresent / CNumsMissing (Section 5.2.3). Hits
  // come back as pinned handles, so concurrent inserts or evictions by
  // other clients cannot invalidate them before assembly. Each miss is
  // then claimed through the in-flight table: this query either *owns* the
  // chunk (it computes and publishes it) or *waits* on whichever in-flight
  // query already owns it.
  struct Miss {
    uint64_t chunk_num = 0;
    Inflight::SlotPtr slot;
  };
  const uint32_t probe_span = trace->BeginSpan("cache_probe", trace->root());
  std::vector<AggTuple> rows;
  std::vector<cache::ChunkHandle> cached;
  std::vector<Miss> owned;
  std::vector<Miss> waits;
  for (uint64_t num : needed) {
    cache::ChunkHandle hit = cache_.Lookup(gb_id, num, filter_hash);
    if (hit != nullptr) {
      cached.push_back(std::move(hit));
      ++stats->chunks_from_cache;
      continue;
    }
    const ChunkKey key{gb_id, num, filter_hash};
    Inflight::Claim claim = inflight_.Acquire(key);
    if (!claim.owner) {
      waits.push_back(Miss{num, std::move(claim.slot)});
      continue;
    }
    // The previous owner may have published (insert + retire) between our
    // lookup miss and the claim; re-probe so an already cached chunk is
    // never recomputed. Contains first — the common no-race case stays a
    // statistics-free probe.
    cache::ChunkHandle raced;
    if (cache_.Contains(gb_id, num, filter_hash)) {
      raced = cache_.Lookup(gb_id, num, filter_hash);
    }
    if (raced != nullptr) {
      inflight_.Publish(key, claim.slot, raced);
      cached.push_back(std::move(raced));
      ++stats->chunks_from_cache;
    } else {
      owned.push_back(Miss{num, std::move(claim.slot)});
    }
  }
  trace->Tag(probe_span, "hits", stats->chunks_from_cache);
  trace->Tag(probe_span, "owned", static_cast<uint64_t>(owned.size()));
  trace->Tag(probe_span, "waits", static_cast<uint64_t>(waits.size()));
  trace->EndSpan(probe_span);

  // From here on, every owned slot is resolved exactly once on every path
  // out of this function: published with its chunk, or failed.

  // Closure-property roll-up of one missing chunk from finer cached
  // chunks, shared by in-cache aggregation and degraded answering. The
  // candidate sources are planned once per query, on first use.
  std::optional<RollupPlan> rollup_plan;
  const auto roll_up = [&](uint64_t chunk_num) {
    if (!rollup_plan) rollup_plan = PlanRollup(gb_id);
    return TryInCacheAggregation(*rollup_plan, query.group_by, chunk_num,
                                 filter_hash);
  };

  // 3. Optional middle-tier aggregation of finer cached chunks (paper §7).
  // Runs only for chunks this query owns, so it can never duplicate a
  // computation already in flight elsewhere.
  if (options_.enable_in_cache_aggregation && !owned.empty()) {
    ScopedSpan agg_span(trace, "aggregate_in_cache", trace->root());
    std::vector<Miss> still_owned;
    for (Miss& om : owned) {
      auto aggregated = roll_up(om.chunk_num);
      if (aggregated) {
        // Admit the derived chunk so the next query gets a direct hit;
        // publish the same allocation to any waiters.
        AdmitChunk(ChunkKey{gb_id, om.chunk_num, filter_hash}, benefit,
                   std::move(*aggregated), &rows, om.slot);
        ++stats->chunks_from_aggregation;
      } else {
        still_owned.push_back(std::move(om));
      }
    }
    owned = std::move(still_owned);
    trace->Tag(agg_span.id(), "chunks", stats->chunks_from_aggregation);
  }

  // 4. Compute the owned misses — one backend call through the scan
  // scheduler's slot gate — overlapping cache-hit assembly with the
  // backend work: a pool task copies the pinned hit rows while this thread
  // drives the computation (which itself fans out across the same pool).
  // Worker tasks never block on other tasks, so the overlap cannot
  // deadlock.
  std::vector<uint64_t> owned_nums;
  owned_nums.reserve(owned.size());
  for (const Miss& om : owned) owned_nums.push_back(om.chunk_num);

  // A full cache hit has no miss pipeline — and no span for it.
  const uint32_t miss_span =
      owned_nums.empty() ? TraceBuilder::kNoSpan
                         : trace->BeginSpan("miss_pipeline", trace->root());
  trace->Tag(miss_span, "chunks", static_cast<uint64_t>(owned_nums.size()));

  std::vector<AggTuple> hit_rows;
  const auto assemble_hits = [&] {
    size_t total = 0;
    for (const auto& h : cached) total += h->rows();
    hit_rows.reserve(total);
    for (const auto& h : cached) ResolveCols(h)->AppendToRows(&hit_rows);
  };
  // Runs on the calling thread in both branches below, so the span is
  // safe.
  const auto compute_owned = [&] {
    ScopedSpan scan_span(trace, "scan_aggregate", miss_span);
    return ComputeFromBackend(query, owned_nums, ctrl, stats);
  };
  Result<std::vector<ChunkData>> computed = std::vector<ChunkData>{};
  const bool overlap = pool_ != nullptr && !owned_nums.empty() &&
                       !cached.empty() && !ThreadPool::InWorkerThread();
  if (overlap) {
    WaitGroup wg;
    wg.Add(1);
    pool_->Submit([&] {
      assemble_hits();
      wg.Done();
    });
    computed = compute_owned();
    wg.Wait();
  } else {
    // Hit assembly on the query thread gets a decode span (compression
    // only; never in the overlap branch, where it runs on a pool worker —
    // spans stay on the query's own thread by design).
    const uint32_t decode_span =
        options_.enable_compression && !cached.empty()
            ? trace->BeginSpan("decode", trace->root())
            : TraceBuilder::kNoSpan;
    assemble_hits();
    if (decode_span != TraceBuilder::kNoSpan) {
      trace->Tag(decode_span, "chunks", static_cast<uint64_t>(cached.size()));
      trace->EndSpan(decode_span);
    }
    if (!owned_nums.empty()) computed = compute_owned();
  }
  bool answered_degraded = false;
  if (!computed.ok()) {
    if (computed.status().code() == StatusCode::kDeadlineExceeded) {
      stats->deadline_expired += owned.size();
    }
    // Degraded-mode answering (closure property): every chunk the backend
    // failed to deliver may still be assembled from cached chunks of a
    // strictly finer group-by. All-or-nothing — a partial assembly would
    // leave some owned slots unresolved with nothing to publish.
    ScopedSpan degraded_span(trace, "degraded_rollup", miss_span);
    std::vector<ChunkData> assembled;
    assembled.reserve(owned.size());
    for (const Miss& om : owned) {
      auto cols = roll_up(om.chunk_num);
      if (!cols) break;
      ChunkData data;
      data.chunk_num = om.chunk_num;
      data.cols = std::move(*cols);
      assembled.push_back(std::move(data));
    }
    trace->Tag(degraded_span.id(), "chunks",
               static_cast<uint64_t>(assembled.size()));
    if (assembled.size() == owned.size()) {
      stats->degraded_answers += owned.size();
      answered_degraded = true;
      computed = std::move(assembled);
    } else {
      // Waiters wake with the error and the entries retire, so a retry
      // recomputes.
      for (const Miss& om : owned) {
        inflight_.Fail(ChunkKey{gb_id, om.chunk_num, filter_hash}, om.slot,
                       computed.status());
      }
      return computed.status();
    }
  }
  if (!answered_degraded) stats->chunks_from_backend = computed->size();
  const uint32_t encode_span =
      options_.enable_compression && !computed->empty()
          ? trace->BeginSpan("encode", miss_span)
          : TraceBuilder::kNoSpan;
  for (size_t i = 0; i < computed->size(); ++i) {
    ChunkData& data = (*computed)[i];
    AdmitChunk(ChunkKey{gb_id, data.chunk_num, filter_hash}, benefit,
               std::move(data.cols), &rows, owned[i].slot);
  }
  if (encode_span != TraceBuilder::kNoSpan) {
    trace->Tag(encode_span, "chunks", static_cast<uint64_t>(computed->size()));
    trace->EndSpan(encode_span);
  }
  if (miss_span != TraceBuilder::kNoSpan) {
    trace->Tag(miss_span, "provenance",
               answered_degraded ? "degraded" : "backend");
    if (stats->retries != 0) trace->Tag(miss_span, "retries", stats->retries);
    trace->EndSpan(miss_span);
  }
  rows.insert(rows.end(), std::make_move_iterator(hit_rows.begin()),
              std::make_move_iterator(hit_rows.end()));

  // 4b. Collect the chunks other in-flight queries computed for us. Every
  // chunk this query owned is already published, so blocking here cannot
  // deadlock even when two queries wait on each other's chunks. An owner
  // that gave up for its own reasons — its deadline or cancellation,
  // never a backend error — does not decide this query's fate: while this
  // query is still live it claims the chunk again, computing it as the
  // new owner or waiting on whoever claimed first. Any other failed wait —
  // owner error, or this query's own deadline — falls back: first
  // re-probe the cache (a racing retry of the owner may have published),
  // then closure-property assembly, then give up.
  const uint32_t wait_span =
      waits.empty() ? TraceBuilder::kNoSpan
                    : trace->BeginSpan("wait_coalesced", trace->root());
  trace->Tag(wait_span, "chunks", static_cast<uint64_t>(waits.size()));
  for (const Miss& wm : waits) {
    const ChunkKey key{gb_id, wm.chunk_num, filter_hash};
    Result<cache::ChunkHandle> res = wm.slot->WaitUntil(ctrl.deadline);
    bool reclaimed = false;
    while (!res.ok() &&
           (res.status().code() == StatusCode::kDeadlineExceeded ||
            res.status().code() == StatusCode::kCancelled) &&
           ctrl.Check().ok()) {
      Inflight::Claim claim = inflight_.Acquire(key);
      reclaimed = claim.owner;
      res = claim.owner ? ComputeReclaimed(query, key, claim.slot, benefit,
                                           ctrl, stats)
                        : claim.slot->WaitUntil(ctrl.deadline);
    }
    if (res.ok()) {
      ResolveCols(*res)->AppendToRows(&rows);
      if (!reclaimed) ++stats->coalesced_waits;
      continue;
    }
    if (res.status().code() == StatusCode::kDeadlineExceeded) {
      ++stats->deadline_expired;
    }
    cache::ChunkHandle raced = cache_.Lookup(gb_id, wm.chunk_num, filter_hash);
    if (raced != nullptr) {
      ResolveCols(raced)->AppendToRows(&rows);
      ++stats->chunks_from_cache;
      continue;
    }
    auto cols = roll_up(wm.chunk_num);
    if (!cols) return res.status();
    // Not the owner of this key, so no slot to publish — just admit the
    // assembled chunk for future queries and use its rows.
    AdmitChunk(key, benefit, std::move(*cols), &rows, /*slot=*/nullptr);
    ++stats->degraded_answers;
  }
  trace->EndSpan(wait_span);

  // 5. Post-processing: trim boundary extras, canonical order.
  const uint32_t rollup_span = trace->BeginSpan("rollup", trace->root());
  rows = backend::FilterRows(std::move(rows), query.group_by.num_dims,
                             query.selection);
  backend::SortRows(&rows, query.group_by.num_dims);
  trace->Tag(rollup_span, "rows", static_cast<uint64_t>(rows.size()));
  trace->EndSpan(rollup_span);

  stats->full_cache_hit = owned_nums.empty() && waits.empty() &&
                          stats->chunks_from_backend == 0;
  // Degraded answers count as saved: they were served entirely from
  // cached (finer) content, the backend contributed nothing.
  stats->saved_fraction =
      stats->chunks_needed == 0
          ? 0.0
          : static_cast<double>(stats->chunks_from_cache +
                                stats->chunks_from_aggregation +
                                stats->coalesced_waits +
                                stats->degraded_answers) /
                static_cast<double>(stats->chunks_needed);
  stats->modeled_ms = options_.cost_model.Cost(
      stats->backend_work.pages_read, stats->backend_work.pages_written,
      stats->backend_work.tuples_processed);

  // 6. Optional drill-down prefetch (paper §7). With an executor, fire and
  // forget: the task computes and admits the child chunks in the
  // background and is only observable through DrainPrefetch and the
  // async_prefetched_chunks counter. Serially, run inline and charge
  // stats->prefetch_work. Either way the fetches go through the in-flight
  // table, so background work never duplicates foreground work, and a
  // failed fetch never fails the query it follows (RunPrefetch is
  // best-effort).
  if (options_.enable_drill_down_prefetch) {
    ScopedSpan prefetch_span(trace, "prefetch", trace->root());
    std::optional<PrefetchPlan> plan =
        PlanDrillDown(query, needed, filter_hash);
    if (plan) {
      if (pool_ != nullptr && !ThreadPool::InWorkerThread()) {
        // Fire-and-forget: only the plan is attributed to this query's
        // trace; the fetch itself runs on the pool (spans stay on the
        // query's own thread by design).
        trace->Tag(prefetch_span.id(), "mode", "async");
        trace->Tag(prefetch_span.id(), "planned",
                   static_cast<uint64_t>(plan->to_fetch.size()));
        prefetch_wg_.Add(1);
        pool_->Submit([this, plan = std::move(*plan),
                       preds = query.non_group_by, filter_hash] {
          WorkCounters work;
          async_prefetched_->Add(RunPrefetch(plan, preds, filter_hash, &work));
          prefetch_wg_.Done();
        });
      } else {
        trace->Tag(prefetch_span.id(), "mode", "inline");
        const uint64_t fetched = RunPrefetch(*plan, query.non_group_by,
                                             filter_hash, &stats->prefetch_work);
        stats->prefetched_chunks += fetched;
        trace->Tag(prefetch_span.id(), "chunks", fetched);
      }
    }
  }
  return rows;
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
    const RollupPlan& plan, const GroupBySpec& target, uint64_t chunk_num,
    uint64_t filter_hash) {
  const chunks::ChunkingScheme& scheme = engine_->scheme();
  std::vector<uint64_t> nums;
  std::vector<cache::ChunkHandle> sources;
  for (const RollupPlan::Source& src : plan.sources) {
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
      agg.AddAggColumns(*ResolveCols(chunk), src.spec);
    }
    return agg.TakeColumns();  // already canonical order
  }
  return std::nullopt;
}

std::optional<ChunkCacheManager::PrefetchPlan>
ChunkCacheManager::PlanDrillDown(const StarJoinQuery& query,
                                 const std::vector<uint64_t>& chunk_nums,
                                 uint64_t filter_hash) {
  const chunks::ChunkingScheme& scheme = engine_->scheme();
  // Drill-down target: every grouped dimension one level finer.
  PrefetchPlan plan;
  plan.drill = query.group_by;
  bool changed = false;
  for (uint32_t d = 0; d < plan.drill.num_dims; ++d) {
    const auto& h = scheme.schema().dimension(d).hierarchy;
    if (plan.drill.levels[d] < h.depth()) {
      plan.drill.levels[d]++;
      changed = true;
    }
  }
  if (!changed) return std::nullopt;  // at base everywhere
  plan.drill_id = scheme.GroupById(plan.drill);
  plan.benefit = scheme.ChunkBenefit(plan.drill);
  const chunks::ChunkGrid drill_grid = scheme.GridFor(plan.drill);

  for (uint64_t num : chunk_nums) {
    if (plan.to_fetch.size() >= options_.prefetch_budget_chunks) break;
    // The drill spec is one level finer and `num` comes from the query's
    // own grid, so the source box always exists.
    auto box = scheme.SourceBox(query.group_by, num, plan.drill);
    CHUNKCACHE_CHECK(box.ok());
    box->ForEach(drill_grid, [&](uint64_t child, const ChunkCoords&) {
      if (plan.to_fetch.size() >= options_.prefetch_budget_chunks) return;
      if (cache_.Contains(plan.drill_id, child, filter_hash)) return;
      // A chunk some in-flight query is already computing would be a
      // duplicate by the time we fetched it — drop it now.
      if (inflight_.Pending(ChunkKey{plan.drill_id, child, filter_hash})) {
        prefetch_dropped_->Increment();
        return;
      }
      plan.to_fetch.push_back(child);
    });
  }
  if (plan.to_fetch.empty()) return std::nullopt;
  return plan;
}

uint64_t ChunkCacheManager::RunPrefetch(
    const PrefetchPlan& plan, const std::vector<NonGroupByPredicate>& preds,
    uint64_t filter_hash, WorkCounters* work) {
  // Claim each chunk; whatever is already owned elsewhere is dropped —
  // prefetch is best-effort, so it never blocks on foreground work.
  std::vector<uint64_t> to_fetch;
  std::vector<Inflight::SlotPtr> slots;
  to_fetch.reserve(plan.to_fetch.size());
  slots.reserve(plan.to_fetch.size());
  for (uint64_t num : plan.to_fetch) {
    const ChunkKey key{plan.drill_id, num, filter_hash};
    Inflight::Claim claim = inflight_.Acquire(key);
    if (!claim.owner) {
      prefetch_dropped_->Increment();
      continue;
    }
    // Published-and-retired since the plan was made? Hand waiters the
    // cached handle instead of recomputing.
    if (cache_.Contains(plan.drill_id, num, filter_hash)) {
      cache::ChunkHandle hit = cache_.Lookup(plan.drill_id, num, filter_hash);
      if (hit != nullptr) {
        inflight_.Publish(key, claim.slot, std::move(hit));
        prefetch_dropped_->Increment();
        continue;
      }
    }
    to_fetch.push_back(num);
    slots.push_back(std::move(claim.slot));
  }
  if (to_fetch.empty()) return 0;

  // Serial inside the worker (nested fan-out would tie up the pool).
  auto computed = engine_->ComputeChunks(plan.drill, to_fetch, preds, work);
  if (!computed.ok()) {
    // Dropped, not reported: the claimed slots fail (waking any waiter
    // with the error and retiring the entries) and nothing was fetched.
    for (size_t i = 0; i < to_fetch.size(); ++i) {
      inflight_.Fail(ChunkKey{plan.drill_id, to_fetch[i], filter_hash},
                     slots[i], computed.status());
    }
    return 0;
  }
  for (size_t i = 0; i < computed->size(); ++i) {
    ChunkData& data = (*computed)[i];
    AdmitChunk(ChunkKey{plan.drill_id, data.chunk_num, filter_hash},
               plan.benefit, std::move(data.cols), /*rows=*/nullptr, slots[i]);
  }
  return computed->size();
}

}  // namespace chunkcache::core
