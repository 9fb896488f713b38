// Micro-benchmarks (google-benchmark) for the substrates: B+Tree point
// lookups, bitmap combination, chunk-number computation
// (ComputeChunkNums), hash aggregation throughput, and single-chunk
// computation at the backend.
//
// Before those cases run, main checks three performance floors, prints
// each measured value, and exits 1 when one fails:
//   - disarmed fault hooks cost <= 1% of a query:
//       checks/query x hook ns / query ns;
//   - observability hooks cost <= 2% of a query:
//       (metric updates/query x counter ns + histogram records/query x
//        histogram ns + spans/query x span ns) / query ns;
//   - on AVX2 hosts, the leaf dense fold runs >= 1.2x its scalar speed.
// A hook's ns is a noinline op calling it minus the same op without it.
// Volume times micro-cost is steadier than the difference of two noisy
// stream wall times. The query stream is the seeded Table-1 mix, cold,
// and honors CHUNKCACHE_BENCH_SCALE and CHUNKCACHE_BENCH_QUERIES.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "backend/aggregator.h"
#include "backend/engine.h"
#include "bench/common/experiment.h"
#include "chunks/chunking_scheme.h"
#include "common/fault_injector.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/simd.h"
#include "common/trace.h"
#include "core/chunk_cache_manager.h"
#include "index/bitmap.h"
#include "index/btree.h"
#include "schema/synthetic.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"

namespace chunkcache {
namespace {

// ---------------------------------- BTree -----------------------------------

void BM_BTreeGet(benchmark::State& state) {
  storage::InMemoryDiskManager disk;
  storage::BufferPool pool(&disk, 4096);
  const uint64_t n = 100000;
  std::vector<std::pair<uint64_t, index::BTreePayload>> input;
  for (uint64_t k = 0; k < n; ++k) {
    input.emplace_back(k, index::BTreePayload{k, 0});
  }
  auto tree = index::BTree::BulkLoad(&pool, input);
  if (!tree.ok()) {
    state.SkipWithError("bulk load failed");
    return;
  }
  Random rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree->Get(rng.Uniform(n)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BTreeGet);

// ---------------------------------- Bitmap ----------------------------------

void BM_BitmapAnd(benchmark::State& state) {
  const uint64_t bits = state.range(0);
  index::Bitmap a(bits), b(bits);
  Random rng(2);
  for (uint64_t i = 0; i < bits / 16; ++i) a.Set(rng.Uniform(bits));
  for (uint64_t i = 0; i < bits / 16; ++i) b.Set(rng.Uniform(bits));
  for (auto _ : state) {
    index::Bitmap c = a;
    c.And(b);
    benchmark::DoNotOptimize(c.CountSet());
  }
  state.SetBytesProcessed(state.iterations() * (bits / 8));
}
BENCHMARK(BM_BitmapAnd)->Arg(500000);

// ------------------------ Chunk machinery / aggregation ---------------------

/// The system the chunk-machinery cases share: 100k tuples, every page
/// buffer-pool resident.
bench::System* MicroSystem() {
  static bench::System* system = [] {
    bench::ExperimentConfig config;
    config.num_tuples = 100000;
    config.pool_frames = 8192;
    auto sys = bench::System::Build(config);
    CHUNKCACHE_CHECK(sys.ok());
    return std::move(sys).value().release();
  }();
  return system;
}

void BM_ComputeChunkNums(benchmark::State& state) {
  bench::System* sys = MicroSystem();
  const chunks::GroupBySpec spec{{2, 1, 2, 1}, 4};
  std::array<schema::OrdinalRange, storage::kMaxDims> sel{};
  sel[0] = {5, 30};
  sel[1] = {2, 15};
  sel[2] = {3, 20};
  sel[3] = {1, 8};
  for (auto _ : state) {
    uint64_t count = 0;
    const auto box = sys->scheme().BoxForSelection(spec, sel);
    box.ForEach(sys->scheme().GridFor(spec),
                [&](uint64_t num, const chunks::ChunkCoords&) {
                  benchmark::DoNotOptimize(num);
                  ++count;
                });
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_ComputeChunkNums);

void BM_HashAggregate100k(benchmark::State& state) {
  bench::System* sys = MicroSystem();
  schema::FactGenOptions gen;
  gen.num_tuples = 100000;
  auto tuples = schema::GenerateFactTuples(sys->schema(), gen);
  const chunks::GroupBySpec spec{{1, 1, 1, 1}, 4};
  for (auto _ : state) {
    backend::HashAggregator agg(&sys->scheme(), spec);
    for (const auto& t : tuples) agg.AddBase(t);
    benchmark::DoNotOptimize(agg.TakeRows());
  }
  state.SetItemsProcessed(state.iterations() * tuples.size());
}
BENCHMARK(BM_HashAggregate100k);

void BM_ComputeSingleChunk(benchmark::State& state) {
  bench::System* sys = MicroSystem();
  const chunks::GroupBySpec spec{{2, 1, 2, 1}, 4};
  const uint64_t num_chunks = sys->scheme().GridFor(spec).num_chunks();
  uint64_t next = 0;
  for (auto _ : state) {
    WorkCounters work;
    auto data = sys->engine().ComputeChunks(spec, {next % num_chunks}, {},
                                            &work);
    if (!data.ok()) state.SkipWithError("compute failed");
    benchmark::DoNotOptimize(data);
    ++next;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ComputeSingleChunk);

// ---------------------------- performance floors ----------------------------

constexpr double kMaxFaultOverheadPct = 1.0;
constexpr double kMaxObservabilityOverheadPct = 2.0;
constexpr double kMinSimdSpeedup = 1.2;

double NowNs() {
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The hooked ops differ from PlainOp only in their hook. All are noinline
// and called through a function pointer, so the compiler cannot
// specialize any loop.
Counter g_counter("micro.counter");
Histogram g_histogram("micro.histogram");

__attribute__((noinline)) Status PlainOp(uint64_t x, uint64_t* sink) {
  *sink += x ^ (x >> 7);
  return Status::OK();
}

__attribute__((noinline)) Status FaultPointOp(uint64_t x, uint64_t* sink) {
  CHUNKCACHE_FAULT_POINT(FaultSite::kDiskRead);
  *sink += x ^ (x >> 7);
  return Status::OK();
}

__attribute__((noinline)) Status CounterOp(uint64_t x, uint64_t* sink) {
  g_counter.Increment();
  *sink += x ^ (x >> 7);
  return Status::OK();
}

__attribute__((noinline)) Status HistogramOp(uint64_t x, uint64_t* sink) {
  g_histogram.Record(x);
  *sink += x ^ (x >> 7);
  return Status::OK();
}

using Op = Status (*)(uint64_t, uint64_t*);

/// Best-of-3 per-call time of `op` over 20M calls, in nanoseconds.
double TimeOpNs(Op op) {
  constexpr uint64_t kIters = 20 * 1000 * 1000;
  double best = 1e18;
  for (int rep = 0; rep < 3; ++rep) {
    uint64_t sink = 0;
    const double t0 = NowNs();
    for (uint64_t i = 0; i < kIters; ++i) {
      if (!op(i, &sink).ok()) return -1;  // no hook here can fail
    }
    const double elapsed = NowNs() - t0;
    benchmark::DoNotOptimize(sink);
    best = std::min(best, elapsed / static_cast<double>(kIters));
  }
  return best;
}

/// Per-call cost of the hook in `hooked`: its time minus PlainOp's.
double HookNs(Op hooked) {
  return std::max(0.0, TimeOpNs(hooked) - TimeOpNs(&PlainOp));
}

/// Best-of-3 per-span cost of a Begin/Tag/End triple under `rec` (nullptr
/// = tracing off), amortizing builder construction and Finish over 64
/// spans per trace.
double SpanNs(TraceRecorder* rec, uint64_t spans) {
  constexpr uint64_t kSpansPerTrace = 64;
  const uint64_t traces = std::max<uint64_t>(1, spans / kSpansPerTrace);
  double best = 1e18;
  for (int rep = 0; rep < 3; ++rep) {
    const double t0 = NowNs();
    for (uint64_t t = 0; t < traces; ++t) {
      TraceBuilder b(rec, "micro");
      for (uint64_t i = 0; i < kSpansPerTrace; ++i) {
        const uint32_t s = b.BeginSpan("op", b.root());
        b.Tag(s, "i", i);
        b.EndSpan(s);
      }
      b.Finish();
    }
    best = std::min(best, (NowNs() - t0) /
                              static_cast<double>(traces * kSpansPerTrace));
  }
  return best;
}

/// Per-query wall time and hook volume of one cold stream pass.
struct StreamVolume {
  double query_ns = 0;
  double metric_updates = 0;     ///< Counter total / queries.
  double histogram_records = 0;  ///< Histogram count total / queries.
  double fault_checks = 0;       ///< Draws at armed fault sites / queries.
  double spans = 0;              ///< Mean spans per retained trace.
};

/// One cold pass of the seeded Table-1 stream through a fresh tier. With
/// `counting`, every fault site is armed at probability zero (nothing
/// fires, but each crossing is drawn and counted) and traces are
/// retained; without it the injector is disarmed and tracing off, the
/// production configuration whose wall time is the floors' denominator.
Result<StreamVolume> RunColdStream(bench::System* sys, bool counting) {
  CHUNKCACHE_RETURN_IF_ERROR(sys->ResetBackend());
  core::ChunkManagerOptions opts;
  opts.cache_shards = 8;
  opts.trace_capacity = counting ? 256 : 0;
  core::ChunkCacheManager tier(&sys->engine(), opts);
  workload::WorkloadOptions wopts;
  wopts.seed = 1998;
  workload::QueryGenerator gen(&sys->schema(), wopts);
  const uint64_t n = sys->config().stream_queries;

  FaultInjector& fi = FaultInjector::Global();
  fi.ResetCounters();
  if (counting) fi.ArmAll(0.0);
  const Result<bench::StreamResult> stream =
      bench::RunStream(&tier, &gen, n);
  fi.DisarmAll();
  CHUNKCACHE_RETURN_IF_ERROR(stream.status());
  if (fi.faults_injected() != 0) {
    return Status::Internal("probability-zero fault sites fired");
  }

  const double queries = static_cast<double>(n);
  StreamVolume v;
  v.query_ns = stream->wall_seconds * 1e9 / queries;
  v.fault_checks = static_cast<double>(fi.checks()) / queries;
  // Counter totals count a multi-unit Add as that many updates, which
  // only makes the computed overhead conservative.
  const MetricsRegistry::Snapshot snap = tier.metrics().TakeSnapshot();
  for (const auto& [name, c] : snap.counters) {
    v.metric_updates += static_cast<double>(c) / queries;
  }
  for (const auto& [name, h] : snap.histograms) {
    v.histogram_records += static_cast<double>(h.count) / queries;
  }
  if (TraceRecorder* rec = tier.trace_recorder()) {
    const std::vector<QueryTrace> latest = rec->Latest(rec->capacity());
    uint64_t spans = 0;
    for (const QueryTrace& t : latest) spans += t.spans.size();
    if (!latest.empty()) {
      v.spans = static_cast<double>(spans) / static_cast<double>(latest.size());
    }
  }
  return v;
}

/// Scalar and AVX2 best times of `pass`, the two levels alternating
/// inside each rep so slow frequency drift on a shared host cancels out
/// of the ratio. Returns scalar time / AVX2 time.
template <typename Pass>
double SimdSpeedup(int reps, Pass pass) {
  auto at = [&](simd::IsaLevel level) {
    simd::ScopedLevel pin(level);
    return pass();
  };
  at(simd::IsaLevel::kScalar);  // warmup
  at(simd::IsaLevel::kAvx2);
  double scalar = 1e18, avx2 = 1e18;
  for (int r = 0; r < reps; ++r) {
    scalar = std::min(scalar, at(simd::IsaLevel::kScalar));
    avx2 = std::min(avx2, at(simd::IsaLevel::kAvx2));
  }
  return scalar / avx2;
}

/// AddBaseColumns at the leaf group-by {3,2,3,2} on `sys`'s chunking
/// scheme: the tuples are routed to their chunks, the 8 most populated
/// chunks kept, and each batch lengthened to 25k rows by cycling its own
/// tuples, so the timed region is the kernel and not per-chunk setup
/// while each chunk keeps its real cell box and key distribution. Only
/// the fold is timed: aggregator construction and extraction are the
/// same at both levels.
double LeafFoldSpeedup(bench::System* sys) {
  constexpr size_t kChunks = 8;
  constexpr size_t kMinRows = 25000;
  const chunks::GroupBySpec target{{3, 2, 3, 2}, 4};
  const schema::StarSchema& schema = sys->schema();
  const chunks::ChunkingScheme& scheme = sys->scheme();
  schema::FactGenOptions gen;
  gen.num_tuples = sys->config().num_tuples;
  gen.seed = sys->config().data_seed;
  std::map<uint64_t, storage::TupleColumns> routed;
  for (const storage::Tuple& t : schema::GenerateFactTuples(schema, gen)) {
    chunks::ChunkCoords coords{};
    for (uint32_t d = 0; d < target.num_dims; ++d) {
      const auto& h = schema.dimension(d).hierarchy;
      coords[d] = h.AncestorAt(h.depth(), t.keys[d], target.levels[d]);
    }
    storage::TupleColumns& batch = routed[scheme.ChunkOfCell(target, coords)];
    batch.num_dims = target.num_dims;
    batch.PushTuple(t);
  }
  std::vector<std::pair<uint64_t, storage::TupleColumns>> batches(
      std::make_move_iterator(routed.begin()),
      std::make_move_iterator(routed.end()));
  std::sort(batches.begin(), batches.end(), [](const auto& a, const auto& b) {
    return a.second.size() > b.second.size();
  });
  if (batches.size() > kChunks) batches.resize(kChunks);
  for (auto& [chunk_num, batch] : batches) {
    const size_t orig = batch.size();  // >= 1: every routed chunk got one
    batch.Reserve(kMinRows);
    for (size_t i = orig; i < kMinRows; ++i) {
      batch.PushTuple(batch.TupleAt(i % orig));
    }
  }
  const int reps = gen.num_tuples > 100000 ? 3 : 10;
  return SimdSpeedup(reps, [&] {
    double ns = 0;
    for (const auto& [chunk_num, batch] : batches) {
      backend::ChunkAggregator agg(&scheme, target, chunk_num, ~0ull);
      const double t0 = NowNs();
      agg.AddBaseColumns(batch, nullptr, nullptr);
      ns += NowNs() - t0;
      benchmark::DoNotOptimize(agg.rows_consumed());
    }
    return ns;
  });
}

/// Prints `value` beside its bound and returns whether it holds.
bool Holds(const char* what, double value, const char* unit, double bound,
           bool at_most) {
  const bool ok = at_most ? value <= bound : value >= bound;
  std::printf("floor %-24s %8.4f%s  (%s %.2f%s)  %s\n", what, value, unit,
              at_most ? "<=" : ">=", bound, unit, ok ? "ok" : "FAIL");
  return ok;
}

/// Measures and checks the three floors; false when any fails or a
/// measurement cannot run.
bool CheckFloors() {
  const bench::ExperimentConfig config = bench::ExperimentConfig::FromEnv();
  bench::PrintSetup(config, "Performance floors");
  const double fault_ns = HookNs(&FaultPointOp);
  const double counter_ns = HookNs(&CounterOp);
  const double histogram_ns = HookNs(&HistogramOp);
  TraceRecorder rec(2);
  const double span_ns = SpanNs(&rec, 2 * 1000 * 1000);
  const double disarmed_span_ns = SpanNs(nullptr, 8 * 1000 * 1000);
  std::printf(
      "hooks: fault point %.3f ns, counter %.3f ns, histogram %.3f ns, "
      "span %.1f ns (tracing off %.3f ns)\n",
      fault_ns, counter_ns, histogram_ns, span_ns, disarmed_span_ns);

  auto sys = bench::System::Build(config);
  if (!sys.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 sys.status().ToString().c_str());
    return false;
  }
  const Result<StreamVolume> base = RunColdStream(sys->get(), false);
  const Result<StreamVolume> counted = RunColdStream(sys->get(), true);
  if (!base.ok() || !counted.ok()) {
    std::fprintf(stderr, "stream failed: %s\n",
                 (base.ok() ? counted.status() : base.status())
                     .ToString()
                     .c_str());
    return false;
  }
  std::printf(
      "stream: %.0f us/query; per query %.1f fault checks, %.0f metric "
      "updates, %.1f histogram records, %.1f spans\n",
      base->query_ns / 1000, counted->fault_checks, base->metric_updates,
      base->histogram_records, counted->spans);
  if (counted->fault_checks <= 0 || base->metric_updates <= 0 ||
      counted->spans <= 0) {
    std::fprintf(stderr,
                 "the stream crossed no fault point, metric or span, so "
                 "the overhead floors would measure nothing\n");
    return false;
  }
  const double fault_pct =
      100 * counted->fault_checks * fault_ns / base->query_ns;
  const double observability_pct =
      100 *
      (base->metric_updates * counter_ns +
       base->histogram_records * histogram_ns + counted->spans * span_ns) /
      base->query_ns;
  bool ok = Holds("fault hooks", fault_pct, "%", kMaxFaultOverheadPct, true);
  ok &= Holds("observability hooks", observability_pct, "%",
              kMaxObservabilityOverheadPct, true);
  if (simd::DetectedLevel() != simd::IsaLevel::kAvx2) {
    std::printf("no AVX2 on this host: SIMD floor skipped\n");
    return ok;
  }
  ok &= Holds("leaf fold avx2/scalar", LeafFoldSpeedup(sys->get()), "x",
              kMinSimdSpeedup, false);
  return ok;
}

}  // namespace
}  // namespace chunkcache

int main(int argc, char** argv) {
  if (!chunkcache::CheckFloors()) return 1;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
