// Measures what the observability layer costs: the metric and trace hooks
// themselves, and the end-to-end effect on a query stream.
//
// Four sections:
//   1. hooks     — per-op cost of a striped Counter::Increment, a
//                  Histogram::Record, an armed span Begin/End pair and a
//                  disarmed (null-recorder) pair, measured like
//                  bench_faults measures the fault hook: noinline ops
//                  through a function pointer, hooked minus baseline.
//   2. disarmed  — query-stream throughput with tracing off
//                  (trace_capacity = 0, the default configuration;
//                  metrics counters are always on — they ARE the stats).
//   3. armed     — the same cold stream with per-query tracing on, plus
//                  the observed metric updates, histogram records and
//                  spans per query read back from the registry/recorder.
//   4. verdict   — the computed overhead, bench_faults-style:
//                    overhead_pct = 100 * (updates/query * counter_ns
//                                   + records/query * histogram_ns
//                                   + spans/query * span_ns) / per_query_ns
//                  CI asserts it stays <= 2 % of a healthy query.
//
// Results go to stdout AND to BENCH_observability.json (machine readable;
// CI validates its schema). Honors CHUNKCACHE_BENCH_SCALE /
// CHUNKCACHE_BENCH_QUERIES via ExperimentConfig::FromEnv.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>

#include "bench/common/experiment.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "core/chunk_cache_manager.h"
#include "workload/query_generator.h"

namespace chunkcache::bench {
namespace {

using core::ChunkCacheManager;
using core::ChunkManagerOptions;
using core::QueryStats;

double NowNs() {
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The hooked ops differ from the baseline only in the metric call; all are
// noinline and called through a function pointer so the compiler cannot
// specialize either loop (the bench_faults methodology).
Counter g_counter("bench.counter");
Histogram g_histogram("bench.histogram");

__attribute__((noinline)) uint64_t CounterOp(uint64_t x, uint64_t* sink) {
  g_counter.Increment();
  *sink += x ^ (x >> 7);
  return 0;
}

__attribute__((noinline)) uint64_t HistogramOp(uint64_t x, uint64_t* sink) {
  g_histogram.Record(x);
  *sink += x ^ (x >> 7);
  return 0;
}

__attribute__((noinline)) uint64_t PlainOp(uint64_t x, uint64_t* sink) {
  *sink += x ^ (x >> 7);
  return 0;
}

/// Best-of-3 per-call time of `op` over `iters` calls, in nanoseconds.
double TimeOpNs(uint64_t (*op)(uint64_t, uint64_t*), uint64_t iters) {
  double best = 1e18;
  for (int rep = 0; rep < 3; ++rep) {
    uint64_t sink = 0;
    const double t0 = NowNs();
    for (uint64_t i = 0; i < iters; ++i) sink += op(i, &sink);
    const double elapsed = NowNs() - t0;
    asm volatile("" ::"r"(sink));
    best = std::min(best, elapsed / static_cast<double>(iters));
  }
  return best;
}

/// Best-of-3 per-span cost of an armed (or, with rec == nullptr, disarmed)
/// Begin/End pair, amortizing builder construction and Finish over
/// kSpansPerTrace spans per trace.
double TimeSpanPairNs(TraceRecorder* rec, uint64_t iters) {
  constexpr uint64_t kSpansPerTrace = 64;
  const uint64_t traces = std::max<uint64_t>(1, iters / kSpansPerTrace);
  double best = 1e18;
  for (int rep = 0; rep < 3; ++rep) {
    const double t0 = NowNs();
    for (uint64_t t = 0; t < traces; ++t) {
      TraceBuilder b(rec, "bench");
      for (uint64_t i = 0; i < kSpansPerTrace; ++i) {
        const uint32_t s = b.BeginSpan("op", b.root());
        b.Tag(s, "i", i);
        b.EndSpan(s);
      }
      b.Finish();
    }
    const double elapsed = NowNs() - t0;
    best = std::min(best,
                    elapsed / static_cast<double>(traces * kSpansPerTrace));
  }
  return best;
}

ChunkManagerOptions TierOptions(uint32_t trace_capacity) {
  ChunkManagerOptions opts;
  opts.num_workers = 4;
  opts.cache_shards = 8;
  opts.trace_capacity = trace_capacity;
  return opts;
}

struct InstrumentedStream {
  StreamResult stream;
  double metric_updates_per_query = 0;   ///< Folded counter total / queries.
  double hist_records_per_query = 0;     ///< Histogram count total / queries.
  double spans_per_query = 0;            ///< Mean spans per retained trace.
};

/// One full cold-start pass of the workload stream (fresh tier, reset
/// backend, regenerated queries), reading the per-query observability
/// volume back off the tier before it is torn down.
Result<InstrumentedStream> RunColdStream(System* sys, uint64_t num_queries,
                                         uint32_t trace_capacity) {
  CHUNKCACHE_RETURN_IF_ERROR(sys->ResetBackend());
  ChunkCacheManager tier(&sys->engine(), TierOptions(trace_capacity));
  workload::WorkloadOptions wopts;
  wopts.seed = 1998;
  workload::QueryGenerator gen(&sys->schema(), wopts);
  InstrumentedStream out;
  CHUNKCACHE_ASSIGN_OR_RETURN(
      out.stream,
      RunStream(&tier, &gen, num_queries, sys->config().cost_model));

  // Observed volume: every counter add and histogram record of the run is
  // in the registry (counter folds over-count multi-unit Adds as one
  // update each unit, which only makes the computed overhead conservative).
  const MetricsRegistry::Snapshot snap = tier.metrics().TakeSnapshot();
  uint64_t counter_total = 0;
  for (const auto& [name, v] : snap.counters) counter_total += v;
  uint64_t hist_total = 0;
  for (const auto& [name, h] : snap.histograms) hist_total += h.count;
  out.metric_updates_per_query =
      static_cast<double>(counter_total) / static_cast<double>(num_queries);
  out.hist_records_per_query =
      static_cast<double>(hist_total) / static_cast<double>(num_queries);
  if (TraceRecorder* rec = tier.trace_recorder()) {
    uint64_t spans = 0;
    const auto latest = rec->Latest(rec->capacity());
    for (const QueryTrace& t : latest) spans += t.spans.size();
    if (!latest.empty()) {
      out.spans_per_query =
          static_cast<double>(spans) / static_cast<double>(latest.size());
    }
  }
  return out;
}

Status Run() {
  const ExperimentConfig config = ExperimentConfig::FromEnv();
  PrintSetup(config, "Observability hooks: metric/span cost and overhead");

  // 1. The hooks themselves.
  constexpr uint64_t kHookIters = 20 * 1000 * 1000;
  const double plain_ns = TimeOpNs(&PlainOp, kHookIters);
  const double counter_ns =
      std::max(0.0, TimeOpNs(&CounterOp, kHookIters) - plain_ns);
  const double histogram_ns =
      std::max(0.0, TimeOpNs(&HistogramOp, kHookIters) - plain_ns);
  TraceRecorder rec(2);
  constexpr uint64_t kSpanIters = 2 * 1000 * 1000;
  const double span_ns = TimeSpanPairNs(&rec, kSpanIters);
  const double disarmed_span_ns = TimeSpanPairNs(nullptr, kSpanIters * 4);
  std::printf(
      "hooks: counter %.3f ns, histogram %.3f ns, armed span %.1f ns, "
      "disarmed span %.3f ns (baseline op %.3f ns)\n",
      counter_ns, histogram_ns, span_ns, disarmed_span_ns, plain_ns);

  CHUNKCACHE_ASSIGN_OR_RETURN(std::unique_ptr<System> sys,
                              System::Build(config));
  const uint64_t num_queries = config.stream_queries;

  // 2. Tracing off (the default): this is the production baseline.
  CHUNKCACHE_ASSIGN_OR_RETURN(const InstrumentedStream disarmed,
                              RunColdStream(sys.get(), num_queries, 0));
  const double per_query_ns = disarmed.stream.wall_seconds * 1e9 /
                              static_cast<double>(num_queries);
  const double disarmed_qps =
      disarmed.stream.wall_seconds > 0
          ? static_cast<double>(num_queries) / disarmed.stream.wall_seconds
          : 0;
  std::printf("tracing off: %.0f q/s (%.0f us/query), %.0f metric updates "
              "+ %.1f histogram records per query\n",
              disarmed_qps, per_query_ns / 1000.0,
              disarmed.metric_updates_per_query,
              disarmed.hist_records_per_query);

  // 3. Tracing on: same cold stream with span trees retained.
  CHUNKCACHE_ASSIGN_OR_RETURN(const InstrumentedStream armed,
                              RunColdStream(sys.get(), num_queries, 256));
  const double armed_qps =
      armed.stream.wall_seconds > 0
          ? static_cast<double>(num_queries) / armed.stream.wall_seconds
          : 0;
  std::printf("tracing on:  %.0f q/s, %.1f spans per query\n", armed_qps,
              armed.spans_per_query);

  // 4. Computed overhead of the always-on hooks plus armed tracing,
  // against the healthy per-query time (bench_faults methodology: volume
  // times micro-cost, not the difference of two noisy wall times).
  const double overhead_pct =
      per_query_ns > 0
          ? 100.0 *
                (disarmed.metric_updates_per_query * counter_ns +
                 disarmed.hist_records_per_query * histogram_ns +
                 armed.spans_per_query * span_ns) /
                per_query_ns
          : 0;
  std::printf("computed observability overhead: %.4f%% of a query "
              "(CI bar: 2%%)\n", overhead_pct);

  std::FILE* out = std::fopen("BENCH_observability.json", "w");
  if (out == nullptr) {
    return Status::IoError("cannot write BENCH_observability.json");
  }
  std::fprintf(
      out,
      "{\n  \"bench\": \"observability\",\n  \"num_tuples\": %llu,\n"
      "  \"queries\": %llu,\n"
      "  \"counter_inc_ns\": %.4f,\n  \"histogram_record_ns\": %.4f,\n"
      "  \"span_ns\": %.4f,\n  \"disarmed_span_ns\": %.4f,\n"
      "  \"metric_updates_per_query\": %.1f,\n"
      "  \"histogram_records_per_query\": %.1f,\n"
      "  \"spans_per_query\": %.1f,\n"
      "  \"disarmed_qps\": %.1f,\n  \"armed_qps\": %.1f,\n"
      "  \"per_query_ns\": %.1f,\n  \"overhead_pct\": %.4f\n}\n",
      static_cast<unsigned long long>(config.num_tuples),
      static_cast<unsigned long long>(num_queries), counter_ns, histogram_ns,
      span_ns, disarmed_span_ns, disarmed.metric_updates_per_query,
      disarmed.hist_records_per_query, armed.spans_per_query, disarmed_qps,
      armed_qps, per_query_ns, overhead_pct);
  std::fclose(out);
  std::printf("\nwrote BENCH_observability.json\n");
  return Status::OK();
}

}  // namespace
}  // namespace chunkcache::bench

int main() {
  const chunkcache::Status s = chunkcache::bench::Run();
  if (!s.ok()) {
    std::fprintf(stderr, "bench_observability failed: %s\n",
                 s.message().c_str());
    return 1;
  }
  return 0;
}
