#ifndef CHUNKCACHE_BENCH_E2E_E2E_H_
#define CHUNKCACHE_BENCH_E2E_E2E_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench/e2e/open_loop.h"
#include "common/status.h"

namespace chunkcache::bench::e2e {

/// Query stream a workload draws from.
enum class StreamKind : uint8_t {
  kSessionCycle,  ///< The first `distinct_queries` session queries, replayed.
  kSessionFresh,  ///< One continuous SessionGenerator stream.
  kRandom,        ///< Table 2 "Random" (RandomStream).
  kZipfian,       ///< ZipfianStream: 16 regions, Zipf(0.9).
};

/// One workload's fixed constants. Every phase is counted in queries, so
/// a seed fixes the exact query sequence each phase sees.
struct WorkloadSpec {
  std::string name;
  StreamKind stream = StreamKind::kSessionCycle;
  uint32_t distinct_queries = 0;  ///< kSessionCycle replay length.
  uint64_t cache_mb = 30;
  bool compression = false;
  bool persist = false;  ///< WAL + snapshots in a fresh $TMPDIR directory.
  uint64_t warmup_queries = 0;
  double open_rate_qps = 100;
  uint64_t open_queries = 0;
  uint64_t closed_queries = 0;
};

/// The four workloads of the benchmark, each loading one layer that another
/// leaves idle (reasons beside each entry and in README.md).
const std::vector<WorkloadSpec>& Workloads();

/// The named workload, or nullptr.
const WorkloadSpec* FindWorkload(const std::string& name);

// Deployment shape shared by every workload: the shell's --serve tier
// (benefit-clock, in-cache aggregation, 8 cache shards) sized for a 4-core
// box, with the load generator in the same process.
inline constexpr const char* kPolicy = "benefit-clock";
inline constexpr uint32_t kCacheShards = 8;
inline constexpr uint32_t kTierWorkers = 2;
inline constexpr uint32_t kServerWorkers = 2;
inline constexpr uint32_t kConnections = 2;
inline constexpr uint64_t kDataSeed = 42;
/// Every kReferenceStride-th open-loop response is re-checked against a
/// no-cache evaluation after the timed phases.
inline constexpr uint64_t kReferenceStride = 25;
/// A run whose generator-lag p99 exceeds this is invalid.
inline constexpr double kMaxGeneratorLagMs = 1.0;

struct RunOptions {
  WorkloadSpec spec;
  uint64_t seed = 7;  ///< Workload seed; the data seed stays kDataSeed.
  uint64_t num_tuples = 500000;
  /// Stop after set-up (data build, tier and server start, warm-up): the
  /// report then holds setup_s only.
  bool setup_only = false;
  /// Non-empty: traced run. Keeps every open-loop query's span tree and
  /// writes <dir>/<workload>.trace.jsonl and <dir>/<workload>.layers.json.
  std::string trace_dir;
};

/// Everything one run measured. `metrics` holds the end-to-end metrics,
/// `layers` the per-layer ones (span self times only when traced).
struct RunReport {
  RunOptions options;
  bool generator_realtime = false;  ///< See OpenLoopResult::realtime.
  std::map<std::string, std::string> stream_hash;  ///< Per phase, hex.
  LatencySummary open_latency;  ///< ms, from due time.
  LatencySummary generator_lag;  ///< ms.
  uint64_t closed_ok = 0;
  double closed_seconds = 0;

  // Accounting over warm-up, open and closed loop.
  uint64_t attempted = 0;  ///< Queries scheduled.
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;  ///< attempted - ok: error, shed, transport, verify.
  uint64_t transport_failures = 0;
  uint64_t verify_failures = 0;
  uint64_t server_offered = 0;
  uint64_t server_ok = 0;
  uint64_t server_shed = 0;
  uint64_t server_errors = 0;

  uint64_t reference_checked = 0;
  uint64_t reference_distinct = 0;
  uint64_t reference_mismatches = 0;

  std::map<std::string, double> metrics;
  std::map<std::string, double> layers;
  /// Traced runs: self time per span name, us per open-loop query.
  std::map<std::string, double> span_self_us;
  /// Wrong or unverifiable answers: reference mismatches, row-hash
  /// failures, broken accounting. Empty = every output checked out.
  std::vector<std::string> problems;

  /// The generator kept to its schedule (lag p99 within the limit), so the
  /// open loop measured the arrival schedule and not the server's pace.
  bool GeneratorOnTime() const {
    return generator_lag.p99 <= kMaxGeneratorLagMs;
  }
  /// Correct outputs and a generator that kept its schedule.
  bool Valid() const { return problems.empty() && GeneratorOnTime(); }
};

/// Runs one workload end to end. Fails only when the harness itself cannot
/// run; measurement and correctness problems land in report.problems.
Result<RunReport> RunWorkload(const RunOptions& options);

/// The report as one JSON object.
std::string ReportJson(const RunReport& report);

}  // namespace chunkcache::bench::e2e

#endif  // CHUNKCACHE_BENCH_E2E_E2E_H_
