#ifndef CHUNKCACHE_BENCH_E2E_OPEN_LOOP_H_
#define CHUNKCACHE_BENCH_E2E_OPEN_LOOP_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/status.h"

namespace chunkcache::bench::e2e {

/// Nearest-rank q-quantile (q in (0, 1]) of an ascending sample: the
/// ceil(q * n)-th smallest value. 0 for an empty sample.
double NearestRank(const std::vector<double>& sorted, double q);

/// Samples strictly above the nearest-rank q-quantile of an n-sample.
uint64_t SamplesBeyond(uint64_t n, double q);

/// A latency sample reduced the way every metric of this benchmark is: the
/// median plus the highest of the standard tail quantiles that still has at
/// least ten samples beyond it, with the sample count. Failed requests
/// enter as +infinity, so they miss every latency limit.
struct LatencySummary {
  uint64_t samples = 0;   ///< Including failures.
  uint64_t failures = 0;  ///< Samples that were +infinity.
  double p50 = 0;
  double p99 = 0;       ///< Nearest-rank p99 (meaningful when tail_q >= .99).
  double tail_q = 0;    ///< Highest supported quantile; 0 below 11 samples.
  double tail = 0;      ///< Value at tail_q.
  double mean = 0;      ///< Mean of the finite samples.
};

/// Tail ladder SummarizeLatency picks tail_q from, highest first.
inline constexpr double kTailQuantiles[] = {0.999, 0.99, 0.95, 0.9, 0.5};

/// Summarizes `values` (any order; +infinity marks a failure).
LatencySummary SummarizeLatency(std::vector<double> values);

/// How one scheduled request ended.
enum class Outcome : uint8_t {
  kPending = 0,   ///< Never resolved (its connection failed first).
  kOk,            ///< Served and verified.
  kFailed,        ///< Error, shed or verification failure from the server.
  kTransport,     ///< The connection broke.
};

/// Steady-clock timestamps of one scheduled request, in nanoseconds since
/// the schedule's start. `due_ns` is when the schedule wanted it sent; all
/// latencies are measured from it, so a late generator or a stalled send
/// is charged to every request it delays.
struct RequestTiming {
  uint64_t due_ns = 0;
  uint64_t send_begin_ns = 0;
  uint64_t send_end_ns = 0;
  uint64_t wait_begin_ns = 0;  ///< Reader starts blocking on the response.
  uint64_t done_ns = 0;        ///< Response complete.
  uint32_t connection = 0;
  Outcome outcome = Outcome::kPending;

  /// Due time to response, ms; +infinity unless kOk.
  double LatencyMs() const;
  /// How late the generator started the send, ms.
  double LagMs() const;
};

/// One connection's halves. Request i of the schedule is carried by
/// connection i % connections, and each connection sends and receives its
/// requests in schedule order: its sender thread calls `send(i)` at i's due
/// time, its reader thread calls `receive(i)` once `send(i)` has returned
/// OK and blocks until i's response completes.
struct OpenLoopConnection {
  /// Writes request i. A non-OK status is a transport failure: the
  /// connection stops and its unsent requests stay kPending.
  std::function<Status(uint64_t i)> send;
  /// Blocks for request i's response: kOk, kFailed or kTransport (which
  /// also stops the connection).
  std::function<Outcome(uint64_t i)> receive;
};

struct OpenLoopOptions {
  double rate_qps = 100;  ///< Arrival rate over all connections.
  uint64_t requests = 0;  ///< Schedule length.
};

struct OpenLoopResult {
  std::vector<RequestTiming> timings;  ///< Indexed by schedule position.
  uint64_t start_ns = 0;  ///< Steady-clock origin of the schedule.
  /// Every generator thread ran under SCHED_FIFO. The generator shares the
  /// box with the system under test; at normal priority a CPU-saturating
  /// burst of server work delays its wake-ups by milliseconds, and the
  /// schedule would then follow the server's pace. Real-time priority needs
  /// CAP_SYS_NICE; without it the threads run normally and the lag check
  /// decides whether the run holds.
  bool realtime = false;
};

/// Runs a fixed-rate open-loop schedule over `conns` (one sender and one
/// reader thread each). Request 0 is due 2 ms after the call, so every
/// thread is running by then.
OpenLoopResult RunOpenLoop(const OpenLoopOptions& options,
                           const std::vector<OpenLoopConnection>& conns);

/// Monotonic nanoseconds (steady_clock), the clock every timestamp here
/// is taken on.
uint64_t SteadyNowNs();

}  // namespace chunkcache::bench::e2e

#endif  // CHUNKCACHE_BENCH_E2E_OPEN_LOOP_H_
