#include "bench/e2e/open_loop.h"

#include <pthread.h>
#include <sched.h>
#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>

namespace chunkcache::bench::e2e {
namespace {

uint64_t Rank(uint64_t n, double q) {
  // The epsilon keeps q * n that is integral in exact arithmetic (0.99 *
  // 1000) from rounding up to the next rank.
  const double r = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<uint64_t>(static_cast<uint64_t>(std::max(r, 1.0)), 1, n);
}

double NsToMs(uint64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Moves the calling thread to SCHED_FIFO (lowest real-time priority);
/// false when not permitted. Either way the timer slack drops to 1 us: the
/// default 50 us would be added to every normal-priority wake-up, i.e.
/// straight into the generator lag.
bool EnterRealtime() {
  prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
  sched_param param{};
  param.sched_priority = sched_get_priority_min(SCHED_FIFO);
  return pthread_setschedparam(pthread_self(), SCHED_FIFO, &param) == 0;
}

}  // namespace

uint64_t SteadyNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double NearestRank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  return sorted[Rank(sorted.size(), q) - 1];
}

uint64_t SamplesBeyond(uint64_t n, double q) {
  return n == 0 ? 0 : n - Rank(n, q);
}

LatencySummary SummarizeLatency(std::vector<double> values) {
  LatencySummary s;
  std::sort(values.begin(), values.end());
  s.samples = values.size();
  double finite_sum = 0;
  for (double v : values) {
    if (std::isinf(v)) {
      ++s.failures;
    } else {
      finite_sum += v;
    }
  }
  if (s.samples > s.failures) {
    s.mean = finite_sum / static_cast<double>(s.samples - s.failures);
  }
  s.p50 = NearestRank(values, 0.5);
  s.p99 = NearestRank(values, 0.99);
  for (double q : kTailQuantiles) {
    if (SamplesBeyond(s.samples, q) >= 10) {
      s.tail_q = q;
      s.tail = NearestRank(values, q);
      break;
    }
  }
  return s;
}

double RequestTiming::LatencyMs() const {
  if (outcome != Outcome::kOk) return std::numeric_limits<double>::infinity();
  return NsToMs(done_ns - due_ns);
}

double RequestTiming::LagMs() const {
  return send_begin_ns > due_ns ? NsToMs(send_begin_ns - due_ns) : 0.0;
}

OpenLoopResult RunOpenLoop(const OpenLoopOptions& options,
                           const std::vector<OpenLoopConnection>& conns) {
  const uint64_t n = options.requests;
  const uint64_t num_conns = conns.size();
  OpenLoopResult result;
  std::vector<RequestTiming>& timings = result.timings;
  timings.resize(n);
  const double interval_ns = 1e9 / options.rate_qps;
  for (uint64_t i = 0; i < n; ++i) {
    timings[i].due_ns = static_cast<uint64_t>(
        std::llround(static_cast<double>(i) * interval_ns));
    timings[i].connection = static_cast<uint32_t>(i % num_conns);
  }

  // Hand-off from a connection's sender to its reader: the reader blocks on
  // the condition variable until its next request is on the wire (or the
  // sender gave up), then blocks in receive — it never polls.
  struct Handoff {
    std::mutex mu;
    std::condition_variable cv;
    uint64_t sent = 0;     // this connection's requests sent, in order
    bool done = false;     // sender finished or failed
    bool broken = false;   // reader saw a transport failure
  };
  std::vector<std::unique_ptr<Handoff>> handoffs;
  for (uint64_t c = 0; c < num_conns; ++c) {
    handoffs.push_back(std::make_unique<Handoff>());
  }

  std::atomic<bool> realtime{true};
  const uint64_t start = SteadyNowNs() + 2'000'000;
  result.start_ns = start;
  std::vector<std::thread> threads;
  for (uint64_t c = 0; c < num_conns; ++c) {
    Handoff& h = *handoffs[c];
    const OpenLoopConnection& conn = conns[c];
    threads.emplace_back([&, c] {
      if (!EnterRealtime()) realtime.store(false);
      for (uint64_t i = c; i < n; i += num_conns) {
        {
          std::lock_guard<std::mutex> lock(h.mu);
          if (h.broken) break;
        }
        RequestTiming& t = timings[i];
        std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
            std::chrono::nanoseconds(start + t.due_ns)));
        t.send_begin_ns = SteadyNowNs() - start;
        const Status st = conn.send(i);
        t.send_end_ns = SteadyNowNs() - start;
        if (!st.ok()) {
          t.outcome = Outcome::kTransport;
          break;
        }
        std::lock_guard<std::mutex> lock(h.mu);
        ++h.sent;
        h.cv.notify_one();
      }
      std::lock_guard<std::mutex> lock(h.mu);
      h.done = true;
      h.cv.notify_one();
    });
    threads.emplace_back([&, c] {
      if (!EnterRealtime()) realtime.store(false);
      uint64_t k = 0;  // this connection's k-th request
      for (uint64_t i = c; i < n; i += num_conns, ++k) {
        {
          std::unique_lock<std::mutex> lock(h.mu);
          h.cv.wait(lock, [&] { return h.sent > k || h.done; });
          if (h.sent <= k) return;  // the sender stopped before request i
        }
        RequestTiming& t = timings[i];
        t.wait_begin_ns = SteadyNowNs() - start;
        const Outcome out = conn.receive(i);
        t.done_ns = SteadyNowNs() - start;
        t.outcome = out;
        if (out == Outcome::kTransport) {
          std::lock_guard<std::mutex> lock(h.mu);
          h.broken = true;
          return;
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  result.realtime = realtime.load();
  return result;
}

}  // namespace chunkcache::bench::e2e
