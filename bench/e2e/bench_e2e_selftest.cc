// Self-test of the end-to-end benchmark: the percentile helper on known
// vectors, due-time stamping of the open-loop generator under an injected
// stall, and a tiny hot-session run end to end (untraced and traced).

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <filesystem>
#include <limits>
#include <mutex>
#include <thread>

#include <gtest/gtest.h>

#include "bench/e2e/e2e.h"
#include "bench/e2e/open_loop.h"

namespace chunkcache::bench::e2e {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(Percentile, NearestRankOnKnownVectors) {
  const std::vector<double> v = OneTo(100);
  EXPECT_EQ(NearestRank(v, 0.5), 50);
  EXPECT_EQ(NearestRank(v, 0.9), 90);
  EXPECT_EQ(NearestRank(v, 0.99), 99);
  EXPECT_EQ(NearestRank(v, 1.0), 100);
  EXPECT_EQ(NearestRank(v, 0.001), 1);
  EXPECT_EQ(NearestRank({7}, 0.99), 7);
  EXPECT_EQ(NearestRank({}, 0.5), 0);
  // Integral q * n must not round up a rank.
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
  EXPECT_EQ(SamplesBeyond(1000, 0.999), 1u);
  EXPECT_EQ(SamplesBeyond(100, 0.9), 10u);
}

TEST(Percentile, TailIsHighestWithTenBeyond) {
  LatencySummary s = SummarizeLatency(OneTo(1000));
  EXPECT_EQ(s.samples, 1000u);
  EXPECT_EQ(s.p50, 500);
  EXPECT_EQ(s.p99, 990);
  EXPECT_EQ(s.tail_q, 0.99);
  EXPECT_EQ(s.tail, 990);
  EXPECT_DOUBLE_EQ(s.mean, 500.5);

  s = SummarizeLatency(OneTo(10000));
  EXPECT_EQ(s.tail_q, 0.999);
  EXPECT_EQ(s.tail, 9990);

  s = SummarizeLatency(OneTo(100));
  EXPECT_EQ(s.tail_q, 0.9);
  EXPECT_EQ(s.tail, 90);

  s = SummarizeLatency(OneTo(10));
  EXPECT_EQ(s.tail_q, 0);  // no quantile has ten samples beyond it
}

TEST(Percentile, FailuresCountAsInfinity) {
  std::vector<double> v = OneTo(80);
  for (int i = 0; i < 20; ++i) v.push_back(kInf);
  const LatencySummary s = SummarizeLatency(v);
  EXPECT_EQ(s.samples, 100u);
  EXPECT_EQ(s.failures, 20u);
  EXPECT_EQ(s.p50, 50);
  EXPECT_TRUE(std::isinf(s.p99));
  EXPECT_DOUBLE_EQ(s.mean, 40.5);
}

/// A fake server: a response is ready as soon as its request was sent.
struct FakeTarget {
  std::chrono::milliseconds stall{0};
  uint64_t stall_at = ~uint64_t{0};
  uint64_t fail_at = ~uint64_t{0};

  OpenLoopConnection Conn() {
    OpenLoopConnection c;
    c.send = [this](uint64_t i) -> Status {
      if (i == stall_at) std::this_thread::sleep_for(stall);
      if (i == fail_at) return Status::IoError("injected");
      return Status::OK();
    };
    c.receive = [](uint64_t) { return Outcome::kOk; };
    return c;
  }
};

TEST(OpenLoop, LatencyCountsFromDueTimeUnderAStall) {
  FakeTarget target;
  target.stall = std::chrono::milliseconds(40);
  target.stall_at = 5;
  OpenLoopOptions opts;
  opts.rate_qps = 1000;  // one request due every 1 ms
  opts.requests = 30;
  const auto t = RunOpenLoop(opts, {target.Conn()}).timings;
  ASSERT_EQ(t.size(), 30u);
  for (const RequestTiming& r : t) EXPECT_EQ(r.outcome, Outcome::kOk);
  EXPECT_EQ(t[10].due_ns, 10'000'000u);
  // Request 6 was due at 6 ms but could only go out after the 40 ms stall
  // of request 5: the wait is charged to it, not hidden by a late stamp.
  EXPECT_GE(t[6].LagMs(), 35);
  EXPECT_GE(t[6].LatencyMs(), 35);
  EXPECT_GE(t[5].LatencyMs(), 40);
  // Once the schedule is caught up again, latency is back near zero.
  EXPECT_LT(t[29].LatencyMs(), 20);
  std::vector<double> lag;
  for (const RequestTiming& r : t) lag.push_back(r.LagMs());
  EXPECT_GT(SummarizeLatency(lag).p99, kMaxGeneratorLagMs);
}

TEST(OpenLoop, TransportFailureStopsOnlyItsConnection) {
  FakeTarget broken;
  broken.fail_at = 4;  // connection 0 carries even requests
  FakeTarget healthy;
  OpenLoopOptions opts;
  opts.rate_qps = 2000;
  opts.requests = 20;
  const auto t = RunOpenLoop(opts, {broken.Conn(), healthy.Conn()}).timings;
  EXPECT_EQ(t[2].outcome, Outcome::kOk);
  EXPECT_EQ(t[4].outcome, Outcome::kTransport);
  EXPECT_EQ(t[6].outcome, Outcome::kPending);
  EXPECT_TRUE(std::isinf(t[6].LatencyMs()));
  for (uint64_t i = 1; i < 20; i += 2) EXPECT_EQ(t[i].outcome, Outcome::kOk);
}

RunOptions TinyHotSession() {
  RunOptions o;
  o.spec = *FindWorkload("hot-session");
  o.spec.distinct_queries = 20;
  o.spec.warmup_queries = 20;
  o.spec.open_rate_qps = 500;
  o.spec.open_queries = 50;
  o.spec.closed_queries = 50;
  o.num_tuples = 10000;
  return o;
}

void ExpectSoundRun(const RunReport& r) {
  for (const char* m :
       {"setup_s", "ok_frac", "csr", "modeled_ms", "peak_rss_mb"}) {
    ASSERT_TRUE(r.metrics.count(m)) << m;
    EXPECT_TRUE(std::isfinite(r.metrics.at(m))) << m;
    EXPECT_GT(r.metrics.at(m), 0) << m;
  }
  for (const char* m :
       {"client.p50_ms", "client.p99_ms", "client.capacity_qps"}) {
    ASSERT_TRUE(r.layers.count(m)) << m;
    EXPECT_TRUE(std::isfinite(r.layers.at(m))) << m;
    EXPECT_GT(r.layers.at(m), 0) << m;
  }
  EXPECT_EQ(r.metrics.at("ok_frac"), 1.0);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_EQ(r.verify_failures, 0u);
  EXPECT_EQ(r.server_offered, r.server_ok + r.server_shed + r.server_errors);
  EXPECT_EQ(r.server_offered, r.sent);
  EXPECT_EQ(r.reference_checked, 2u);  // open-loop responses 0 and 25
  EXPECT_EQ(r.reference_mismatches, 0u);
  EXPECT_EQ(r.open_latency.samples, 50u);
  // 20 distinct queries fit the cache: every chunk hits after warm-up, so
  // only the warm-up's misses keep the stream's CSR below 1.
  EXPECT_GE(r.layers.at("cache.hit_ratio"), 0.99);
  EXPECT_EQ(r.layers.at("backend.pages_per_q"), 0);
  EXPECT_GT(r.metrics.at("csr"), 0.5);
  EXPECT_LT(r.metrics.at("csr"), 1.0);
  EXPECT_EQ(r.stream_hash.size(), 3u);
}

TEST(EndToEnd, TinyHotSessionRun) {
  auto r = RunWorkload(TinyHotSession());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ExpectSoundRun(*r);
  EXPECT_TRUE(r->span_self_us.empty());
}

TEST(EndToEnd, SetupOnlyStopsAfterWarmup) {
  RunOptions o = TinyHotSession();
  o.setup_only = true;
  auto r = RunWorkload(o);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->metrics.at("setup_s"), 0);
  EXPECT_EQ(r->metrics.size(), 1u);
  EXPECT_EQ(r->open_latency.samples, 0u);
  EXPECT_TRUE(r->problems.empty());
}

TEST(EndToEnd, TinyHotSessionTraced) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "bench_e2e_selftest_trace";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  RunOptions o = TinyHotSession();
  o.trace_dir = dir.string();
  auto r = RunWorkload(o);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ExpectSoundRun(*r);
  EXPECT_TRUE(std::filesystem::exists(dir / "hot-session.trace.jsonl"));
  EXPECT_TRUE(std::filesystem::exists(dir / "hot-session.layers.json"));
  EXPECT_GT(r->span_self_us.at("cache_probe"), 0);
  EXPECT_GT(r->layers.at("core.probe_us"), 0);
  // Same seed, same streams, traced or not.
  auto untraced = RunWorkload(TinyHotSession());
  ASSERT_TRUE(untraced.ok());
  EXPECT_EQ(untraced->stream_hash, r->stream_hash);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace chunkcache::bench::e2e
