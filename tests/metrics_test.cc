#include "common/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <thread>
#include <vector>

namespace chunkcache {
namespace {

// ----------------------------- bucket layout --------------------------------

TEST(HistogramBuckets, LayoutCoversUint64WithoutGapsOrOverlaps) {
  EXPECT_EQ(HistogramBucketOf(0), 0u);
  EXPECT_EQ(HistogramBucketOf(1), 1u);
  EXPECT_EQ(HistogramBucketOf(2), 2u);
  EXPECT_EQ(HistogramBucketOf(3), 2u);
  EXPECT_EQ(HistogramBucketOf(4), 3u);
  EXPECT_EQ(HistogramBucketOf(~uint64_t{0}), 64u);
  for (size_t b = 0; b + 1 < kHistogramBuckets; ++b) {
    // Consecutive buckets tile the domain: the value after bucket b's
    // upper bound opens bucket b + 1, and every bucket holds its bound.
    EXPECT_EQ(HistogramBucketOf(HistogramBucketUpper(b) + 1), b + 1) << b;
    EXPECT_EQ(HistogramBucketOf(HistogramBucketUpper(b)), b);
  }
}

// -------------------------------- counters ----------------------------------

TEST(Counter, AddAndIncrement) {
  Counter c("test.counter");
  EXPECT_EQ(c.Value(), 0u);
  c.Add(5);
  c.Increment();
  EXPECT_EQ(c.Value(), 6u);
  EXPECT_EQ(c.name(), "test.counter");
}

TEST(Counter, ConcurrentTotalsAreExact) {
  // Striped relaxed adds from many threads must fold to the exact total
  // once the threads have joined. (Run under TSAN in CI.)
  Counter c("test.concurrent");
  constexpr int kThreads = 8;
  constexpr uint64_t kAdds = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (uint64_t i = 0; i < kAdds; ++i) c.Increment();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.Value(), kThreads * kAdds);
}

TEST(Gauge, SetAddSetMax) {
  Gauge g("test.gauge");
  g.Set(10);
  EXPECT_EQ(g.Value(), 10);
  g.Add(-3);
  g.Add(5);
  EXPECT_EQ(g.Value(), 12);
  g.SetMax(7);  // below current: no change
  EXPECT_EQ(g.Value(), 12);
  g.SetMax(40);
  EXPECT_EQ(g.Value(), 40);
  g.Set(-4);  // gauges are signed
  EXPECT_EQ(g.Value(), -4);
}

// ------------------------------- histograms ---------------------------------

std::vector<uint64_t> CannedValues(uint64_t seed, size_t n) {
  std::mt19937_64 rng(seed);
  std::vector<uint64_t> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    // Log-uniform-ish spread across many buckets, plus occasional zeros.
    const int shift = static_cast<int>(rng() % 40);
    out.push_back(rng() % 17 == 0 ? 0 : (rng() >> (63 - shift)));
  }
  return out;
}

TEST(Histogram, SnapshotTracksCountSumMinMax) {
  Histogram h("test.hist");
  for (uint64_t v : {5u, 13u, 1u, 200u}) h.Record(v);
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 4u);
  EXPECT_EQ(s.sum, 219u);
  EXPECT_EQ(s.min, 1u);
  EXPECT_EQ(s.max, 200u);
  h.Reset();
  const HistogramSnapshot z = h.Snapshot();
  EXPECT_EQ(z.count, 0u);
  EXPECT_EQ(z.min, 0u);
  EXPECT_EQ(z.max, 0u);
}

TEST(Histogram, QuantilesWithinOneBucketOfExact) {
  std::vector<uint64_t> values = CannedValues(4242, 20000);
  Histogram h("test.quantiles");
  for (uint64_t v : values) h.Record(v);
  const HistogramSnapshot s = h.Snapshot();

  std::sort(values.begin(), values.end());
  for (double q : {0.0, 0.1, 0.5, 0.9, 0.95, 0.99, 1.0}) {
    const uint64_t exact =
        values[static_cast<size_t>(q * static_cast<double>(values.size() - 1))];
    const double est = s.Quantile(q);
    // The estimate is the (clamped) upper bound of the exact value's
    // bucket: never below the exact quantile, never above the next
    // power of two (and never outside [min, max]).
    EXPECT_GE(est, static_cast<double>(exact)) << "q=" << q;
    EXPECT_LE(est, static_cast<double>(HistogramBucketUpper(
                       HistogramBucketOf(exact))))
        << "q=" << q;
    EXPECT_GE(est, static_cast<double>(s.min));
    EXPECT_LE(est, static_cast<double>(s.max));
  }
}

TEST(Histogram, ConcurrentRecordTotalsExact) {
  Histogram h("test.mt");
  constexpr int kThreads = 8;
  constexpr uint64_t kRecords = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (uint64_t i = 0; i < kRecords; ++i) {
        h.Record(static_cast<uint64_t>(t) * kRecords + i);
      }
    });
  }
  for (auto& th : threads) th.join();
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, kThreads * kRecords);
  // Sum of 0 .. kThreads*kRecords-1.
  const uint64_t n = kThreads * kRecords;
  EXPECT_EQ(s.sum, n * (n - 1) / 2);
  EXPECT_EQ(s.min, 0u);
  EXPECT_EQ(s.max, n - 1);
}

// -------------------------------- registry ----------------------------------

TEST(MetricsRegistry, GetReturnsStablePointers) {
  MetricsRegistry reg;
  Counter* c1 = reg.GetCounter("a.counter");
  Counter* c2 = reg.GetCounter("a.counter");
  EXPECT_EQ(c1, c2);
  Gauge* g1 = reg.GetGauge("a.gauge");
  EXPECT_EQ(g1, reg.GetGauge("a.gauge"));
  Histogram* h1 = reg.GetHistogram("a.hist");
  EXPECT_EQ(h1, reg.GetHistogram("a.hist"));
  // Distinct names, distinct metrics (same name may exist per kind).
  EXPECT_NE(c1, reg.GetCounter("b.counter"));
}

TEST(MetricsRegistry, Snapshot) {
  MetricsRegistry reg;
  reg.GetCounter("c.one")->Add(3);
  reg.GetGauge("g.one")->Set(-7);
  reg.GetHistogram("h.one")->Record(42);
  const MetricsRegistry::Snapshot snap = reg.TakeSnapshot();
  EXPECT_EQ(snap.counter("c.one"), 3u);
  EXPECT_EQ(snap.gauge("g.one"), -7);
  EXPECT_EQ(snap.counter("missing"), 0u);
  EXPECT_EQ(snap.gauge("missing"), 0);
  ASSERT_EQ(snap.histograms.count("h.one"), 1u);
  EXPECT_EQ(snap.histograms.at("h.one").count, 1u);
}

TEST(MetricsRegistry, PrometheusExportShape) {
  MetricsRegistry reg;
  reg.GetCounter("cache.lookups")->Add(12);
  reg.GetGauge("inflight.peak")->Set(4);
  Histogram* h = reg.GetHistogram("disk.read_ns");
  h->Record(3);
  h->Record(700);
  const std::string out = reg.ExportPrometheus();
  EXPECT_NE(out.find("# TYPE chunkcache_cache_lookups counter"),
            std::string::npos);
  EXPECT_NE(out.find("chunkcache_cache_lookups 12"), std::string::npos);
  EXPECT_NE(out.find("# TYPE chunkcache_inflight_peak gauge"),
            std::string::npos);
  EXPECT_NE(out.find("chunkcache_inflight_peak 4"), std::string::npos);
  EXPECT_NE(out.find("# TYPE chunkcache_disk_read_ns histogram"),
            std::string::npos);
  // Cumulative buckets end at +Inf with the total count.
  EXPECT_NE(out.find("chunkcache_disk_read_ns_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(out.find("chunkcache_disk_read_ns_sum 703"), std::string::npos);
  EXPECT_NE(out.find("chunkcache_disk_read_ns_count 2"), std::string::npos);
}

TEST(MetricsRegistry, JsonExportShape) {
  MetricsRegistry reg;
  reg.GetCounter("c")->Add(1);
  reg.GetGauge("g")->Set(2);
  reg.GetHistogram("h")->Record(9);
  const std::string out = reg.ExportJson();
  EXPECT_EQ(out.front(), '{');
  EXPECT_EQ(out.back(), '}');
  EXPECT_NE(out.find("\"counters\": {\"c\": 1}"), std::string::npos);
  EXPECT_NE(out.find("\"gauges\": {\"g\": 2}"), std::string::npos);
  EXPECT_NE(out.find("\"count\": 1"), std::string::npos);
  EXPECT_NE(out.find("\"p50\":"), std::string::npos);
}

TEST(MetricsRegistry, ConcurrentRegistrationAndRecordingIsSafe) {
  // Threads race to register the same names and record through whatever
  // pointer they get; totals must still be exact (TSAN-clean).
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr uint64_t kOps = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      Counter* c = reg.GetCounter("shared.counter");
      Histogram* h = reg.GetHistogram("shared.hist");
      for (uint64_t i = 0; i < kOps; ++i) {
        c->Increment();
        h->Record(i);
      }
    });
  }
  for (auto& th : threads) th.join();
  const MetricsRegistry::Snapshot snap = reg.TakeSnapshot();
  EXPECT_EQ(snap.counter("shared.counter"), kThreads * kOps);
  EXPECT_EQ(snap.histograms.at("shared.hist").count, kThreads * kOps);
}

}  // namespace
}  // namespace chunkcache
