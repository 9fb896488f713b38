#ifndef CHUNKCACHE_COMMON_METRICS_H_
#define CHUNKCACHE_COMMON_METRICS_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace chunkcache {

/// Naming convention (enforced only by review): lowercase dotted paths,
/// `<subsystem>.<noun>[_<unit>]` — e.g. "cache.lookups", "disk.read_ns",
/// "query.latency_ns". The Prometheus exporter prefixes "chunkcache_" and
/// maps '.'/'-' to '_'.
namespace metrics_internal {

/// Stripes per hot metric. Threads are assigned stripes round-robin, so
/// concurrent recorders land on different cache lines; snapshots fold all
/// stripes. Power of two.
inline constexpr uint32_t kStripes = 16;

/// Round-robin per-thread stripe index (stable for a thread's lifetime).
uint32_t ThisThreadStripe();

struct alignas(64) PaddedU64 {
  std::atomic<uint64_t> v{0};
};

}  // namespace metrics_internal

/// Monotonically increasing event count. The hot path is one relaxed
/// fetch_add on a per-thread stripe — lock-free and contention-free; the
/// exact total is folded on Value()/snapshot. Pointers returned by the
/// registry are stable for the registry's lifetime, so callers cache them
/// at construction and never touch the registry lock again.
class Counter {
 public:
  explicit Counter(std::string name) : name_(std::move(name)) {}

  void Add(uint64_t n) {
    stripes_[metrics_internal::ThisThreadStripe() &
             (metrics_internal::kStripes - 1)]
        .v.fetch_add(n, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }

  /// Folded total. Exact once recorders have quiesced; concurrent with
  /// recording it is a monotonic lower bound that includes every add that
  /// happened-before the call (each stripe is read atomically — no torn
  /// 32/32 reads, unlike the plain uint64 fields this class replaced).
  uint64_t Value() const {
    uint64_t total = 0;
    for (const auto& s : stripes_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

  const std::string& name() const { return name_; }

 private:
  std::string name_;
  std::array<metrics_internal::PaddedU64, metrics_internal::kStripes> stripes_;
};

/// Point-in-time signed level (bytes in use, open batches, ...). Gauges are
/// set from slow paths (snapshots, admission decisions under a lock), so a
/// single atomic suffices.
class Gauge {
 public:
  explicit Gauge(std::string name) : name_(std::move(name)) {}

  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }

  /// Raises the gauge to `v` if above the current value (high-water marks).
  void SetMax(int64_t v) {
    int64_t cur = value_.load(std::memory_order_relaxed);
    while (cur < v &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  const std::string& name() const { return name_; }

 private:
  std::string name_;
  std::atomic<int64_t> value_{0};
};

/// Fixed log-scale bucket layout shared by Histogram and its snapshots:
/// bucket 0 holds the value 0, bucket b (1..64) holds values v with
/// bit_width(v) == b, i.e. the half-open range [2^(b-1), 2^b). Log-scale
/// buckets bound every quantile estimate to within one power-of-two bucket
/// of the exact quantile while keeping the footprint fixed.
inline constexpr size_t kHistogramBuckets = 65;

inline size_t HistogramBucketOf(uint64_t v) {
  return static_cast<size_t>(std::bit_width(v));  // bit_width(0) == 0
}

/// Inclusive upper bound of bucket `b` (0, 1, 3, 7, 15, ...).
inline uint64_t HistogramBucketUpper(size_t b) {
  if (b == 0) return 0;
  if (b >= 64) return ~uint64_t{0};
  return (uint64_t{1} << b) - 1;
}

/// Folded, immutable view of a histogram.
struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t min = 0;  ///< 0 when empty.
  uint64_t max = 0;
  std::array<uint64_t, kHistogramBuckets> buckets{};

  double Mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }

  /// Estimate of the q-quantile (q in [0,1]): the upper bound of the bucket
  /// holding the rank, clamped to [min, max]. The exact quantile lies in
  /// the same bucket, so the estimate is never below it and never more than
  /// one bucket (2x) above it.
  double Quantile(double q) const;
};

/// Fixed-bucket log-scale histogram with the same striped lock-free hot
/// path as Counter: Record is three relaxed atomic ops (bucket, count sum)
/// plus two bounded CAS loops for min/max on the thread's own stripe.
class Histogram {
 public:
  explicit Histogram(std::string name) : name_(std::move(name)) {}

  void Record(uint64_t v);
  HistogramSnapshot Snapshot() const;
  void Reset();
  const std::string& name() const { return name_; }

 private:
  /// Histograms carry 65 buckets per stripe, so they use fewer stripes
  /// than counters; 8 stripes * 68 words is ~4 KiB per histogram.
  static constexpr uint32_t kHistStripes = 8;

  struct alignas(64) Stripe {
    std::array<std::atomic<uint64_t>, kHistogramBuckets> buckets{};
    std::atomic<uint64_t> sum{0};
    std::atomic<uint64_t> min{~uint64_t{0}};
    std::atomic<uint64_t> max{0};
  };

  std::string name_;
  std::array<Stripe, kHistStripes> stripes_;
};

/// Named registry of counters, gauges and histograms — the single home for
/// every statistic the middle tier exposes. Get* registers on first use and
/// returns a stable pointer (metrics are never removed); the mutex guards
/// only registration and snapshotting, never the recording hot path.
///
/// Scoping: components default to a private registry per instance so their
/// stats stay attributable; passing one shared registry to every component
/// of a deployment yields one process-wide export, Prometheus-style.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  /// Folded point-in-time view of every registered metric, keyed by name.
  /// Each value is individually exact/atomic; the snapshot as a whole is
  /// assembled metric by metric (see DESIGN.md §10 on what that means for
  /// cross-metric invariants).
  struct Snapshot {
    std::map<std::string, uint64_t> counters;
    std::map<std::string, int64_t> gauges;
    std::map<std::string, HistogramSnapshot> histograms;

    uint64_t counter(const std::string& name) const {
      auto it = counters.find(name);
      return it == counters.end() ? 0 : it->second;
    }
    int64_t gauge(const std::string& name) const {
      auto it = gauges.find(name);
      return it == gauges.end() ? 0 : it->second;
    }
  };
  Snapshot TakeSnapshot() const;

  /// Prometheus text exposition: `chunkcache_<name>` lines, histograms as
  /// cumulative `_bucket{le="..."}` series plus `_sum`/`_count`.
  std::string ExportPrometheus() const;

  /// One JSON object: {"counters": {...}, "gauges": {...},
  /// "histograms": {name: {count, sum, min, max, mean, p50, p95, p99}}}.
  std::string ExportJson() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace chunkcache

#endif  // CHUNKCACHE_COMMON_METRICS_H_
