#include "common/metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>

namespace chunkcache {

namespace metrics_internal {

uint32_t ThisThreadStripe() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t stripe =
      next.fetch_add(1, std::memory_order_relaxed);
  return stripe;
}

}  // namespace metrics_internal

// ---------------------------------------------------------------------------
// HistogramSnapshot
// ---------------------------------------------------------------------------

double HistogramSnapshot::Quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the q-quantile in the recorded population (nearest-rank on a
  // zero-based index, like std::nth_element on the sorted stream).
  const uint64_t rank = static_cast<uint64_t>(
      q * static_cast<double>(count - 1));
  uint64_t cum = 0;
  for (size_t b = 0; b < kHistogramBuckets; ++b) {
    cum += buckets[b];
    if (cum > rank) {
      const uint64_t upper = HistogramBucketUpper(b);
      return static_cast<double>(
          std::clamp<uint64_t>(upper, min, max));
    }
  }
  return static_cast<double>(max);  // unreachable when counts are consistent
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

void Histogram::Record(uint64_t v) {
  Stripe& s = stripes_[metrics_internal::ThisThreadStripe() &
                       (kHistStripes - 1)];
  s.buckets[HistogramBucketOf(v)].fetch_add(1, std::memory_order_relaxed);
  s.sum.fetch_add(v, std::memory_order_relaxed);
  uint64_t cur = s.min.load(std::memory_order_relaxed);
  while (v < cur &&
         !s.min.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
  cur = s.max.load(std::memory_order_relaxed);
  while (v > cur &&
         !s.max.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot out;
  uint64_t min = ~uint64_t{0};
  for (const Stripe& s : stripes_) {
    for (size_t b = 0; b < kHistogramBuckets; ++b) {
      const uint64_t n = s.buckets[b].load(std::memory_order_relaxed);
      out.buckets[b] += n;
      out.count += n;
    }
    out.sum += s.sum.load(std::memory_order_relaxed);
    min = std::min(min, s.min.load(std::memory_order_relaxed));
    out.max = std::max(out.max, s.max.load(std::memory_order_relaxed));
  }
  out.min = out.count == 0 ? 0 : min;
  if (out.count == 0) out.max = 0;
  return out;
}

void Histogram::Reset() {
  for (Stripe& s : stripes_) {
    for (auto& b : s.buckets) b.store(0, std::memory_order_relaxed);
    s.sum.store(0, std::memory_order_relaxed);
    s.min.store(~uint64_t{0}, std::memory_order_relaxed);
    s.max.store(0, std::memory_order_relaxed);
  }
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>(name);
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>(name);
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>(name);
  return slot.get();
}

MetricsRegistry::Snapshot MetricsRegistry::TakeSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot snap;
  for (const auto& [name, c] : counters_) snap.counters[name] = c->Value();
  for (const auto& [name, g] : gauges_) snap.gauges[name] = g->Value();
  for (const auto& [name, h] : histograms_) {
    snap.histograms[name] = h->Snapshot();
  }
  return snap;
}

namespace {

std::string PromName(const std::string& name) {
  std::string out = "chunkcache_";
  for (char c : name) {
    out.push_back((c == '.' || c == '-') ? '_' : c);
  }
  return out;
}

void AppendF(std::string* out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void AppendF(std::string* out, const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  const int n = vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  out->append(buf, std::min<size_t>(static_cast<size_t>(n), sizeof(buf) - 1));
}

}  // namespace

std::string MetricsRegistry::ExportPrometheus() const {
  const Snapshot snap = TakeSnapshot();
  std::string out;
  for (const auto& [name, v] : snap.counters) {
    const std::string p = PromName(name);
    AppendF(&out, "# TYPE %s counter\n%s %" PRIu64 "\n", p.c_str(), p.c_str(),
            v);
  }
  for (const auto& [name, v] : snap.gauges) {
    const std::string p = PromName(name);
    AppendF(&out, "# TYPE %s gauge\n%s %" PRId64 "\n", p.c_str(), p.c_str(),
            v);
  }
  for (const auto& [name, h] : snap.histograms) {
    const std::string p = PromName(name);
    AppendF(&out, "# TYPE %s histogram\n", p.c_str());
    // Cumulative buckets up to the last non-empty one, then +Inf.
    size_t last = 0;
    for (size_t b = 0; b < kHistogramBuckets; ++b) {
      if (h.buckets[b] != 0) last = b;
    }
    uint64_t cum = 0;
    for (size_t b = 0; b <= last; ++b) {
      cum += h.buckets[b];
      AppendF(&out, "%s_bucket{le=\"%" PRIu64 "\"} %" PRIu64 "\n", p.c_str(),
              HistogramBucketUpper(b), cum);
    }
    AppendF(&out, "%s_bucket{le=\"+Inf\"} %" PRIu64 "\n", p.c_str(), h.count);
    AppendF(&out, "%s_sum %" PRIu64 "\n", p.c_str(), h.sum);
    AppendF(&out, "%s_count %" PRIu64 "\n", p.c_str(), h.count);
  }
  return out;
}

std::string MetricsRegistry::ExportJson() const {
  const Snapshot snap = TakeSnapshot();
  std::string out = "{\"counters\": {";
  bool first = true;
  for (const auto& [name, v] : snap.counters) {
    AppendF(&out, "%s\"%s\": %" PRIu64, first ? "" : ", ", name.c_str(), v);
    first = false;
  }
  out += "}, \"gauges\": {";
  first = true;
  for (const auto& [name, v] : snap.gauges) {
    AppendF(&out, "%s\"%s\": %" PRId64, first ? "" : ", ", name.c_str(), v);
    first = false;
  }
  out += "}, \"histograms\": {";
  first = true;
  for (const auto& [name, h] : snap.histograms) {
    AppendF(&out,
            "%s\"%s\": {\"count\": %" PRIu64 ", \"sum\": %" PRIu64
            ", \"min\": %" PRIu64 ", \"max\": %" PRIu64
            ", \"mean\": %.3f, \"p50\": %.0f, \"p95\": %.0f, \"p99\": %.0f}",
            first ? "" : ", ", name.c_str(), h.count, h.sum, h.min, h.max,
            h.Mean(), h.Quantile(0.5), h.Quantile(0.95), h.Quantile(0.99));
    first = false;
  }
  out += "}}";
  return out;
}

}  // namespace chunkcache
