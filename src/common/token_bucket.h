#ifndef CHUNKCACHE_COMMON_TOKEN_BUCKET_H_
#define CHUNKCACHE_COMMON_TOKEN_BUCKET_H_

#include <algorithm>
#include <cstdint>

namespace chunkcache {

/// Deterministic token bucket: `rate_per_sec` tokens accrue continuously up
/// to a cap of `burst`; TryAcquire succeeds while at least `cost` tokens are
/// banked. Time is an explicit nanosecond argument rather than an internal
/// clock read, so admission decisions are exactly reproducible in tests
/// (feed a synthetic clock) and the caller controls which clock the server
/// runs on (steady_clock — wall adjustments must not mint tokens).
///
/// Not thread-safe by itself; callers serialize access (the admission
/// controller holds its buckets under one mutex).
class TokenBucket {
 public:
  /// rate_per_sec <= 0 means unlimited: every TryAcquire succeeds.
  TokenBucket(double rate_per_sec, double burst)
      : rate_(rate_per_sec), burst_(burst < 1.0 ? 1.0 : burst),
        tokens_(burst_) {}

  bool TryAcquire(uint64_t now_ns, double cost = 1.0) {
    if (rate_ <= 0.0) return true;
    Refill(now_ns);
    if (tokens_ < cost) return false;
    tokens_ -= cost;
    return true;
  }

 private:
  void Refill(uint64_t now_ns) {
    // Out-of-order timestamps (two threads read the clock, then contend on
    // the admission mutex in the other order) must not mint tokens or move
    // time backwards.
    if (now_ns <= last_ns_) return;
    const double elapsed_s = static_cast<double>(now_ns - last_ns_) * 1e-9;
    tokens_ = std::min(burst_, tokens_ + elapsed_s * rate_);
    last_ns_ = now_ns;
  }

  double rate_;
  double burst_;
  double tokens_;
  uint64_t last_ns_ = 0;
};

}  // namespace chunkcache

#endif  // CHUNKCACHE_COMMON_TOKEN_BUCKET_H_
