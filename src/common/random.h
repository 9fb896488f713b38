#ifndef CHUNKCACHE_COMMON_RANDOM_H_
#define CHUNKCACHE_COMMON_RANDOM_H_

#include <cstdint>

#include "common/logging.h"

namespace chunkcache {

/// Deterministic, fast pseudo-random generator (xoshiro256**). All data
/// generation and workload generation in this repository seeds one of these
/// explicitly so experiments are exactly reproducible run to run.
class Random {
 public:
  explicit Random(uint64_t seed) {
    // SplitMix64 seeding, so nearby seeds give unrelated streams.
    uint64_t x = seed + 0x9E3779B97F4A7C15ULL;
    for (auto& s : state_) {
      x += 0x9E3779B97F4A7C15ULL;
      uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
      s = z ^ (z >> 31);
    }
  }

  /// Next raw 64-bit value.
  uint64_t Next64() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, n). `n` must be > 0.
  uint64_t Uniform(uint64_t n) {
    CHUNKCACHE_DCHECK(n > 0);
    // Lemire's nearly-divisionless bounded generation would be overkill;
    // modulo bias is negligible for the ranges used here (<< 2^32).
    return Next64() % n;
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(Next64() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli draw with success probability `p`.
  bool Bernoulli(double p) { return NextDouble() < p; }

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t state_[4];
};

}  // namespace chunkcache

#endif  // CHUNKCACHE_COMMON_RANDOM_H_
