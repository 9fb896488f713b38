#include "common/simd.h"

#include <bit>
#include <cstdlib>
#include <cstring>

#if CHUNKCACHE_SIMD_X86_64
#include <immintrin.h>
#endif

namespace chunkcache::simd {

namespace {

// ---------------------------------------------------------------------------
// Scalar word kernels — byte-for-byte the loops Bitmap used before dispatch
// existed; they stay the ablation baseline for CHUNKCACHE_SIMD=scalar.
// ---------------------------------------------------------------------------

void AndWordsScalar(uint64_t* dst, const uint64_t* src, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] &= src[i];
}

void OrWordsScalar(uint64_t* dst, const uint64_t* src, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] |= src[i];
}

uint64_t PopcountWordsScalar(const uint64_t* w, size_t n) {
  uint64_t total = 0;
  for (size_t i = 0; i < n; ++i) total += std::popcount(w[i]);
  return total;
}

#if CHUNKCACHE_SIMD_X86_64

__attribute__((target("avx2"))) void AndWordsAvx2(uint64_t* dst,
                                                  const uint64_t* src,
                                                  size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256i a0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    __m256i a1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i + 4));
    __m256i b0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    __m256i b1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i + 4));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_and_si256(a0, b0));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i + 4),
                        _mm256_and_si256(a1, b1));
  }
  for (; i < n; ++i) dst[i] &= src[i];
}

__attribute__((target("avx2"))) void OrWordsAvx2(uint64_t* dst,
                                                 const uint64_t* src,
                                                 size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256i a0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    __m256i a1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i + 4));
    __m256i b0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    __m256i b1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i + 4));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_or_si256(a0, b0));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i + 4),
                        _mm256_or_si256(a1, b1));
  }
  for (; i < n; ++i) dst[i] |= src[i];
}

/// Nibble-LUT popcount (vpshufb) folded into 64-bit lanes via vpsadbw.
__attribute__((target("avx2"))) uint64_t PopcountWordsAvx2(const uint64_t* w,
                                                           size_t n) {
  const __m256i lut = _mm256_setr_epi8(
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,  //
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i zero = _mm256_setzero_si256();
  __m256i acc = zero;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + i));
    __m256i lo = _mm256_and_si256(v, low_mask);
    __m256i hi = _mm256_and_si256(_mm256_srli_epi32(v, 4), low_mask);
    __m256i cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                  _mm256_shuffle_epi8(lut, hi));
    acc = _mm256_add_epi64(acc, _mm256_sad_epu8(cnt, zero));
  }
  alignas(32) uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  uint64_t total = lanes[0] + lanes[1] + lanes[2] + lanes[3];
  for (; i < n; ++i) total += std::popcount(w[i]);
  return total;
}

#endif  // CHUNKCACHE_SIMD_X86_64

IsaLevel ParseOverride(const char* s, IsaLevel fallback) {
  if (s == nullptr) return fallback;
  if (std::strcmp(s, "scalar") == 0) return IsaLevel::kScalar;
  if (std::strcmp(s, "avx2") == 0) return IsaLevel::kAvx2;
  return fallback;  // unknown values keep the detected level
}

std::atomic<IsaLevel>& ActiveLevelCell() {
  static std::atomic<IsaLevel> level{[] {
    IsaLevel detected = DetectedLevel();
    IsaLevel wanted = ParseOverride(std::getenv("CHUNKCACHE_SIMD"), detected);
    return wanted <= detected ? wanted : detected;
  }()};
  return level;
}

void BindKernels(WordKernels& k, IsaLevel level) {
#if CHUNKCACHE_SIMD_X86_64
  if (level == IsaLevel::kAvx2) {
    k.and_words.store(&AndWordsAvx2, std::memory_order_relaxed);
    k.or_words.store(&OrWordsAvx2, std::memory_order_relaxed);
    k.popcount_words.store(&PopcountWordsAvx2, std::memory_order_relaxed);
    return;
  }
#else
  (void)level;
#endif
  k.and_words.store(&AndWordsScalar, std::memory_order_relaxed);
  k.or_words.store(&OrWordsScalar, std::memory_order_relaxed);
  k.popcount_words.store(&PopcountWordsScalar, std::memory_order_relaxed);
}

}  // namespace

const char* IsaLevelName(IsaLevel level) {
  switch (level) {
    case IsaLevel::kScalar:
      return "scalar";
    case IsaLevel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

IsaLevel DetectedLevel() {
#if CHUNKCACHE_SIMD_X86_64
  static const IsaLevel detected = __builtin_cpu_supports("avx2") != 0
                                       ? IsaLevel::kAvx2
                                       : IsaLevel::kScalar;
  return detected;
#else
  return IsaLevel::kScalar;
#endif
}

const char* OverrideName() {
  static const char* name = [] {
    const char* s = std::getenv("CHUNKCACHE_SIMD");
    if (s == nullptr) return "none";
    if (std::strcmp(s, "scalar") == 0) return "scalar";
    if (std::strcmp(s, "avx2") == 0) return "avx2";
    return "invalid";
  }();
  return name;
}

IsaLevel ActiveLevel() {
  return ActiveLevelCell().load(std::memory_order_relaxed);
}

WordKernels& Words() {
  // Atomics are not movable, so bind-in-place on first use.
  static WordKernels kernels;
  static const bool bound = [] {
    BindKernels(kernels, ActiveLevel());
    return true;
  }();
  (void)bound;
  return kernels;
}

void SetActiveLevel(IsaLevel level) {
  IsaLevel detected = DetectedLevel();
  if (level > detected) level = detected;
  ActiveLevelCell().store(level, std::memory_order_relaxed);
  BindKernels(Words(), level);
}

}  // namespace chunkcache::simd
