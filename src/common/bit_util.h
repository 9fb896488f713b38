#ifndef CHUNKCACHE_COMMON_BIT_UTIL_H_
#define CHUNKCACHE_COMMON_BIT_UTIL_H_

#include <cstdint>

namespace chunkcache::bit_util {

/// Number of 64-bit words needed to hold `bits` bits.
constexpr uint64_t WordsForBits(uint64_t bits) { return (bits + 63) / 64; }

/// Tests bit `i` of the word array `words`.
inline bool GetBit(const uint64_t* words, uint64_t i) {
  return (words[i >> 6] >> (i & 63)) & 1;
}

/// Sets bit `i` of `words`.
inline void SetBit(uint64_t* words, uint64_t i) {
  words[i >> 6] |= uint64_t{1} << (i & 63);
}

/// Clears bit `i` of `words`.
inline void ClearBit(uint64_t* words, uint64_t i) {
  words[i >> 6] &= ~(uint64_t{1} << (i & 63));
}

}  // namespace chunkcache::bit_util

#endif  // CHUNKCACHE_COMMON_BIT_UTIL_H_
