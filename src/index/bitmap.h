#ifndef CHUNKCACHE_INDEX_BITMAP_H_
#define CHUNKCACHE_INDEX_BITMAP_H_

#include <bit>
#include <cstdint>
#include <vector>

#include "common/bit_util.h"
#include "common/logging.h"
#include "common/simd.h"

namespace chunkcache::index {

/// In-memory bitset over row ids, the working representation for bitmap
/// query evaluation (result of reading one or more stored bitmaps and
/// combining them with AND/OR).
class Bitmap {
 public:
  Bitmap() = default;
  explicit Bitmap(uint64_t num_bits)
      : num_bits_(num_bits), words_(bit_util::WordsForBits(num_bits), 0) {}

  uint64_t num_bits() const { return num_bits_; }

  void Set(uint64_t i) {
    CHUNKCACHE_DCHECK(i < num_bits_);
    bit_util::SetBit(words_.data(), i);
  }
  void Clear(uint64_t i) {
    CHUNKCACHE_DCHECK(i < num_bits_);
    bit_util::ClearBit(words_.data(), i);
  }
  bool Get(uint64_t i) const {
    CHUNKCACHE_DCHECK(i < num_bits_);
    return bit_util::GetBit(words_.data(), i);
  }

  /// this &= other. Sizes must match.
  void And(const Bitmap& other) {
    CHUNKCACHE_DCHECK(num_bits_ == other.num_bits_);
    simd::AndWords(words_.data(), other.words_.data(), words_.size());
  }

  /// this |= other. Sizes must match.
  void Or(const Bitmap& other) {
    CHUNKCACHE_DCHECK(num_bits_ == other.num_bits_);
    simd::OrWords(words_.data(), other.words_.data(), words_.size());
  }

  /// Number of set bits.
  uint64_t CountSet() const {
    return simd::PopcountWords(words_.data(), words_.size());
  }

  /// Calls `fn(i)` for each set bit in ascending order. Templated over the
  /// callback so the call inlines (a std::function here allocated and
  /// blocked inlining in the selection hot path); skips all-zero 4-word
  /// blocks, the common case in sparse selection bitmaps.
  template <typename Fn>
  void ForEachSet(Fn&& fn) const {
    const uint64_t* w = words_.data();
    const size_t nw = words_.size();
    size_t wi = 0;
    while (wi + 4 <= nw) {
      if ((w[wi] | w[wi + 1] | w[wi + 2] | w[wi + 3]) == 0) {
        wi += 4;
        continue;
      }
      for (size_t j = wi; j < wi + 4; ++j) ForEachInWord(w[j], j, fn);
      wi += 4;
    }
    for (; wi < nw; ++wi) ForEachInWord(w[wi], wi, fn);
  }

  /// Set bits as a sorted vector (row ids).
  std::vector<uint64_t> ToVector() const {
    std::vector<uint64_t> out;
    out.reserve(CountSet());
    ForEachSet([&out](uint64_t i) { out.push_back(i); });
    return out;
  }

  /// Raw word access for (de)serialization.
  uint64_t* words() { return words_.data(); }
  const uint64_t* words() const { return words_.data(); }
  size_t num_words() const { return words_.size(); }

 private:
  template <typename Fn>
  static void ForEachInWord(uint64_t word, size_t wi, Fn&& fn) {
    while (word != 0) {
      const int bit = std::countr_zero(word);
      fn(static_cast<uint64_t>(wi) * 64 + bit);
      word &= word - 1;
    }
  }

  uint64_t num_bits_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace chunkcache::index

#endif  // CHUNKCACHE_INDEX_BITMAP_H_
