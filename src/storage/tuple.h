#ifndef CHUNKCACHE_STORAGE_TUPLE_H_
#define CHUNKCACHE_STORAGE_TUPLE_H_

#include <array>
#include <cstdint>
#include <cstring>

#include "common/logging.h"

namespace chunkcache::storage {

/// Upper bound on dimensions per fact table. The paper uses 4; eight leaves
/// room without heap allocation per tuple.
inline constexpr uint32_t kMaxDims = 8;

/// Describes the fixed-length record layout of a fact table: `num_dims`
/// 32-bit dimension-key ordinals followed by one 64-bit measure.
struct TupleDesc {
  uint32_t num_dims = 0;

  uint32_t RecordSize() const { return num_dims * 4 + 8; }

  friend bool operator==(const TupleDesc& a, const TupleDesc& b) {
    return a.num_dims == b.num_dims;
  }
};

/// One fact tuple in memory. `keys[i]` is the *base-level ordinal* of the
/// tuple's member on dimension i (the Domain Index maps real values to these
/// ordinals at load time), `measure` the additive measure (dollar sales).
struct Tuple {
  std::array<uint32_t, kMaxDims> keys{};
  double measure = 0;

  /// Serializes into `dst` (must hold desc.RecordSize() bytes).
  void Serialize(const TupleDesc& desc, uint8_t* dst) const {
    std::memcpy(dst, keys.data(), desc.num_dims * 4);
    std::memcpy(dst + desc.num_dims * 4, &measure, 8);
  }

  /// Deserializes from `src`.
  void Deserialize(const TupleDesc& desc, const uint8_t* src) {
    CHUNKCACHE_DCHECK(desc.num_dims <= kMaxDims);
    std::memcpy(keys.data(), src, desc.num_dims * 4);
    std::memcpy(&measure, src + desc.num_dims * 4, 8);
  }
};

/// One row of an aggregated (group-by) result. `coords[i]` is the ordinal of
/// the group on dimension i *at the query's aggregation level* (0 for a
/// dimension aggregated away). Every row carries SUM, COUNT, MIN and MAX of
/// the measure: all four are re-aggregable (min of mins, etc.), so the
/// closure property holds for them and AVG derives as SUM/COUNT.
struct AggTuple {
  std::array<uint32_t, kMaxDims> coords{};
  double sum = 0;
  uint64_t count = 0;
  double min_v = 0;
  double max_v = 0;

  /// Folds one base measure into this cell.
  void FoldMeasure(double measure) {
    if (count == 0) {
      min_v = max_v = measure;
    } else {
      if (measure < min_v) min_v = measure;
      if (measure > max_v) max_v = measure;
    }
    sum += measure;
    count += 1;
  }

  /// Folds another (finer) aggregate row into this cell; `other` must be
  /// non-empty.
  void FoldRow(const AggTuple& other) {
    if (count == 0) {
      min_v = other.min_v;
      max_v = other.max_v;
    } else {
      if (other.min_v < min_v) min_v = other.min_v;
      if (other.max_v > max_v) max_v = other.max_v;
    }
    sum += other.sum;
    count += other.count;
  }
};

}  // namespace chunkcache::storage

#endif  // CHUNKCACHE_STORAGE_TUPLE_H_
