#ifndef CHUNKCACHE_STORAGE_AGG_COLUMNS_H_
#define CHUNKCACHE_STORAGE_AGG_COLUMNS_H_

#include <array>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "storage/tuple.h"

namespace chunkcache::storage {

/// Columnar (structure-of-arrays) container for aggregate rows — the
/// layout chunks are computed and scanned in. Where a std::vector<AggTuple>
/// pads every row to kMaxDims coordinates, AggColumns keeps one contiguous
/// uint32_t column per *active* dimension plus contiguous SUM / COUNT /
/// MIN / MAX measure columns, so per-chunk aggregation kernels stream over
/// flat arrays. The cache keeps a chunk as a storage::ChunkPayload built
/// from its columns.
///
/// Row i is the tuple (coords(0)[i], ..., coords(n-1)[i], sum[i],
/// count[i], min[i], max[i]). Rows have no inherent order; SortRowMajor
/// establishes the canonical row-major coordinate order used everywhere
/// rows used to be sorted with SortRows.
class AggColumns {
 public:
  AggColumns() = default;
  explicit AggColumns(uint32_t num_dims) : num_dims_(num_dims) {}

  uint32_t num_dims() const { return num_dims_; }
  size_t size() const { return sum_.size(); }
  bool empty() const { return sum_.empty(); }

  void Reserve(size_t n);
  void Clear();

  /// Appends one row (AoS -> SoA).
  void PushRow(const AggTuple& row);

  /// Appends one cell from raw parts; `coords` must hold num_dims values.
  void PushCell(const uint32_t* coords, double sum, uint64_t count,
                double min_v, double max_v);

  /// Materializes row `i` (SoA -> AoS).
  AggTuple RowAt(size_t i) const;

  std::vector<AggTuple> ToRows() const;
  static AggColumns FromRows(const std::vector<AggTuple>& rows,
                             uint32_t num_dims);

  const std::vector<uint32_t>& coords(uint32_t d) const { return coords_[d]; }
  const std::vector<double>& sums() const { return sum_; }
  const std::vector<uint64_t>& counts() const { return count_; }
  const std::vector<double>& mins() const { return min_; }
  const std::vector<double>& maxs() const { return max_; }

  /// Mutable column access for bulk decode (file scans). Callers must keep
  /// all active columns the same length.
  std::vector<uint32_t>* mutable_coords(uint32_t d) { return &coords_[d]; }
  std::vector<double>* mutable_sums() { return &sum_; }
  std::vector<uint64_t>* mutable_counts() { return &count_; }
  std::vector<double>* mutable_mins() { return &min_; }
  std::vector<double>* mutable_maxs() { return &max_; }

  /// Sorts rows into row-major coordinate order (dimension 0 outermost) —
  /// the canonical order SortRows defines for row vectors.
  void SortRowMajor();

  /// Flat little-endian serialization: header (num_dims, num_rows) then
  /// each coordinate column, then sum/count/min/max columns back to back.
  /// Appends to `out`. The cache's snapshot records hold these bytes.
  void SerializeTo(std::vector<uint8_t>* out) const;
  /// Parses exactly the bytes SerializeTo wrote: a truncated input, a
  /// header whose row count the input cannot hold, or bytes past the last
  /// column return Corruption.
  static Result<AggColumns> Deserialize(const uint8_t* data, size_t len);

  friend bool operator==(const AggColumns& a, const AggColumns& b);

 private:
  uint32_t num_dims_ = 0;
  std::array<std::vector<uint32_t>, kMaxDims> coords_{};
  std::vector<double> sum_;
  std::vector<uint64_t> count_;
  std::vector<double> min_;
  std::vector<double> max_;
};

/// Columnar batch of base fact tuples: per-dimension key columns plus the
/// measure column. Produced by FactFile::ScanRangeColumns so the dense
/// aggregation kernel consumes whole chunk runs as flat arrays.
struct TupleColumns {
  uint32_t num_dims = 0;
  std::array<std::vector<uint32_t>, kMaxDims> keys{};
  std::vector<double> measure;

  size_t size() const { return measure.size(); }
  bool empty() const { return measure.empty(); }

  void Clear() {
    for (uint32_t d = 0; d < num_dims; ++d) keys[d].clear();
    measure.clear();
  }

  void Reserve(size_t n) {
    for (uint32_t d = 0; d < num_dims; ++d) keys[d].reserve(n);
    measure.reserve(n);
  }

  void PushTuple(const Tuple& t) {
    for (uint32_t d = 0; d < num_dims; ++d) keys[d].push_back(t.keys[d]);
    measure.push_back(t.measure);
  }

  Tuple TupleAt(size_t i) const {
    Tuple t;
    for (uint32_t d = 0; d < num_dims; ++d) t.keys[d] = keys[d][i];
    t.measure = measure[i];
    return t;
  }
};

}  // namespace chunkcache::storage

#endif  // CHUNKCACHE_STORAGE_AGG_COLUMNS_H_
