#include "storage/agg_columns.h"

#include <algorithm>
#include <numeric>

namespace chunkcache::storage {

void AggColumns::Reserve(size_t n) {
  for (uint32_t d = 0; d < num_dims_; ++d) coords_[d].reserve(n);
  sum_.reserve(n);
  count_.reserve(n);
  min_.reserve(n);
  max_.reserve(n);
}

void AggColumns::Clear() {
  for (uint32_t d = 0; d < num_dims_; ++d) coords_[d].clear();
  sum_.clear();
  count_.clear();
  min_.clear();
  max_.clear();
}

void AggColumns::PushRow(const AggTuple& row) {
  for (uint32_t d = 0; d < num_dims_; ++d) {
    coords_[d].push_back(row.coords[d]);
  }
  sum_.push_back(row.sum);
  count_.push_back(row.count);
  min_.push_back(row.min_v);
  max_.push_back(row.max_v);
}

void AggColumns::PushCell(const uint32_t* coords, double sum, uint64_t count,
                          double min_v, double max_v) {
  for (uint32_t d = 0; d < num_dims_; ++d) coords_[d].push_back(coords[d]);
  sum_.push_back(sum);
  count_.push_back(count);
  min_.push_back(min_v);
  max_.push_back(max_v);
}

AggTuple AggColumns::RowAt(size_t i) const {
  CHUNKCACHE_DCHECK(i < size());
  AggTuple row;
  for (uint32_t d = 0; d < num_dims_; ++d) row.coords[d] = coords_[d][i];
  row.sum = sum_[i];
  row.count = count_[i];
  row.min_v = min_[i];
  row.max_v = max_[i];
  return row;
}

void AggColumns::SortRowMajor() {
  const size_t n = size();
  if (n < 2) return;
  std::vector<uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  std::sort(perm.begin(), perm.end(), [&](uint32_t a, uint32_t b) {
    for (uint32_t d = 0; d < num_dims_; ++d) {
      if (coords_[d][a] != coords_[d][b]) {
        return coords_[d][a] < coords_[d][b];
      }
    }
    return false;
  });
  const auto apply = [&](auto& col) {
    using Col = std::remove_reference_t<decltype(col)>;
    Col next(n);
    for (size_t i = 0; i < n; ++i) next[i] = col[perm[i]];
    col = std::move(next);
  };
  for (uint32_t d = 0; d < num_dims_; ++d) apply(coords_[d]);
  apply(sum_);
  apply(count_);
  apply(min_);
  apply(max_);
}

bool operator==(const AggColumns& a, const AggColumns& b) {
  if (a.num_dims_ != b.num_dims_ || a.size() != b.size()) return false;
  for (uint32_t d = 0; d < a.num_dims_; ++d) {
    if (a.coords_[d] != b.coords_[d]) return false;
  }
  return a.sum_ == b.sum_ && a.count_ == b.count_ && a.min_ == b.min_ &&
         a.max_ == b.max_;
}

}  // namespace chunkcache::storage
