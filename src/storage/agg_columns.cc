#include "storage/agg_columns.h"

#include <algorithm>
#include <cstring>
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

std::vector<AggTuple> AggColumns::ToRows() const {
  std::vector<AggTuple> rows;
  rows.reserve(size());
  for (size_t i = 0; i < size(); ++i) rows.push_back(RowAt(i));
  return rows;
}

AggColumns AggColumns::FromRows(const std::vector<AggTuple>& rows,
                                uint32_t num_dims) {
  AggColumns cols(num_dims);
  cols.Reserve(rows.size());
  for (const AggTuple& row : rows) cols.PushRow(row);
  return cols;
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

namespace {

template <typename T>
void AppendBytes(std::vector<uint8_t>* out, const T* data, size_t n) {
  if (n == 0) return;  // empty vectors may hand us data() == nullptr
  const size_t at = out->size();
  out->resize(at + n * sizeof(T));
  std::memcpy(out->data() + at, data, n * sizeof(T));
}

template <typename T>
bool ReadBytes(const uint8_t*& p, const uint8_t* end, T* data, size_t n) {
  if (static_cast<size_t>(end - p) < n * sizeof(T)) return false;
  if (n == 0) return true;
  std::memcpy(data, p, n * sizeof(T));
  p += n * sizeof(T);
  return true;
}

}  // namespace

void AggColumns::SerializeTo(std::vector<uint8_t>* out) const {
  const uint64_t header[2] = {num_dims_, size()};
  AppendBytes(out, header, 2);
  for (uint32_t d = 0; d < num_dims_; ++d) {
    AppendBytes(out, coords_[d].data(), coords_[d].size());
  }
  AppendBytes(out, sum_.data(), sum_.size());
  AppendBytes(out, count_.data(), count_.size());
  AppendBytes(out, min_.data(), min_.size());
  AppendBytes(out, max_.data(), max_.size());
}

Result<AggColumns> AggColumns::Deserialize(const uint8_t* data, size_t len) {
  const uint8_t* p = data;
  const uint8_t* end = data + len;
  uint64_t header[2];
  if (!ReadBytes(p, end, header, 2)) {
    return Status::Corruption("AggColumns: truncated header");
  }
  if (header[0] > kMaxDims) {
    return Status::Corruption("AggColumns: bad dimension count");
  }
  // Validate the claimed row count against the bytes actually present
  // BEFORE sizing any column: a corrupt header must never drive a huge
  // allocation or a partial read past the buffer.
  const uint64_t row_bytes = header[0] * 4 + 32;
  if (header[1] > (len - 16) / row_bytes) {
    return Status::Corruption("AggColumns: row count beyond input size");
  }
  AggColumns cols(static_cast<uint32_t>(header[0]));
  const size_t n = static_cast<size_t>(header[1]);
  bool ok = true;
  for (uint32_t d = 0; d < cols.num_dims_; ++d) {
    cols.coords_[d].resize(n);
    ok = ok && ReadBytes(p, end, cols.coords_[d].data(), n);
  }
  cols.sum_.resize(n);
  cols.count_.resize(n);
  cols.min_.resize(n);
  cols.max_.resize(n);
  ok = ok && ReadBytes(p, end, cols.sum_.data(), n) &&
       ReadBytes(p, end, cols.count_.data(), n) &&
       ReadBytes(p, end, cols.min_.data(), n) &&
       ReadBytes(p, end, cols.max_.data(), n);
  if (!ok) return Status::Corruption("AggColumns: truncated columns");
  // Snapshot records end where the columns do: anything after them is
  // damage, not data.
  if (p != end) return Status::Corruption("AggColumns: bytes past the columns");
  return cols;
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
