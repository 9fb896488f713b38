#include "storage/chunk_payload.h"

#include <algorithm>
#include <limits>

namespace chunkcache::storage {

namespace {

/// True when row i's coordinates come strictly after row i-1's in
/// row-major order, for every row.
bool StrictlyRowMajor(const AggColumns& cols) {
  const uint32_t nd = cols.num_dims();
  for (size_t i = 1; i < cols.size(); ++i) {
    bool after = false;
    for (uint32_t d = 0; d < nd; ++d) {
      const uint32_t prev = cols.coords(d)[i - 1];
      const uint32_t cur = cols.coords(d)[i];
      if (cur != prev) {
        after = cur > prev;
        break;
      }
    }
    if (!after) return false;
  }
  return true;
}

}  // namespace

ChunkPayload::ChunkPayload(const AggColumns& cols) {
  const uint32_t nd = cols.num_dims();
  const size_t n = cols.size();
  CHUNKCACHE_CHECK(nd <= kMaxDims);
  CHUNKCACHE_CHECK(n <= std::numeric_limits<uint32_t>::max());

  // The rows' bounding box, and its cell count (saturating).
  std::array<uint32_t, kMaxDims> begin{};
  std::array<uint32_t, kMaxDims> width{};
  uint64_t cells = n == 0 ? 0 : 1;
  for (uint32_t d = 0; d < nd && n != 0; ++d) {
    const auto [lo, hi] =
        std::minmax_element(cols.coords(d).begin(), cols.coords(d).end());
    begin[d] = *lo;
    const uint64_t w = uint64_t{*hi} - *lo + 1;
    width[d] = static_cast<uint32_t>(w);
    cells = cells > std::numeric_limits<uint64_t>::max() / w
                ? std::numeric_limits<uint64_t>::max()
                : cells * w;
  }
  const bool bitmap =
      cells <= kMaxBitmapCellsPerRow * n && StrictlyRowMajor(cols);
  const bool wide = std::any_of(
      cols.counts().begin(), cols.counts().end(),
      [](uint64_t c) { return c > std::numeric_limits<uint32_t>::max(); });

  Header h;
  h.form = static_cast<uint8_t>(bitmap ? Form::kBitmap : Form::kSparse);
  h.num_dims = static_cast<uint8_t>(nd);
  h.wide_counts = wide ? 1 : 0;
  h.rows = static_cast<uint32_t>(n);
  const size_t coord_bytes =
      bitmap ? (cells + 63) / 64 * 8 : RoundUp8(size_t{4} * nd * n);
  const size_t sums_at = kHeaderBytes + 8 * size_t{nd} + coord_bytes;
  const size_t total = sums_at + 24 * n + CountBytes(h);

  data_.reset(new unsigned char[total]);
  unsigned char* p = data_.get();
  std::memset(p, 0, total);  // bitmap words and section padding
  std::memcpy(p, &h, kHeaderBytes);
  std::memcpy(p + kHeaderBytes, begin.data(), 4 * nd);
  std::memcpy(p + kHeaderBytes + 4 * nd, width.data(), 4 * nd);

  unsigned char* coords = p + kHeaderBytes + 8 * nd;
  if (bitmap) {
    // Row-major strides over the box; cells fits 64 bits here.
    std::array<uint64_t, kMaxDims> stride{};
    uint64_t s = 1;
    for (uint32_t d = nd; d-- > 0;) {
      stride[d] = s;
      s *= width[d];
    }
    for (size_t i = 0; i < n; ++i) {
      uint64_t cell = 0;
      for (uint32_t d = 0; d < nd; ++d) {
        cell += (cols.coords(d)[i] - begin[d]) * stride[d];
      }
      uint64_t word;
      std::memcpy(&word, coords + 8 * (cell / 64), 8);
      word |= uint64_t{1} << (cell % 64);
      std::memcpy(coords + 8 * (cell / 64), &word, 8);
    }
  } else {
    for (size_t i = 0; i < n; ++i) {
      for (uint32_t d = 0; d < nd; ++d) {
        const uint32_t rel = cols.coords(d)[i] - begin[d];
        std::memcpy(coords + 4 * (nd * i + d), &rel, 4);
      }
    }
  }

  unsigned char* sums = p + sums_at;
  unsigned char* counts = sums + 8 * n;
  unsigned char* mins = counts + CountBytes(h);
  unsigned char* maxs = mins + 8 * n;
  if (n != 0) {
    std::memcpy(sums, cols.sums().data(), 8 * n);
    std::memcpy(mins, cols.mins().data(), 8 * n);
    std::memcpy(maxs, cols.maxs().data(), 8 * n);
    if (wide) {
      std::memcpy(counts, cols.counts().data(), 8 * n);
    } else {
      for (size_t i = 0; i < n; ++i) {
        const uint32_t c = static_cast<uint32_t>(cols.counts()[i]);
        std::memcpy(counts + 4 * i, &c, 4);
      }
    }
  }
}

ChunkPayload ChunkPayload::Blob(uint32_t num_dims, size_t rows,
                                const uint8_t* data, size_t len) {
  CHUNKCACHE_CHECK(num_dims <= kMaxDims);
  CHUNKCACHE_CHECK(rows <= std::numeric_limits<uint32_t>::max());
  CHUNKCACHE_CHECK(len <= std::numeric_limits<uint32_t>::max());
  const size_t total = RoundUp8(kHeaderBytes + kBlobLenBytes + len);
  Header h;
  h.form = static_cast<uint8_t>(Form::kBlob);
  h.num_dims = static_cast<uint8_t>(num_dims);
  h.rows = static_cast<uint32_t>(rows);
  const uint32_t len32 = static_cast<uint32_t>(len);
  ChunkPayload out;
  out.data_.reset(new unsigned char[total]);
  unsigned char* p = out.data_.get();
  std::memset(p, 0, total);
  std::memcpy(p, &h, kHeaderBytes);
  std::memcpy(p + kHeaderBytes, &len32, kBlobLenBytes);
  if (len != 0) std::memcpy(p + kHeaderBytes + kBlobLenBytes, data, len);
  return out;
}

size_t ChunkPayload::CoordBytes(const Header& h) const {
  if (static_cast<Form>(h.form) == Form::kSparse) {
    return RoundUp8(size_t{4} * h.num_dims * h.rows);
  }
  if (h.rows == 0) return 0;
  uint64_t cells = 1;
  for (uint32_t d = 0; d < h.num_dims; ++d) cells *= box_width(d);
  return (cells + 63) / 64 * 8;
}

uint64_t ChunkPayload::capacity_bytes() const {
  if (data_ == nullptr) return 0;
  const Header h = header();
  if (static_cast<Form>(h.form) == Form::kBlob) {
    return RoundUp8(kHeaderBytes + kBlobLenBytes + blob_size());
  }
  return SumsOffset(h) + 24 * size_t{h.rows} + CountBytes(h);
}

ChunkPayload::Measures ChunkPayload::measures() const {
  Measures m;
  const Header h = header();
  if (data_ == nullptr || static_cast<Form>(h.form) == Form::kBlob) return m;
  m.sums = data_.get() + SumsOffset(h);
  m.counts = m.sums + 8 * size_t{h.rows};
  m.mins = m.counts + CountBytes(h);
  m.maxs = m.mins + 8 * size_t{h.rows};
  m.wide_counts = h.wide_counts != 0;
  return m;
}

AggTuple ChunkPayload::Row(size_t i, const uint32_t* rel) const {
  AggTuple row;
  const uint32_t nd = num_dims();
  for (uint32_t d = 0; d < nd; ++d) row.coords[d] = box_begin(d) + rel[d];
  const Measures m = measures();
  row.sum = m.sum(i);
  row.count = m.count(i);
  row.min_v = m.min(i);
  row.max_v = m.max(i);
  return row;
}

void ChunkPayload::AppendRowsInside(
    const std::array<schema::OrdinalRange, kMaxDims>& sel,
    std::vector<AggTuple>* out) const {
  const Header h = header();
  if (h.rows == 0) return;
  const uint32_t nd = h.num_dims;
  // The selection in box-relative terms, per dimension; a dimension the
  // box lies inside needs no per-row test.
  uint32_t begin[kMaxDims];
  uint32_t lo[kMaxDims];
  uint32_t hi[kMaxDims];
  uint32_t checked[kMaxDims];
  uint32_t num_checked = 0;
  for (uint32_t d = 0; d < nd; ++d) {
    begin[d] = box_begin(d);
    const uint32_t e = begin[d] + (box_width(d) - 1);
    if (sel[d].end < begin[d] || sel[d].begin > e) return;  // disjoint
    lo[d] = std::max(sel[d].begin, begin[d]) - begin[d];
    hi[d] = std::min(sel[d].end, e) - begin[d];
    if (lo[d] != 0 || hi[d] != e - begin[d]) checked[num_checked++] = d;
  }
  const Measures m = measures();
  ForEachRow([&](size_t i, const uint32_t* rel) {
    for (uint32_t k = 0; k < num_checked; ++k) {
      const uint32_t d = checked[k];
      if (rel[d] < lo[d] || rel[d] > hi[d]) return;
    }
    AggTuple& row = out->emplace_back();
    for (uint32_t d = 0; d < nd; ++d) row.coords[d] = begin[d] + rel[d];
    row.sum = m.sum(i);
    row.count = m.count(i);
    row.min_v = m.min(i);
    row.max_v = m.max(i);
  });
}

AggColumns ChunkPayload::ToColumns() const {
  CHUNKCACHE_CHECK(!blob());
  const uint32_t nd = num_dims();
  AggColumns cols(nd);
  cols.Reserve(size());
  const Measures m = measures();
  ForEachRow([&](size_t i, const uint32_t* rel) {
    uint32_t coords[kMaxDims];
    for (uint32_t d = 0; d < nd; ++d) coords[d] = box_begin(d) + rel[d];
    cols.PushCell(coords, m.sum(i), m.count(i), m.min(i), m.max(i));
  });
  return cols;
}

}  // namespace chunkcache::storage
