#include "storage/chunk_payload.h"

#include <algorithm>
#include <bit>
#include <limits>

namespace chunkcache::storage {

// A COUNT is stored as its low count_bytes() bytes.
static_assert(std::endian::native == std::endian::little,
              "ChunkPayload stores narrowed counts little-endian");

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

/// True when a row keeps one value: a COUNT of 1 and SUM, MIN and MAX of
/// one bit pattern (so +0 against -0, or two NaN payloads, stay general).
bool Singleton(double sum, uint64_t count, double min, double max) {
  uint64_t s, lo, hi;
  std::memcpy(&s, &sum, 8);
  std::memcpy(&lo, &min, 8);
  std::memcpy(&hi, &max, 8);
  return count == 1 && s == lo && s == hi;
}

/// The narrowest of 1, 2, 4 and 8 bytes that holds `c`.
uint8_t CountWidth(uint64_t c) {
  if (c <= std::numeric_limits<uint8_t>::max()) return 1;
  if (c <= std::numeric_limits<uint16_t>::max()) return 2;
  if (c <= std::numeric_limits<uint32_t>::max()) return 4;
  return 8;
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

  // Row classes, and the COUNT width of the general rows.
  const auto singleton = [&cols](size_t i) {
    return Singleton(cols.sums()[i], cols.counts()[i], cols.mins()[i],
                     cols.maxs()[i]);
  };
  size_t singletons = 0;
  uint64_t max_count = 0;
  for (size_t i = 0; i < n; ++i) {
    if (singleton(i)) {
      ++singletons;
    } else {
      max_count = std::max(max_count, cols.counts()[i]);
    }
  }

  Header h;
  h.form = static_cast<uint8_t>(bitmap ? Form::kBitmap : Form::kSparse);
  h.num_dims = static_cast<uint8_t>(nd);
  h.count_bytes = CountWidth(max_count);
  h.rows = static_cast<uint32_t>(n);
  const size_t coord_bytes =
      bitmap ? (cells + 63) / 64 * 8 : RoundUp8(size_t{4} * nd * n);
  const Layout l = BoxLayout(h, coord_bytes, singletons);

  data_.reset(new unsigned char[l.total]);
  unsigned char* p = data_.get();
  std::memset(p, 0, l.total);  // bitmap words, class bits and padding
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

  size_t single = 0;
  size_t g = 0;
  for (size_t i = 0; i < n; ++i) {
    if (singleton(i)) {
      p[l.classes + i / 8] |= static_cast<unsigned char>(1u << (i % 8));
      std::memcpy(p + l.values + 8 * single++, &cols.sums()[i], 8);
      continue;
    }
    const uint64_t c = cols.counts()[i];
    std::memcpy(p + l.counts + h.count_bytes * g, &c, h.count_bytes);
    std::memcpy(p + l.sums + 8 * g, &cols.sums()[i], 8);
    std::memcpy(p + l.sums + 8 * (l.general + g), &cols.mins()[i], 8);
    std::memcpy(p + l.sums + 8 * (2 * l.general + g), &cols.maxs()[i], 8);
    ++g;
  }
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

ChunkPayload::Layout ChunkPayload::BoxLayout(const Header& h,
                                             size_t coord_bytes,
                                             size_t singletons) {
  Layout l;
  l.general = h.rows - singletons;
  l.classes = kHeaderBytes + 8 * size_t{h.num_dims} + coord_bytes;
  l.counts = l.classes + (size_t{h.rows} + 7) / 8;
  l.values = RoundUp8(l.counts + h.count_bytes * l.general);
  l.sums = l.values + 8 * singletons;
  l.total = l.sums + 24 * l.general;
  return l;
}

ChunkPayload::Layout ChunkPayload::layout(const Header& h) const {
  const size_t coord_bytes = CoordBytes(h);
  const unsigned char* bits =
      data_.get() + kHeaderBytes + 8 * size_t{h.num_dims} + coord_bytes;
  const size_t bytes = (size_t{h.rows} + 7) / 8;
  size_t singletons = 0;
  size_t i = 0;
  for (; i + 8 <= bytes; i += 8) {
    uint64_t word;
    std::memcpy(&word, bits + i, 8);
    singletons += static_cast<size_t>(__builtin_popcountll(word));
  }
  for (; i < bytes; ++i) {
    singletons += static_cast<size_t>(__builtin_popcount(bits[i]));
  }
  return BoxLayout(h, coord_bytes, singletons);
}

size_t ChunkPayload::singleton_rows() const {
  if (data_ == nullptr) return 0;
  const Header h = header();
  return h.rows - layout(h).general;
}

uint64_t ChunkPayload::capacity_bytes() const {
  if (data_ == nullptr) return 0;
  return layout(header()).total;
}

AggTuple ChunkPayload::Row(const uint32_t* rel, const Measures& m) const {
  AggTuple row;
  const uint32_t nd = num_dims();
  for (uint32_t d = 0; d < nd; ++d) row.coords[d] = box_begin(d) + rel[d];
  row.sum = m.sum();
  row.count = m.count;
  row.min_v = m.min();
  row.max_v = m.max();
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
  ForEachRow([&](const uint32_t* rel, const Measures& m) {
    for (uint32_t k = 0; k < num_checked; ++k) {
      const uint32_t d = checked[k];
      if (rel[d] < lo[d] || rel[d] > hi[d]) return;
    }
    AggTuple& row = out->emplace_back();
    for (uint32_t d = 0; d < nd; ++d) row.coords[d] = begin[d] + rel[d];
    row.sum = m.sum();
    row.count = m.count;
    row.min_v = m.min();
    row.max_v = m.max();
  });
}

AggColumns ChunkPayload::ToColumns() const {
  const uint32_t nd = num_dims();
  uint32_t begin[kMaxDims];
  for (uint32_t d = 0; d < nd; ++d) begin[d] = box_begin(d);
  AggColumns cols(nd);
  cols.Reserve(size());
  ForEachRow([&](const uint32_t* rel, const Measures& m) {
    uint32_t coords[kMaxDims];
    for (uint32_t d = 0; d < nd; ++d) coords[d] = begin[d] + rel[d];
    cols.PushCell(coords, m.sum(), m.count, m.min(), m.max());
  });
  return cols;
}

}  // namespace chunkcache::storage
