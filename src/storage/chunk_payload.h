#ifndef CHUNKCACHE_STORAGE_CHUNK_PAYLOAD_H_
#define CHUNKCACHE_STORAGE_CHUNK_PAYLOAD_H_

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "common/logging.h"
#include "schema/hierarchy.h"
#include "storage/agg_columns.h"
#include "storage/tuple.h"

namespace chunkcache::storage {

/// A cached chunk's rows in one immutable allocation. In order, it holds
///   - an 8-byte header: the form, num_dims, the COUNT width and the row
///     count;
///   - the rows' bounding box: each dimension's first coordinate, then
///     each dimension's width;
///   - the coordinates, as a presence bitmap over the box whose set bits,
///     in order, are the rows in canonical row-major order. A box with
///     more than kMaxBitmapCellsPerRow cells per row (or rows out of
///     canonical order) stores box-relative u32 coordinates, row by row,
///     instead;
///   - one class bit per row: set for a *singleton row*, whose COUNT is 1
///     and whose SUM, MIN and MAX are one bit pattern, clear for a
///     general row;
///   - the general rows' COUNTs, each count_bytes() wide (1, 2, 4 or 8:
///     the narrowest that holds the largest), padded to 8 bytes;
///   - the singleton rows' values, then the general rows' SUM, MIN and
///     MAX columns.
/// The box, the coordinates and the 8-byte-padded class bits and counts
/// start 8-byte aligned, and each section's size follows from the header,
/// the box and the number of set class bits. A 4-dimension singleton row
/// costs 8 bytes and a general row 25 to 32, each plus its share of the
/// bitmap and its class bit; no step encodes or decodes them. Readers walk
/// the rows in one pass, keeping a running index into each class's
/// columns.
class ChunkPayload {
 public:
  enum class Form : uint8_t { kBitmap = 0, kSparse = 1 };

  /// Boxes with more cells per row than this store sparse coordinates.
  static constexpr uint64_t kMaxBitmapCellsPerRow = 32;

  /// No allocation: zero dimensions and rows.
  ChunkPayload() = default;

  /// The payload of `cols`, row for row and bit for bit; ToColumns()
  /// returns `cols` again.
  explicit ChunkPayload(const AggColumns& cols);

  Form form() const { return static_cast<Form>(header().form); }
  uint32_t num_dims() const { return header().num_dims; }
  size_t size() const { return header().rows; }
  bool empty() const { return size() == 0; }

  /// Bytes of the one allocation (0 for a default-constructed payload).
  uint64_t capacity_bytes() const;

  /// The rows' bounding box on dimension `d`: the first coordinate and
  /// the number of coordinates it spans.
  uint32_t box_begin(uint32_t d) const { return U32At(kHeaderBytes + 4 * d); }
  uint32_t box_width(uint32_t d) const {
    return U32At(kHeaderBytes + 4 * (num_dims() + d));
  }

  /// Bytes of each general row's stored COUNT.
  uint32_t count_bytes() const { return header().count_bytes; }
  /// Rows kept as one value.
  size_t singleton_rows() const;

  /// One row's measures, read in place: a singleton row's SUM, MIN and
  /// MAX are its one stored value.
  struct Measures {
    const unsigned char* sum_at = nullptr;
    const unsigned char* min_at = nullptr;
    const unsigned char* max_at = nullptr;
    uint64_t count = 0;

    double sum() const { return DoubleAt(sum_at, 0); }
    double min() const { return DoubleAt(min_at, 0); }
    double max() const { return DoubleAt(max_at, 0); }
  };

  /// Calls `fn(rel, m)` for every row in order, where `rel` holds the
  /// row's num_dims() box-relative coordinates (coordinate d is
  /// box_begin(d) + rel[d]) and `m` its measures.
  template <typename Fn>
  void ForEachRow(Fn&& fn) const;

  /// The row ForEachRow passed as `rel` and `m`.
  AggTuple Row(const uint32_t* rel, const Measures& m) const;

  /// Appends the rows whose coordinates fall inside `sel` on every
  /// dimension (the boundary post-filter of §5.2.3). A box wholly inside
  /// or outside the selection skips the per-row test.
  void AppendRowsInside(
      const std::array<schema::OrdinalRange, kMaxDims>& sel,
      std::vector<AggTuple>* out) const;

  /// The rows as columns, in stored order.
  AggColumns ToColumns() const;

 private:
  /// The allocation's first 8 bytes.
  struct Header {
    uint8_t form = 0;
    uint8_t num_dims = 0;
    uint8_t count_bytes = 0;
    uint8_t unused = 0;
    uint32_t rows = 0;
  };
  static constexpr size_t kHeaderBytes = sizeof(Header);
  static_assert(kHeaderBytes == 8);

  /// Offsets of a payload's sections.
  struct Layout {
    size_t classes = 0;  ///< One bit per row, set for a singleton.
    size_t counts = 0;   ///< General rows' COUNTs, count_bytes wide.
    size_t values = 0;   ///< Singleton rows' values.
    size_t sums = 0;     ///< General rows' SUMs; MIN and MAX follow.
    size_t general = 0;  ///< General rows.
    size_t total = 0;    ///< Bytes of the allocation.
  };
  static Layout BoxLayout(const Header& h, size_t coord_bytes,
                          size_t singletons);
  /// The layout of this payload, counting its set class bits.
  Layout layout(const Header& h) const;

  static size_t RoundUp8(size_t n) { return (n + 7) / 8 * 8; }
  static double DoubleAt(const unsigned char* column, size_t i) {
    double v;
    std::memcpy(&v, column + 8 * i, 8);
    return v;
  }
  static uint64_t CountAt(const unsigned char* column, uint32_t width,
                          size_t i) {
    switch (width) {
      case 1:
        return column[i];
      case 2: {
        uint16_t v;
        std::memcpy(&v, column + 2 * i, 2);
        return v;
      }
      case 4: {
        uint32_t v;
        std::memcpy(&v, column + 4 * i, 4);
        return v;
      }
      default: {
        uint64_t v;
        std::memcpy(&v, column + 8 * i, 8);
        return v;
      }
    }
  }

  Header header() const {
    Header h;
    if (data_ != nullptr) std::memcpy(&h, data_.get(), kHeaderBytes);
    return h;
  }
  uint32_t U32At(size_t offset) const {
    uint32_t v;
    std::memcpy(&v, data_.get() + offset, 4);
    return v;
  }
  /// Bytes of the coordinate section.
  size_t CoordBytes(const Header& h) const;

  std::unique_ptr<unsigned char[]> data_;
};

template <typename Fn>
void ChunkPayload::ForEachRow(Fn&& fn) const {
  const Header h = header();
  if (h.rows == 0) return;
  const uint32_t nd = h.num_dims;
  const unsigned char* base = data_.get();
  const Layout l = layout(h);
  // Running indexes into the singleton and general columns.
  size_t single = 0;
  size_t general = 0;
  const auto measures = [&](size_t i) {
    Measures m;
    if ((base[l.classes + i / 8] >> (i % 8)) & 1) {
      m.sum_at = base + l.values + 8 * single++;
      m.min_at = m.sum_at;
      m.max_at = m.sum_at;
      m.count = 1;
    } else {
      m.sum_at = base + l.sums + 8 * general;
      m.min_at = m.sum_at + 8 * l.general;
      m.max_at = m.min_at + 8 * l.general;
      m.count = CountAt(base + l.counts, h.count_bytes, general++);
    }
    return m;
  };
  const unsigned char* coords = base + kHeaderBytes + 8 * size_t{nd};
  if (static_cast<Form>(h.form) == Form::kSparse) {
    uint32_t rel[kMaxDims];
    for (size_t i = 0; i < h.rows; ++i) {
      std::memcpy(rel, coords + 4 * nd * i, 4 * nd);
      fn(static_cast<const uint32_t*>(rel), measures(i));
    }
    return;
  }
  uint32_t width[kMaxDims];
  for (uint32_t d = 0; d < nd; ++d) width[d] = box_width(d);
  // An odometer over the box: moving to the next set bit adds the cell
  // distance to the innermost coordinate and carries outwards, so a row
  // costs a division only where it wraps a dimension.
  uint32_t rel[kMaxDims] = {};
  uint64_t at = 0;
  size_t row = 0;
  for (size_t w = 0; row < h.rows; ++w) {
    uint64_t bits;
    std::memcpy(&bits, coords + 8 * w, 8);
    while (bits != 0) {
      const uint64_t cell =
          64 * w + static_cast<uint64_t>(__builtin_ctzll(bits));
      bits &= bits - 1;
      uint64_t carry = cell - at;
      at = cell;
      for (uint32_t d = nd; d-- > 0 && carry != 0;) {
        const uint64_t v = rel[d] + carry;
        if (v < width[d]) {
          rel[d] = static_cast<uint32_t>(v);
          break;
        }
        rel[d] = static_cast<uint32_t>(v % width[d]);
        carry = v / width[d];
      }
      fn(static_cast<const uint32_t*>(rel), measures(row++));
    }
  }
}

}  // namespace chunkcache::storage

#endif  // CHUNKCACHE_STORAGE_CHUNK_PAYLOAD_H_
