#ifndef CHUNKCACHE_INDEX_BITMAP_INDEX_H_
#define CHUNKCACHE_INDEX_BITMAP_INDEX_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "index/bitmap.h"
#include "storage/buffer_pool.h"
#include "storage/fact_file.h"

namespace chunkcache::index {

/// Disk-resident value-list bitmap index on one fact-table dimension: one
/// bitmap over all fact rows per distinct *base-level ordinal* of that
/// dimension. This is the index the paper's backend uses for star-join
/// selections; reading bitmaps goes through the buffer pool, so index I/O is
/// part of every measured cost.
///
/// File layout: the bitmaps back to back from page 0, value by value, each
/// padded to a whole number of pages so one value's bitmap occupies a
/// contiguous run. An index is built once and never reopened, so no page
/// holds a header.
class BitmapIndex {
 public:
  /// One column to index: dimension `dim`, whose ordinals are dense in
  /// [0, num_values).
  struct Column {
    uint32_t dim = 0;
    uint32_t num_values = 0;
  };

  /// Builds one index per entry of `columns` in one columnar scan of
  /// `fact`, then writes them out in order, one file each.
  static Result<std::vector<BitmapIndex>> BuildMany(
      storage::BufferPool* pool, storage::FactFile* fact,
      const std::vector<Column>& columns);

  BitmapIndex(BitmapIndex&&) = default;
  BitmapIndex& operator=(BitmapIndex&&) = default;

  /// Reads the bitmap of one value into `*out` (sized to the row count).
  Status ReadBitmap(uint32_t value, Bitmap* out);

  /// ORs the bitmaps of every value in [lo, hi] into `*out` — the paper's
  /// range-predicate evaluation. `*out` is overwritten.
  Status EvaluateRange(uint32_t lo, uint32_t hi, Bitmap* out);

  uint32_t dim() const { return dim_; }
  uint32_t num_values() const { return num_values_; }
  uint64_t num_rows() const { return num_rows_; }
  uint32_t file_id() const { return file_id_; }
  uint32_t pages_per_bitmap() const { return pages_per_bitmap_; }

 private:
  BitmapIndex(storage::BufferPool* pool, uint32_t file_id, uint32_t dim)
      : pool_(pool), file_id_(file_id), dim_(dim) {}

  storage::BufferPool* pool_;
  uint32_t file_id_;
  uint32_t dim_;
  uint32_t num_values_ = 0;
  uint32_t pages_per_bitmap_ = 0;
  uint64_t num_rows_ = 0;
};

}  // namespace chunkcache::index

#endif  // CHUNKCACHE_INDEX_BITMAP_INDEX_H_
