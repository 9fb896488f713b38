#ifndef CHUNKCACHE_BACKEND_AGG_FILE_H_
#define CHUNKCACHE_BACKEND_AGG_FILE_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "storage/agg_columns.h"
#include "storage/buffer_pool.h"
#include "storage/tuple.h"

namespace chunkcache::backend {

/// Page file for aggregate rows (AggTuple) stored **columnar within each
/// page**: a page holds `rows_per_page` slots laid out as one contiguous
/// block per column — `num_dims` uint32 coordinate blocks, then the SUM /
/// COUNT / MIN / MAX blocks (8 bytes per entry each). Row ids are dense
/// append-order indexes (rid -> page, slot) from page 0, which the B-tree
/// chunk runs over this file address. The file is built once and never
/// reopened, so no page holds a header. The columnar in-page layout lets
/// ScanRangeColumns hand whole chunk runs to the dense aggregation kernels
/// as flat arrays via a handful of memcpys instead of a per-row
/// field-by-field decode.
///
/// Used to store precomputed aggregate tables in chunked form at the
/// backend (Section 3.1: "even statically precomputed aggregate tables can
/// be organized on a chunk basis").
class AggFile {
 public:
  /// Creates a new empty file (no pages) inside `pool`'s disk manager.
  static Result<AggFile> Create(storage::BufferPool* pool, uint32_t num_dims);

  AggFile(AggFile&&) = default;
  AggFile& operator=(AggFile&&) = default;

  /// Appends one row; returns its rid.
  Result<uint64_t> Append(const storage::AggTuple& row);

  /// Bulk-decodes rows with rid in [first, first+count) into `*out`,
  /// *appending* to its columns (callers accumulate several coalesced
  /// chunk runs into one batch).
  Status ScanRangeColumns(uint64_t first, uint64_t count,
                          storage::AggColumns* out);

  uint64_t num_rows() const { return num_rows_; }
  uint32_t file_id() const { return file_id_; }
  uint32_t num_dims() const { return num_dims_; }
  uint32_t rows_per_page() const { return rows_per_page_; }

 private:
  AggFile(storage::BufferPool* pool, uint32_t file_id, uint32_t num_dims)
      : pool_(pool),
        file_id_(file_id),
        num_dims_(num_dims),
        record_size_(num_dims * 4 + 32),
        rows_per_page_(storage::kPageSize / record_size_) {}

  /// Byte offset of slot `slot` of coordinate column `d` within a page.
  uint32_t CoordOffset(uint32_t d, uint32_t slot) const {
    return (d * rows_per_page_ + slot) * 4;
  }
  /// Byte offset of slot `slot` of measure column `m` (0=sum, 1=count,
  /// 2=min, 3=max) within a page.
  uint32_t MeasureOffset(uint32_t m, uint32_t slot) const {
    return num_dims_ * 4 * rows_per_page_ + (m * rows_per_page_ + slot) * 8;
  }

  storage::BufferPool* pool_;
  uint32_t file_id_;
  uint32_t num_dims_;
  uint32_t record_size_;
  uint32_t rows_per_page_;
  uint64_t num_rows_ = 0;
};

}  // namespace chunkcache::backend

#endif  // CHUNKCACHE_BACKEND_AGG_FILE_H_
