#ifndef CHUNKCACHE_STORAGE_FACT_FILE_H_
#define CHUNKCACHE_STORAGE_FACT_FILE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/status.h"
#include "storage/agg_columns.h"
#include "storage/buffer_pool.h"
#include "storage/tuple.h"

namespace chunkcache::storage {

/// Row id within a FactFile: dense 0-based index in append order.
using RowId = uint64_t;

/// Fixed-length record file optimized for fact tables (after the "fact
/// file" of RJZN97 that the paper's PARADISE implementation uses): records
/// are packed back to back with no slot directory, so the page holds
/// floor(kPageSize / record_size) records and a RowId maps to a page with
/// one division. Rows start at page 0: the file is built once, by bulk
/// load, and never reopened, so no page holds a header. Supports append
/// (bulk load), full scans, and skipped-sequential scans over RowId
/// ranges — the access pattern chunk reads need.
class FactFile {
 public:
  /// Creates a new empty fact file (no pages) inside `pool`'s disk manager.
  static Result<FactFile> Create(BufferPool* pool, TupleDesc desc);

  FactFile(FactFile&&) = default;
  FactFile& operator=(FactFile&&) = default;

  /// Appends one tuple; returns its RowId. Appends go through the buffer
  /// pool, so bulk loads stay within the pool budget.
  Result<RowId> Append(const Tuple& t);

  /// Appends `tuples[order[0]]`, `tuples[order[1]]`, ... in that order,
  /// filling each page under one pin (the bulk-load path); returns the
  /// RowId of the first.
  Result<RowId> AppendInOrder(const std::vector<Tuple>& tuples,
                              const std::vector<uint32_t>& order);

  /// Scans tuples with rid in [first, first + count), invoking
  /// `fn(rid, tuple)`; each touched page is pinned exactly once. `fn`
  /// returning false stops the scan early.
  Status ScanRange(RowId first, uint64_t count,
                   const std::function<bool(RowId, const Tuple&)>& fn);

  /// Full-file scan.
  Status Scan(const std::function<bool(RowId, const Tuple&)>& fn) {
    return ScanRange(0, num_tuples_, fn);
  }

  /// Bulk-decodes tuples with rid in [first, first + count) into `*out`,
  /// *appending* to its columns (callers accumulate several coalesced
  /// chunk runs into one batch). The columns grow once per call; then each
  /// touched page is pinned once and its records are decoded straight into
  /// them — the columnar feed of the dense aggregation kernels. On error
  /// `*out` keeps only the rows it held before the call.
  Status ScanRangeColumns(RowId first, uint64_t count, TupleColumns* out);

  /// Fetches the tuples whose RowIds are listed in `rids` (ascending order
  /// recommended). Consecutive rids on one page cost a single page access —
  /// this is the "skipped sequential" path bitmap-index fetches use.
  Status FetchRows(const std::vector<RowId>& rids, std::vector<Tuple>* out);

  uint64_t num_tuples() const { return num_tuples_; }
  uint32_t file_id() const { return file_id_; }
  const TupleDesc& desc() const { return desc_; }
  uint32_t tuples_per_page() const { return tuples_per_page_; }

  /// Number of data pages currently allocated.
  uint32_t num_data_pages() const;

  /// Page number (within this file) holding `rid`; useful for analyses that
  /// count distinct pages a row set touches.
  uint32_t PageOfRow(RowId rid) const {
    return static_cast<uint32_t>(rid / tuples_per_page_);
  }

 private:
  FactFile(BufferPool* pool, uint32_t file_id, TupleDesc desc)
      : pool_(pool), file_id_(file_id), desc_(desc),
        tuples_per_page_(kPageSize / desc.RecordSize()) {}

  /// Pins the page that row num_tuples_ goes to, allocating it when the
  /// row starts a page.
  Result<PageGuard> PinAppendPage();

  BufferPool* pool_;
  uint32_t file_id_;
  TupleDesc desc_;
  uint32_t tuples_per_page_;
  uint64_t num_tuples_ = 0;
};

}  // namespace chunkcache::storage

#endif  // CHUNKCACHE_STORAGE_FACT_FILE_H_
