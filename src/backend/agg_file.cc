#include "backend/agg_file.h"

#include <algorithm>
#include <cstring>

#include "common/fault_injector.h"

namespace chunkcache::backend {

using storage::AggColumns;
using storage::AggTuple;
using storage::PageGuard;
using storage::PageId;

Result<AggFile> AggFile::Create(storage::BufferPool* pool, uint32_t num_dims) {
  if (num_dims == 0 || num_dims > storage::kMaxDims) {
    return Status::InvalidArgument("AggFile: bad dimension count");
  }
  return AggFile(pool, pool->disk()->CreateFile(), num_dims);
}

Result<uint64_t> AggFile::Append(const AggTuple& row) {
  const uint64_t rid = num_rows_;
  const uint32_t page_no = static_cast<uint32_t>(rid / rows_per_page_);
  const uint32_t slot = static_cast<uint32_t>(rid % rows_per_page_);
  PageGuard guard;
  if (slot == 0) {
    CHUNKCACHE_ASSIGN_OR_RETURN(guard, pool_->Allocate(file_id_));
    if (guard.id().page_no != page_no) {
      return Status::Internal("AggFile: non-contiguous allocation");
    }
  } else {
    CHUNKCACHE_ASSIGN_OR_RETURN(guard,
                                pool_->Fetch(PageId{file_id_, page_no}));
  }
  uint8_t* base = guard.page()->data.data();
  for (uint32_t d = 0; d < num_dims_; ++d) {
    std::memcpy(base + CoordOffset(d, slot), &row.coords[d], 4);
  }
  std::memcpy(base + MeasureOffset(0, slot), &row.sum, 8);
  std::memcpy(base + MeasureOffset(1, slot), &row.count, 8);
  std::memcpy(base + MeasureOffset(2, slot), &row.min_v, 8);
  std::memcpy(base + MeasureOffset(3, slot), &row.max_v, 8);
  guard.MarkDirty();
  ++num_rows_;
  return rid;
}

Status AggFile::ScanRangeColumns(uint64_t first, uint64_t count,
                                 AggColumns* out) {
  CHUNKCACHE_FAULT_POINT(FaultSite::kAggScan);
  if (first > num_rows_) {
    return Status::OutOfRange("AggFile::ScanRangeColumns beyond EOF");
  }
  const uint64_t end = std::min(first + count, num_rows_);
  if (first >= end) return Status::OK();
  if (out->num_dims() != num_dims_) {
    if (!out->empty()) {
      return Status::InvalidArgument(
          "AggFile::ScanRangeColumns: dims mismatch");
    }
    *out = AggColumns(num_dims_);
  }
  out->Reserve(out->size() + static_cast<size_t>(end - first));
  uint64_t rid = first;
  while (rid < end) {
    const uint32_t page_no = static_cast<uint32_t>(rid / rows_per_page_);
    CHUNKCACHE_ASSIGN_OR_RETURN(PageGuard guard,
                                pool_->Fetch(PageId{file_id_, page_no}));
    const uint8_t* base = guard.page()->data.data();
    const uint64_t page_first = static_cast<uint64_t>(page_no) * rows_per_page_;
    const uint32_t slot = static_cast<uint32_t>(rid - page_first);
    const uint32_t take = static_cast<uint32_t>(
        std::min<uint64_t>(page_first + rows_per_page_, end) - rid);
    // Column blocks are contiguous in the page: one memcpy per column.
    for (uint32_t d = 0; d < num_dims_; ++d) {
      auto* col = out->mutable_coords(d);
      const size_t at = col->size();
      col->resize(at + take);
      std::memcpy(col->data() + at, base + CoordOffset(d, slot), take * 4ull);
    }
    const auto extend = [&](auto* col, uint32_t measure_idx) {
      const size_t at = col->size();
      col->resize(at + take);
      std::memcpy(col->data() + at, base + MeasureOffset(measure_idx, slot),
                  take * 8ull);
    };
    extend(out->mutable_sums(), 0);
    extend(out->mutable_counts(), 1);
    extend(out->mutable_mins(), 2);
    extend(out->mutable_maxs(), 3);
    rid += take;
  }
  return Status::OK();
}

}  // namespace chunkcache::backend
