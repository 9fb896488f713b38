#include "backend/agg_file.h"

#include <algorithm>
#include <cstring>

#include "common/fault_injector.h"

namespace chunkcache::backend {

using storage::AggColumns;
using storage::AggTuple;
using storage::kPageSize;
using storage::PageGuard;
using storage::PageId;

Result<AggFile> AggFile::Create(storage::BufferPool* pool, uint32_t num_dims) {
  if (num_dims == 0 || num_dims > storage::kMaxDims) {
    return Status::InvalidArgument("AggFile: bad dimension count");
  }
  const uint32_t file_id = pool->disk()->CreateFile();
  AggFile f(pool, file_id, num_dims);
  CHUNKCACHE_ASSIGN_OR_RETURN(PageGuard guard, pool->Allocate(file_id));
  auto* h = guard.page()->As<Header>();
  h->magic = kMagic;
  h->num_dims = num_dims;
  h->flags = 0;
  h->num_rows = 0;
  guard.MarkDirty();
  return f;
}

Result<AggFile> AggFile::Open(storage::BufferPool* pool, uint32_t file_id) {
  CHUNKCACHE_ASSIGN_OR_RETURN(PageGuard guard,
                              pool->Fetch(PageId{file_id, 0}));
  const auto* h = guard.page()->As<Header>();
  if (h->magic != kMagic) return Status::Corruption("AggFile: bad magic");
  if (h->num_dims == 0 || h->num_dims > storage::kMaxDims) {
    return Status::Corruption("AggFile: bad header dimension count");
  }
  if (h->flags != 0) {
    return Status::Corruption("AggFile: unsupported header flags");
  }
  AggFile f(pool, file_id, h->num_dims);
  f.num_rows_ = h->num_rows;
  return f;
}

Result<uint64_t> AggFile::Append(const AggTuple& row) {
  const uint64_t rid = num_rows_;
  const uint32_t page_no = 1 + static_cast<uint32_t>(rid / rows_per_page_);
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

Result<uint64_t> AggFile::AppendColumns(const AggColumns& cols) {
  if (cols.num_dims() != num_dims_) {
    return Status::InvalidArgument("AggFile::AppendColumns: dims mismatch");
  }
  const uint64_t first_rid = num_rows_;
  const size_t n = cols.size();
  size_t done = 0;
  while (done < n) {
    const uint32_t page_no =
        1 + static_cast<uint32_t>(num_rows_ / rows_per_page_);
    const uint32_t slot = static_cast<uint32_t>(num_rows_ % rows_per_page_);
    const uint32_t take = static_cast<uint32_t>(
        std::min<size_t>(rows_per_page_ - slot, n - done));
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
      std::memcpy(base + CoordOffset(d, slot), cols.coords(d).data() + done,
                  take * 4ull);
    }
    std::memcpy(base + MeasureOffset(0, slot), cols.sums().data() + done,
                take * 8ull);
    std::memcpy(base + MeasureOffset(1, slot), cols.counts().data() + done,
                take * 8ull);
    std::memcpy(base + MeasureOffset(2, slot), cols.mins().data() + done,
                take * 8ull);
    std::memcpy(base + MeasureOffset(3, slot), cols.maxs().data() + done,
                take * 8ull);
    guard.MarkDirty();
    num_rows_ += take;
    done += take;
  }
  return first_rid;
}

Status AggFile::Get(uint64_t rid, AggTuple* out) {
  if (rid >= num_rows_) return Status::OutOfRange("AggFile::Get beyond EOF");
  const uint32_t page_no = 1 + static_cast<uint32_t>(rid / rows_per_page_);
  const uint32_t slot = static_cast<uint32_t>(rid % rows_per_page_);
  CHUNKCACHE_ASSIGN_OR_RETURN(PageGuard guard,
                              pool_->Fetch(PageId{file_id_, page_no}));
  const uint8_t* base = guard.page()->data.data();
  *out = AggTuple{};
  for (uint32_t d = 0; d < num_dims_; ++d) {
    std::memcpy(&out->coords[d], base + CoordOffset(d, slot), 4);
  }
  std::memcpy(&out->sum, base + MeasureOffset(0, slot), 8);
  std::memcpy(&out->count, base + MeasureOffset(1, slot), 8);
  std::memcpy(&out->min_v, base + MeasureOffset(2, slot), 8);
  std::memcpy(&out->max_v, base + MeasureOffset(3, slot), 8);
  return Status::OK();
}

Status AggFile::ScanRange(
    uint64_t first, uint64_t count,
    const std::function<bool(const AggTuple&)>& fn) {
  CHUNKCACHE_FAULT_POINT(FaultSite::kAggScan);
  if (first > num_rows_) {
    return Status::OutOfRange("AggFile::ScanRange beyond EOF");
  }
  const uint64_t end = std::min(first + count, num_rows_);
  AggTuple row;
  uint64_t rid = first;
  while (rid < end) {
    const uint32_t page_no = 1 + static_cast<uint32_t>(rid / rows_per_page_);
    CHUNKCACHE_ASSIGN_OR_RETURN(PageGuard guard,
                                pool_->Fetch(PageId{file_id_, page_no}));
    const uint8_t* base = guard.page()->data.data();
    const uint64_t page_first =
        static_cast<uint64_t>(page_no - 1) * rows_per_page_;
    const uint64_t page_end = std::min(page_first + rows_per_page_, end);
    for (; rid < page_end; ++rid) {
      const uint32_t slot = static_cast<uint32_t>(rid - page_first);
      row = AggTuple{};
      for (uint32_t d = 0; d < num_dims_; ++d) {
        std::memcpy(&row.coords[d], base + CoordOffset(d, slot), 4);
      }
      std::memcpy(&row.sum, base + MeasureOffset(0, slot), 8);
      std::memcpy(&row.count, base + MeasureOffset(1, slot), 8);
      std::memcpy(&row.min_v, base + MeasureOffset(2, slot), 8);
      std::memcpy(&row.max_v, base + MeasureOffset(3, slot), 8);
      if (!fn(row)) return Status::OK();
    }
  }
  return Status::OK();
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
    const uint32_t page_no = 1 + static_cast<uint32_t>(rid / rows_per_page_);
    CHUNKCACHE_ASSIGN_OR_RETURN(PageGuard guard,
                                pool_->Fetch(PageId{file_id_, page_no}));
    const uint8_t* base = guard.page()->data.data();
    const uint64_t page_first =
        static_cast<uint64_t>(page_no - 1) * rows_per_page_;
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

Status AggFile::SyncHeader() {
  CHUNKCACHE_ASSIGN_OR_RETURN(PageGuard guard,
                              pool_->Fetch(PageId{file_id_, 0}));
  auto* h = guard.page()->As<Header>();
  h->num_rows = num_rows_;
  guard.MarkDirty();
  return Status::OK();
}

}  // namespace chunkcache::backend
