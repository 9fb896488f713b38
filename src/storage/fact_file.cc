#include "storage/fact_file.h"

#include <algorithm>
#include <array>
#include <cstring>

namespace chunkcache::storage {

Result<FactFile> FactFile::Create(BufferPool* pool, TupleDesc desc) {
  if (desc.num_dims == 0 || desc.num_dims > kMaxDims) {
    return Status::InvalidArgument("FactFile: bad dimension count");
  }
  return FactFile(pool, pool->disk()->CreateFile(), desc);
}

Result<PageGuard> FactFile::PinAppendPage() {
  const uint32_t page_no = PageOfRow(num_tuples_);
  if (num_tuples_ % tuples_per_page_ != 0) {
    return pool_->Fetch(PageId{file_id_, page_no});
  }
  // New data page needed.
  CHUNKCACHE_ASSIGN_OR_RETURN(PageGuard guard, pool_->Allocate(file_id_));
  if (guard.id().page_no != page_no) {
    return Status::Internal("FactFile: non-contiguous allocation");
  }
  return guard;
}

Result<RowId> FactFile::Append(const Tuple& t) {
  const RowId rid = num_tuples_;
  const uint32_t slot = static_cast<uint32_t>(rid % tuples_per_page_);
  CHUNKCACHE_ASSIGN_OR_RETURN(PageGuard guard, PinAppendPage());
  t.Serialize(desc_, guard.page()->data.data() + slot * desc_.RecordSize());
  guard.MarkDirty();
  ++num_tuples_;
  return rid;
}

Result<RowId> FactFile::AppendInOrder(const std::vector<Tuple>& tuples,
                                      const std::vector<uint32_t>& order) {
  const RowId first = num_tuples_;
  const uint32_t record_size = desc_.RecordSize();
  for (size_t i = 0; i < order.size();) {
    const uint32_t slot =
        static_cast<uint32_t>(num_tuples_ % tuples_per_page_);
    CHUNKCACHE_ASSIGN_OR_RETURN(PageGuard guard, PinAppendPage());
    const size_t n = std::min<size_t>(tuples_per_page_ - slot,
                                      order.size() - i);
    uint8_t* dst = guard.page()->data.data() + slot * record_size;
    for (size_t k = 0; k < n; ++k, dst += record_size) {
      tuples[order[i + k]].Serialize(desc_, dst);
    }
    guard.MarkDirty();
    num_tuples_ += n;
    i += n;
  }
  return first;
}

Status FactFile::ScanRange(RowId first, uint64_t count,
                           const std::function<bool(RowId, const Tuple&)>& fn) {
  if (first > num_tuples_) {
    return Status::OutOfRange("FactFile::ScanRange: start beyond EOF");
  }
  const RowId end = std::min<RowId>(first + count, num_tuples_);
  Tuple t;
  RowId rid = first;
  while (rid < end) {
    const uint32_t page_no = PageOfRow(rid);
    CHUNKCACHE_ASSIGN_OR_RETURN(PageGuard guard,
                                pool_->Fetch(PageId{file_id_, page_no}));
    const uint8_t* base = guard.page()->data.data();
    // All rids of this page that fall in [rid, end).
    const RowId page_first = static_cast<RowId>(page_no) * tuples_per_page_;
    const RowId page_end = std::min<RowId>(page_first + tuples_per_page_, end);
    for (; rid < page_end; ++rid) {
      const uint32_t slot = static_cast<uint32_t>(rid - page_first);
      t.Deserialize(desc_, base + slot * desc_.RecordSize());
      if (!fn(rid, t)) return Status::OK();
    }
  }
  return Status::OK();
}

Status FactFile::ScanRangeColumns(RowId first, uint64_t count,
                                  TupleColumns* out) {
  if (first > num_tuples_) {
    return Status::OutOfRange("FactFile::ScanRangeColumns: start beyond EOF");
  }
  const RowId end = std::min<RowId>(first + count, num_tuples_);
  if (first >= end) return Status::OK();
  const uint32_t num_dims = desc_.num_dims;
  const uint32_t record_size = desc_.RecordSize();
  const size_t at = out->size();
  out->num_dims = num_dims;
  out->Resize(at + static_cast<size_t>(end - first));
  std::array<uint32_t*, kMaxDims> keys{};
  for (uint32_t d = 0; d < num_dims; ++d) keys[d] = out->keys[d].data() + at;
  double* measure = out->measure.data() + at;
  RowId rid = first;
  while (rid < end) {
    const uint32_t page_no = PageOfRow(rid);
    auto guard = pool_->Fetch(PageId{file_id_, page_no});
    if (!guard.ok()) {
      out->Resize(at);
      return guard.status();
    }
    const RowId page_first = static_cast<RowId>(page_no) * tuples_per_page_;
    const RowId page_end = std::min<RowId>(page_first + tuples_per_page_, end);
    const uint8_t* rec = guard->page()->data.data() +
                         static_cast<size_t>(rid - page_first) * record_size;
    const size_t n = static_cast<size_t>(page_end - rid);
    for (size_t k = 0; k < n; ++k, rec += record_size) {
      for (uint32_t d = 0; d < num_dims; ++d) {
        std::memcpy(keys[d] + k, rec + d * 4, 4);
      }
      std::memcpy(measure + k, rec + num_dims * 4, 8);
    }
    for (uint32_t d = 0; d < num_dims; ++d) keys[d] += n;
    measure += n;
    rid = page_end;
  }
  return Status::OK();
}

Status FactFile::FetchRows(const std::vector<RowId>& rids,
                           std::vector<Tuple>* out) {
  out->clear();
  out->reserve(rids.size());
  PageGuard guard;  // pins page `pinned_page` once valid
  uint32_t pinned_page = 0;
  Tuple t;
  for (RowId rid : rids) {
    if (rid >= num_tuples_) {
      return Status::OutOfRange("FactFile::FetchRows: rid beyond EOF");
    }
    const uint32_t page_no = PageOfRow(rid);
    if (!guard.valid() || page_no != pinned_page) {
      CHUNKCACHE_ASSIGN_OR_RETURN(guard,
                                  pool_->Fetch(PageId{file_id_, page_no}));
      pinned_page = page_no;
    }
    const uint32_t slot = static_cast<uint32_t>(rid % tuples_per_page_);
    t.Deserialize(desc_,
                  guard.page()->data.data() + slot * desc_.RecordSize());
    out->push_back(t);
  }
  return Status::OK();
}

uint32_t FactFile::num_data_pages() const {
  return static_cast<uint32_t>((num_tuples_ + tuples_per_page_ - 1) /
                               tuples_per_page_);
}

}  // namespace chunkcache::storage
