#include "index/bitmap_index.h"

#include <sys/mman.h>

#include <cstring>

namespace chunkcache::index {

using storage::kPageSize;
using storage::PageGuard;
using storage::PageId;

namespace {

/// Zeroed scratch words mapped straight from the kernel and unmapped whole
/// on destruction, so a finished build leaves nothing behind. (The heap
/// would often keep a freed buffer this size resident.)
class ScratchWords {
 public:
  explicit ScratchWords(uint64_t words) : bytes_(words * 8) {
    if (bytes_ == 0) return;
    void* p = mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p != MAP_FAILED) words_ = static_cast<uint64_t*>(p);
  }
  ~ScratchWords() {
    if (words_ != nullptr) munmap(words_, bytes_);
  }
  ScratchWords(const ScratchWords&) = delete;
  ScratchWords& operator=(const ScratchWords&) = delete;

  bool ok() const { return bytes_ == 0 || words_ != nullptr; }
  uint64_t* data() const { return words_; }

 private:
  uint64_t bytes_;
  uint64_t* words_ = nullptr;
};

}  // namespace

Result<std::vector<BitmapIndex>> BitmapIndex::BuildMany(
    storage::BufferPool* pool, storage::FactFile* fact,
    const std::vector<Column>& columns) {
  for (const Column& c : columns) {
    if (c.dim >= fact->desc().num_dims) {
      return Status::InvalidArgument("BitmapIndex: dimension out of range");
    }
    if (c.num_values == 0) {
      return Status::InvalidArgument("BitmapIndex: zero values");
    }
  }
  const uint64_t num_rows = fact->num_tuples();
  const uint64_t words_per_bitmap = bit_util::WordsForBits(num_rows);
  const uint64_t bytes_per_bitmap = words_per_bitmap * 8;
  const uint32_t pages_per_bitmap = static_cast<uint32_t>(
      (bytes_per_bitmap + kPageSize - 1) / kPageSize);

  // Accumulate every column's bitmaps in memory during one scan, a batch
  // of rows at a time, then write them out. All bitmaps share one word
  // array, column after column and value after value (num_values *
  // num_rows bits per column; a few MB at the paper's scale).
  std::vector<uint64_t*> column_words(columns.size());
  uint64_t total_words = 0;
  for (const Column& c : columns) total_words += c.num_values;
  total_words *= words_per_bitmap;
  ScratchWords scratch(total_words);
  if (!scratch.ok()) {
    return Status::ResourceExhausted("BitmapIndex: no memory for the build");
  }
  uint64_t* next = scratch.data();
  for (size_t k = 0; k < columns.size(); ++k) {
    column_words[k] = next;
    next += columns[k].num_values * words_per_bitmap;
  }
  constexpr uint64_t kBatchRows = 4096;
  storage::TupleColumns batch;
  for (uint64_t first = 0; first < num_rows; first += kBatchRows) {
    batch.Clear();
    CHUNKCACHE_RETURN_IF_ERROR(
        fact->ScanRangeColumns(first, kBatchRows, &batch));
    for (size_t k = 0; k < columns.size(); ++k) {
      const std::vector<uint32_t>& keys = batch.keys[columns[k].dim];
      for (size_t i = 0; i < keys.size(); ++i) {
        if (keys[i] >= columns[k].num_values) {
          return Status::Corruption(
              "BitmapIndex: ordinal beyond declared domain");
        }
        bit_util::SetBit(column_words[k] + keys[i] * words_per_bitmap,
                         first + i);
      }
    }
  }

  std::vector<BitmapIndex> out;
  out.reserve(columns.size());
  for (size_t k = 0; k < columns.size(); ++k) {
    const uint32_t file_id = pool->disk()->CreateFile();
    BitmapIndex idx(pool, file_id, columns[k].dim);
    idx.num_values_ = columns[k].num_values;
    idx.pages_per_bitmap_ = pages_per_bitmap;
    idx.num_rows_ = num_rows;
    for (uint32_t v = 0; v < idx.num_values_; ++v) {
      const uint8_t* src = reinterpret_cast<const uint8_t*>(
          column_words[k] + v * words_per_bitmap);
      uint64_t remaining = bytes_per_bitmap;
      for (uint32_t p = 0; p < pages_per_bitmap; ++p) {
        CHUNKCACHE_ASSIGN_OR_RETURN(PageGuard guard,
                                    pool->Allocate(file_id));
        const uint64_t take = remaining < kPageSize ? remaining : kPageSize;
        std::memcpy(guard.page()->data.data(), src, take);
        src += take;
        remaining -= take;
        guard.MarkDirty();
      }
    }
    out.push_back(std::move(idx));
  }
  return out;
}

Status BitmapIndex::ReadBitmap(uint32_t value, Bitmap* out) {
  if (value >= num_values_) {
    return Status::OutOfRange("BitmapIndex: value out of range");
  }
  *out = Bitmap(num_rows_);
  uint8_t* dst = reinterpret_cast<uint8_t*>(out->words());
  uint64_t remaining = out->num_words() * 8;
  const uint32_t first_page = value * pages_per_bitmap_;
  for (uint32_t p = 0; p < pages_per_bitmap_; ++p) {
    CHUNKCACHE_ASSIGN_OR_RETURN(
        PageGuard guard, pool_->Fetch(PageId{file_id_, first_page + p}));
    const uint64_t take = remaining < kPageSize ? remaining : kPageSize;
    std::memcpy(dst, guard.page()->data.data(), take);
    dst += take;
    remaining -= take;
  }
  return Status::OK();
}

Status BitmapIndex::EvaluateRange(uint32_t lo, uint32_t hi, Bitmap* out) {
  if (lo > hi || hi >= num_values_) {
    return Status::OutOfRange("BitmapIndex: bad range");
  }
  CHUNKCACHE_RETURN_IF_ERROR(ReadBitmap(lo, out));
  Bitmap tmp;
  for (uint32_t v = lo + 1; v <= hi; ++v) {
    CHUNKCACHE_RETURN_IF_ERROR(ReadBitmap(v, &tmp));
    out->Or(tmp);
  }
  return Status::OK();
}

}  // namespace chunkcache::index
