#ifndef CHUNKCACHE_STORAGE_PAGE_H_
#define CHUNKCACHE_STORAGE_PAGE_H_

#include <array>
#include <cstdint>
#include <cstring>

namespace chunkcache::storage {

/// Size of one disk page. 4 KiB keeps tuple-per-page counts close to the
/// paper's setup (20-24 B tuples -> ~200 tuples/page).
inline constexpr uint32_t kPageSize = 4096;

/// Identifies a page as (file, page-number-within-file). Files are created
/// through DiskManager::CreateFile.
struct PageId {
  uint32_t file_id = 0;
  uint32_t page_no = 0;

  friend bool operator==(const PageId& a, const PageId& b) {
    return a.file_id == b.file_id && a.page_no == b.page_no;
  }
  friend bool operator!=(const PageId& a, const PageId& b) {
    return !(a == b);
  }

  uint64_t AsU64() const {
    return (static_cast<uint64_t>(file_id) << 32) | page_no;
  }
};

/// An invalid page id (file 0 is never handed out by DiskManager).
inline constexpr PageId kInvalidPageId{0, 0};

/// Raw page buffer. Interpretation is up to the owning file structure.
struct alignas(64) Page {
  std::array<uint8_t, kPageSize> data;

  void Zero() { std::memset(data.data(), 0, kPageSize); }

  template <typename T>
  T* As(uint32_t offset = 0) {
    return reinterpret_cast<T*>(data.data() + offset);
  }
  template <typename T>
  const T* As(uint32_t offset = 0) const {
    return reinterpret_cast<const T*>(data.data() + offset);
  }
};

}  // namespace chunkcache::storage

#endif  // CHUNKCACHE_STORAGE_PAGE_H_
