#include "storage/disk_manager.h"

#include "common/crc32c.h"
#include "common/fault_injector.h"

namespace chunkcache::storage {

uint32_t InMemoryDiskManager::CreateFile() {
  files_.emplace_back();
  return static_cast<uint32_t>(files_.size());  // ids start at 1
}

Result<PageId> InMemoryDiskManager::AllocatePage(uint32_t file_id) {
  CHUNKCACHE_FAULT_POINT(FaultSite::kDiskAlloc);
  if (file_id == 0 || file_id > files_.size()) {
    return Status::InvalidArgument("AllocatePage: unknown file id " +
                                   std::to_string(file_id));
  }
  // Every fresh page holds the same zero bytes, so one CRC serves them all.
  static const uint32_t kZeroPageCrc = [] {
    Page zero;
    zero.Zero();
    return Crc32c(zero.data.data(), kPageSize);
  }();
  auto& pages = files_[file_id - 1];
  const PageId id{file_id, static_cast<uint32_t>(pages.size())};
  // make_unique value-initializes the page: all zero, as kZeroPageCrc says.
  pages.push_back(StoredPage{std::make_unique<Page>(), kZeroPageCrc});
  CountAllocation();
  return id;
}

Status InMemoryDiskManager::ReadPage(PageId id, Page* out) {
  CHUNKCACHE_FAULT_POINT(FaultSite::kDiskRead);
  if (id.file_id == 0 || id.file_id > files_.size()) {
    return Status::IoError("ReadPage: unknown file id");
  }
  const auto& pages = files_[id.file_id - 1];
  if (id.page_no >= pages.size()) {
    return Status::IoError("ReadPage: page " + std::to_string(id.page_no) +
                           " beyond EOF of file " +
                           std::to_string(id.file_id));
  }
  const StoredPage& stored = pages[id.page_no];
  *out = *stored.page;
  CountRead();
  // Corrupt only the returned copy — the store stays clean, so a retry of
  // the same read recovers (models a transient bus/DMA flip).
  FaultInjector& fi = FaultInjector::Global();
  if (fi.armed() && fi.ShouldInject(FaultSite::kDiskCorrupt)) {
    fi.CorruptBuffer(out->data.data(), kPageSize);
  }
  if (Crc32c(out->data.data(), kPageSize) == stored.crc) return Status::OK();
  CountChecksumFailure();
  return Status::Corruption("page checksum mismatch at file " +
                            std::to_string(id.file_id) + " page " +
                            std::to_string(id.page_no));
}

Status InMemoryDiskManager::WritePage(PageId id, const Page& page) {
  CHUNKCACHE_FAULT_POINT(FaultSite::kDiskWrite);
  if (id.file_id == 0 || id.file_id > files_.size()) {
    return Status::IoError("WritePage: unknown file id");
  }
  auto& pages = files_[id.file_id - 1];
  if (id.page_no >= pages.size()) {
    return Status::IoError("WritePage: page beyond EOF");
  }
  StoredPage& stored = pages[id.page_no];
  *stored.page = page;
  stored.crc = Crc32c(page.data.data(), kPageSize);
  CountWrite();
  return Status::OK();
}

}  // namespace chunkcache::storage
