#include "storage/disk_manager.h"

#include "common/crc32c.h"
#include "common/fault_injector.h"

namespace chunkcache::storage {

// ---------------------------------------------------------------------------
// Page checksums (shared by all DiskManager implementations)
// ---------------------------------------------------------------------------

void DiskManager::RecordPageChecksum(PageId id, uint32_t crc) {
  std::lock_guard<std::mutex> lock(crc_mu_);
  page_crc_[id.AsU64()] = crc;
}

Status DiskManager::VerifyPageChecksum(PageId id, const Page& page) {
  uint32_t expected;
  {
    std::lock_guard<std::mutex> lock(crc_mu_);
    auto it = page_crc_.find(id.AsU64());
    if (it == page_crc_.end()) return Status::OK();  // no coverage yet
    expected = it->second;
  }
  if (Crc32c(page.data.data(), kPageSize) == expected) return Status::OK();
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.checksum_failures;
  }
  return Status::Corruption("page checksum mismatch at file " +
                            std::to_string(id.file_id) + " page " +
                            std::to_string(id.page_no));
}

// ---------------------------------------------------------------------------
// InMemoryDiskManager
// ---------------------------------------------------------------------------

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
  auto page = std::make_unique<Page>();  // value-initialized: all zero
  const PageId id{file_id, static_cast<uint32_t>(pages.size())};
  RecordPageChecksum(id, kZeroPageCrc);
  pages.push_back(std::move(page));
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
  *out = *pages[id.page_no];
  CountRead();
  // Corrupt only the returned copy — the store stays clean, so a retry of
  // the same read recovers (models a transient bus/DMA flip).
  FaultInjector& fi = FaultInjector::Global();
  if (fi.armed() && fi.ShouldInject(FaultSite::kDiskCorrupt)) {
    fi.CorruptBuffer(out->data.data(), kPageSize);
  }
  return VerifyPageChecksum(id, *out);
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
  *pages[id.page_no] = page;
  RecordPageChecksum(id, Crc32c(page.data.data(), kPageSize));
  CountWrite();
  return Status::OK();
}

}  // namespace chunkcache::storage
