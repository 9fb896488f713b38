#ifndef CHUNKCACHE_STORAGE_DISK_MANAGER_H_
#define CHUNKCACHE_STORAGE_DISK_MANAGER_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "storage/page.h"

namespace chunkcache::storage {

/// Physical I/O statistics. These are the ground truth for every cost
/// number reported by the benchmarks: a "physical read" here corresponds to
/// a raw-device read in the paper's setup.
struct DiskStats {
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t allocations = 0;
  uint64_t checksum_failures = 0;
};

/// Abstraction over the physical page store. One DiskManager hosts many
/// numbered files (fact file, indexes, ...), each a dense array of pages.
///
/// InMemoryDiskManager is the implementation: pages live in RAM with exact
/// I/O accounting, which emulates the paper's raw device (no hidden OS
/// caching). The interface stays virtual so tests can wrap a disk in one
/// that fails or blocks on demand.
class DiskManager {
 public:
  virtual ~DiskManager() = default;

  /// Creates a new empty file and returns its id (ids start at 1).
  virtual uint32_t CreateFile() = 0;

  /// Appends a zeroed page to `file_id` and returns its PageId.
  virtual Result<PageId> AllocatePage(uint32_t file_id) = 0;

  /// Reads the page `id` into `*out`.
  virtual Status ReadPage(PageId id, Page* out) = 0;

  /// Writes `page` to `id`. The page must have been allocated.
  virtual Status WritePage(PageId id, const Page& page) = 0;

  /// Snapshot of the I/O counters. Counters are guarded by their own
  /// mutex so concurrent queries can read work deltas while other threads
  /// perform I/O (page data itself is serialized by the BufferPool).
  DiskStats stats() const {
    std::lock_guard<std::mutex> lock(stats_mu_);
    return stats_;
  }
  void ResetStats() {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_ = DiskStats();
  }

 protected:
  void CountRead() {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.reads;
  }
  void CountWrite() {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.writes;
  }
  void CountAllocation() {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.allocations;
  }

  /// End-to-end page integrity: AllocatePage and WritePage record a CRC32C
  /// of the page (`crc`) in a side table keyed by PageId, ReadPage verifies
  /// against it and fails with Status::Corruption instead of serving bad
  /// bytes. Keeping the checksum out of the page keeps the on-page capacity
  /// math and the page format unchanged. A page with no recorded checksum
  /// reads as OK.
  void RecordPageChecksum(PageId id, uint32_t crc);
  Status VerifyPageChecksum(PageId id, const Page& page);

 private:
  mutable std::mutex stats_mu_;
  DiskStats stats_;
  mutable std::mutex crc_mu_;
  std::unordered_map<uint64_t, uint32_t> page_crc_;  // PageId::AsU64() -> crc
};

/// RAM-backed DiskManager with exact physical-I/O accounting.
class InMemoryDiskManager final : public DiskManager {
 public:
  InMemoryDiskManager() = default;

  InMemoryDiskManager(const InMemoryDiskManager&) = delete;
  InMemoryDiskManager& operator=(const InMemoryDiskManager&) = delete;

  uint32_t CreateFile() override;
  Result<PageId> AllocatePage(uint32_t file_id) override;
  Status ReadPage(PageId id, Page* out) override;
  Status WritePage(PageId id, const Page& page) override;

  /// Number of pages allocated in `file_id` (0 for an unknown id): how
  /// tests see a file's length.
  uint32_t FilePageCount(uint32_t file_id) const {
    if (file_id == 0 || file_id > files_.size()) return 0;
    return static_cast<uint32_t>(files_[file_id - 1].size());
  }

 private:
  // files_[file_id - 1] is the page vector of that file.
  std::vector<std::vector<std::unique_ptr<Page>>> files_;
};

}  // namespace chunkcache::storage

#endif  // CHUNKCACHE_STORAGE_DISK_MANAGER_H_
