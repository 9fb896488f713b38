#ifndef CHUNKCACHE_STORAGE_BUFFER_POOL_H_
#define CHUNKCACHE_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "storage/disk_manager.h"
#include "storage/page.h"

namespace chunkcache::storage {

class BufferPool;

/// Pins one page in the buffer pool for the guard's lifetime; unpins on
/// destruction. Movable, not copyable. Obtained from BufferPool::Fetch or
/// BufferPool::Allocate.
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(BufferPool* pool, uint32_t frame, PageId id, Page* page)
      : pool_(pool), frame_(frame), id_(id), page_(page) {}

  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;
  PageGuard(PageGuard&& o) noexcept { MoveFrom(o); }
  PageGuard& operator=(PageGuard&& o) noexcept {
    if (this != &o) {
      Release();
      MoveFrom(o);
    }
    return *this;
  }
  ~PageGuard() { Release(); }

  bool valid() const { return page_ != nullptr; }
  PageId id() const { return id_; }
  Page* page() { return page_; }
  const Page* page() const { return page_; }

  /// Marks the page dirty so eviction writes it back.
  void MarkDirty();

  /// Unpins immediately (idempotent).
  void Release();

 private:
  void MoveFrom(PageGuard& o) {
    pool_ = o.pool_;
    frame_ = o.frame_;
    id_ = o.id_;
    page_ = o.page_;
    o.page_ = nullptr;
    o.pool_ = nullptr;
  }

  BufferPool* pool_ = nullptr;
  uint32_t frame_ = 0;
  PageId id_ = kInvalidPageId;
  Page* page_ = nullptr;
};

/// Buffer-pool hit/miss statistics. A miss costs one physical read against
/// the DiskManager (plus possibly one write-back of a dirty victim).
struct BufferPoolStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t dirty_writebacks = 0;
};

/// Fixed-capacity page cache over a DiskManager, with CLOCK (second chance)
/// replacement — the same policy family the paper uses for its chunk cache.
/// All page access in the backend goes through here, so the pool size is the
/// experiment knob corresponding to the paper's "8 MB buffer pool".
///
/// Thread-safe: one mutex guards the frame table, CLOCK state and pin
/// counts, so concurrent queries (the parallel miss-chunk pipeline and
/// multi-client traffic) may fetch pages freely. Page *content* access is
/// deliberately outside the lock — a pinned page can never be evicted, so
/// readers holding a PageGuard race with nobody on read-only workloads.
/// Writers of page content (bulk loads, index builds) must still be
/// externally serialized, as they always were.
class BufferPool {
 public:
  /// `num_frames` pages of capacity (e.g. 8 MiB / 4 KiB = 2048 frames).
  BufferPool(DiskManager* disk, uint32_t num_frames);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Pins the page `id`, reading it from disk on a miss. Fails with
  /// ResourceExhausted if every frame is pinned.
  Result<PageGuard> Fetch(PageId id);

  /// Allocates a fresh page in `file_id` and pins it (already zeroed).
  Result<PageGuard> Allocate(uint32_t file_id);

  /// Writes back all dirty pages (pages stay cached).
  Status FlushAll();

  /// Drops every unpinned page (writing back dirty ones). Used between
  /// experiment phases to start cold, mimicking the paper's raw device.
  Status EvictAll();

  BufferPoolStats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }
  void ResetStats() {
    std::lock_guard<std::mutex> lock(mu_);
    stats_ = BufferPoolStats();
  }
  uint32_t capacity() const { return static_cast<uint32_t>(frames_.size()); }
  DiskManager* disk() const { return disk_; }

  /// Homes physical I/O latency on `m` ("disk.read_ns"/"disk.write_ns"
  /// histograms). The pool times its DiskManager calls itself so
  /// DiskManager's virtual interface stays untouched (tests subclass it).
  /// Latest binding wins; UnbindMetrics(m) detaches only if `m` is still
  /// the current binding, so a middle tier that outlives another sharing
  /// this pool never yanks the survivor's histograms.
  void BindMetrics(MetricsRegistry* m);
  void UnbindMetrics(MetricsRegistry* m);

 private:
  friend class PageGuard;

  struct Frame {
    Page page;
    PageId id = kInvalidPageId;
    uint32_t pin_count = 0;
    bool dirty = false;
    bool referenced = false;
    bool in_use = false;

    /// Frees the frame. The page bytes stay: the next occupant's disk read
    /// or zero-fill overwrites them.
    void Clear() {
      id = kInvalidPageId;
      pin_count = 0;
      dirty = false;
      referenced = false;
      in_use = false;
    }
  };

  static constexpr uint32_t kNoFrame = UINT32_MAX;

  /// Frame holding page `id`, or kNoFrame when it is not resident.
  uint32_t FrameOf(PageId id) const {
    if (id.file_id >= page_table_.size()) return kNoFrame;
    const std::vector<uint32_t>& pages = page_table_[id.file_id];
    return id.page_no < pages.size() ? pages[id.page_no] : kNoFrame;
  }
  /// page_table_'s slot for `id`, grown to hold it.
  uint32_t& PageTableSlot(PageId id);

  void Unpin(uint32_t frame, bool dirty);
  void MarkFrameDirty(uint32_t frame);
  /// Finds a victim frame via CLOCK; writes back if dirty. Returns frame
  /// index or ResourceExhausted. Caller must hold mu_.
  Result<uint32_t> GrabFrame();

  /// DiskManager calls timed into the bound histograms (no-ops when
  /// unbound beyond one relaxed load).
  Status ReadTimed(PageId id, Page* page);
  Status WriteTimed(PageId id, const Page& page);

  mutable std::mutex mu_;
  DiskManager* disk_;
  std::vector<Frame> frames_;
  /// Resident pages: page_table_[file_id][page_no] is the frame holding
  /// that page, or kNoFrame. A file's array grows to the highest page
  /// number that has been resident, one uint32_t per page.
  std::vector<std::vector<uint32_t>> page_table_;
  uint32_t clock_hand_ = 0;
  BufferPoolStats stats_;

  std::atomic<MetricsRegistry*> bound_registry_{nullptr};
  std::atomic<Histogram*> read_ns_{nullptr};
  std::atomic<Histogram*> write_ns_{nullptr};
};

}  // namespace chunkcache::storage

#endif  // CHUNKCACHE_STORAGE_BUFFER_POOL_H_
