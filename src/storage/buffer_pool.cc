#include "storage/buffer_pool.h"

#include <chrono>

#include "common/logging.h"

namespace chunkcache::storage {

namespace {
class HistTimer {
 public:
  explicit HistTimer(Histogram* h) : h_(h) {
    if (h_ != nullptr) t0_ = std::chrono::steady_clock::now();
  }
  ~HistTimer() {
    if (h_ != nullptr) {
      h_->Record(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0_)
              .count()));
    }
  }

 private:
  Histogram* h_;
  std::chrono::steady_clock::time_point t0_;
};
}  // namespace

void PageGuard::MarkDirty() {
  CHUNKCACHE_DCHECK(valid());
  // Mark through the pool so the flag lives on the frame, not the guard.
  pool_->MarkFrameDirty(frame_);
}

void PageGuard::Release() {
  if (page_ != nullptr) {
    pool_->Unpin(frame_, /*dirty=*/false);
    page_ = nullptr;
    pool_ = nullptr;
  }
}

BufferPool::BufferPool(DiskManager* disk, uint32_t num_frames)
    : disk_(disk), frames_(num_frames) {
  CHUNKCACHE_CHECK(num_frames > 0);
}

uint32_t& BufferPool::PageTableSlot(PageId id) {
  if (id.file_id >= page_table_.size()) page_table_.resize(id.file_id + 1);
  std::vector<uint32_t>& pages = page_table_[id.file_id];
  if (id.page_no >= pages.size()) pages.resize(id.page_no + 1, kNoFrame);
  return pages[id.page_no];
}

void BufferPool::BindMetrics(MetricsRegistry* m) {
  if (m == nullptr) return;
  read_ns_.store(m->GetHistogram("disk.read_ns"), std::memory_order_relaxed);
  write_ns_.store(m->GetHistogram("disk.write_ns"), std::memory_order_relaxed);
  bound_registry_.store(m, std::memory_order_release);
}

void BufferPool::UnbindMetrics(MetricsRegistry* m) {
  MetricsRegistry* cur = m;
  if (bound_registry_.compare_exchange_strong(cur, nullptr,
                                              std::memory_order_acq_rel)) {
    read_ns_.store(nullptr, std::memory_order_relaxed);
    write_ns_.store(nullptr, std::memory_order_relaxed);
  }
}

Status BufferPool::ReadTimed(PageId id, Page* page) {
  HistTimer t(read_ns_.load(std::memory_order_relaxed));
  return disk_->ReadPage(id, page);
}

Status BufferPool::WriteTimed(PageId id, const Page& page) {
  HistTimer t(write_ns_.load(std::memory_order_relaxed));
  return disk_->WritePage(id, page);
}

Result<PageGuard> BufferPool::Fetch(PageId id) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint32_t resident = FrameOf(id);
  if (resident != kNoFrame) {
    Frame& f = frames_[resident];
    f.pin_count++;
    f.referenced = true;
    ++stats_.hits;
    return PageGuard(this, resident, id, &f.page);
  }
  ++stats_.misses;
  CHUNKCACHE_ASSIGN_OR_RETURN(uint32_t frame, GrabFrame());
  Frame& f = frames_[frame];
  CHUNKCACHE_RETURN_IF_ERROR(ReadTimed(id, &f.page));
  f.id = id;
  f.pin_count = 1;
  f.dirty = false;
  f.referenced = true;
  f.in_use = true;
  PageTableSlot(id) = frame;
  return PageGuard(this, frame, id, &f.page);
}

Result<PageGuard> BufferPool::Allocate(uint32_t file_id) {
  std::lock_guard<std::mutex> lock(mu_);
  CHUNKCACHE_ASSIGN_OR_RETURN(PageId id, disk_->AllocatePage(file_id));
  CHUNKCACHE_ASSIGN_OR_RETURN(uint32_t frame, GrabFrame());
  Frame& f = frames_[frame];
  f.page.Zero();
  f.id = id;
  f.pin_count = 1;
  f.dirty = true;  // fresh page must eventually reach disk
  f.referenced = true;
  f.in_use = true;
  PageTableSlot(id) = frame;
  return PageGuard(this, frame, id, &f.page);
}

Status BufferPool::FlushAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (Frame& f : frames_) {
    if (f.in_use && f.dirty) {
      CHUNKCACHE_RETURN_IF_ERROR(WriteTimed(f.id, f.page));
      f.dirty = false;
      ++stats_.dirty_writebacks;
    }
  }
  return Status::OK();
}

Status BufferPool::EvictAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (Frame& f : frames_) {
    if (!f.in_use) continue;
    if (f.pin_count > 0) {
      return Status::Internal("EvictAll with pinned page");
    }
    if (f.dirty) {
      CHUNKCACHE_RETURN_IF_ERROR(WriteTimed(f.id, f.page));
      ++stats_.dirty_writebacks;
    }
    PageTableSlot(f.id) = kNoFrame;
    f.Clear();
  }
  return Status::OK();
}

void BufferPool::Unpin(uint32_t frame, bool dirty) {
  std::lock_guard<std::mutex> lock(mu_);
  Frame& f = frames_[frame];
  CHUNKCACHE_DCHECK(f.pin_count > 0);
  f.pin_count--;
  f.dirty = f.dirty || dirty;
}

void BufferPool::MarkFrameDirty(uint32_t frame) {
  std::lock_guard<std::mutex> lock(mu_);
  frames_[frame].dirty = true;
}

Result<uint32_t> BufferPool::GrabFrame() {
  const uint32_t n = static_cast<uint32_t>(frames_.size());
  // Two sweeps of CLOCK: the first clears reference bits, the second takes
  // the first unpinned frame. 2n+1 steps bound guarantees termination.
  for (uint32_t step = 0; step < 2 * n + 1; ++step) {
    Frame& f = frames_[clock_hand_];
    const uint32_t current = clock_hand_;
    clock_hand_ = (clock_hand_ + 1) % n;
    if (!f.in_use) return current;
    if (f.pin_count > 0) continue;
    if (f.referenced) {
      f.referenced = false;
      continue;
    }
    // Victim found.
    if (f.dirty) {
      CHUNKCACHE_RETURN_IF_ERROR(WriteTimed(f.id, f.page));
      ++stats_.dirty_writebacks;
    }
    PageTableSlot(f.id) = kNoFrame;
    ++stats_.evictions;
    f.Clear();
    return current;
  }
  return Status::ResourceExhausted("buffer pool: all frames pinned");
}

}  // namespace chunkcache::storage
