#include "common/thread_pool.h"

#include "common/logging.h"

namespace chunkcache {

// ----------------------------------------------------------------------------
// WaitGroup
// ----------------------------------------------------------------------------

void WaitGroup::Add(uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  count_ += n;
}

void WaitGroup::Done() {
  std::lock_guard<std::mutex> lock(mu_);
  CHUNKCACHE_CHECK(count_ > 0);
  if (--count_ == 0) cv_.notify_all();
}

void WaitGroup::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return count_ == 0; });
}

// ----------------------------------------------------------------------------
// ThreadPool
// ----------------------------------------------------------------------------

ThreadPool::ThreadPool(uint32_t num_threads) {
  CHUNKCACHE_CHECK(num_threads > 0);
  workers_.reserve(num_threads);
  for (uint32_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    CHUNKCACHE_CHECK(!shutdown_);
    queue_.push_back(std::move(fn));
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      // Drain semantics: run everything submitted before shutdown.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

}  // namespace chunkcache
