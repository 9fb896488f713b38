#ifndef CHUNKCACHE_COMMON_THREAD_POOL_H_
#define CHUNKCACHE_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace chunkcache {

/// Counts outstanding tasks and lets one thread block until they finish.
/// The usual protocol: Add(n) before submitting n tasks, each task calls
/// Done() when it completes, the coordinator calls Wait(). Add may be
/// called again after Wait returns (the group is reusable).
class WaitGroup {
 public:
  void Add(uint64_t n = 1);
  void Done();
  void Wait();

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  uint64_t count_ = 0;
};

/// Fixed-size thread-pool executor with a single shared FIFO queue — no
/// work stealing, no dynamic sizing, no external dependencies. Tasks are
/// plain closures; completion is coordinated through WaitGroup (the pool
/// itself never exposes futures). Submit is safe from any thread,
/// including pool workers.
///
/// The destructor drains the queue: every task submitted before
/// destruction runs to completion, then workers join. Tasks must therefore
/// never outlive the objects they capture; owners that hand `this` to
/// tasks must destroy the pool first (declare it last).
class ThreadPool {
 public:
  explicit ThreadPool(uint32_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `fn` for execution on some worker.
  void Submit(std::function<void()> fn);

 private:
  void WorkerLoop();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace chunkcache

#endif  // CHUNKCACHE_COMMON_THREAD_POOL_H_
