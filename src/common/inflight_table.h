#ifndef CHUNKCACHE_COMMON_INFLIGHT_TABLE_H_
#define CHUNKCACHE_COMMON_INFLIGHT_TABLE_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "common/retry.h"
#include "common/status.h"

namespace chunkcache {

/// Singleflight table: at most one computation per key is in flight at a
/// time. The first caller to Acquire a key becomes its *owner* and must
/// eventually Publish a value or Fail with a status; every concurrent
/// Acquire of the same key joins as a *waiter* and blocks in Wait until
/// the owner resolves the slot. Publish and Fail both retire the table
/// entry, so a later Acquire after a failure starts a fresh computation
/// (waiters of the failed slot all observe the error — nobody silently
/// retries on their behalf).
///
/// Slots are shared_ptrs handed out to owner and waiters alike, so a slot
/// stays valid for late waiters even after it has been retired from the
/// map. Resolution is sticky: Wait on an already resolved slot returns
/// immediately.
///
/// Thread safety: all public methods are safe to call concurrently. The
/// table mutex is never held while blocking; waiters block only on their
/// slot's own condition variable.
template <typename Key, typename Value, typename Hash = std::hash<Key>>
class InflightTable {
 public:
  /// Shared state of one in-flight computation.
  class Slot {
   public:
    /// Blocks until the owner publishes or fails, then returns the value
    /// or the owner's error. Safe to call from many waiters.
    Result<Value> Wait() {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return done_; });
      if (!status_.ok()) return status_;
      return value_;
    }

    /// Like Wait, but gives up at `deadline` with DeadlineExceeded. The
    /// slot itself is unaffected — the owner still resolves it for any
    /// remaining waiters, and a timed-out waiter may probe the cache or
    /// degrade instead of blocking on a wedged owner.
    Result<Value> WaitUntil(const Deadline& deadline) {
      std::unique_lock<std::mutex> lock(mu_);
      if (deadline.infinite()) {
        cv_.wait(lock, [&] { return done_; });
      } else if (!cv_.wait_until(lock, deadline.time_point(),
                                 [&] { return done_; })) {
        return Status::DeadlineExceeded("timed out waiting for owner");
      }
      if (!status_.ok()) return status_;
      return value_;
    }

   private:
    friend class InflightTable;
    void Resolve(Status status, Value value) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        status_ = std::move(status);
        value_ = std::move(value);
        done_ = true;
      }
      cv_.notify_all();
    }

    std::mutex mu_;
    std::condition_variable cv_;
    bool done_ = false;
    Status status_ = Status::OK();
    Value value_{};
  };
  using SlotPtr = std::shared_ptr<Slot>;

  /// Result of Acquire: the slot, and whether the caller owns it (and so
  /// must Publish or Fail it exactly once).
  struct Claim {
    SlotPtr slot;
    bool owner = false;
  };

  /// Claims `key`: inserts a fresh slot (owner = true) or joins the one
  /// already in flight (owner = false).
  Claim Acquire(const Key& key) {
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = slots_.try_emplace(key);
    if (inserted) {
      it->second = std::make_shared<Slot>();
      if (slots_.size() > peak_) peak_ = slots_.size();
    }
    return Claim{it->second, inserted};
  }

  /// Owner publishes the computed value: wakes every waiter with `value`
  /// and retires the entry.
  void Publish(const Key& key, const SlotPtr& slot, Value value) {
    Retire(key, slot);
    slot->Resolve(Status::OK(), std::move(value));
  }

  /// Owner reports failure: wakes every waiter with `status` and retires
  /// the entry, so the next Acquire of `key` recomputes from scratch.
  void Fail(const Key& key, const SlotPtr& slot, Status status) {
    Retire(key, slot);
    slot->Resolve(std::move(status), Value{});
  }

  /// Slots currently in flight.
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return slots_.size();
  }

  /// High-water mark of concurrently in-flight slots.
  uint64_t peak() const {
    std::lock_guard<std::mutex> lock(mu_);
    return peak_;
  }

 private:
  /// Erases `key` only if it still maps to `slot` — after a Fail the key
  /// may have been re-claimed by a fresh owner, whose entry must survive.
  void Retire(const Key& key, const SlotPtr& slot) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = slots_.find(key);
    if (it != slots_.end() && it->second == slot) slots_.erase(it);
  }

  mutable std::mutex mu_;
  std::unordered_map<Key, SlotPtr, Hash> slots_;
  uint64_t peak_ = 0;
};

}  // namespace chunkcache

#endif  // CHUNKCACHE_COMMON_INFLIGHT_TABLE_H_
