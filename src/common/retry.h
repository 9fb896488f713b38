#ifndef CHUNKCACHE_COMMON_RETRY_H_
#define CHUNKCACHE_COMMON_RETRY_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <type_traits>
#include <utility>

#include "common/status.h"

namespace chunkcache {

/// Bounded-retry policy with exponential backoff and multiplicative
/// jitter. Attempt k (k = 0 for the first retry) sleeps
///   min(backoff_base_us * multiplier^k, backoff_max_us) * U(1-jitter, 1)
/// so concurrent retriers decorrelate instead of stampeding the backend.
struct RetryPolicy {
  int max_attempts = 3;            ///< Total tries, including the first.
  uint64_t backoff_base_us = 100;  ///< Sleep before the first retry.
  double backoff_multiplier = 2.0;
  uint64_t backoff_max_us = 5000;  ///< Cap on any single sleep.
  double jitter = 0.5;             ///< Fraction of the sleep randomized away.
};

/// Which failures are worth re-attempting. Deadline/cancellation are the
/// caller giving up — retrying those would fight the caller's intent —
/// and logic errors (InvalidArgument, Internal, ...) won't heal on retry.
inline bool IsRetryable(const Status& s) {
  switch (s.code()) {
    case StatusCode::kIoError:
    case StatusCode::kCorruption:
    case StatusCode::kResourceExhausted:
      return true;
    default:
      return false;
  }
}

/// Absolute point in time a query must finish by. Default-constructed
/// deadlines are infinite, so "no deadline" needs no special-casing at
/// call sites. Uses steady_clock: wall-clock adjustments must not expire
/// in-flight queries.
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  Deadline() : when_(Clock::time_point::max()) {}
  explicit Deadline(Clock::time_point when) : when_(when) {}

  static Deadline AfterMs(uint64_t ms) {
    return Deadline(Clock::now() + std::chrono::milliseconds(ms));
  }

  bool infinite() const { return when_ == Clock::time_point::max(); }
  bool expired() const { return !infinite() && Clock::now() >= when_; }
  Clock::time_point time_point() const { return when_; }

  /// Time left; zero when expired, Clock::duration::max() when infinite.
  Clock::duration remaining() const {
    if (infinite()) return Clock::duration::max();
    auto now = Clock::now();
    return now >= when_ ? Clock::duration::zero() : when_ - now;
  }

 private:
  Clock::time_point when_;
};

/// Cooperative cancellation. A CancellationToken is a cheap view onto a
/// CancellationSource's flag; a default-constructed token can never be
/// cancelled, so "no cancellation" also needs no special-casing.
class CancellationToken {
 public:
  CancellationToken() = default;

  bool cancelled() const {
    return flag_ && flag_->load(std::memory_order_acquire);
  }

 private:
  friend class CancellationSource;
  explicit CancellationToken(std::shared_ptr<std::atomic<bool>> flag)
      : flag_(std::move(flag)) {}
  std::shared_ptr<std::atomic<bool>> flag_;
};

class CancellationSource {
 public:
  CancellationSource() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  CancellationToken token() const { return CancellationToken(flag_); }
  void Cancel() { flag_->store(true, std::memory_order_release); }
  bool cancelled() const { return flag_->load(std::memory_order_acquire); }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// Per-query execution control threaded through Execute, the miss
/// pipeline, and scan admission. Defaults mean "run forever, never
/// cancelled", so pre-existing call sites keep their behaviour.
struct ExecControl {
  Deadline deadline;
  CancellationToken cancel;

  /// Cancellation is checked first: an explicit cancel should win over a
  /// deadline that happens to expire at the same moment.
  Status Check() const {
    if (cancel.cancelled()) return Status::Cancelled("query cancelled");
    if (deadline.expired()) {
      return Status::DeadlineExceeded("query deadline expired");
    }
    return Status::OK();
  }
};

namespace retry_internal {
/// Per-thread jitter source; determinism is not required here (jitter
/// exists precisely to decorrelate), so seeding from the thread id is fine.
inline uint64_t NextJitterBits() {
  thread_local uint64_t state =
      0x9E3779B97F4A7C15ull ^
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  state ^= state << 13;
  state ^= state >> 7;
  state ^= state << 17;
  return state;
}
}  // namespace retry_internal

/// Runs `fn` (returning Status or Result<T>) up to policy.max_attempts
/// times, sleeping with jittered exponential backoff between attempts.
/// Never sleeps past the deadline, and re-checks `ctrl` before each
/// attempt so cancellation interrupts a retry loop promptly. Each retry
/// performed increments *retries_out (if non-null).
template <typename Fn>
auto RunWithRetry(const RetryPolicy& policy, const ExecControl& ctrl,
                  uint64_t* retries_out, Fn&& fn) -> decltype(fn()) {
  using R = decltype(fn());
  double backoff_us = static_cast<double>(policy.backoff_base_us);
  const int attempts = policy.max_attempts < 1 ? 1 : policy.max_attempts;
  for (int attempt = 0;; ++attempt) {
    Status ctrl_status = ctrl.Check();
    if (!ctrl_status.ok()) return R(ctrl_status);
    R result = fn();
    Status status = [&result]() -> Status {
      if constexpr (std::is_same_v<R, Status>) {
        return result;
      } else {
        return result.status();
      }
    }();
    if constexpr (std::is_same_v<R, Status>) {
      if (status.ok()) return result;
    } else {
      if (result.ok()) return result;
    }
    if (attempt + 1 >= attempts || !IsRetryable(status)) return result;

    double sleep_us = backoff_us;
    if (sleep_us > static_cast<double>(policy.backoff_max_us)) {
      sleep_us = static_cast<double>(policy.backoff_max_us);
    }
    if (policy.jitter > 0.0) {
      const double u = static_cast<double>(retry_internal::NextJitterBits() >>
                                           11) /  // 53 random bits
                       9007199254740992.0;        // 2^53
      sleep_us *= 1.0 - policy.jitter * u;
    }
    auto sleep_for = std::chrono::microseconds(
        static_cast<uint64_t>(sleep_us < 0.0 ? 0.0 : sleep_us));
    auto left = ctrl.deadline.remaining();
    if (left <= std::chrono::steady_clock::duration::zero()) {
      return R(Status::DeadlineExceeded("query deadline expired"));
    }
    if (std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            sleep_for) > left &&
        !ctrl.deadline.infinite()) {
      sleep_for = std::chrono::duration_cast<std::chrono::microseconds>(left);
    }
    if (sleep_for.count() > 0) std::this_thread::sleep_for(sleep_for);
    backoff_us *= policy.backoff_multiplier;
    if (retries_out != nullptr) ++*retries_out;
  }
}

}  // namespace chunkcache

#endif  // CHUNKCACHE_COMMON_RETRY_H_
