#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <set>
#include <string>
#include <vector>

#include "common/bit_util.h"
#include "common/cost_model.h"
#include "common/crc32c.h"
#include "common/inflight_table.h"
#include "common/random.h"
#include "common/retry.h"
#include "common/simd.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "common/token_bucket.h"

namespace chunkcache {
namespace {

// --------------------------- Status / Result --------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "Ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("chunk 17");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "chunk 17");
  EXPECT_EQ(s.ToString(), "NotFound: chunk 17");
}

TEST(StatusTest, AllFactoryCodes) {
  EXPECT_EQ(Status::InvalidArgument("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::Corruption("x").code(), StatusCode::kCorruption);
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
  EXPECT_EQ(Status::Unsupported("x").code(), StatusCode::kUnsupported);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Corruption("a"));
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::IoError("disk gone");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("payload");
  ASSERT_TRUE(r.ok());
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "payload");
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Status UseMacros(int x, int* out) {
  CHUNKCACHE_ASSIGN_OR_RETURN(int h, Half(x));
  CHUNKCACHE_ASSIGN_OR_RETURN(int q, Half(h));
  *out = q;
  return Status::OK();
}

TEST(ResultTest, AssignOrReturnPropagates) {
  int out = 0;
  EXPECT_TRUE(UseMacros(8, &out).ok());
  EXPECT_EQ(out, 2);
  Status s = UseMacros(6, &out);  // 6/2=3 is odd at the second step
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

// --------------------------------- Random -----------------------------------

TEST(RandomTest, Deterministic) {
  Random a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next64(), b.Next64());
}

TEST(RandomTest, SeedsDiffer) {
  Random a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next64() == b.Next64());
  EXPECT_LT(same, 2);
}

TEST(RandomTest, UniformInBounds) {
  Random r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.Uniform(10), 10u);
  }
}

TEST(RandomTest, UniformCoversRange) {
  Random r(99);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(r.Uniform(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RandomTest, DoubleInUnitInterval) {
  Random r(5);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double d = r.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RandomTest, BernoulliMatchesProbability) {
  Random r(11);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += r.Bernoulli(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

// --------------------------------- BitUtil ----------------------------------

TEST(BitUtilTest, WordsForBits) {
  EXPECT_EQ(bit_util::WordsForBits(0), 0u);
  EXPECT_EQ(bit_util::WordsForBits(1), 1u);
  EXPECT_EQ(bit_util::WordsForBits(64), 1u);
  EXPECT_EQ(bit_util::WordsForBits(65), 2u);
  EXPECT_EQ(bit_util::WordsForBits(128), 2u);
}

TEST(BitUtilTest, SetGetClear) {
  uint64_t words[2] = {0, 0};
  bit_util::SetBit(words, 0);
  bit_util::SetBit(words, 63);
  bit_util::SetBit(words, 64);
  EXPECT_TRUE(bit_util::GetBit(words, 0));
  EXPECT_TRUE(bit_util::GetBit(words, 63));
  EXPECT_TRUE(bit_util::GetBit(words, 64));
  EXPECT_FALSE(bit_util::GetBit(words, 1));
  bit_util::ClearBit(words, 63);
  EXPECT_FALSE(bit_util::GetBit(words, 63));
  EXPECT_TRUE(bit_util::GetBit(words, 0));
}

// -------------------------------- CostModel ---------------------------------

TEST(CostModelTest, LinearCombination) {
  CostModel m;
  m.page_read_ms = 10;
  m.page_write_ms = 20;
  m.tuple_cpu_ms = 0.5;
  EXPECT_DOUBLE_EQ(m.Cost(3, 2, 4), 30 + 40 + 2.0);
}

// ------------------------------ ThreadPool ---------------------------------

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<uint64_t> sum{0};
  WaitGroup wg;
  constexpr uint64_t kTasks = 200;
  wg.Add(kTasks);
  for (uint64_t i = 0; i < kTasks; ++i) {
    pool.Submit([&sum, &wg, i] {
      sum.fetch_add(i + 1, std::memory_order_relaxed);
      wg.Done();
    });
  }
  wg.Wait();
  EXPECT_EQ(sum.load(), kTasks * (kTasks + 1) / 2);
}

TEST(ThreadPoolTest, DestructorDrainsPendingTasks) {
  std::atomic<uint32_t> ran{0};
  {
    ThreadPool pool(2);
    for (uint32_t i = 0; i < 64; ++i) {
      pool.Submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
  }  // ~ThreadPool must run everything already submitted
  EXPECT_EQ(ran.load(), 64u);
}

TEST(ThreadPoolTest, SubmitFromWorkerDoesNotDeadlock) {
  ThreadPool pool(1);  // one worker: nested blocking would deadlock
  std::atomic<uint32_t> ran{0};
  WaitGroup wg;
  wg.Add(2);
  pool.Submit([&] {
    pool.Submit([&] {
      ran.fetch_add(1, std::memory_order_relaxed);
      wg.Done();
    });
    ran.fetch_add(1, std::memory_order_relaxed);
    wg.Done();
  });
  wg.Wait();
  EXPECT_EQ(ran.load(), 2u);
}

TEST(WaitGroupTest, IsReusableAcrossRounds) {
  WaitGroup wg;
  ThreadPool pool(2);
  for (int round = 0; round < 3; ++round) {
    std::atomic<uint32_t> ran{0};
    wg.Add(8);
    for (int i = 0; i < 8; ++i) {
      pool.Submit([&] {
        ran.fetch_add(1, std::memory_order_relaxed);
        wg.Done();
      });
    }
    wg.Wait();
    EXPECT_EQ(ran.load(), 8u);
  }
}

TEST(CostModelTest, WorkCountersCompose) {
  WorkCounters a{10, 5, 100};
  WorkCounters b{1, 2, 3};
  a += b;
  EXPECT_EQ(a.pages_read, 11u);
  EXPECT_EQ(a.pages_written, 7u);
  EXPECT_EQ(a.tuples_processed, 103u);
  WorkCounters d = a - b;
  EXPECT_EQ(d.pages_read, 10u);
  EXPECT_EQ(d.pages_written, 5u);
  EXPECT_EQ(d.tuples_processed, 100u);
}

// --------------------- deadlines, cancellation, retry -----------------------

TEST(StatusTest, DeadlineAndCancelledFactories) {
  Status d = Status::DeadlineExceeded("late");
  EXPECT_EQ(d.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(d.ToString(), "DeadlineExceeded: late");
  Status c = Status::Cancelled("stop");
  EXPECT_EQ(c.code(), StatusCode::kCancelled);
  EXPECT_EQ(c.ToString(), "Cancelled: stop");
}

TEST(DeadlineTest, DefaultIsInfinite) {
  Deadline d;
  EXPECT_TRUE(d.infinite());
  EXPECT_FALSE(d.expired());
  EXPECT_EQ(d.remaining(), std::chrono::steady_clock::duration::max());
}

TEST(DeadlineTest, PastDeadlineIsExpired) {
  Deadline past(std::chrono::steady_clock::now() -
                std::chrono::milliseconds(1));
  EXPECT_FALSE(past.infinite());
  EXPECT_TRUE(past.expired());
  EXPECT_EQ(past.remaining(), std::chrono::steady_clock::duration::zero());
  EXPECT_FALSE(Deadline::AfterMs(60000).expired());
  EXPECT_GT(Deadline::AfterMs(60000).remaining(),
            std::chrono::steady_clock::duration::zero());
}

TEST(CancellationTest, TokenObservesSource) {
  CancellationSource src;
  CancellationToken tok = src.token();
  EXPECT_FALSE(tok.cancelled());
  src.Cancel();
  EXPECT_TRUE(tok.cancelled());
  EXPECT_TRUE(src.cancelled());
  // A default token can never be cancelled: "no cancellation" case.
  EXPECT_FALSE(CancellationToken().cancelled());
}

TEST(ExecControlTest, CancelWinsOverExpiredDeadline) {
  ExecControl ctrl;
  EXPECT_TRUE(ctrl.Check().ok());
  ctrl.deadline =
      Deadline(std::chrono::steady_clock::now() - std::chrono::seconds(1));
  EXPECT_EQ(ctrl.Check().code(), StatusCode::kDeadlineExceeded);
  CancellationSource src;
  src.Cancel();
  ctrl.cancel = src.token();
  EXPECT_EQ(ctrl.Check().code(), StatusCode::kCancelled);
}

TEST(RetryTest, FirstAttemptSuccessDoesNotRetry) {
  uint64_t retries = 0;
  int calls = 0;
  Status s = RunWithRetry(RetryPolicy{}, ExecControl{}, &retries, [&] {
    ++calls;
    return Status::OK();
  });
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(retries, 0u);
}

TEST(RetryTest, RetryableFailureIsReattemptedOnResultPath) {
  RetryPolicy policy;
  policy.backoff_base_us = 1;
  policy.backoff_max_us = 10;
  uint64_t retries = 0;
  int calls = 0;
  Result<int> r =
      RunWithRetry(policy, ExecControl{}, &retries, [&]() -> Result<int> {
        if (++calls < 3) return Status::IoError("flaky");
        return 42;
      });
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(retries, 2u);
}

TEST(RetryTest, ExhaustedAttemptsReturnLastError) {
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.backoff_base_us = 1;
  policy.backoff_max_us = 5;
  uint64_t retries = 0;
  int calls = 0;
  Status s = RunWithRetry(policy, ExecControl{}, &retries, [&] {
    ++calls;
    return Status::IoError("still down");
  });
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_EQ(calls, 4);
  EXPECT_EQ(retries, 3u);
}

TEST(RetryTest, NonRetryableFailureReturnsImmediately) {
  uint64_t retries = 0;
  int calls = 0;
  Status s = RunWithRetry(RetryPolicy{}, ExecControl{}, &retries, [&] {
    ++calls;
    return Status::InvalidArgument("bad plan");
  });
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(retries, 0u);
}

TEST(RetryTest, CancellationInterruptsTheLoop) {
  CancellationSource src;
  ExecControl ctrl;
  ctrl.cancel = src.token();
  RetryPolicy policy;
  policy.max_attempts = 10;
  policy.backoff_base_us = 1;
  int calls = 0;
  Status s = RunWithRetry(policy, ctrl, nullptr, [&] {
    ++calls;
    src.Cancel();  // cancel arrives while the attempt is in flight
    return Status::IoError("flaky");
  });
  EXPECT_EQ(s.code(), StatusCode::kCancelled);
  EXPECT_EQ(calls, 1);
}

TEST(RetryTest, DeadlineBoundsRetrying) {
  ExecControl ctrl;
  ctrl.deadline = Deadline::AfterMs(5);
  RetryPolicy policy;
  policy.max_attempts = 1000;
  policy.backoff_base_us = 2000;
  policy.backoff_max_us = 2000;
  policy.jitter = 0;
  int calls = 0;
  Status s = RunWithRetry(policy, ctrl, nullptr, [&] {
    ++calls;
    return Status::IoError("down");
  });
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE(calls, 1);
  EXPECT_LT(calls, 1000);
}

TEST(InflightWaitUntilTest, TimesOutThenStillReceivesAfterPublish) {
  InflightTable<int, int> table;
  auto owner = table.Acquire(5);
  ASSERT_TRUE(owner.owner);
  auto waiter = table.Acquire(5);
  ASSERT_FALSE(waiter.owner);

  auto timed_out = waiter.slot->WaitUntil(Deadline::AfterMs(5));
  ASSERT_FALSE(timed_out.ok());
  EXPECT_EQ(timed_out.status().code(), StatusCode::kDeadlineExceeded);

  // The timeout gave up the wait, not the slot: publish still delivers.
  table.Publish(5, owner.slot, 11);
  auto got = waiter.slot->WaitUntil(Deadline::AfterMs(1000));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, 11);
  auto inf = owner.slot->WaitUntil(Deadline());
  ASSERT_TRUE(inf.ok());
  EXPECT_EQ(*inf, 11);
}

// -------------------------------- CRC32C ------------------------------------

TEST(Crc32cTest, KnownVectors) {
  // RFC 3720 test vector: 32 zero bytes.
  std::vector<uint8_t> zeros(32, 0);
  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
  // "123456789" -> 0xE3069283 (the classic check value).
  const char* digits = "123456789";
  EXPECT_EQ(Crc32c(digits, 9), 0xE3069283u);
  EXPECT_EQ(Crc32cSoftware(digits, 9), 0xE3069283u);
}

TEST(Crc32cTest, HardwareMatchesSoftwareAllLengthsAndOffsets) {
  // The hardware path has three regimes (byte-at-a-time head alignment,
  // the 8-byte loop, and 4/2/1-byte tail steps); lengths 0..32 at start
  // offsets 0..8 cover every head/tail combination against the table
  // implementation.
  Random rng(7);
  std::vector<uint8_t> buf(64);
  for (auto& b : buf) b = static_cast<uint8_t>(rng.Uniform(256));
  for (size_t off = 0; off <= 8; ++off) {
    for (size_t len = 0; len <= 32; ++len) {
      const uint32_t sw = Crc32cSoftware(buf.data() + off, len);
      const uint32_t hw = Crc32c(buf.data() + off, len);
      EXPECT_EQ(hw, sw) << "off=" << off << " len=" << len;
    }
  }
}

TEST(Crc32cTest, SeedChainingMatchesOneShot) {
  Random rng(11);
  std::vector<uint8_t> buf(47);
  for (auto& b : buf) b = static_cast<uint8_t>(rng.Uniform(256));
  const uint32_t whole = Crc32c(buf.data(), buf.size());
  for (size_t split = 0; split <= buf.size(); ++split) {
    const uint32_t part = Crc32c(buf.data(), split);
    const uint32_t chained =
        Crc32c(buf.data() + split, buf.size() - split, part);
    EXPECT_EQ(chained, whole) << "split=" << split;
    const uint32_t sw_part = Crc32cSoftware(buf.data(), split);
    const uint32_t sw_chained =
        Crc32cSoftware(buf.data() + split, buf.size() - split, sw_part);
    EXPECT_EQ(sw_chained, whole) << "split=" << split;
  }
}

// ------------------------------ SIMD dispatch -------------------------------

TEST(SimdTest, LevelNamesRoundTrip) {
  EXPECT_STREQ(simd::IsaLevelName(simd::IsaLevel::kScalar), "scalar");
  EXPECT_STREQ(simd::IsaLevelName(simd::IsaLevel::kAvx2), "avx2");
}

TEST(SimdTest, ActiveLevelNeverExceedsDetected) {
  EXPECT_LE(simd::ActiveLevel(), simd::DetectedLevel());
  // Requesting more than the CPU supports clamps to the detected level.
  simd::ScopedLevel pin(simd::IsaLevel::kAvx2);
  EXPECT_LE(simd::ActiveLevel(), simd::DetectedLevel());
}

TEST(SimdTest, ScopedLevelRestores) {
  const simd::IsaLevel before = simd::ActiveLevel();
  {
    simd::ScopedLevel pin(simd::IsaLevel::kScalar);
    EXPECT_EQ(simd::ActiveLevel(), simd::IsaLevel::kScalar);
  }
  EXPECT_EQ(simd::ActiveLevel(), before);
}

TEST(SimdTest, WordKernelsMatchScalarAtEveryLength) {
  Random rng(23);
  for (size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{4}, size_t{7},
                   size_t{8}, size_t{9}, size_t{31}, size_t{64},
                   size_t{65}}) {
    std::vector<uint64_t> a(n), b(n);
    for (size_t i = 0; i < n; ++i) {
      a[i] = rng.Next64();
      b[i] = rng.Next64();
    }
    std::vector<uint64_t> and_ref = a, or_ref = a;
    uint64_t pop_ref = 0;
    for (size_t i = 0; i < n; ++i) {
      and_ref[i] &= b[i];
      or_ref[i] |= b[i];
      pop_ref += static_cast<uint64_t>(std::popcount(a[i]));
    }
    for (simd::IsaLevel level :
         {simd::IsaLevel::kScalar, simd::IsaLevel::kAvx2}) {
      simd::ScopedLevel pin(level);
      std::vector<uint64_t> and_got = a, or_got = a;
      simd::AndWords(and_got.data(), b.data(), n);
      simd::OrWords(or_got.data(), b.data(), n);
      EXPECT_EQ(and_got, and_ref) << "n=" << n;
      EXPECT_EQ(or_got, or_ref) << "n=" << n;
      EXPECT_EQ(simd::PopcountWords(a.data(), n), pop_ref) << "n=" << n;
    }
  }
}

// ------------------------------ TokenBucket ---------------------------------

TEST(TokenBucketTest, StartsFullAndDrainsToEmpty) {
  TokenBucket bucket(/*rate_per_sec=*/10.0, /*burst=*/3.0);
  EXPECT_TRUE(bucket.TryAcquire(0));
  EXPECT_TRUE(bucket.TryAcquire(0));
  EXPECT_TRUE(bucket.TryAcquire(0));
  EXPECT_FALSE(bucket.TryAcquire(0));  // burst exhausted, no time passed
}

TEST(TokenBucketTest, RefillsAtRateUpToBurst) {
  TokenBucket bucket(/*rate_per_sec=*/10.0, /*burst=*/3.0);
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(bucket.TryAcquire(0));
  // 10 tokens/s: one full token exists 100 ms later, not at 50 ms.
  EXPECT_FALSE(bucket.TryAcquire(50'000'000));
  EXPECT_TRUE(bucket.TryAcquire(100'000'000));
  EXPECT_FALSE(bucket.TryAcquire(100'000'000));
  // A long idle period banks at most `burst` tokens.
  const uint64_t hour_later = 3'600'000'000'000ull;
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(bucket.TryAcquire(hour_later));
  EXPECT_FALSE(bucket.TryAcquire(hour_later));
}

TEST(TokenBucketTest, BackwardsTimeMintsNothing) {
  TokenBucket bucket(/*rate_per_sec=*/1.0, /*burst=*/1.0);
  EXPECT_TRUE(bucket.TryAcquire(5'000'000'000ull));
  // An earlier timestamp (admission-mutex reordering) must not refill.
  EXPECT_FALSE(bucket.TryAcquire(1'000'000'000ull));
  EXPECT_FALSE(bucket.TryAcquire(5'500'000'000ull));
  EXPECT_TRUE(bucket.TryAcquire(6'000'000'000ull));
}

TEST(TokenBucketTest, ZeroRateIsUnlimited) {
  TokenBucket bucket(/*rate_per_sec=*/0.0, /*burst=*/1.0);
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(bucket.TryAcquire(0));
}

TEST(TokenBucketTest, FractionalCostAndMinimumBurst) {
  TokenBucket bucket(/*rate_per_sec=*/5.0, /*burst=*/0.0);  // clamped to 1
  EXPECT_TRUE(bucket.TryAcquire(0, /*cost=*/0.5));
  EXPECT_TRUE(bucket.TryAcquire(0, /*cost=*/0.5));
  EXPECT_FALSE(bucket.TryAcquire(0, /*cost=*/0.5));
}

TEST(TokenBucketTest, DeterministicDecisionSequence) {
  // The admission story leans on exact reproducibility: two buckets fed the
  // same (now_ns, cost) schedule decide identically, call for call.
  TokenBucket a(7.0, 2.0), b(7.0, 2.0);
  Random rng(99);
  uint64_t now = 0;
  for (int i = 0; i < 500; ++i) {
    now += rng.Uniform(300'000'000);
    const double cost = 0.25 * static_cast<double>(1 + rng.Uniform(4));
    EXPECT_EQ(a.TryAcquire(now, cost), b.TryAcquire(now, cost)) << i;
  }
}

}  // namespace
}  // namespace chunkcache
