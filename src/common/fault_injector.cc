#include "common/fault_injector.h"

#include <cmath>
#include <string>

namespace chunkcache {

namespace {

/// Default status surfaced by each site when ArmAll is used; individual
/// Arm calls may override.
StatusCode NaturalCode(FaultSite site) {
  switch (site) {
    case FaultSite::kDiskCorrupt:
      return StatusCode::kCorruption;  // nominal; effect is a byte flip
    default:
      return StatusCode::kIoError;
  }
}

uint64_t SplitMix64(uint64_t& x) {
  x += 0x9E3779B97F4A7C15ull;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

const char* FaultSiteName(FaultSite site) {
  switch (site) {
    case FaultSite::kDiskRead:
      return "disk-read";
    case FaultSite::kDiskWrite:
      return "disk-write";
    case FaultSite::kDiskAlloc:
      return "disk-alloc";
    case FaultSite::kDiskCorrupt:
      return "disk-corrupt";
    case FaultSite::kFactScan:
      return "fact-scan";
    case FaultSite::kAggScan:
      return "agg-scan";
    case FaultSite::kCacheInsert:
      return "cache-insert";
    case FaultSite::kSnapshotWrite:
      return "snapshot-write";
    case FaultSite::kSnapshotRename:
      return "snapshot-rename";
    case FaultSite::kRecoveryRead:
      return "recovery-read";
  }
  return "unknown";
}

FaultInjector& FaultInjector::Global() {
  static FaultInjector injector;
  return injector;
}

void FaultInjector::Arm(FaultSite site, double probability, StatusCode code,
                        uint64_t max_faults, uint64_t skip_ops) {
  if (!(probability >= 0.0)) probability = 0.0;  // also catches NaN
  if (probability > 1.0) probability = 1.0;
  Site& s = sites_[static_cast<size_t>(site)];
  s.prob_bits.store(static_cast<uint64_t>(std::ldexp(probability, 32)),
                    std::memory_order_relaxed);
  s.remaining.store(max_faults, std::memory_order_relaxed);
  s.skip.store(static_cast<int64_t>(skip_ops), std::memory_order_relaxed);
  s.code.store(static_cast<uint8_t>(code), std::memory_order_relaxed);
  armed_sites_.fetch_or(1u << static_cast<uint32_t>(site),
                        std::memory_order_release);
}

void FaultInjector::ArmAll(double probability, uint64_t max_faults) {
  for (uint32_t i = 0; i < kNumFaultSites; ++i) {
    FaultSite site = static_cast<FaultSite>(i);
    Arm(site, probability, NaturalCode(site), max_faults);
  }
}

void FaultInjector::DisarmAll() {
  armed_sites_.store(0, std::memory_order_release);
  for (Site& s : sites_) s.prob_bits.store(0, std::memory_order_relaxed);
}

void FaultInjector::Seed(uint64_t seed) {
  seed_.store(seed, std::memory_order_relaxed);
  epoch_.fetch_add(1, std::memory_order_release);
}

void FaultInjector::ResetCounters() {
  for (Site& s : sites_) {
    s.injected.store(0, std::memory_order_relaxed);
    s.checked.store(0, std::memory_order_relaxed);
  }
}

uint32_t FaultInjector::NextRand32() {
  // Per-thread xorshift128+, reseeded whenever Seed() bumps the epoch.
  // Thread ordinals make single-threaded runs exactly reproducible and
  // give each storm thread an independent stream.
  struct ThreadRng {
    uint64_t s0 = 0, s1 = 0;
    uint64_t epoch = ~0ull;
  };
  static std::atomic<uint64_t> ordinal_counter{0};
  thread_local ThreadRng rng;
  thread_local uint64_t ordinal = ordinal_counter.fetch_add(1);
  uint64_t epoch = epoch_.load(std::memory_order_acquire);
  if (rng.epoch != epoch) {
    uint64_t sm = seed_.load(std::memory_order_relaxed) ^
                  (ordinal * 0xA24BAED4963EE407ull);
    rng.s0 = SplitMix64(sm);
    rng.s1 = SplitMix64(sm);
    rng.epoch = epoch;
  }
  uint64_t x = rng.s0;
  const uint64_t y = rng.s1;
  rng.s0 = y;
  x ^= x << 23;
  rng.s1 = x ^ y ^ (x >> 17) ^ (y >> 26);
  return static_cast<uint32_t>((rng.s1 + y) >> 16);
}

bool FaultInjector::ShouldInject(FaultSite site) {
  const uint32_t bit = 1u << static_cast<uint32_t>(site);
  if ((armed_sites_.load(std::memory_order_acquire) & bit) == 0) return false;
  Site& s = sites_[static_cast<size_t>(site)];
  s.checked.fetch_add(1, std::memory_order_relaxed);
  if (s.skip.load(std::memory_order_relaxed) > 0) {
    // Benign race: concurrent ops may each consume a skip slot; the count
    // drains monotonically, which is all tests rely on.
    if (s.skip.fetch_sub(1, std::memory_order_relaxed) > 0) return false;
  }
  const uint64_t prob = s.prob_bits.load(std::memory_order_relaxed);
  if (prob < (1ull << 32) && static_cast<uint64_t>(NextRand32()) >= prob) {
    return false;
  }
  // Budget: CAS-decrement so at most `max_faults` faults fire.
  uint64_t rem = s.remaining.load(std::memory_order_relaxed);
  while (rem != kUnlimited) {
    if (rem == 0) return false;
    if (s.remaining.compare_exchange_weak(rem, rem - 1,
                                          std::memory_order_relaxed)) {
      break;
    }
  }
  s.injected.fetch_add(1, std::memory_order_relaxed);
  return true;
}

Status FaultInjector::Check(FaultSite site) {
  if (!ShouldInject(site)) return Status::OK();
  const Site& s = sites_[static_cast<size_t>(site)];
  const StatusCode code =
      static_cast<StatusCode>(s.code.load(std::memory_order_relaxed));
  return Status(code,
                std::string("injected fault at ") + FaultSiteName(site));
}

void FaultInjector::CorruptBuffer(void* data, size_t n) {
  if (data == nullptr || n == 0) return;
  auto* bytes = static_cast<uint8_t*>(data);
  bytes[NextRand32() % n] ^= 0x40;
}

uint64_t FaultInjector::faults_injected() const {
  uint64_t total = 0;
  for (const Site& s : sites_) {
    total += s.injected.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t FaultInjector::faults_injected(FaultSite site) const {
  return sites_[static_cast<size_t>(site)].injected.load(
      std::memory_order_relaxed);
}

uint64_t FaultInjector::checks() const {
  uint64_t total = 0;
  for (const Site& s : sites_) {
    total += s.checked.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace chunkcache
