#ifndef CHUNKCACHE_COMMON_FAULT_INJECTOR_H_
#define CHUNKCACHE_COMMON_FAULT_INJECTOR_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "common/status.h"

namespace chunkcache {

/// Every place the library can be made to fail on purpose. Sites are
/// compiled into the production code paths (see CHUNKCACHE_FAULT_POINT);
/// which ones actually fire is runtime configuration on FaultInjector.
enum class FaultSite : uint8_t {
  kDiskRead = 0,   ///< DiskManager::ReadPage -> IoError
  kDiskWrite,      ///< DiskManager::WritePage -> IoError
  kDiskAlloc,      ///< DiskManager::AllocatePage -> IoError
  kDiskCorrupt,    ///< Byte flip in a read page; CRC32C turns it into
                   ///< Status::Corruption instead of served bad bytes.
  kFactScan,       ///< ChunkedFile chunk-run scans -> IoError
  kAggScan,        ///< AggFile range scans -> IoError
  kCacheInsert,    ///< ChunkCache::Insert silently dropped (admission loss)
  kSnapshotWrite,  ///< Cache snapshot shadow-file write -> IoError
  kSnapshotRename, ///< Cache snapshot atomic rename -> IoError
  kRecoveryRead,   ///< Snapshot read during recovery -> IoError
};
inline constexpr uint32_t kNumFaultSites = 10;

/// Stable human-readable site name ("disk-read", "cache-insert", ...).
const char* FaultSiteName(FaultSite site);

/// Process-wide probabilistic fault injection, designed so the *disarmed*
/// hook is essentially free: CHUNKCACHE_FAULT_POINT is one relaxed atomic
/// load and a never-taken branch (bench_micro measures it at ~1 ns).
///
/// Each site is configured independently with
///   - `probability`: chance a checked operation faults,
///   - `max_faults`: budget of faults to inject (kUnlimited = no cap),
///   - `skip_ops`: operations let through before injection can start
/// so both randomized storms (probability) and deterministic "fail the
/// N-th op" scenarios (probability 1, skip N, budget 1) are expressible.
///
/// Thread safety: all methods are safe from any thread. Probability draws
/// use a per-thread generator derived from Seed(), so single-threaded
/// tests are exactly reproducible; multi-threaded storms are reproducible
/// up to thread interleaving.
class FaultInjector {
 public:
  static constexpr uint64_t kUnlimited = ~0ull;

  /// The process-wide injector every compiled-in fault point consults.
  static FaultInjector& Global();

  /// Arms `site`. `probability` is clamped to [0, 1]; `code` is the status
  /// the fault surfaces as (ignored for kDiskCorrupt / kCacheInsert, whose
  /// effect is not a returned status).
  void Arm(FaultSite site, double probability,
           StatusCode code = StatusCode::kIoError,
           uint64_t max_faults = kUnlimited, uint64_t skip_ops = 0);

  /// Storm helper: arms every site at `probability` with its natural code.
  void ArmAll(double probability, uint64_t max_faults = kUnlimited);

  void DisarmAll();

  /// Reseeds the per-thread probability generators (takes effect on each
  /// thread's next draw, including threads that already drew).
  void Seed(uint64_t seed);

  /// Zeroes faults_injected / checks counters (arming state unchanged).
  void ResetCounters();

  /// Fast path, read by CHUNKCACHE_FAULT_POINT before anything else.
  bool armed() const {
    return armed_sites_.load(std::memory_order_relaxed) != 0;
  }

  /// Draws at `site`: returns the configured error when the fault fires,
  /// OK otherwise. Call only when armed() (the macro does).
  Status Check(FaultSite site);

  /// Draw-only variant for sites whose effect is not a returned status
  /// (page corruption, dropped cache inserts).
  bool ShouldInject(FaultSite site);

  /// Flips one byte of `data` (deterministically placed per draw).
  void CorruptBuffer(void* data, size_t n);

  uint64_t faults_injected() const;
  uint64_t faults_injected(FaultSite site) const;
  /// Total draws at armed sites (disarmed hooks never count — counting
  /// would cost the fast path its "free when off" property).
  uint64_t checks() const;

 private:
  struct Site {
    std::atomic<uint64_t> prob_bits{0};   ///< P(fault) * 2^32 in [0, 2^32].
    std::atomic<uint64_t> remaining{0};   ///< Fault budget left.
    std::atomic<int64_t> skip{0};         ///< Ops to let through first.
    std::atomic<uint8_t> code{static_cast<uint8_t>(StatusCode::kIoError)};
    std::atomic<uint64_t> injected{0};
    std::atomic<uint64_t> checked{0};
  };

  uint32_t NextRand32();

  Site sites_[kNumFaultSites];
  std::atomic<uint32_t> armed_sites_{0};  ///< Bitmask over FaultSite.
  std::atomic<uint64_t> seed_{0x5EEDC0FFEE123457ull};
  std::atomic<uint64_t> epoch_{0};  ///< Bumped by Seed(); re-seeds threads.
};

/// Compiled-in injection point: returns the injected Status out of the
/// enclosing function (which must return Status or Result<T>) when the
/// site fires; ~1 ns and branch-predictable when the injector is disarmed.
#define CHUNKCACHE_FAULT_POINT(site)                             \
  do {                                                           \
    ::chunkcache::FaultInjector& _fi =                           \
        ::chunkcache::FaultInjector::Global();                   \
    if (_fi.armed()) {                                           \
      ::chunkcache::Status _fs = _fi.Check(site);                \
      if (!_fs.ok()) return _fs;                                 \
    }                                                            \
  } while (0)

}  // namespace chunkcache

#endif  // CHUNKCACHE_COMMON_FAULT_INJECTOR_H_
