#ifndef CHUNKCACHE_STORAGE_CACHE_PERSIST_H_
#define CHUNKCACHE_STORAGE_CACHE_PERSIST_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"

namespace chunkcache::storage {

/// One cache entry in its durable form: the chunk key triple, the
/// replacement-policy benefit, and the payload as a self-contained
/// codec::EncodeAggColumns blob (PR 6) — the blob carries its own CRC32C
/// trailer, so every persisted payload is checksummed twice (record frame
/// + blob trailer) and verified on recovery.
struct PersistedChunk {
  uint32_t group_by_id = 0;
  uint64_t chunk_num = 0;
  uint64_t filter_hash = 0;
  double benefit = 0.0;
  uint64_t raw_bytes = 0;  ///< Decoded payload bytes (ratio accounting).
  uint32_t rows = 0;
  std::vector<uint8_t> blob;  ///< codec blob; empty only for empty chunks.
};

struct PersistOptions {
  std::string dir;  ///< Created if missing; holds snapshot-G files.
};

/// What recovery found. Entries are handed to the manager exactly once
/// via CachePersistence::TakeRecovery().
struct RecoveryStats {
  uint64_t generation = 0;          ///< Snapshot generation recovered from.
  uint64_t snapshot_entries = 0;    ///< Entries read from the snapshot.
  uint64_t quarantined = 0;         ///< Corrupt entries dropped, not served.
  uint64_t recovery_ns = 0;
  std::vector<PersistedChunk> entries;  ///< Surviving state, stable order.
};

/// Streams one snapshot's admit records into its shadow file through one
/// reused frame buffer, so no snapshot ever holds more than one encoded
/// entry. Handed to the producer of CachePersistence::WriteSnapshot.
class SnapshotWriter {
 public:
  /// Frames one admit record: `chunk`'s key, benefit, raw_bytes and rows,
  /// then the codec blob `append_blob` appends to the frame buffer (so a
  /// payload is encoded straight into the record). `chunk.blob` is not
  /// read. After a failed write, or once SimulateCrash() fires, every
  /// later call is a no-op and the snapshot is abandoned.
  void Add(const PersistedChunk& chunk,
           const std::function<void(std::vector<uint8_t>*)>& append_blob);

  SnapshotWriter(const SnapshotWriter&) = delete;
  SnapshotWriter& operator=(const SnapshotWriter&) = delete;

 private:
  friend class CachePersistence;
  SnapshotWriter(int fd, const std::atomic<bool>* crashed)
      : fd_(fd), crashed_(crashed) {}

  /// Writes the frame buffer out (the snapshot-write fault site).
  void Flush();

  int fd_;
  const std::atomic<bool>* crashed_;
  std::vector<uint8_t> frame_;
  bool ok_ = true;
  uint64_t entries_ = 0;
  uint64_t bytes_ = 0;
};

/// Crash-safe persistence for the chunk cache (DESIGN.md §14):
/// generation-numbered snapshots of CRC32C-framed records, each written
/// to a shadow file, fsynced and atomically renamed. Recovery = newest
/// readable snapshot, else the next older, else cold, quarantining
/// (dropping + counting) corrupt entries — it never fails on corrupt
/// *content*. Only an unusable directory makes Open() return an error.
/// The cache needs no log: any subset of valid entries is a correct
/// cache, so a crash costs the admissions since the last snapshot, and
/// only warmth.
///
/// Thread safety: WriteSnapshot may be called from any thread; calls
/// serialize, so at most one snapshot runs at a time.
class CachePersistence {
 public:
  /// Opens `opts.dir` (creating it) and recovers. `metrics` may be null
  /// (counters then live on a private registry).
  static Result<std::unique_ptr<CachePersistence>> Open(
      PersistOptions opts, MetricsRegistry* metrics = nullptr);

  CachePersistence(const CachePersistence&) = delete;
  CachePersistence& operator=(const CachePersistence&) = delete;

  /// Moves the recovered state out (entries are large; call once).
  RecoveryStats TakeRecovery();

  /// Writes the next snapshot generation: `produce` streams every entry
  /// through the SnapshotWriter into snapshot-<G>.tmp, which is fsynced,
  /// atomically renamed to snapshot-<G> and the directory fsynced; only
  /// then are older generations GCed. On any failure the previous
  /// snapshot remains authoritative.
  Status WriteSnapshot(const std::function<void(SnapshotWriter*)>& produce);

  /// Generation of the newest snapshot recovered or written.
  uint64_t generation() const {
    return generation_.load(std::memory_order_relaxed);
  }

  /// Counts one manager-side quarantined entry (recovered record whose
  /// blob failed decode) on the shared persist.quarantined counter.
  void CountQuarantined() { quarantined_->Increment(); }

  /// Test hook simulating a process kill: a snapshot in flight is
  /// abandoned before its rename and every later one (the manager's
  /// shutdown snapshot included) is a no-op, so a subsequent Open() sees
  /// exactly what a crash at this point would have left on disk.
  void SimulateCrash();

  // -- Snapshot frame layout, shared with tests ----------------------------
  // File = 16-byte header (magic u64 | generation u64) then records:
  //   u32 crc32c(type|payload) | u32 len(type|payload) | u8 type | payload
  static constexpr uint64_t kSnapMagic = 0x50414E53'43434843ull;  // CHCCSNAP
  static constexpr size_t kFileHeaderBytes = 16;
  static constexpr size_t kRecordHeaderBytes = 8;
  // Types 2 and 3 are retired and never reused. Recovery skips them like
  // any unknown type.
  enum RecordType : uint8_t {
    kAdmit = 1,   ///< key, benefit, raw_bytes, rows, blob
    kFooter = 4,  ///< entry count (validity marker)
  };

 private:
  CachePersistence(PersistOptions opts, MetricsRegistry* metrics);

  bool crashed() const { return crashed_.load(std::memory_order_acquire); }

  /// Recovery pipeline (Open only; no locks needed).
  void Recover();
  bool ReadSnapshot(uint64_t generation,
                    std::vector<PersistedChunk>* entries);

  PersistOptions opts_;
  std::unique_ptr<MetricsRegistry> owned_metrics_;
  MetricsRegistry* metrics_;

  // Recovered state, moved out by TakeRecovery().
  RecoveryStats recovery_;

  std::mutex snapshot_mu_;  ///< Serializes WriteSnapshot.
  uint64_t next_generation_ = 1;  ///< Guarded by snapshot_mu_.
  std::atomic<uint64_t> generation_{0};
  /// Guards the rename-and-GC commit against SimulateCrash, so no
  /// snapshot commits after the simulated kill.
  std::mutex commit_mu_;
  std::atomic<bool> crashed_{false};

  // persist.* instruments (stable pointers from the registry).
  Counter* snapshots_;
  Counter* snapshot_bytes_;
  Counter* snapshot_errors_;
  Counter* recovered_entries_;
  Counter* quarantined_;
  Histogram* snapshot_ns_;
  Histogram* recovery_ns_;
};

}  // namespace chunkcache::storage

#endif  // CHUNKCACHE_STORAGE_CACHE_PERSIST_H_
