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
#include "storage/chunk_payload.h"

namespace chunkcache::storage {

/// A cache entry's key triple and replacement-policy benefit. An admit
/// record holds them, then the entry's ChunkPayload allocation byte for
/// byte, all under the record frame's CRC32C; recovery parses the payload
/// back with ChunkPayload::FromBytes.
struct PersistedChunk {
  uint32_t group_by_id = 0;
  uint64_t chunk_num = 0;
  uint64_t filter_hash = 0;
  double benefit = 0.0;
};

/// Streams one snapshot's admit records into its shadow file through one
/// reused frame buffer, so no snapshot ever holds more than one entry's
/// record. Handed to the producer of CachePersistence::WriteSnapshot.
class SnapshotWriter {
 public:
  /// Frames one admit record: `chunk`'s key and benefit, then `payload`'s
  /// bytes. After a failed write, or once SimulateCrash() fires, every
  /// later call is a no-op and the snapshot is abandoned.
  void Add(const PersistedChunk& chunk, const ChunkPayload& payload);

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
  uint64_t bytes_ = 0;
};

/// Crash-safe persistence for the chunk cache (DESIGN.md §14):
/// generation-numbered snapshots of CRC32C-framed records, each written
/// to a shadow file, fsynced and atomically renamed. Every snapshot
/// records the fingerprint of the data it was taken against. Recovery =
/// newest readable snapshot of this fingerprint, else the next older,
/// else cold, quarantining (dropping + counting) corrupt entries — it
/// never fails on corrupt *content*. Only an unusable directory makes
/// Open() return an error. The cache needs no log: any subset of valid
/// entries is a correct cache, so a crash costs the admissions since the
/// last snapshot, and only warmth.
///
/// Thread safety: WriteSnapshot may be called from any thread; calls
/// serialize, so at most one snapshot runs at a time.
class CachePersistence {
 public:
  /// Offered each entry recovery parses, as it parses it; returns whether
  /// the entry was admitted. A refused entry counts as quarantined.
  using AdmitFn = std::function<bool(const PersistedChunk&, ChunkPayload)>;

  /// Opens `dir` (creating it) and recovers from the snapshots taken
  /// against `fingerprint`, which identifies the data the cached chunks
  /// were computed from (backend::ChunkedFile::fingerprint()); a snapshot
  /// of any other fingerprint is never read. Each record of the recovered
  /// snapshot goes to `admit` as it is read, so recovery holds one record
  /// at a time. Recovery adds the entries it admitted to
  /// persist.recovered_entries, the ones it dropped to
  /// persist.quarantined, and records its wall time in the
  /// persist.recovery_ns histogram. `metrics` may be null (counters then
  /// live on a private registry).
  static Result<std::unique_ptr<CachePersistence>> Open(
      std::string dir, uint64_t fingerprint, const AdmitFn& admit,
      MetricsRegistry* metrics = nullptr);

  CachePersistence(const CachePersistence&) = delete;
  CachePersistence& operator=(const CachePersistence&) = delete;

  /// Writes the next snapshot generation: `produce` streams every entry
  /// through the SnapshotWriter into snapshot-<G>.tmp, which is fsynced,
  /// atomically renamed to snapshot-<G> and the directory fsynced; only
  /// then are older generations GCed. On any failure the previous
  /// snapshot remains authoritative.
  Status WriteSnapshot(const std::function<void(SnapshotWriter*)>& produce);

  /// Generation of the newest snapshot recovered or written (0 = none).
  uint64_t generation() const {
    return generation_.load(std::memory_order_relaxed);
  }

  /// Test hook simulating a process kill: a snapshot in flight is
  /// abandoned before its rename and every later one (the manager's
  /// shutdown snapshot included) is a no-op, so a subsequent Open() sees
  /// exactly what a crash at this point would have left on disk.
  void SimulateCrash();

  // -- Snapshot frame layout, shared with tests ----------------------------
  // File = 24-byte header (magic u64 | generation u64 | fingerprint u64)
  // then records:
  //   u32 crc32c(type|payload) | u32 len(type|payload) | u8 type | payload
  // An admit record's payload is u32 group_by_id | u64 chunk_num |
  // u64 filter_hash | f64 benefit | the entry's ChunkPayload bytes. The
  // magic names the format: files of the earlier formats ("CHCCSNAP",
  // codec blobs, and "CHCCSNP2", AggColumns bytes) are not read. The
  // fsync and the atomic rename mark a snapshot complete.
  static constexpr uint64_t kSnapMagic = 0x33504E53'43434843ull;  // CHCCSNP3
  static constexpr size_t kFileHeaderBytes = 24;
  static constexpr size_t kRecordHeaderBytes = 8;
  // Types 2, 3 and 4 (the footer) are retired and never reused. Recovery
  // skips them like any unknown type.
  enum RecordType : uint8_t {
    kAdmit = 1,  ///< key, benefit, ChunkPayload bytes
  };

 private:
  CachePersistence(std::string dir, uint64_t fingerprint,
                   MetricsRegistry* metrics);

  bool crashed() const { return crashed_.load(std::memory_order_acquire); }

  /// Recovery pipeline (Open only; no locks needed).
  void Recover(const AdmitFn& admit);
  bool ReadSnapshot(uint64_t generation, const AdmitFn& admit);

  const std::string dir_;
  const uint64_t fingerprint_;
  std::unique_ptr<MetricsRegistry> owned_metrics_;  // when none was passed

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
