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
  std::string dir;  ///< Created if missing; holds snapshot-G / wal-G files.
  /// WAL records per fsync (1 = every record, 0 = never fsync). Records
  /// not yet synced can be lost to a crash; replay absorbs the gap.
  uint64_t wal_fsync_every = 1;
};

/// What recovery found. Entries are handed to the manager exactly once
/// via CachePersistence::TakeRecovery().
struct RecoveryStats {
  uint64_t generation = 0;          ///< Snapshot generation recovered from.
  uint64_t snapshot_entries = 0;    ///< Entries read from the snapshot.
  uint64_t wal_records = 0;         ///< WAL records replayed on top.
  uint64_t wal_truncated_bytes = 0; ///< Torn-tail bytes dropped.
  uint64_t quarantined = 0;         ///< Corrupt entries dropped, not served.
  uint64_t recovery_ns = 0;
  std::vector<PersistedChunk> entries;  ///< Surviving state, stable order.
};

/// Crash-safe persistence for the chunk cache (DESIGN.md §14): an
/// append-only WAL of admissions / evictions in CRC32C-framed records, plus generation-numbered snapshots written
/// shadow-file-then-atomic-rename. Recovery = newest readable snapshot +
/// replay of every WAL at or above its generation, truncating torn tails
/// and quarantining (dropping + counting) corrupt entries — it never
/// fails on corrupt *content*; the worst case is a cold start. Only an
/// unusable directory makes Open() return an error.
///
/// Thread safety: LogAdmit/LogEvict are safe from any thread.
/// WriteSnapshot serializes internally; `only_if_idle` turns a contended
/// call into a no-op so the auto-trigger never piles up behind a running
/// snapshot.
class CachePersistence {
 public:
  /// Opens `opts.dir` (creating it), recovers, truncates any torn WAL
  /// tail, and opens a fresh WAL generation for appending. `metrics` may
  /// be null (counters then live on a private registry).
  static Result<std::unique_ptr<CachePersistence>> Open(
      PersistOptions opts, MetricsRegistry* metrics = nullptr);

  ~CachePersistence();

  CachePersistence(const CachePersistence&) = delete;
  CachePersistence& operator=(const CachePersistence&) = delete;

  /// Moves the recovered state out (entries are large; call once).
  RecoveryStats TakeRecovery();

  // -- WAL appends (thread-safe, best-effort: an append that fails —
  // injected or real — is counted on persist.wal_errors and dropped;
  // losing a WAL record costs warmth, never correctness) ----------------
  void LogAdmit(const PersistedChunk& chunk);
  void LogEvict(uint32_t group_by_id, uint64_t chunk_num,
                uint64_t filter_hash);

  /// Writes the next snapshot generation. The protocol rotates the WAL
  /// *first*, then calls `gather_entries` (so any event
  /// racing the snapshot lands in the new WAL, where idempotent replay
  /// absorbs the duplicate), writes snapshot-<G>.tmp, fsyncs, atomically
  /// renames to snapshot-<G>, fsyncs the directory, and only then GCs
  /// older generations. On any failure the previous snapshot remains
  /// authoritative and no event has been lost.
  Status WriteSnapshot(
      const std::function<void(std::vector<PersistedChunk>*)>& gather_entries,
      bool only_if_idle = false);

  /// WAL records appended since the last completed snapshot (the
  /// auto-snapshot trigger input).
  uint64_t wal_records_since_snapshot() const {
    return records_since_snapshot_.load(std::memory_order_relaxed);
  }

  /// Current (open-for-append) WAL generation.
  uint64_t generation() const {
    return generation_.load(std::memory_order_relaxed);
  }

  /// Counts one manager-side quarantined entry (recovered record whose
  /// blob failed decode) on the shared persist.quarantined counter.
  void CountQuarantined() { quarantined_->Increment(); }

  /// Test hook simulating a process kill: every later append, fsync and
  /// snapshot (including the manager's shutdown snapshot) becomes a
  /// no-op, so a subsequent Open() sees exactly what a crash at this
  /// point would have left on disk.
  void SimulateCrash() { crashed_.store(true, std::memory_order_release); }
  bool crashed() const { return crashed_.load(std::memory_order_acquire); }

  // -- WAL/snapshot frame layout, shared with tests ---------------------
  // File = 16-byte header (magic u64 | generation u64) then records:
  //   u32 crc32c(type|payload) | u32 len(type|payload) | u8 type | payload
  static constexpr uint64_t kWalMagic = 0x314C4157'43434843ull;   // CHCCWAL1
  static constexpr uint64_t kSnapMagic = 0x50414E53'43434843ull;  // CHCCSNAP
  static constexpr size_t kFileHeaderBytes = 16;
  static constexpr size_t kRecordHeaderBytes = 8;
  // Type 3 is retired and never reused. Recovery treats it like any
  // unknown type: a snapshot skips it, a WAL stops replay there.
  enum RecordType : uint8_t {
    kAdmit = 1,   ///< key, benefit, raw_bytes, rows, blob
    kEvict = 2,   ///< key
    kFooter = 4,  ///< snapshot only: entry count (validity marker)
  };

 private:
  CachePersistence(PersistOptions opts, MetricsRegistry* metrics);

  Status OpenWal(uint64_t generation);
  void AppendRecord(uint8_t type, const std::vector<uint8_t>& payload);
  void MaybeFsyncWal();

  /// Recovery pipeline (constructor only; no locks needed).
  void Recover();
  bool ReadSnapshot(uint64_t generation,
                    std::vector<PersistedChunk>* entries);
  void ReplayWal(uint64_t generation);

  PersistOptions opts_;
  std::unique_ptr<MetricsRegistry> owned_metrics_;
  MetricsRegistry* metrics_;

  // Recovered state, moved out by TakeRecovery().
  RecoveryStats recovery_;
  // Replay working state, alive only inside Recover() (stack-owned there;
  // this pointer just lets ReplayWal reach it).
  struct ReplayState;
  ReplayState* replay_ = nullptr;

  mutable std::mutex wal_mu_;   ///< Guards wal_fd_ + append counters.
  std::mutex snapshot_mu_;      ///< Serializes WriteSnapshot.
  int wal_fd_ = -1;
  uint64_t wal_unsynced_ = 0;   ///< Records appended since last fsync.
  std::atomic<uint64_t> generation_{0};
  std::atomic<uint64_t> records_since_snapshot_{0};
  std::atomic<bool> crashed_{false};

  // persist.* instruments (stable pointers from the registry).
  Counter* wal_records_;
  Counter* wal_bytes_;
  Counter* wal_fsyncs_;
  Counter* wal_errors_;
  Counter* snapshots_;
  Counter* snapshot_bytes_;
  Counter* snapshot_errors_;
  Counter* recovered_entries_;
  Counter* replayed_records_;
  Counter* truncated_bytes_;
  Counter* quarantined_;
  Histogram* snapshot_ns_;
  Histogram* recovery_ns_;
};

}  // namespace chunkcache::storage

#endif  // CHUNKCACHE_STORAGE_CACHE_PERSIST_H_
