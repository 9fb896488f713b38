#ifndef CHUNKCACHE_BACKEND_CHUNKED_FILE_H_
#define CHUNKCACHE_BACKEND_CHUNKED_FILE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "chunks/chunking_scheme.h"
#include "common/status.h"
#include "index/btree.h"
#include "storage/buffer_pool.h"
#include "storage/fact_file.h"

namespace chunkcache::backend {

/// One sequential read covering the runs of one or more whole chunks.
/// In a clustered file the runs of chunk-number-adjacent chunks sit back to
/// back, so reading several source chunks often degenerates to a handful of
/// long sequential ranges instead of one index probe + seek per chunk.
struct RowRun {
  storage::RowId first = 0;
  uint64_t count = 0;
  uint32_t chunks = 0;  ///< how many chunk runs this read covers
};

/// Sorts `runs` by starting row and merges back-to-back neighbours
/// (next.first == cur.first + cur.count) into single reads. `max_rows`
/// caps one merged read's row count (0 = unlimited): readers materialize a
/// whole run as one columnar batch, so reads spanning many chunks need
/// the cap to bound per-read memory. A split lands on a run boundary,
/// so row order — and therefore fold order — is unchanged.
std::vector<RowRun> CoalesceRowRuns(std::vector<RowRun> runs,
                                    uint64_t max_rows = 0);

/// The paper's chunked file organization (Section 4): fact tuples stored as
/// ordinary fixed-length records but *clustered by base-level chunk number*,
/// with a B-tree chunk index mapping chunk number -> {first RowId, tuple
/// count}. It offers both interfaces the paper requires:
///  - relational: Scan() over all tuples, like any table;
///  - chunked: ChunkRun()/CoalescedRuns() locating chunks' runs, which
///    fact_file().ScanRangeColumns() reads in time proportional to the
///    chunks, not the table.
///
/// `clustered = false` produces the *randomly ordered* baseline file used by
/// the Figure 14 bitmap experiment: identical tuples and indexes, but load
/// order is kept, so a chunk's tuples are scattered (the chunk interface is
/// then unsupported).
class ChunkedFile {
 public:
  /// Bulk-loads `tuples` (consumed) into a new file inside `pool`'s disk.
  /// When `clustered`, tuples are sorted by base chunk number first and the
  /// chunk index is built.
  static Result<ChunkedFile> BulkLoad(storage::BufferPool* pool,
                                      const chunks::ChunkingScheme* scheme,
                                      std::vector<storage::Tuple> tuples,
                                      bool clustered = true);

  ChunkedFile(ChunkedFile&&) = default;
  ChunkedFile& operator=(ChunkedFile&&) = default;

  /// Relational interface: full scan in storage order.
  Status Scan(const std::function<bool(storage::RowId,
                                       const storage::Tuple&)>& fn) {
    return fact_.Scan(fn);
  }

  /// {first RowId, count} of base chunk `chunk_num`'s run; NotFound when the
  /// chunk is empty (sparse cubes leave many chunks without tuples).
  Result<std::pair<storage::RowId, uint64_t>> ChunkRun(uint64_t chunk_num);

  /// Looks up the runs of every chunk in `chunk_nums` (empty chunks are
  /// skipped) and coalesces adjacent ones into maximal sequential reads of
  /// at most `max_rows` rows each (0 = unlimited).
  Result<std::vector<RowRun>> CoalescedRuns(
      const std::vector<uint64_t>& chunk_nums, uint64_t max_rows = 0);

  bool clustered() const { return clustered_; }
  uint64_t num_tuples() const { return fact_.num_tuples(); }
  storage::FactFile& fact_file() { return fact_; }
  index::BTree& chunk_index() { return *chunk_index_; }
  const chunks::ChunkingScheme& scheme() const { return *scheme_; }

  /// Number of non-empty base chunks (chunk-index entries).
  uint64_t num_nonempty_chunks() const {
    return chunk_index_ ? chunk_index_->size() : 0;
  }

  /// Identifies the data chunks are computed from: a CRC32C of every
  /// dimension's chunk ranges at every level (high half) and one of the
  /// tuple count and the tuples in input order (low half), both folded by
  /// BulkLoad from memory. A cache snapshot records it, and is recovered
  /// only against a file with the same fingerprint.
  uint64_t fingerprint() const { return fingerprint_; }

 private:
  ChunkedFile(storage::FactFile fact, const chunks::ChunkingScheme* scheme,
              bool clustered, uint64_t fingerprint)
      : fact_(std::move(fact)),
        scheme_(scheme),
        clustered_(clustered),
        fingerprint_(fingerprint) {}

  storage::FactFile fact_;
  const chunks::ChunkingScheme* scheme_;
  bool clustered_;
  uint64_t fingerprint_;
  std::optional<index::BTree> chunk_index_;
};

}  // namespace chunkcache::backend

#endif  // CHUNKCACHE_BACKEND_CHUNKED_FILE_H_
