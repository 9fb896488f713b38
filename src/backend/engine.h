#ifndef CHUNKCACHE_BACKEND_ENGINE_H_
#define CHUNKCACHE_BACKEND_ENGINE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "backend/agg_file.h"
#include "backend/aggregator.h"
#include "backend/chunked_file.h"
#include "backend/star_join_query.h"
#include "chunks/chunking_scheme.h"
#include "common/cost_model.h"
#include "common/status.h"
#include "index/bitmap_index.h"

namespace chunkcache::backend {

/// One computed chunk returned by the backend to the middle tier. Rows are
/// columnar (see storage::AggColumns) and in canonical row-major order.
struct ChunkData {
  uint64_t chunk_num = 0;
  storage::AggColumns cols;
};

/// A precomputed aggregate table stored in chunked form (Section 3.1): the
/// group-by's rows clustered by their chunk number in that group-by's grid,
/// with a B-tree chunk index. The backend prefers computing chunks from the
/// most aggregated table that can still answer them.
class MaterializedAggregate {
 public:
  MaterializedAggregate(chunks::GroupBySpec spec, AggFile file,
                        index::BTree chunk_index)
      : spec_(spec),
        file_(std::move(file)),
        chunk_index_(std::move(chunk_index)) {}

  MaterializedAggregate(MaterializedAggregate&&) = default;
  MaterializedAggregate& operator=(MaterializedAggregate&&) = default;

  const chunks::GroupBySpec& spec() const { return spec_; }
  uint64_t num_rows() const { return file_.num_rows(); }

  AggFile& file() { return file_; }
  const index::BTree& chunk_index() const { return chunk_index_; }

 private:
  chunks::GroupBySpec spec_;
  AggFile file_;
  index::BTree chunk_index_;
};

/// Tuning knobs for the backend.
struct BackendOptions {
  /// When a star join restricts the fact table to more than this fraction
  /// of base cells, the engine prefers a full scan over the bitmap path.
  double bitmap_selectivity_threshold = 0.25;

  /// Largest chunk cell box (product of per-dimension chunk-range sizes)
  /// the dense-grid aggregation kernel will materialize accumulator arrays
  /// for; bigger boxes fall back to hash aggregation. 1M cells = 32 MB of
  /// accumulators per in-flight chunk.
  uint64_t dense_cell_limit = 1ull << 20;

  /// Largest merged read, in source rows (0 = unlimited). Computing chunks
  /// from a clustered source merges the runs of adjacent source chunks
  /// into single sequential reads; each read is bulk-decoded into one
  /// columnar batch, so this bounds the batch's memory even when one call
  /// requests many adjacent chunks. Splits land on run boundaries,
  /// preserving fold order, so every cap gives bit-identical results —
  /// down to 1, one read per source chunk. 1M rows ~= 32 MB of fact
  /// columns per in-flight read.
  uint64_t max_merged_run_rows = 1ull << 20;
};

/// The relational backend ("PARADISE" stand-in): evaluates star-join
/// queries over the chunked fact file using bitmap indexes or scans, and —
/// the chunk-cache fast path — computes individual chunks at any
/// aggregation level from the base chunked file or from a chunked
/// materialized aggregate, touching only the source chunks the closure
/// mapping names.
class BackendEngine {
 public:
  BackendEngine(storage::BufferPool* pool, ChunkedFile* file,
                const chunks::ChunkingScheme* scheme,
                BackendOptions options = BackendOptions());

  BackendEngine(const BackendEngine&) = delete;
  BackendEngine& operator=(const BackendEngine&) = delete;

  /// Builds one bitmap index per dimension (base level). Required before
  /// ExecuteStarJoin can use the bitmap path.
  Status BuildBitmapIndexes();
  bool has_bitmap_indexes() const { return !bitmap_indexes_.empty(); }

  /// Precomputes and stores group-by `spec` as a chunked aggregate table.
  Status MaterializeAggregate(const chunks::GroupBySpec& spec);
  const std::vector<MaterializedAggregate>& materialized() const {
    return materialized_;
  }

  /// Computes the listed chunks of group-by `target` — the paper's
  /// "modified form of SQL" chunk request (Section 5.2.3). Chunks are
  /// computed from the cheapest eligible source (a materialized aggregate
  /// or the base chunked file). `non_group_by` predicates force computation
  /// from base. Work done (physical pages, tuples) is added to `*work`.
  ///
  /// Element i of the result is chunk_nums[i], its rows in canonical
  /// order.
  ///
  /// A call takes no deadline: once started it runs to completion.
  /// Callers check theirs before each call (the chunk tier's
  /// RunWithRetry).
  Result<std::vector<ChunkData>> ComputeChunks(
      const chunks::GroupBySpec& target,
      const std::vector<uint64_t>& chunk_nums,
      const std::vector<NonGroupByPredicate>& non_group_by,
      WorkCounters* work);

  /// Evaluates a full star-join query (the no-cache path and the
  /// query-cache miss path): bitmap selection when available and selective
  /// enough, otherwise a filtered full scan. Returns rows sorted
  /// canonically.
  Result<std::vector<ResultRow>> ExecuteStarJoin(const StarJoinQuery& query,
                                                 WorkCounters* work);

  /// Fraction of base cells the query's selection covers (product of
  /// per-dimension selectivities) — drives the bitmap-vs-scan choice and
  /// the experiments' cost normalization.
  double Selectivity(const StarJoinQuery& query) const;

  const chunks::ChunkingScheme& scheme() const { return *scheme_; }
  ChunkedFile& file() { return *file_; }
  storage::BufferPool& pool() { return *pool_; }
  const BackendOptions& options() const { return options_; }

  /// Aggregation-kernel and run-I/O counters, cumulative since start.
  /// Thread-safe.
  AggKernelStats kernel_stats() const { return kernel_counters_.Snapshot(); }

  /// Shared counter sink, for components (e.g. the in-cache roll-up path)
  /// that run kernels outside the engine.
  AggKernelCounters* kernel_counters() { return &kernel_counters_; }

 private:
  /// Base-level ordinal range selected on dimension d (selection mapped
  /// down plus any non-group-by predicate intersected), or nullopt when
  /// the ranges don't intersect (empty result).
  std::optional<std::array<schema::OrdinalRange, storage::kMaxDims>>
  BaseSelection(const StarJoinQuery& query) const;

  Result<std::vector<ResultRow>> ScanAggregate(
      const StarJoinQuery& query,
      const std::array<schema::OrdinalRange, storage::kMaxDims>& base_sel,
      WorkCounters* work);

  Result<std::vector<ResultRow>> BitmapAggregate(
      const StarJoinQuery& query,
      const std::array<schema::OrdinalRange, storage::kMaxDims>& base_sel,
      WorkCounters* work);

  /// Picks the cheapest source group-by for computing chunks of `target`:
  /// index into materialized_ or nullopt for the base file.
  std::optional<size_t> PickSource(const chunks::GroupBySpec& target) const;

  storage::BufferPool* pool_;
  ChunkedFile* file_;
  const chunks::ChunkingScheme* scheme_;
  BackendOptions options_;
  AggKernelCounters kernel_counters_;
  std::vector<index::BitmapIndex> bitmap_indexes_;
  std::vector<MaterializedAggregate> materialized_;
};

}  // namespace chunkcache::backend

#endif  // CHUNKCACHE_BACKEND_ENGINE_H_
