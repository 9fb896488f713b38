#ifndef CHUNKCACHE_BACKEND_AGGREGATOR_H_
#define CHUNKCACHE_BACKEND_AGGREGATOR_H_

#include <atomic>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "chunks/chunking_scheme.h"
#include "common/simd.h"
#include "common/status.h"
#include "storage/agg_columns.h"
#include "storage/chunk_payload.h"
#include "storage/tuple.h"

namespace chunkcache::backend {

/// Plain snapshot of the aggregation-kernel and run-I/O counters.
struct AggKernelStats {
  uint64_t dense_kernels = 0;      ///< Chunks aggregated by the dense kernel.
  uint64_t hash_kernels = 0;       ///< Chunks that fell back to hashing.
  uint64_t rows_folded_dense = 0;  ///< Rows folded by dense kernels.
  uint64_t rows_folded_hash = 0;   ///< Rows folded by the hash fallback.
  uint64_t coalesced_reads = 0;    ///< Merged multi-run sequential reads.
  uint64_t single_run_reads = 0;   ///< Runs read alone (no adjacent run).
  uint64_t runs_merged = 0;        ///< Source runs folded into merged reads.
};

/// Thread-safe counters behind AggKernelStats; concurrent queries record
/// into these, so every field is a relaxed atomic.
struct AggKernelCounters {
  std::atomic<uint64_t> dense_kernels{0};
  std::atomic<uint64_t> hash_kernels{0};
  std::atomic<uint64_t> rows_folded_dense{0};
  std::atomic<uint64_t> rows_folded_hash{0};
  std::atomic<uint64_t> coalesced_reads{0};
  std::atomic<uint64_t> single_run_reads{0};
  std::atomic<uint64_t> runs_merged{0};

  AggKernelStats Snapshot() const;
};

/// Hash aggregation of fact or aggregate rows up to a target group-by
/// level. Coordinates are packed into a mixed-radix 64-bit key over the
/// target level cardinalities, so grouping is one hash probe per row.
///
/// Rows can come from the base table (AddBase) or from an already
/// aggregated relation at a finer group-by (AddAgg) — the latter is what
/// the closure property and the in-cache aggregation extension rely on.
///
/// `reserve_cells` bounds the number of distinct cells the caller expects
/// (e.g. a chunk's cell-box size); the map reserves that capacity up front
/// so folding never rehashes mid-stream.
class HashAggregator {
 public:
  HashAggregator(const chunks::ChunkingScheme* scheme,
                 chunks::GroupBySpec target, uint64_t reserve_cells = 0);

  /// Folds one base tuple into its target-level cell.
  void AddBase(const storage::Tuple& t);

  /// Folds one aggregate row at group-by `src` (must be finer or equal to
  /// the target on every dimension).
  void AddAgg(const storage::AggTuple& row, const chunks::GroupBySpec& src);

  /// Number of rows folded so far (for work accounting).
  uint64_t rows_consumed() const { return rows_consumed_; }

  /// Extracts the aggregated cells (unordered). Resets the aggregator.
  std::vector<storage::AggTuple> TakeRows();

  /// Extracts the aggregated cells as columns (unordered). Resets the
  /// aggregator.
  storage::AggColumns TakeColumns();

 private:
  uint64_t PackKey(const chunks::ChunkCoords& coords) const;

  const chunks::ChunkingScheme* scheme_;
  chunks::GroupBySpec target_;
  std::array<uint64_t, storage::kMaxDims> radix_mult_{};
  std::unordered_map<uint64_t, storage::AggTuple> cells_;
  uint64_t rows_consumed_ = 0;
};

/// Dense-grid aggregation kernel for one chunk: the chunk spans a bounded
/// cell box (the product of its per-dimension chunk-range sizes), so each
/// cell maps to a mixed-radix offset into flat accumulator arrays and
/// folding a row is `acc[offset] += measure` — no hashing, no per-node
/// allocation, and extraction walks the arrays in row-major order, which
/// is already the canonical result order.
class DenseChunkAggregator {
 public:
  /// `extent[d]` is the ordinal range (at target's levels) the chunk spans
  /// on dimension d (ChunkingScheme::ChunkExtent).
  DenseChunkAggregator(
      const chunks::ChunkingScheme* scheme, chunks::GroupBySpec target,
      const std::array<schema::OrdinalRange, storage::kMaxDims>& extent);

  uint64_t rows_consumed() const { return rows_consumed_; }

  void AddBase(const storage::Tuple& t);

  /// Bulk kernels over columnar batches (one chunk run at a time).
  /// `pre_filter`/`has_filter` carry base-level non-group-by predicate
  /// ranges; pass nullptr when unfiltered.
  void AddBaseColumns(const storage::TupleColumns& batch,
                      const bool* has_filter,
                      const schema::OrdinalRange* pre_filter);
  void AddAggColumns(const storage::AggColumns& batch,
                     const chunks::GroupBySpec& src);
  /// Folds a cached chunk's payload at group-by `src`, row for row and
  /// bit for bit as AddAggColumns folds the same rows as columns.
  void AddPayload(const storage::ChunkPayload& payload,
                  const chunks::GroupBySpec& src);

  /// Extracts non-empty cells in row-major coordinate order (already the
  /// canonical sorted order). Resets the accumulators.
  storage::AggColumns TakeColumns();

 private:
  /// Mixed-radix offset of the cell with target-level coordinate `c` on
  /// dimension d accumulated by the caller.
  inline uint64_t FoldOffset(const uint32_t* coords) const {
    uint64_t off = 0;
    for (uint32_t d = 0; d < target_.num_dims; ++d) {
      off += static_cast<uint64_t>(coords[d] - base_[d]) * mult_[d];
    }
    return off;
  }

  /// One accumulator cell, interleaved so a fold touches a single cache
  /// line instead of four parallel arrays. min/max start at +/-infinity
  /// sentinels, so the first fold needs no occupancy branch — min(inf, m)
  /// == m, matching AggTuple::FoldMeasure bit for bit. Empty cells are
  /// detected via count at extraction time, so the sentinels never escape.
  struct Cell {
    double sum;
    uint64_t count;
    double min;
    double max;
  };

  inline void FoldMeasureAt(uint64_t off, double measure) {
    CHUNKCACHE_DCHECK(off < num_cells_);
    Cell& c = cells_[off];
    c.sum += measure;
    c.count += 1;
    // Ternaries compile to branchless min/max — the comparisons are
    // data-dependent and would mispredict on random measures.
    c.min = measure < c.min ? measure : c.min;
    c.max = measure > c.max ? measure : c.max;
  }

  /// Builds per-dimension lookup tables mapping a base-level key (offset
  /// by the chunk's base-key range start) straight to its mixed-radix
  /// offset contribution `(ancestor - base) * mult`. Hoists the hierarchy
  /// rollup out of the bulk row loop: AddBaseColumns becomes one table
  /// load per dimension per row. Built lazily on the first bulk call so
  /// the row-at-a-time paths never pay for it.
  void BuildBaseLut();

  /// Folds one block of rows whose cell offsets are already computed.
  /// Deliberately noinline: this is the single machine-code copy of the
  /// fold update that every bulk kernel (scalar and AVX2 dispatch alike)
  /// runs, which is what makes "AVX2 == scalar bit for bit" structural.
  /// If each kernel inlined FoldMeasureAt separately, the compiler could
  /// commute `c.sum + measure` in one copy and not the other — a
  /// bit-visible difference when both operands are NaNs with different
  /// payloads (e.g. a +inf/-inf cell folding a quiet NaN measure), since
  /// the IEEE add returns its *first* NaN operand.
  __attribute__((noinline)) void FoldOffsetsU32(const uint32_t* offs,
                                                const double* measures,
                                                size_t n);

  /// One aggregate row, staged with its cell offset for FoldAggRows.
  struct AggRow {
    uint64_t off;
    double sum;
    uint64_t count;
    double min;
    double max;
  };
  /// Rows per FoldAggRows block.
  static constexpr size_t kAggBlock = 256;
  /// Folds a block of staged aggregate rows. Noinline for the reason
  /// FoldOffsetsU32 is: AddAggColumns and AddPayload both fold through this
  /// one machine-code copy, so a SUM of NaNs with different payloads comes
  /// out bit-identical whichever reads the rows.
  __attribute__((noinline)) void FoldAggRows(const AggRow* rows, size_t n);

  /// Dimension-count-specialized unfiltered fold loop: with ND a compile
  /// time constant the offset computation fully unrolls and the lookup
  /// table pointers stay in registers. Boxes that fit 32-bit offsets run
  /// the same blocked two-pass shape as the AVX2 kernel (pass 2 =
  /// FoldOffsetsU32); larger boxes fold row-at-a-time with 64-bit
  /// offsets (those never dispatch to AVX2, so identity is trivial).
  template <uint32_t ND>
  void FoldBaseRowsUnrolled(const uint32_t* const* keys,
                            const uint64_t* const* luts, const uint32_t* los,
                            const double* measures, size_t n);

#if CHUNKCACHE_SIMD_X86_64
  /// AVX2 twin of FoldBaseRowsUnrolled, used when simd::ActiveLevel() is
  /// kAvx2 and the cell box fits 32-bit offsets: a blocked two-pass
  /// kernel that gathers the per-dimension 32-bit LUT contributions
  /// eight rows at a time (VPGATHERDD) and prefetches every target
  /// cell, software-pipelined one block ahead of the fold pass so the
  /// prefetches have time to land. The fold pass is the shared
  /// FoldOffsetsU32, so results are bit-identical to scalar dispatch
  /// (same per-row fold order, same fold machine code). Defined in
  /// aggregator.cc so scalar translation units never see AVX2 code.
  template <uint32_t ND>
  __attribute__((target("avx2"))) void FoldBaseRowsAvx2(
      const uint32_t* const* keys, const uint32_t* const* luts,
      const uint32_t* los, const double* measures, size_t n);
#endif

  const chunks::ChunkingScheme* scheme_;
  chunks::GroupBySpec target_;
  std::array<uint32_t, storage::kMaxDims> base_{};   ///< extent[d].begin
  std::array<uint32_t, storage::kMaxDims> width_{};  ///< extent[d].size()
  std::array<uint64_t, storage::kMaxDims> mult_{};   ///< row-major strides
  uint64_t num_cells_ = 0;
  uint64_t rows_consumed_ = 0;
  std::vector<Cell> cells_;
  /// base_lut_[d][key - lut_lo_[d]] == offset contribution of dimension d.
  std::array<std::vector<uint64_t>, storage::kMaxDims> base_lut_;
  /// 32-bit copy of base_lut_ for the 8-wide AVX2 gather kernel; only
  /// filled when num_cells_ fits in 32 bits (every contribution then
  /// does too).
  std::array<std::vector<uint32_t>, storage::kMaxDims> base_lut32_;
  /// Per-dimension affine-LUT summary (lut[rel] == icept + rel * slope),
  /// true for leaf-level and ALL-level group-by dimensions: the AVX2
  /// kernel replaces those dimensions' gathers with vector multiplies.
  std::array<bool, storage::kMaxDims> lut_affine_{};
  std::array<uint32_t, storage::kMaxDims> lut_slope32_{};
  std::array<uint32_t, storage::kMaxDims> lut_icept32_{};
  std::array<uint32_t, storage::kMaxDims> lut_lo_{};
  bool lut_built_ = false;
};

/// Per-chunk aggregation front end: picks the dense-grid kernel when the
/// chunk's cell box is within `dense_cell_limit` and falls back to
/// HashAggregator (with capacity reserved from the cell-box bound)
/// otherwise, so sparse or enormous boxes never materialize huge
/// accumulator arrays. Records kernel choice and rows folded into
/// `counters` when non-null. TakeColumns returns rows in canonical
/// row-major order in both modes.
class ChunkAggregator {
 public:
  ChunkAggregator(const chunks::ChunkingScheme* scheme,
                  const chunks::GroupBySpec& target, uint64_t chunk_num,
                  uint64_t dense_cell_limit,
                  AggKernelCounters* counters = nullptr);

  bool dense() const { return dense_.has_value(); }
  uint64_t rows_consumed() const {
    return dense_ ? dense_->rows_consumed() : hash_->rows_consumed();
  }

  void AddBase(const storage::Tuple& t);
  void AddBaseColumns(const storage::TupleColumns& batch,
                      const bool* has_filter,
                      const schema::OrdinalRange* pre_filter);
  void AddAggColumns(const storage::AggColumns& batch,
                     const chunks::GroupBySpec& src);
  /// The roll-up fold over cached chunks (in-cache and degraded).
  void AddPayload(const storage::ChunkPayload& payload,
                  const chunks::GroupBySpec& src);

  storage::AggColumns TakeColumns();

 private:
  const chunks::ChunkingScheme* scheme_;
  chunks::GroupBySpec target_;
  AggKernelCounters* counters_;
  std::optional<DenseChunkAggregator> dense_;
  std::optional<HashAggregator> hash_;
};

/// Keeps only the rows whose coordinates fall inside `selection` on every
/// dimension — the post-aggregation boundary filter of Section 5.2.3 ("it
/// might be necessary to do some post-processing on these chunks, since
/// chunks will have extra tuples").
std::vector<storage::AggTuple> FilterRows(
    std::vector<storage::AggTuple> rows, uint32_t num_dims,
    const std::array<schema::OrdinalRange, storage::kMaxDims>& selection);

/// Canonical ordering for result rows (row-major by coordinates), so tests
/// and baselines can compare result sets deterministically.
void SortRows(std::vector<storage::AggTuple>* rows, uint32_t num_dims);

}  // namespace chunkcache::backend

#endif  // CHUNKCACHE_BACKEND_AGGREGATOR_H_
