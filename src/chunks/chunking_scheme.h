#ifndef CHUNKCACHE_CHUNKS_CHUNKING_SCHEME_H_
#define CHUNKCACHE_CHUNKS_CHUNKING_SCHEME_H_

#include <array>
#include <cstdint>
#include <vector>

#include "chunks/chunk_grid.h"
#include "chunks/chunk_ranges.h"
#include "chunks/group_by_spec.h"
#include "common/status.h"
#include "schema/star_schema.h"

namespace chunkcache::chunks {

/// How chunk-range sizes are chosen. The paper keeps the chunk range at any
/// level proportional to the number of distinct values at that level
/// (Section 5.1); `range_fraction` is that proportion and is the knob swept
/// by the Figure 12 experiment.
struct ChunkingOptions {
  /// Desired chunk range / level cardinality (e.g. 0.1 -> ~10 ranges per
  /// level on each dimension). Ignored for dimensions with explicit sizes.
  double range_fraction = 0.1;
  /// Optional explicit per-dimension sizes (empty = derive from
  /// range_fraction). If non-empty, must have one entry per dimension.
  std::vector<ChunkRangeSizes> explicit_sizes;
};

/// Ties a StarSchema to its chunk ranges on every dimension and exposes the
/// paper's chunk algebra:
///  - group-by specs interned to dense ids,
///  - the ChunkGrid of any group-by,
///  - the strictly-finer group-bys of each group-by (the lattice),
///  - selection ranges -> chunk numbers (ComputeChunkNums),
///  - chunk extents (ordinal ranges a chunk spans),
///  - closure: the source chunks at a finer group-by needed to compute a
///    chunk (Section 3.2's property 3 / Section 5.2.3's splitting),
///  - chunk benefit for the replacement policy (Section 5.4).
class ChunkingScheme {
 public:
  /// `num_base_tuples` feeds the benefit metric (|base table| / #chunks).
  static Result<ChunkingScheme> Build(const schema::StarSchema* schema,
                                      const ChunkingOptions& opts,
                                      uint64_t num_base_tuples);

  ChunkingScheme(ChunkingScheme&&) = default;
  ChunkingScheme& operator=(ChunkingScheme&&) = default;

  const schema::StarSchema& schema() const { return *schema_; }
  uint32_t num_dims() const { return schema_->num_dims(); }
  const DimensionChunking& dim_chunking(uint32_t d) const {
    return dim_chunking_[d];
  }

  /// The all-base-levels group-by (the fact table's own granularity).
  GroupBySpec BaseSpec() const;

  /// Dense id of `spec` (mixed-radix over per-dimension level counts);
  /// inverse of SpecOfId. Ids are stable across runs.
  uint32_t GroupById(const GroupBySpec& spec) const;
  GroupBySpec SpecOfId(uint32_t id) const;
  uint32_t NumGroupByIds() const;

  /// Grid of `spec`: one range count per dimension, so building it is a
  /// few multiplies and needs no cache (or lock).
  ChunkGrid GridFor(const GroupBySpec& spec) const;

  /// Ids of every group-by strictly finer than group-by `id` (the target
  /// is computable from each), in ascending id order. Precomputed.
  const std::vector<uint32_t>& StrictlyFinerIds(uint32_t id) const {
    return finer_ids_[id];
  }

  /// Box of chunk coordinates covering the selection `sel` (per-dimension
  /// inclusive ordinal ranges *at the spec's levels*; a dimension at level
  /// 0 must select {0,0}).
  ChunkBox BoxForSelection(
      const GroupBySpec& spec,
      const std::array<schema::OrdinalRange, storage::kMaxDims>& sel) const;

  /// Per-dimension ordinal ranges (at the spec's levels) spanned by chunk
  /// `chunk_num` of `spec` — the chunk's extent, used for boundary
  /// post-filtering.
  std::array<schema::OrdinalRange, storage::kMaxDims> ChunkExtent(
      const GroupBySpec& spec, uint64_t chunk_num) const;

  /// The box of chunks of `fine_spec` whose union covers chunk `chunk_num`
  /// of `spec`. Every dimension of `fine_spec` must be at the same or a
  /// finer level than in `spec` (spec.CoarserOrEqual(fine_spec)).
  Result<ChunkBox> SourceBox(const GroupBySpec& spec, uint64_t chunk_num,
                             const GroupBySpec& fine_spec) const;

  /// Chunk number within `spec`'s grid of the cell with per-dimension
  /// ordinals `cell` (at the spec's levels) — routes aggregate rows into
  /// chunks.
  uint64_t ChunkOfCell(const GroupBySpec& spec, const ChunkCoords& cell) const;

  /// Benefit of one chunk of `spec`: the fraction of the base table it
  /// represents, scaled to tuples (|base| / #chunks(spec), Section 5.4).
  double ChunkBenefit(const GroupBySpec& spec) const {
    return static_cast<double>(num_base_tuples_) /
           static_cast<double>(GridFor(spec).num_chunks());
  }

  uint64_t num_base_tuples() const { return num_base_tuples_; }

 private:
  ChunkingScheme(const schema::StarSchema* schema, uint64_t num_base_tuples)
      : schema_(schema), num_base_tuples_(num_base_tuples) {}

  const schema::StarSchema* schema_;
  uint64_t num_base_tuples_;
  std::vector<DimensionChunking> dim_chunking_;
  // The lattice's strict "finer than" relation, indexed by group-by id.
  std::vector<std::vector<uint32_t>> finer_ids_;
};

}  // namespace chunkcache::chunks

#endif  // CHUNKCACHE_CHUNKS_CHUNKING_SCHEME_H_
