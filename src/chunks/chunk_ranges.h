#ifndef CHUNKCACHE_CHUNKS_CHUNK_RANGES_H_
#define CHUNKCACHE_CHUNKS_CHUNK_RANGES_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "schema/hierarchy.h"

namespace chunkcache::chunks {

using schema::OrdinalRange;

/// Desired chunk-range sizes for one dimension, one entry per named level
/// (level 1 first). A size of c at a level means "divide that level's
/// ordinals into ranges of about c values", subject to the hierarchy
/// alignment rule below.
struct ChunkRangeSizes {
  std::vector<uint32_t> per_level;
};

/// The chunk ranges of one dimension at every level, produced by the
/// paper's CreateChunkRanges algorithm (Section 3.4):
///
///   Divide level 1 into uniform ranges;
///   for each level l = 1 .. depth-1:
///     for each chunk range R at level l:
///       divide the set of level-(l+1) values R maps to into uniform ranges.
///
/// This alignment guarantees that a range at level l maps to a *disjoint,
/// contiguous* set of ranges at level l+1 — the closure property that lets
/// an aggregate chunk be computed from a known set of finer chunks.
///
/// Level 0 (ALL) implicitly has a single range covering its single member.
class DimensionChunking {
 public:
  /// Builds chunk ranges for `hierarchy` with the given desired sizes
  /// (sizes.per_level.size() must equal hierarchy.depth(); entries are
  /// clamped to >= 1).
  static Result<DimensionChunking> Build(const schema::Hierarchy& hierarchy,
                                         const ChunkRangeSizes& sizes);

  /// Number of chunk ranges at `level` (level 0 -> 1).
  uint32_t NumRanges(uint32_t level) const {
    return level == 0 ? 1
                      : static_cast<uint32_t>(levels_[level - 1].ranges.size());
  }

  /// The `idx`-th chunk range at `level`.
  OrdinalRange Range(uint32_t level, uint32_t idx) const {
    if (level == 0) return OrdinalRange{0, 0};
    return levels_[level - 1].ranges[idx];
  }

  /// Index of the chunk range containing `ordinal` at `level`.
  uint32_t RangeOfValue(uint32_t level, uint32_t ordinal) const {
    if (level == 0) return 0;
    return levels_[level - 1].range_of_value[ordinal];
  }

  /// Indices [begin, end] of the ranges at `level`+1 that range `idx` at
  /// `level` maps to (CreateChunkRanges makes this contiguous). `level`
  /// must be < depth(); level 0 maps to all of level 1's ranges.
  OrdinalRange ChildRangeSpan(uint32_t level, uint32_t idx) const;

  /// Indices [begin, end] of ranges at `to_level` covered by range `idx`
  /// at `from_level` (to_level >= from_level; composition of
  /// ChildRangeSpan). This is the closure property's range mapping.
  OrdinalRange SpanAtLevel(uint32_t from_level, uint32_t idx,
                           uint32_t to_level) const;

  uint32_t depth() const { return static_cast<uint32_t>(levels_.size()); }

 private:
  struct LevelChunking {
    std::vector<OrdinalRange> ranges;
    std::vector<uint32_t> range_of_value;
    // child_span[i] = indices of level+1 ranges produced from ranges[i];
    // empty at the base level.
    std::vector<OrdinalRange> child_span;
  };

  std::vector<LevelChunking> levels_;
};

}  // namespace chunkcache::chunks

#endif  // CHUNKCACHE_CHUNKS_CHUNK_RANGES_H_
