#include "chunks/chunk_ranges.h"

#include "common/logging.h"

namespace chunkcache::chunks {

Result<DimensionChunking> DimensionChunking::Build(
    const schema::Hierarchy& hierarchy, const ChunkRangeSizes& sizes) {
  const uint32_t depth = hierarchy.depth();
  if (sizes.per_level.size() != depth) {
    return Status::InvalidArgument(
        "ChunkRangeSizes must have one entry per named level");
  }
  DimensionChunking dc;
  dc.levels_.resize(depth);

  // Level 1: uniform division of the whole level.
  {
    const uint32_t card = hierarchy.LevelCardinality(1);
    const uint32_t c = std::max<uint32_t>(1, sizes.per_level[0]);
    auto& lc = dc.levels_[0];
    for (uint32_t begin = 0; begin < card; begin += c) {
      const uint32_t end = std::min(begin + c, card) - 1;
      lc.ranges.push_back(OrdinalRange{begin, end});
    }
  }

  // Levels 2..depth: subdivide each parent range's mapped value set.
  for (uint32_t level = 2; level <= depth; ++level) {
    const uint32_t c = std::max<uint32_t>(1, sizes.per_level[level - 1]);
    auto& parent_lc = dc.levels_[level - 2];
    auto& lc = dc.levels_[level - 1];
    parent_lc.child_span.reserve(parent_lc.ranges.size());
    for (const OrdinalRange& pr : parent_lc.ranges) {
      // Values at `level` that range `pr` (at level-1) maps to.
      const OrdinalRange lo = hierarchy.ChildRange(level - 1, pr.begin);
      const OrdinalRange hi = hierarchy.ChildRange(level - 1, pr.end);
      const OrdinalRange mapped{lo.begin, hi.end};
      const uint32_t first_idx = static_cast<uint32_t>(lc.ranges.size());
      for (uint32_t begin = mapped.begin; begin <= mapped.end; begin += c) {
        const uint32_t end = std::min(begin + c - 1, mapped.end);
        lc.ranges.push_back(OrdinalRange{begin, end});
        if (end == mapped.end) break;  // guard wrap when begin + c overflows
      }
      const uint32_t last_idx = static_cast<uint32_t>(lc.ranges.size()) - 1;
      parent_lc.child_span.push_back(OrdinalRange{first_idx, last_idx});
    }
  }

  // range_of_value lookup tables.
  for (uint32_t level = 1; level <= depth; ++level) {
    auto& lc = dc.levels_[level - 1];
    lc.range_of_value.assign(hierarchy.LevelCardinality(level), 0);
    for (uint32_t i = 0; i < lc.ranges.size(); ++i) {
      for (uint32_t v = lc.ranges[i].begin; v <= lc.ranges[i].end; ++v) {
        lc.range_of_value[v] = i;
      }
    }
  }
  return dc;
}

OrdinalRange DimensionChunking::ChildRangeSpan(uint32_t level,
                                               uint32_t idx) const {
  CHUNKCACHE_DCHECK(level < depth());
  if (level == 0) {
    return OrdinalRange{0, NumRanges(1) - 1};
  }
  return levels_[level - 1].child_span[idx];
}

OrdinalRange DimensionChunking::SpanAtLevel(uint32_t from_level, uint32_t idx,
                                            uint32_t to_level) const {
  CHUNKCACHE_DCHECK(from_level <= to_level);
  CHUNKCACHE_DCHECK(to_level <= depth());
  if (from_level == to_level) return OrdinalRange{idx, idx};
  OrdinalRange span = ChildRangeSpan(from_level, idx);
  for (uint32_t l = from_level + 1; l < to_level; ++l) {
    const OrdinalRange lo = ChildRangeSpan(l, span.begin);
    const OrdinalRange hi = ChildRangeSpan(l, span.end);
    span = OrdinalRange{lo.begin, hi.end};
  }
  return span;
}

}  // namespace chunkcache::chunks
