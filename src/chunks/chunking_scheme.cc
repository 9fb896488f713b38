#include "chunks/chunking_scheme.h"

#include <cmath>

#include "common/logging.h"

namespace chunkcache::chunks {

Result<ChunkingScheme> ChunkingScheme::Build(const schema::StarSchema* schema,
                                             const ChunkingOptions& opts,
                                             uint64_t num_base_tuples) {
  if (schema == nullptr || schema->num_dims() == 0) {
    return Status::InvalidArgument("ChunkingScheme: empty schema");
  }
  if (schema->num_dims() > storage::kMaxDims) {
    return Status::InvalidArgument("ChunkingScheme: too many dimensions");
  }
  if (!opts.explicit_sizes.empty() &&
      opts.explicit_sizes.size() != schema->num_dims()) {
    return Status::InvalidArgument(
        "ChunkingScheme: explicit_sizes must match dimension count");
  }
  if (opts.explicit_sizes.empty() &&
      (opts.range_fraction <= 0.0 || opts.range_fraction > 1.0)) {
    return Status::InvalidArgument(
        "ChunkingScheme: range_fraction must be in (0, 1]");
  }
  ChunkingScheme scheme(schema, num_base_tuples);
  for (uint32_t d = 0; d < schema->num_dims(); ++d) {
    const auto& h = schema->dimension(d).hierarchy;
    ChunkRangeSizes sizes;
    if (!opts.explicit_sizes.empty()) {
      sizes = opts.explicit_sizes[d];
    } else {
      // Chunk range proportional to the level's cardinality (Section 5.1).
      for (uint32_t l = 1; l <= h.depth(); ++l) {
        const double c = opts.range_fraction * h.LevelCardinality(l);
        sizes.per_level.push_back(
            std::max<uint32_t>(1, static_cast<uint32_t>(std::lround(c))));
      }
    }
    CHUNKCACHE_ASSIGN_OR_RETURN(DimensionChunking dc,
                                DimensionChunking::Build(h, sizes));
    scheme.dim_chunking_.push_back(std::move(dc));
  }
  const uint32_t num_ids = scheme.NumGroupByIds();
  scheme.finer_ids_.resize(num_ids);
  for (uint32_t id = 0; id < num_ids; ++id) {
    const GroupBySpec spec = scheme.SpecOfId(id);
    for (uint32_t fine = 0; fine < num_ids; ++fine) {
      if (fine != id && spec.CoarserOrEqual(scheme.SpecOfId(fine))) {
        scheme.finer_ids_[id].push_back(fine);
      }
    }
  }
  return scheme;
}

GroupBySpec ChunkingScheme::BaseSpec() const {
  GroupBySpec spec;
  spec.num_dims = num_dims();
  for (uint32_t d = 0; d < num_dims(); ++d) {
    spec.levels[d] =
        static_cast<uint8_t>(schema_->dimension(d).hierarchy.depth());
  }
  return spec;
}

uint32_t ChunkingScheme::GroupById(const GroupBySpec& spec) const {
  CHUNKCACHE_DCHECK(spec.num_dims == num_dims());
  uint32_t id = 0;
  for (uint32_t d = 0; d < num_dims(); ++d) {
    const uint32_t radix = schema_->dimension(d).hierarchy.depth() + 1;
    CHUNKCACHE_DCHECK(spec.levels[d] < radix);
    id = id * radix + spec.levels[d];
  }
  return id;
}

GroupBySpec ChunkingScheme::SpecOfId(uint32_t id) const {
  GroupBySpec spec;
  spec.num_dims = num_dims();
  for (uint32_t d = num_dims(); d-- > 0;) {
    const uint32_t radix = schema_->dimension(d).hierarchy.depth() + 1;
    spec.levels[d] = static_cast<uint8_t>(id % radix);
    id /= radix;
  }
  CHUNKCACHE_DCHECK(id == 0);
  return spec;
}

uint32_t ChunkingScheme::NumGroupByIds() const {
  uint32_t n = 1;
  for (uint32_t d = 0; d < num_dims(); ++d) {
    n *= schema_->dimension(d).hierarchy.depth() + 1;
  }
  return n;
}

ChunkGrid ChunkingScheme::GridFor(const GroupBySpec& spec) const {
  std::array<uint32_t, storage::kMaxDims> num_ranges{};
  for (uint32_t d = 0; d < num_dims(); ++d) {
    num_ranges[d] = dim_chunking_[d].NumRanges(spec.levels[d]);
  }
  return ChunkGrid(spec, num_ranges);
}

ChunkBox ChunkingScheme::BoxForSelection(
    const GroupBySpec& spec,
    const std::array<schema::OrdinalRange, storage::kMaxDims>& sel) const {
  ChunkBox box;
  box.num_dims = num_dims();
  for (uint32_t d = 0; d < num_dims(); ++d) {
    const auto& dc = dim_chunking_[d];
    const uint32_t level = spec.levels[d];
    box.spans[d] = schema::OrdinalRange{
        dc.RangeOfValue(level, sel[d].begin),
        dc.RangeOfValue(level, sel[d].end)};
  }
  return box;
}

std::array<schema::OrdinalRange, storage::kMaxDims>
ChunkingScheme::ChunkExtent(const GroupBySpec& spec,
                            uint64_t chunk_num) const {
  const ChunkGrid grid = GridFor(spec);
  const ChunkCoords coords = grid.DecodeChunkNum(chunk_num);
  std::array<schema::OrdinalRange, storage::kMaxDims> extent{};
  for (uint32_t d = 0; d < num_dims(); ++d) {
    extent[d] = dim_chunking_[d].Range(spec.levels[d], coords[d]);
  }
  return extent;
}

Result<ChunkBox> ChunkingScheme::SourceBox(const GroupBySpec& spec,
                                           uint64_t chunk_num,
                                           const GroupBySpec& fine_spec) const {
  if (!spec.CoarserOrEqual(fine_spec)) {
    return Status::InvalidArgument(
        "SourceBox: target group-by " + spec.ToString() +
        " is not computable from " + fine_spec.ToString());
  }
  const ChunkGrid grid = GridFor(spec);
  if (chunk_num >= grid.num_chunks()) {
    return Status::OutOfRange("SourceBox: chunk number out of range");
  }
  const ChunkCoords coords = grid.DecodeChunkNum(chunk_num);
  ChunkBox box;
  box.num_dims = num_dims();
  for (uint32_t d = 0; d < num_dims(); ++d) {
    box.spans[d] = dim_chunking_[d].SpanAtLevel(spec.levels[d], coords[d],
                                                fine_spec.levels[d]);
  }
  return box;
}

uint64_t ChunkingScheme::ChunkOfCell(const GroupBySpec& spec,
                                     const ChunkCoords& cell) const {
  const ChunkGrid grid = GridFor(spec);
  ChunkCoords coords{};
  for (uint32_t d = 0; d < num_dims(); ++d) {
    coords[d] = dim_chunking_[d].RangeOfValue(spec.levels[d], cell[d]);
  }
  return grid.GetChunkNum(coords);
}

}  // namespace chunkcache::chunks
