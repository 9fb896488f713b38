#ifndef CHUNKCACHE_CHUNKS_CHUNK_GRID_H_
#define CHUNKCACHE_CHUNKS_CHUNK_GRID_H_

#include <array>
#include <cstdint>
#include <functional>

#include "chunks/group_by_spec.h"
#include "common/logging.h"
#include "schema/hierarchy.h"
#include "storage/tuple.h"

namespace chunkcache::chunks {

/// Per-dimension chunk coordinates (range indices) of one chunk.
using ChunkCoords = std::array<uint32_t, storage::kMaxDims>;

/// The chunk lattice of one group-by: dimension d is divided into
/// num_ranges[d] chunk ranges at the group-by's level, and chunks are
/// numbered row-major over range indices — the paper's getChNum() (Figure 8).
class ChunkGrid {
 public:
  ChunkGrid() = default;
  ChunkGrid(GroupBySpec spec,
            const std::array<uint32_t, storage::kMaxDims>& num_ranges)
      : spec_(spec), num_ranges_(num_ranges) {
    num_chunks_ = 1;
    for (uint32_t d = 0; d < spec_.num_dims; ++d) {
      CHUNKCACHE_DCHECK(num_ranges_[d] > 0);
      num_chunks_ *= num_ranges_[d];
    }
  }

  friend bool operator==(const ChunkGrid& a, const ChunkGrid& b) {
    return a.spec_ == b.spec_ && a.num_ranges_ == b.num_ranges_;
  }

  const GroupBySpec& spec() const { return spec_; }
  uint32_t num_dims() const { return spec_.num_dims; }
  uint64_t num_chunks() const { return num_chunks_; }
  uint32_t NumRangesOnDim(uint32_t d) const { return num_ranges_[d]; }

  /// Row-major chunk number of `coords` — getChNum() of Section 5.2.2.
  uint64_t GetChunkNum(const ChunkCoords& coords) const {
    uint64_t num = 0;
    for (uint32_t d = 0; d < spec_.num_dims; ++d) {
      CHUNKCACHE_DCHECK(coords[d] < num_ranges_[d]);
      num = num * num_ranges_[d] + coords[d];
    }
    return num;
  }

  /// Inverse of GetChunkNum.
  ChunkCoords DecodeChunkNum(uint64_t num) const {
    CHUNKCACHE_DCHECK(num < num_chunks_);
    ChunkCoords coords{};
    for (uint32_t d = spec_.num_dims; d-- > 0;) {
      coords[d] = static_cast<uint32_t>(num % num_ranges_[d]);
      num /= num_ranges_[d];
    }
    return coords;
  }

 private:
  GroupBySpec spec_;
  std::array<uint32_t, storage::kMaxDims> num_ranges_{};
  uint64_t num_chunks_ = 0;
};

/// An axis-aligned box of chunk coordinates within one grid: per dimension
/// an inclusive interval of range indices. Selections map to boxes because
/// range predicates select contiguous ordinals, which map to contiguous
/// range indices.
struct ChunkBox {
  std::array<schema::OrdinalRange, storage::kMaxDims> spans{};
  uint32_t num_dims = 0;

  uint64_t NumChunks() const {
    uint64_t n = 1;
    for (uint32_t d = 0; d < num_dims; ++d) n *= spans[d].size();
    return n;
  }

  /// Visits each chunk in the box: `fn(chunk_num, coords)`. Iterates the
  /// cross product in row-major order — the paper's ComputeChunkNums.
  void ForEach(const ChunkGrid& grid,
               const std::function<void(uint64_t, const ChunkCoords&)>& fn)
      const {
    CHUNKCACHE_DCHECK(num_dims == grid.num_dims());
    ChunkCoords coords{};
    for (uint32_t d = 0; d < num_dims; ++d) coords[d] = spans[d].begin;
    while (true) {
      fn(grid.GetChunkNum(coords), coords);
      // Odometer increment.
      uint32_t d = num_dims;
      while (d-- > 0) {
        if (coords[d] < spans[d].end) {
          ++coords[d];
          break;
        }
        coords[d] = spans[d].begin;
        if (d == 0) return;
      }
    }
  }
};

}  // namespace chunkcache::chunks

#endif  // CHUNKCACHE_CHUNKS_CHUNK_GRID_H_
