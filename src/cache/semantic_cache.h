#ifndef CHUNKCACHE_CACHE_SEMANTIC_CACHE_H_
#define CHUNKCACHE_CACHE_SEMANTIC_CACHE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "backend/star_join_query.h"
#include "cache/replacement.h"
#include "storage/tuple.h"

namespace chunkcache::cache {

/// An axis-aligned box of ordinals at some group-by level — the shape of a
/// semantic region and of the remainders produced by subtracting regions
/// from a query.
struct RegionBox {
  std::array<schema::OrdinalRange, storage::kMaxDims> ranges{};
  uint32_t num_dims = 0;

  uint64_t Volume() const {
    uint64_t v = 1;
    for (uint32_t d = 0; d < num_dims; ++d) v *= ranges[d].size();
    return v;
  }
  bool Contains(const storage::AggTuple& row) const {
    for (uint32_t d = 0; d < num_dims; ++d) {
      if (!ranges[d].Contains(row.coords[d])) return false;
    }
    return true;
  }
};

/// Intersection of two boxes; empty optional when disjoint.
std::optional<RegionBox> IntersectBoxes(const RegionBox& a,
                                        const RegionBox& b);

/// Subtracts `b` from `a`, returning up to 2*num_dims disjoint boxes that
/// tile a \ b (the classic semantic-caching remainder decomposition).
std::vector<RegionBox> SubtractBox(const RegionBox& a, const RegionBox& b);

/// One cached semantic region: the rows of `box` at aggregation level
/// `group_by`, computed under the given non-group-by predicates.
struct SemanticRegion {
  chunks::GroupBySpec group_by;
  std::vector<backend::NonGroupByPredicate> non_group_by;
  RegionBox box;
  double benefit = 0;
  std::vector<storage::AggTuple> rows;

  uint64_t ByteSize() const {
    return sizeof(SemanticRegion) +
           rows.size() * sizeof(storage::AggTuple);
  }
};

struct SemanticCacheStats {
  uint64_t lookups = 0;
  uint64_t intersection_tests = 0;  ///< The cost the paper criticizes.
  uint64_t regions_used = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  uint64_t rejected = 0;
};

/// Semantic-region caching after Dar et al. [DFJST96], the comparison
/// point of the paper's Section 2.4: query results are cached as arbitrary
/// rectangular *semantic regions*; answering a new query means
/// intersecting it with every cached region of the same group-by (cost
/// linear in the number of regions — exactly the overhead chunks'
/// uniformity removes) and computing the leftover remainder boxes at the
/// backend.
class SemanticRegionCache {
 public:
  /// The decomposition of one query against the cache.
  struct Probe {
    /// (region handle, sub-box) pairs covering part of the query;
    /// sub-boxes are mutually disjoint.
    std::vector<std::pair<const SemanticRegion*, RegionBox>> covered;
    /// Boxes of the query not covered by any region.
    std::vector<RegionBox> remainder;
    /// Cells covered / total query cells.
    double covered_fraction = 0;
  };

  SemanticRegionCache(uint64_t capacity_bytes,
                      std::unique_ptr<ReplacementPolicy> policy);

  SemanticRegionCache(const SemanticRegionCache&) = delete;
  SemanticRegionCache& operator=(const SemanticRegionCache&) = delete;

  /// Decomposes `query` into covered parts and remainder boxes, touching
  /// every cached candidate region (and recording the per-probe
  /// intersection-test count in stats). Region pointers stay valid until
  /// the next Insert.
  Probe Decompose(const backend::StarJoinQuery& query);

  /// Caches a region, evicting per policy until it fits.
  void Insert(SemanticRegion region);

  uint64_t bytes_used() const { return bytes_used_; }
  uint64_t capacity_bytes() const { return capacity_bytes_; }
  size_t num_regions() const { return by_handle_.size(); }
  const SemanticCacheStats& stats() const { return stats_; }

 private:
  /// A cached region with its replacement node; ByteSize() charges only
  /// the SemanticRegion.
  struct Entry : ReplacementNode {
    uint64_t handle = 0;
    SemanticRegion region;
  };

  static uint64_t GroupKey(const chunks::GroupBySpec& spec);
  void Erase(uint64_t handle);

  uint64_t capacity_bytes_;
  std::unique_ptr<ReplacementPolicy> policy_;
  uint64_t next_handle_ = 1;
  std::unordered_map<uint64_t, Entry> by_handle_;
  std::unordered_map<uint64_t, std::vector<uint64_t>> by_group_;
  uint64_t bytes_used_ = 0;
  SemanticCacheStats stats_;
};

}  // namespace chunkcache::cache

#endif  // CHUNKCACHE_CACHE_SEMANTIC_CACHE_H_
