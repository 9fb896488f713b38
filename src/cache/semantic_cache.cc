#include "cache/semantic_cache.h"

#include <algorithm>

#include "common/logging.h"

namespace chunkcache::cache {

using schema::OrdinalRange;

std::optional<RegionBox> IntersectBoxes(const RegionBox& a,
                                        const RegionBox& b) {
  CHUNKCACHE_DCHECK(a.num_dims == b.num_dims);
  RegionBox out;
  out.num_dims = a.num_dims;
  for (uint32_t d = 0; d < a.num_dims; ++d) {
    const uint32_t lo = std::max(a.ranges[d].begin, b.ranges[d].begin);
    const uint32_t hi = std::min(a.ranges[d].end, b.ranges[d].end);
    if (lo > hi) return std::nullopt;
    out.ranges[d] = OrdinalRange{lo, hi};
  }
  return out;
}

std::vector<RegionBox> SubtractBox(const RegionBox& a, const RegionBox& b) {
  auto inter = IntersectBoxes(a, b);
  if (!inter) return {a};
  std::vector<RegionBox> pieces;
  // Peel slabs off `rest` dimension by dimension: everything strictly
  // below / above the intersection on dimension d becomes a piece, and the
  // search continues inside the middle slab. The pieces are disjoint and
  // tile a \ b.
  RegionBox rest = a;
  for (uint32_t d = 0; d < a.num_dims; ++d) {
    if (rest.ranges[d].begin < inter->ranges[d].begin) {
      RegionBox below = rest;
      below.ranges[d] =
          OrdinalRange{rest.ranges[d].begin, inter->ranges[d].begin - 1};
      pieces.push_back(below);
    }
    if (rest.ranges[d].end > inter->ranges[d].end) {
      RegionBox above = rest;
      above.ranges[d] =
          OrdinalRange{inter->ranges[d].end + 1, rest.ranges[d].end};
      pieces.push_back(above);
    }
    rest.ranges[d] = inter->ranges[d];
  }
  return pieces;
}

SemanticRegionCache::SemanticRegionCache(
    uint64_t capacity_bytes, std::unique_ptr<ReplacementPolicy> policy)
    : capacity_bytes_(capacity_bytes), policy_(std::move(policy)) {
  CHUNKCACHE_CHECK(policy_ != nullptr);
}

uint64_t SemanticRegionCache::GroupKey(const chunks::GroupBySpec& spec) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (uint32_t d = 0; d < spec.num_dims; ++d) {
    h = (h ^ spec.levels[d]) * 0x100000001b3ULL;
  }
  return h;
}

SemanticRegionCache::Probe SemanticRegionCache::Decompose(
    const backend::StarJoinQuery& query) {
  ++stats_.lookups;
  Probe probe;
  RegionBox query_box;
  query_box.num_dims = query.group_by.num_dims;
  for (uint32_t d = 0; d < query_box.num_dims; ++d) {
    query_box.ranges[d] = query.selection[d];
  }
  std::vector<RegionBox> remainder = {query_box};

  auto bucket = by_group_.find(GroupKey(query.group_by));
  if (bucket != by_group_.end()) {
    for (uint64_t handle : bucket->second) {
      if (remainder.empty()) break;
      Entry& e = by_handle_.at(handle);
      const SemanticRegion& region = e.region;
      ++stats_.intersection_tests;
      if (!(region.group_by == query.group_by)) continue;
      if (region.non_group_by != query.non_group_by) continue;
      // Intersect the region with every outstanding remainder piece.
      std::vector<RegionBox> next;
      bool used = false;
      for (const RegionBox& piece : remainder) {
        auto overlap = IntersectBoxes(piece, region.box);
        if (!overlap) {
          next.push_back(piece);
          continue;
        }
        used = true;
        probe.covered.emplace_back(&region, *overlap);
        for (RegionBox& left : SubtractBox(piece, region.box)) {
          next.push_back(left);
        }
      }
      if (used) {
        policy_->OnAccess(&e);
        ++stats_.regions_used;
      }
      remainder = std::move(next);
    }
  }
  probe.remainder = std::move(remainder);
  uint64_t covered_cells = 0;
  for (const auto& [region, box] : probe.covered) covered_cells += box.Volume();
  probe.covered_fraction = query_box.Volume() == 0
                               ? 0.0
                               : static_cast<double>(covered_cells) /
                                     static_cast<double>(query_box.Volume());
  return probe;
}

void SemanticRegionCache::Erase(uint64_t handle) {
  auto it = by_handle_.find(handle);
  CHUNKCACHE_DCHECK(it != by_handle_.end());
  bytes_used_ -= it->second.region.ByteSize();
  auto bucket = by_group_.find(GroupKey(it->second.region.group_by));
  if (bucket != by_group_.end()) {
    auto& v = bucket->second;
    v.erase(std::remove(v.begin(), v.end(), handle), v.end());
    if (v.empty()) by_group_.erase(bucket);
  }
  policy_->OnErase(&it->second);
  by_handle_.erase(it);
}

void SemanticRegionCache::Insert(SemanticRegion region) {
  const uint64_t bytes = region.ByteSize();
  if (bytes > capacity_bytes_) {
    ++stats_.rejected;
    return;
  }
  while (bytes_used_ + bytes > capacity_bytes_) {
    ReplacementNode* victim = policy_->PickVictim(region.benefit);
    if (victim == nullptr) break;
    Erase(static_cast<Entry*>(victim)->handle);
    ++stats_.evictions;
  }
  if (bytes_used_ + bytes > capacity_bytes_) {
    ++stats_.rejected;
    return;
  }
  const uint64_t handle = next_handle_++;
  by_group_[GroupKey(region.group_by)].push_back(handle);
  bytes_used_ += bytes;
  Entry& e = by_handle_[handle];
  e.handle = handle;
  policy_->OnInsert(&e, region.benefit);
  e.region = std::move(region);
  ++stats_.insertions;
}

}  // namespace chunkcache::cache
