#include "cache/query_cache.h"

#include <algorithm>

#include "common/logging.h"

namespace chunkcache::cache {

using backend::StarJoinQuery;

namespace {

uint64_t GroupByHash(const StarJoinQuery& q) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (uint32_t d = 0; d < q.group_by.num_dims; ++d) {
    h = (h ^ q.group_by.levels[d]) * 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

bool QueryContains(const StarJoinQuery& outer, const StarJoinQuery& inner) {
  if (!(outer.group_by == inner.group_by)) return false;
  // Non-group-by selections must match exactly (order-insensitive).
  if (outer.non_group_by.size() != inner.non_group_by.size()) return false;
  for (const auto& p : inner.non_group_by) {
    if (std::find(outer.non_group_by.begin(), outer.non_group_by.end(), p) ==
        outer.non_group_by.end()) {
      return false;
    }
  }
  for (uint32_t d = 0; d < inner.group_by.num_dims; ++d) {
    if (inner.selection[d].begin < outer.selection[d].begin ||
        inner.selection[d].end > outer.selection[d].end) {
      return false;
    }
  }
  return true;
}

QueryCache::QueryCache(uint64_t capacity_bytes,
                       std::unique_ptr<ReplacementPolicy> policy)
    : capacity_bytes_(capacity_bytes), policy_(std::move(policy)) {
  CHUNKCACHE_CHECK(policy_ != nullptr);
}

const CachedQuery* QueryCache::FindContaining(const StarJoinQuery& q) {
  ++stats_.lookups;
  auto bucket = by_group_by_.find(GroupByHash(q));
  if (bucket == by_group_by_.end()) return nullptr;
  for (uint64_t handle : bucket->second) {
    ++stats_.containment_checks;
    Entry& e = by_handle_.at(handle);
    if (QueryContains(e.cached.query, q)) {
      ++stats_.hits;
      policy_->OnAccess(&e);
      return &e.cached;
    }
  }
  return nullptr;
}

void QueryCache::Erase(uint64_t handle) {
  auto it = by_handle_.find(handle);
  CHUNKCACHE_DCHECK(it != by_handle_.end());
  bytes_used_ -= it->second.cached.ByteSize();
  auto bucket = by_group_by_.find(GroupByHash(it->second.cached.query));
  if (bucket != by_group_by_.end()) {
    auto& v = bucket->second;
    v.erase(std::remove(v.begin(), v.end(), handle), v.end());
    if (v.empty()) by_group_by_.erase(bucket);
  }
  policy_->OnErase(&it->second);
  by_handle_.erase(it);
}

void QueryCache::Insert(CachedQuery entry) {
  const uint64_t bytes = entry.ByteSize();
  if (bytes > capacity_bytes_) {
    ++stats_.rejected;
    return;
  }
  // Drop a previous entry for the *identical* query.
  auto bucket = by_group_by_.find(GroupByHash(entry.query));
  if (bucket != by_group_by_.end()) {
    for (uint64_t handle : bucket->second) {
      if (by_handle_.at(handle).cached.query == entry.query) {
        Erase(handle);
        break;
      }
    }
  }
  while (bytes_used_ + bytes > capacity_bytes_) {
    ReplacementNode* victim = policy_->PickVictim(entry.benefit);
    if (victim == nullptr) break;
    Erase(static_cast<Entry*>(victim)->handle);
    ++stats_.evictions;
  }
  if (bytes_used_ + bytes > capacity_bytes_) {
    ++stats_.rejected;
    return;
  }
  const uint64_t handle = next_handle_++;
  by_group_by_[GroupByHash(entry.query)].push_back(handle);
  bytes_used_ += bytes;
  Entry& e = by_handle_[handle];
  e.handle = handle;
  policy_->OnInsert(&e, entry.benefit);
  e.cached = std::move(entry);
  ++stats_.insertions;
}

}  // namespace chunkcache::cache
