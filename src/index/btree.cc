#include "index/btree.h"

#include <algorithm>
#include <string>

namespace chunkcache::index {

using storage::Page;
using storage::PageGuard;

// ---------------------------------------------------------------------------
// Node accessors.
//
// Layout within a 4 KiB page:
//   [0,16)  NodeHeader
//   leaf:     keys[kLeafCapacity] at 16, payloads[kLeafCapacity] after keys
//   internal: keys[kInternalCapacity] at 16, children[kInternalCapacity+1]
//             after keys
//
// Routing convention (upper_bound): in an internal node, children[j] covers
// keys k with keys[j-1] <= k < keys[j] (keys[-1] = -inf, keys[count] = +inf).
// ---------------------------------------------------------------------------

BTree::NodeHeader* BTree::Header(Page* p) { return p->As<NodeHeader>(); }
uint64_t* BTree::Keys(Page* p) { return p->As<uint64_t>(kHeaderSize); }
BTreePayload* BTree::Payloads(Page* p) {
  return p->As<BTreePayload>(kHeaderSize + kLeafCapacity * 8);
}
uint32_t* BTree::Children(Page* p) {
  return p->As<uint32_t>(kHeaderSize + kInternalCapacity * 8);
}

namespace {

// Minimum keys in a non-root node. A bulk-loaded level is full except for
// its last node or two, so a small constant, not capacity/2, is the bound.
uint32_t MinLeafKeys() { return 2; }
uint32_t MinInternalKeys() { return 2; }

// Items (leaf entries, or children of an internal node) the next node of
// a level takes when `left` remain: a full node, except that the last two
// nodes split their items evenly when the last would hold fewer than
// `min`. Node count and height are those of filling every node.
size_t NodeTake(size_t left, size_t cap, size_t min) {
  if (left > cap && left - cap < min) return left / 2;
  return std::min(left, cap);
}

// std::lower_bound(first, last, key), probing first + 1, + 3, + 7, ...
// before a binary search of the last gap: a walk's next key usually lies
// a few entries on, and this reads the cache lines near it first.
const uint64_t* GallopLowerBound(const uint64_t* first, const uint64_t* last,
                                 uint64_t key) {
  size_t step = 1;
  while (first != last && *first < key) {
    if (step >= static_cast<size_t>(last - first)) {
      return std::lower_bound(first + 1, last, key);
    }
    if (first[step] >= key) {
      return std::lower_bound(first + 1, first + step, key);
    }
    first += step;
    step *= 2;
  }
  return first;
}

}  // namespace

Result<PageGuard> BTree::NewNode(bool leaf) {
  CHUNKCACHE_ASSIGN_OR_RETURN(PageGuard guard, pool_->Allocate(file_id_));
  auto* h = Header(guard.page());
  h->is_leaf = leaf ? 1 : 0;
  h->count = 0;
  guard.MarkDirty();
  return guard;
}

Result<BTreePayload> BTree::Get(uint64_t key) const {
  if (height_ == 0) return Status::NotFound("BTree: empty");
  uint32_t cur = root_page_;
  for (uint32_t level = 0;; ++level) {
    CHUNKCACHE_ASSIGN_OR_RETURN(PageGuard node, pool_->Fetch(Pid(cur)));
    auto* h = Header(node.page());
    uint64_t* keys = Keys(node.page());
    if (h->is_leaf) {
      uint64_t* end = keys + h->count;
      uint64_t* it = std::lower_bound(keys, end, key);
      if (it == end || *it != key) {
        return Status::NotFound("BTree: key " + std::to_string(key));
      }
      return Payloads(node.page())[it - keys];
    }
    const uint32_t idx = static_cast<uint32_t>(
        std::upper_bound(keys, keys + h->count, key) - keys);
    cur = Children(node.page())[idx];
    if (level > height_) return Status::Corruption("BTree: cycle in descent");
  }
}

Status BTree::GetAscending(const std::vector<uint64_t>& keys,
                           std::vector<BTreePayload>* out) const {
  for (size_t i = 1; i < keys.size(); ++i) {
    if (keys[i - 1] >= keys[i]) {
      return Status::InvalidArgument("GetAscending: keys not ascending");
    }
  }
  if (height_ == 0) return Status::OK();
  size_t i = 0;
  while (i < keys.size()) {
    // Descend to the leaf whose range holds keys[i]. `hi` (when `bounded`)
    // is that range's exclusive upper end: the separator right of the child
    // taken at the deepest level that has one.
    uint32_t cur = root_page_;
    uint64_t hi = 0;
    bool bounded = false;
    for (uint32_t level = 0;; ++level) {
      CHUNKCACHE_ASSIGN_OR_RETURN(PageGuard node, pool_->Fetch(Pid(cur)));
      auto* h = Header(node.page());
      const uint64_t* node_keys = Keys(node.page());
      if (h->is_leaf) {
        // Every key below `hi` lies in this leaf's range.
        const uint64_t* end = node_keys + h->count;
        const uint64_t* it = node_keys;
        const BTreePayload* payloads = Payloads(node.page());
        for (; i < keys.size() && (!bounded || keys[i] < hi); ++i) {
          it = GallopLowerBound(it, end, keys[i]);
          if (it != end && *it == keys[i]) {
            out->push_back(payloads[it - node_keys]);
          }
        }
        break;
      }
      const uint32_t idx = static_cast<uint32_t>(
          std::upper_bound(node_keys, node_keys + h->count, keys[i]) -
          node_keys);
      if (idx < h->count) {
        hi = node_keys[idx];
        bounded = true;
      }
      cur = Children(node.page())[idx];
      if (level > height_) return Status::Corruption("BTree: cycle in descent");
    }
  }
  return Status::OK();
}

Result<BTree> BTree::BulkLoad(
    storage::BufferPool* pool,
    const std::vector<std::pair<uint64_t, BTreePayload>>& sorted) {
  for (size_t i = 1; i < sorted.size(); ++i) {
    if (sorted[i - 1].first >= sorted[i].first) {
      return Status::InvalidArgument("BulkLoad: input not strictly sorted");
    }
  }
  BTree t(pool, pool->disk()->CreateFile());
  if (sorted.empty()) return t;

  // Build the leaf level; remember (first key, page) of every node.
  std::vector<std::pair<uint64_t, uint32_t>> level;
  for (size_t pos = 0; pos < sorted.size();) {
    const uint32_t take = static_cast<uint32_t>(
        NodeTake(sorted.size() - pos, kLeafCapacity, MinLeafKeys()));
    CHUNKCACHE_ASSIGN_OR_RETURN(PageGuard leaf, t.NewNode(/*leaf=*/true));
    uint64_t* keys = Keys(leaf.page());
    BTreePayload* pays = Payloads(leaf.page());
    for (uint32_t j = 0; j < take; ++j) {
      keys[j] = sorted[pos + j].first;
      pays[j] = sorted[pos + j].second;
    }
    Header(leaf.page())->count = take;
    level.emplace_back(sorted[pos].first, leaf.id().page_no);
    pos += take;
  }
  uint32_t levels = 1;

  // Build internal levels until one node remains. Separator for child j
  // (j >= 1) is that child's smallest key, matching the routing convention.
  while (level.size() > 1) {
    std::vector<std::pair<uint64_t, uint32_t>> next;
    for (size_t pos = 0; pos < level.size();) {
      const uint32_t take = static_cast<uint32_t>(NodeTake(
          level.size() - pos, kInternalCapacity + 1, MinInternalKeys() + 1));
      CHUNKCACHE_ASSIGN_OR_RETURN(PageGuard node, t.NewNode(/*leaf=*/false));
      uint64_t* keys = Keys(node.page());
      uint32_t* children = Children(node.page());
      for (uint32_t j = 0; j < take; ++j) {
        children[j] = level[pos + j].second;
        if (j > 0) keys[j - 1] = level[pos + j].first;
      }
      Header(node.page())->count = take - 1;
      next.emplace_back(level[pos].first, node.id().page_no);
      pos += take;
    }
    level = std::move(next);
    ++levels;
  }

  t.root_page_ = level[0].second;
  t.height_ = levels;
  t.size_ = sorted.size();
  return t;
}

Status BTree::CheckInvariants() const {
  if (height_ == 0) return Status::OK();  // empty: no pages
  struct StackEntry {
    uint32_t page;
    uint64_t lo;
    bool has_lo;
    uint64_t hi;
    bool has_hi;
    uint32_t depth;
  };
  std::vector<StackEntry> stack{{root_page_, 0, false, 0, false, 0}};
  uint64_t seen = 0;
  uint32_t leaf_depth = 0;
  bool leaf_depth_set = false;
  while (!stack.empty()) {
    StackEntry e = stack.back();
    stack.pop_back();
    CHUNKCACHE_ASSIGN_OR_RETURN(PageGuard node, pool_->Fetch(Pid(e.page)));
    auto* h = Header(node.page());
    uint64_t* keys = Keys(node.page());
    for (uint32_t j = 1; j < h->count; ++j) {
      if (keys[j - 1] >= keys[j]) {
        return Status::Corruption("BTree: keys out of order");
      }
    }
    if (h->count > 0) {
      if (e.has_lo && keys[0] < e.lo) {
        return Status::Corruption("BTree: key below subtree bound");
      }
      if (e.has_hi && keys[h->count - 1] >= e.hi) {
        return Status::Corruption("BTree: key above subtree bound");
      }
    }
    const bool is_root = e.page == root_page_;
    if (h->is_leaf) {
      if (!is_root && h->count < MinLeafKeys()) {
        return Status::Corruption("BTree: underfull leaf");
      }
      if (leaf_depth_set && e.depth != leaf_depth) {
        return Status::Corruption("BTree: leaves at different depths");
      }
      leaf_depth = e.depth;
      leaf_depth_set = true;
      seen += h->count;
    } else {
      if (!is_root && h->count < MinInternalKeys()) {
        return Status::Corruption("BTree: underfull internal node");
      }
      if (is_root && h->count == 0) {
        return Status::Corruption("BTree: empty internal root");
      }
      uint32_t* children = Children(node.page());
      for (uint32_t j = 0; j <= h->count; ++j) {
        StackEntry c;
        c.page = children[j];
        c.depth = e.depth + 1;
        c.has_lo = j > 0 || e.has_lo;
        c.lo = j > 0 ? keys[j - 1] : e.lo;
        c.has_hi = j < h->count || e.has_hi;
        c.hi = j < h->count ? keys[j] : e.hi;
        stack.push_back(c);
      }
    }
  }
  if (seen != size_) {
    return Status::Corruption("BTree: size mismatch: counted " +
                              std::to_string(seen) + " expected " +
                              std::to_string(size_));
  }
  return Status::OK();
}

}  // namespace chunkcache::index
