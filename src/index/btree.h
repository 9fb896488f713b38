#ifndef CHUNKCACHE_INDEX_BTREE_H_
#define CHUNKCACHE_INDEX_BTREE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/status.h"
#include "storage/buffer_pool.h"

namespace chunkcache::index {

/// Fixed 16-byte B+Tree payload. The chunked file stores
/// {first RowId, tuple count} of each chunk's run; other users are free to
/// reinterpret the two words.
struct BTreePayload {
  uint64_t v1 = 0;
  uint64_t v2 = 0;

  friend bool operator==(const BTreePayload& a, const BTreePayload& b) {
    return a.v1 == b.v1 && a.v2 == b.v2;
  }
};

/// Disk-resident B+Tree mapping uint64 keys to BTreePayload, layered on the
/// buffer pool. This is the *chunk index* of the chunked file organization
/// (Section 5.3 of the paper: "The BTree holds one entry for each chunk and
/// points to the start of the chunk in the fact file"), built for the fact
/// file and for each materialized aggregate.
///
/// A tree is bulk-loaded bottom-up from sorted input once, into a file of
/// its own that holds only nodes, and then answers point lookups. Keys are
/// unique.
///
/// Thread contract: BulkLoad is single-threaded. After it returns the tree
/// is read-only, and lookups (Get, GetAscending, CheckInvariants) touch no
/// member and read node pages only through pins taken from the buffer
/// pool, whose frame table is locked. So any number of threads may look up
/// concurrently, as every server worker does when it resolves chunk runs.
class BTree {
 public:
  /// Builds a tree in a fresh DiskManager file from strictly ascending
  /// (key, payload) pairs: the leaf level left to right, then each
  /// internal level over the one below. An empty input builds an empty
  /// tree (no pages) whose Get answers NotFound.
  static Result<BTree> BulkLoad(
      storage::BufferPool* pool,
      const std::vector<std::pair<uint64_t, BTreePayload>>& sorted);

  BTree(BTree&&) = default;
  BTree& operator=(BTree&&) = default;

  /// Point lookup; NotFound if absent.
  Result<BTreePayload> Get(uint64_t key) const;

  /// Point lookups of strictly ascending `keys` in one walk: appends the
  /// payload of each present key to `*out`, in key order, and skips absent
  /// keys. It descends once per leaf the keys fall in and scans forward
  /// inside that leaf, pinning one page at a time. So it pins the pages Get
  /// would pin for each key in turn, in the same order, minus the repeated
  /// descents to a leaf just visited. InvalidArgument, before any page is
  /// pinned, if `keys` is not strictly ascending.
  Status GetAscending(const std::vector<uint64_t>& keys,
                      std::vector<BTreePayload>* out) const;

  /// Number of entries.
  uint64_t size() const { return size_; }

  /// Height of the tree (0 = empty, 1 = root is a leaf).
  uint32_t height() const { return height_; }

  uint32_t file_id() const { return file_id_; }

  /// Verifies structural invariants (key order, subtree bounds, minimum
  /// fill, equal leaf depth, entry count); used by tests. O(n).
  Status CheckInvariants() const;

 private:
  BTree(storage::BufferPool* pool, uint32_t file_id)
      : pool_(pool), file_id_(file_id) {}

  // --- node layout ---------------------------------------------------------
  // Every page of the file is a node: leaves from page 0, then each
  // internal level, the root last.
  struct NodeHeader {
    uint8_t is_leaf;
    uint8_t pad[3];
    uint32_t count;  // number of keys
    uint64_t pad2;
  };
  static constexpr uint32_t kHeaderSize = 16;
  static_assert(sizeof(NodeHeader) == kHeaderSize);
  // Leaf entry: 8B key + 16B payload.
  static constexpr uint32_t kLeafCapacity =
      (storage::kPageSize - kHeaderSize) / 24;
  // Internal node with n keys has n+1 children: n*8 + (n+1)*4 bytes.
  static constexpr uint32_t kInternalCapacity =
      (storage::kPageSize - kHeaderSize - 4) / 12;

  // Typed views over a node page.
  static NodeHeader* Header(storage::Page* p);
  static uint64_t* Keys(storage::Page* p);
  static BTreePayload* Payloads(storage::Page* p);  // leaves only
  static uint32_t* Children(storage::Page* p);      // internals only

  /// Allocates the file's next page as an empty node, pinned.
  Result<storage::PageGuard> NewNode(bool leaf);
  storage::PageId Pid(uint32_t page_no) const { return {file_id_, page_no}; }

  storage::BufferPool* pool_;
  uint32_t file_id_;
  uint32_t root_page_ = 0;
  uint32_t height_ = 0;
  uint64_t size_ = 0;
};

}  // namespace chunkcache::index

#endif  // CHUNKCACHE_INDEX_BTREE_H_
