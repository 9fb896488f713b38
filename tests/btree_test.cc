#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "common/random.h"
#include "index/btree.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"

namespace chunkcache::index {
namespace {

using storage::BufferPool;
using storage::InMemoryDiskManager;

BTreePayload P(uint64_t a, uint64_t b = 0) { return BTreePayload{a, b}; }

struct TreeFixture {
  InMemoryDiskManager dm;
  BufferPool pool{&dm, 256};
};

/// Sorted bulk-load input holding `keys` (ascending), each with payload
/// {key * 10, key}.
std::vector<std::pair<uint64_t, BTreePayload>> Entries(
    const std::vector<uint64_t>& keys) {
  std::vector<std::pair<uint64_t, BTreePayload>> input;
  input.reserve(keys.size());
  for (uint64_t k : keys) input.emplace_back(k, P(k * 10, k));
  return input;
}

/// Up to `n` distinct random keys below `range`, ascending.
std::set<uint64_t> RandomKeySet(Random& rng, size_t n, uint64_t range) {
  std::set<uint64_t> keys;
  for (size_t i = 0; i < n; ++i) keys.insert(rng.Uniform(range));
  return keys;
}

// An empty input builds a tree with no pages at all.
TEST(BTreeTest, EmptyTreeGetIsNotFound) {
  TreeFixture f;
  auto t = BTree::BulkLoad(&f.pool, {});
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->Get(1).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(t->size(), 0u);
  EXPECT_EQ(t->height(), 0u);
  EXPECT_EQ(f.dm.FilePageCount(t->file_id()), 0u);
  EXPECT_TRUE(t->CheckInvariants().ok());
}

// Nodes start at page 0: one entry is one leaf page, and so is a leaf
// filled exactly; one entry more adds a second leaf and a root.
TEST(BTreeTest, OneLeafFromPageZero) {
  const uint32_t leaf_capacity = (storage::kPageSize - 16) / 24;
  for (uint32_t n : {1u, leaf_capacity, leaf_capacity + 1}) {
    TreeFixture f;
    std::vector<uint64_t> keys(n);
    for (uint32_t i = 0; i < n; ++i) keys[i] = i * 2;
    auto t = BTree::BulkLoad(&f.pool, Entries(keys));
    ASSERT_TRUE(t.ok());
    const bool one_leaf = n <= leaf_capacity;
    EXPECT_EQ(t->height(), one_leaf ? 1u : 2u) << n;
    EXPECT_EQ(f.dm.FilePageCount(t->file_id()), one_leaf ? 1u : 3u) << n;
    ASSERT_TRUE(t->CheckInvariants().ok()) << n;
    for (uint64_t k : keys) {
      auto v = t->Get(k);
      ASSERT_TRUE(v.ok()) << "n " << n << " key " << k;
      EXPECT_EQ(v->v1, k * 10);
      EXPECT_EQ(t->Get(k + 1).status().code(), StatusCode::kNotFound);
    }
  }
}

// Sizes 171, 341 and 28,731 leave one entry for the last leaf
// (n = 1 mod 170); 57,810 and 57,970 leave one leaf for the last internal
// node (341 leaves) and 58,140 leaves two (342 leaves). Filled left to
// right, each of those trees has an underfull last node.
class BTreeBulkLoadTest : public ::testing::TestWithParam<int> {};

TEST_P(BTreeBulkLoadTest, BulkLoadGetInvariants) {
  const int n = GetParam();
  TreeFixture f;
  std::vector<uint64_t> keys(n);
  for (int i = 0; i < n; ++i) keys[i] = static_cast<uint64_t>(i) * 3 + 1;
  auto t = BTree::BulkLoad(&f.pool, Entries(keys));
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->size(), static_cast<uint64_t>(n));
  const Status inv = t->CheckInvariants();
  ASSERT_TRUE(inv.ok()) << inv.ToString();

  // Point lookups.
  for (uint64_t k : keys) {
    auto v = t->Get(k);
    ASSERT_TRUE(v.ok()) << "key " << k;
    EXPECT_EQ(v->v1, k * 10);
    EXPECT_EQ(v->v2, k);
  }
  // Misses between keys, before the first and after the last.
  for (uint64_t k : keys) {
    EXPECT_EQ(t->Get(k + 1).status().code(), StatusCode::kNotFound);
  }
  EXPECT_FALSE(t->Get(0).ok());
}

INSTANTIATE_TEST_SUITE_P(Sizes, BTreeBulkLoadTest,
                         ::testing::Values(1, 10, 200, 2000, 20000, 171, 341,
                                           28731, 57810, 57970, 58140));

TEST(BTreeTest, GrowsBeyondOneLevel) {
  TreeFixture f;
  Random rng(5);
  const std::set<uint64_t> keys = RandomKeySet(rng, 5000, 1u << 30);
  auto t = BTree::BulkLoad(&f.pool, Entries({keys.begin(), keys.end()}));
  ASSERT_TRUE(t.ok());
  EXPECT_GE(t->height(), 2u);
  ASSERT_TRUE(t->CheckInvariants().ok());
  for (uint64_t k : keys) {
    auto v = t->Get(k);
    ASSERT_TRUE(v.ok()) << "key " << k;
    EXPECT_EQ(v->v1, k * 10);
  }
  for (int i = 0; i < 2000; ++i) {
    const uint64_t probe = rng.Uniform(1u << 30);
    EXPECT_EQ(t->Get(probe).ok(), keys.count(probe) == 1) << "key " << probe;
  }
}

TEST(BTreeTest, RandomKeySetsAgainstReferenceSet) {
  Random rng(77);
  for (int round = 0; round < 20; ++round) {
    TreeFixture f;
    const uint64_t range = 500 + rng.Uniform(20000);
    const std::set<uint64_t> keys =
        RandomKeySet(rng, rng.Uniform(range), range);
    auto t = BTree::BulkLoad(&f.pool, Entries({keys.begin(), keys.end()}));
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE(t->CheckInvariants().ok()) << "round " << round;
    EXPECT_EQ(t->size(), keys.size());
    for (uint64_t k = 0; k < range + 2; ++k) {
      auto got = t->Get(k);
      if (keys.count(k) == 1) {
        ASSERT_TRUE(got.ok()) << "round " << round << " key " << k;
        EXPECT_EQ(got->v1, k * 10);
      } else {
        ASSERT_EQ(got.status().code(), StatusCode::kNotFound)
            << "round " << round << " key " << k;
      }
    }
  }
}

TEST(BTreeTest, BulkLoadMatchesPointInserts) {
  TreeFixture f;
  std::vector<std::pair<uint64_t, BTreePayload>> input;
  for (uint64_t k = 0; k < 10000; ++k) input.emplace_back(k * 2, P(k));
  auto t = BTree::BulkLoad(&f.pool, input);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->size(), 10000u);
  ASSERT_TRUE(t->CheckInvariants().ok());
  for (uint64_t k = 0; k < 10000; k += 113) {
    auto v = t->Get(k * 2);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(v->v1, k);
    EXPECT_FALSE(t->Get(k * 2 + 1).ok());
  }
}

TEST(BTreeTest, BulkLoadRejectsUnsorted) {
  TreeFixture f;
  EXPECT_EQ(BTree::BulkLoad(&f.pool, {{3, P(0)}, {2, P(0)}}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(BTree::BulkLoad(&f.pool, {{3, P(0)}, {3, P(0)}}).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace chunkcache::index
