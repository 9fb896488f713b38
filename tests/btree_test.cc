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

TEST(BTreeTest, EmptyTreeGetIsNotFound) {
  TreeFixture f;
  auto t = BTree::Create(&f.pool);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->Get(1).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(t->size(), 0u);
  EXPECT_EQ(t->height(), 1u);
  EXPECT_TRUE(t->CheckInvariants().ok());
}

// Sizes 171, 341 and 28,731 leave one entry for the last leaf
// (n = 1 mod 170); 57,810 and 57,970 leave one leaf for the last internal
// node (341 leaves) and 58,140 leaves two (342 leaves). Filled left to
// right, each of those trees has an underfull last node.
class BTreeBulkLoadTest : public ::testing::TestWithParam<int> {};

TEST_P(BTreeBulkLoadTest, BulkLoadGetInvariants) {
  const int n = GetParam();
  TreeFixture f;
  auto t = BTree::Create(&f.pool);
  ASSERT_TRUE(t.ok());

  std::vector<uint64_t> keys(n);
  for (int i = 0; i < n; ++i) keys[i] = static_cast<uint64_t>(i) * 3 + 1;
  ASSERT_TRUE(t->BulkLoad(Entries(keys)).ok());
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
  auto t = BTree::Create(&f.pool);
  ASSERT_TRUE(t.ok());
  Random rng(5);
  const std::set<uint64_t> keys = RandomKeySet(rng, 5000, 1u << 30);
  ASSERT_TRUE(t->BulkLoad(Entries({keys.begin(), keys.end()})).ok());
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
    auto t = BTree::Create(&f.pool);
    ASSERT_TRUE(t.ok());
    const uint64_t range = 500 + rng.Uniform(20000);
    const std::set<uint64_t> keys =
        RandomKeySet(rng, rng.Uniform(range), range);
    ASSERT_TRUE(t->BulkLoad(Entries({keys.begin(), keys.end()})).ok());
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
  auto t = BTree::Create(&f.pool);
  ASSERT_TRUE(t.ok());
  std::vector<std::pair<uint64_t, BTreePayload>> input;
  for (uint64_t k = 0; k < 10000; ++k) input.emplace_back(k * 2, P(k));
  ASSERT_TRUE(t->BulkLoad(input).ok());
  EXPECT_EQ(t->size(), 10000u);
  ASSERT_TRUE(t->CheckInvariants().ok());
  for (uint64_t k = 0; k < 10000; k += 113) {
    auto v = t->Get(k * 2);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(v->v1, k);
    EXPECT_FALSE(t->Get(k * 2 + 1).ok());
  }
}

TEST(BTreeTest, BulkLoadRejectsUnsortedAndNonEmpty) {
  TreeFixture f;
  auto t = BTree::Create(&f.pool);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->BulkLoad({{3, P(0)}, {2, P(0)}}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(t->BulkLoad({{3, P(0)}, {3, P(0)}}).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(t->BulkLoad({{1, P(0)}}).ok());
  EXPECT_EQ(t->BulkLoad({{2, P(0)}}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(t->size(), 1u);
}

TEST(BTreeTest, PersistsAcrossReopen) {
  InMemoryDiskManager dm;
  BufferPool pool(&dm, 256);
  uint32_t file_id;
  {
    auto t = BTree::Create(&pool);
    ASSERT_TRUE(t.ok());
    file_id = t->file_id();
    std::vector<uint64_t> keys(1000);
    for (uint64_t k = 0; k < 1000; ++k) keys[k] = k;
    ASSERT_TRUE(t->BulkLoad(Entries(keys)).ok());
    ASSERT_TRUE(t->SyncMeta().ok());
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  auto t = BTree::Open(&pool, file_id);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->size(), 1000u);
  for (uint64_t k = 0; k < 1000; k += 97) {
    auto v = t->Get(k);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(v->v1, k * 10);
  }
  ASSERT_TRUE(t->CheckInvariants().ok());
}

}  // namespace
}  // namespace chunkcache::index
