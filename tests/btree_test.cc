#include <gtest/gtest.h>

#include <algorithm>
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

/// The reference for GetAscending: Get on each key in turn, keeping the
/// payloads of the keys present.
std::vector<BTreePayload> PerKeyGets(const BTree& t,
                                     const std::vector<uint64_t>& keys) {
  std::vector<BTreePayload> found;
  for (uint64_t k : keys) {
    auto v = t.Get(k);
    if (v.ok()) {
      found.push_back(*v);
    } else {
      EXPECT_EQ(v.status().code(), StatusCode::kNotFound) << "key " << k;
    }
  }
  return found;
}

std::vector<BTreePayload> Walk(const BTree& t,
                               const std::vector<uint64_t>& keys) {
  std::vector<BTreePayload> found;
  const Status s = t.GetAscending(keys, &found);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return found;
}

/// Pins (buffer-pool hits plus misses) that `fn` takes.
template <typename Fn>
uint64_t PinsOf(BufferPool& pool, Fn&& fn) {
  const storage::BufferPoolStats before = pool.stats();
  fn();
  const storage::BufferPoolStats after = pool.stats();
  return after.hits + after.misses - before.hits - before.misses;
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

// The walk finds what Get finds, key for key, over random ascending key
// lists: present and absent keys mixed, on trees of one, two and three
// levels (58,140 entries is 342 leaves, so the leaves of the root's first
// child end at a separator that only the root holds).
TEST(BTreeWalkTest, MatchesPerKeyGetOnRandomKeyLists) {
  Random rng(31);
  for (size_t n : {1ul, 170ul, 171ul, 5000ul, 58140ul}) {
    TreeFixture f;
    std::vector<uint64_t> keys(n);
    for (size_t i = 0; i < n; ++i) keys[i] = i * 3 + 1 + rng.Uniform(2);
    auto t = BTree::BulkLoad(&f.pool, Entries(keys));
    ASSERT_TRUE(t.ok());
    const uint64_t range = keys.back() + 5;
    for (int round = 0; round < 60; ++round) {
      // A random density, from sparse probes to dense spans.
      const uint64_t len = 1 + rng.Uniform(std::min<uint64_t>(range, 3000));
      const std::set<uint64_t> probe = RandomKeySet(rng, len, range);
      const std::vector<uint64_t> query(probe.begin(), probe.end());
      ASSERT_EQ(Walk(*t, query), PerKeyGets(*t, query))
          << "n " << n << " round " << round;
    }
    // Every key, and every key with its absent neighbours.
    ASSERT_EQ(Walk(*t, keys), PerKeyGets(*t, keys)) << "n " << n;
    std::vector<uint64_t> all(range);
    for (uint64_t k = 0; k < range; ++k) all[k] = k;
    ASSERT_EQ(Walk(*t, all).size(), n);
    ASSERT_EQ(Walk(*t, all), PerKeyGets(*t, all)) << "n " << n;
  }
}

// Keys 0, 2, 4, ...: leaf j holds entries [170j, 170j + 170), so its first
// key 340j is also the separator left of it and 340j - 2 ends leaf j - 1.
// The walk crosses every boundary exactly, and resolves the first and the
// last key, and keys outside the tree's range, as Get does.
TEST(BTreeWalkTest, LeafBoundariesAndEnds) {
  TreeFixture f;
  const uint64_t n = 170 * 40;
  std::vector<uint64_t> keys(n);
  for (uint64_t i = 0; i < n; ++i) keys[i] = i * 2;
  auto t = BTree::BulkLoad(&f.pool, Entries(keys));
  ASSERT_TRUE(t.ok());
  ASSERT_EQ(t->height(), 2u);
  for (uint64_t j = 1; j < 40; ++j) {
    const uint64_t sep = 340 * j;
    for (const std::vector<uint64_t>& q : std::vector<std::vector<uint64_t>>{
             {sep - 2, sep - 1, sep, sep + 1},
             {sep - 1, sep},
             {sep - 2, sep},
             {sep},
             {sep - 1},
             {sep - 2},
             {sep - 3, sep + 2}}) {
      ASSERT_EQ(Walk(*t, q), PerKeyGets(*t, q)) << "separator " << sep;
    }
  }
  const uint64_t last = keys.back();
  for (const std::vector<uint64_t>& q : std::vector<std::vector<uint64_t>>{
           {0}, {last}, {0, last}, {0, 1, last - 1, last, last + 1},
           {last + 1, last + 2, ~uint64_t{0}}}) {
    ASSERT_EQ(Walk(*t, q), PerKeyGets(*t, q));
  }
  EXPECT_EQ(Walk(*t, {0, last}),
            (std::vector<BTreePayload>{P(0, 0), P(last * 10, last)}));
}

// Keys that are all absent, between entries or past either end, find
// nothing and cost no Status.
TEST(BTreeWalkTest, AllAbsentKeysFindNothing) {
  TreeFixture f;
  std::vector<uint64_t> keys;
  for (uint64_t i = 1; i <= 3000; ++i) keys.push_back(i * 10);
  auto t = BTree::BulkLoad(&f.pool, Entries(keys));
  ASSERT_TRUE(t.ok());
  std::vector<uint64_t> absent{0, 1, 9};
  for (uint64_t k = 11; k < 30000; k += 10) absent.push_back(k);
  absent.push_back(30001);
  absent.push_back(1ull << 40);
  EXPECT_TRUE(Walk(*t, absent).empty());
}

// An empty tree pins nothing and finds nothing; a one-leaf tree pins its
// leaf once for a whole key list.
TEST(BTreeWalkTest, EmptyAndOneLeafTrees) {
  TreeFixture f;
  auto empty = BTree::BulkLoad(&f.pool, {});
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(PinsOf(f.pool, [&] { EXPECT_TRUE(Walk(*empty, {1, 2}).empty()); }),
            0u);
  auto one = BTree::BulkLoad(&f.pool, Entries({2, 4, 6}));
  ASSERT_TRUE(one.ok());
  ASSERT_EQ(one->height(), 1u);
  const std::vector<uint64_t> q{0, 2, 3, 4, 6, 7};
  EXPECT_EQ(PinsOf(f.pool, [&] {
              EXPECT_EQ(Walk(*one, q),
                        (std::vector<BTreePayload>{P(20, 2), P(40, 4),
                                                   P(60, 6)}));
            }),
            1u);
  EXPECT_EQ(Walk(*one, q), PerKeyGets(*one, q));
}

// One descent per leaf the keys fall in: every key of a two-level tree
// costs a root and a leaf pin per leaf, where per-key Gets pin both for
// every key.
TEST(BTreeWalkTest, DescendsOncePerLeaf) {
  TreeFixture f;
  std::vector<uint64_t> keys(170 * 12);
  for (uint64_t i = 0; i < keys.size(); ++i) keys[i] = i;
  auto t = BTree::BulkLoad(&f.pool, Entries(keys));
  ASSERT_TRUE(t.ok());
  ASSERT_EQ(t->height(), 2u);
  EXPECT_EQ(PinsOf(f.pool, [&] { Walk(*t, keys); }), 2u * 12);
  EXPECT_EQ(PinsOf(f.pool, [&] { PerKeyGets(*t, keys); }), 2u * keys.size());
  // Keys in leaves 3 and 7 only.
  EXPECT_EQ(PinsOf(f.pool, [&] { Walk(*t, {510, 511, 600, 1190, 1300}); }),
            4u);
}

// The walk holds one pin at a time: a one-frame pool serves a walk over a
// three-level tree, each page read back from disk as it is reached.
TEST(BTreeWalkTest, PinsOnePageAtATime) {
  InMemoryDiskManager dm;
  BufferPool pool(&dm, 1);
  std::vector<uint64_t> keys(58140);
  for (uint64_t i = 0; i < keys.size(); ++i) keys[i] = i * 2;
  auto t = BTree::BulkLoad(&pool, Entries(keys));
  ASSERT_TRUE(t.ok());
  ASSERT_EQ(t->height(), 3u);
  const std::vector<uint64_t> q{0, 3, 57000, 57002, 116278};
  EXPECT_EQ(Walk(*t, q), PerKeyGets(*t, q));
  EXPECT_EQ(Walk(*t, q).size(), 4u);
}

// A key list that is not strictly ascending is refused before any pin,
// never misread.
TEST(BTreeWalkTest, RejectsKeysNotStrictlyAscending) {
  TreeFixture f;
  auto t = BTree::BulkLoad(&f.pool, Entries({1, 2, 3, 400, 500}));
  ASSERT_TRUE(t.ok());
  for (const std::vector<uint64_t>& q : std::vector<std::vector<uint64_t>>{
           {3, 2}, {2, 2}, {1, 400, 3}, {500, 1}}) {
    std::vector<BTreePayload> found;
    uint64_t pins = PinsOf(f.pool, [&] {
      EXPECT_EQ(t->GetAscending(q, &found).code(),
                StatusCode::kInvalidArgument);
    });
    EXPECT_EQ(pins, 0u);
    EXPECT_TRUE(found.empty());
  }
}

}  // namespace
}  // namespace chunkcache::index
