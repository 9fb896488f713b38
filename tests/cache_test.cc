#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "cache/chunk_cache.h"
#include "cache/query_cache.h"
#include "cache/replacement.h"
#include "handle_policy.h"

namespace chunkcache::cache {
namespace {

using backend::NonGroupByPredicate;
using backend::StarJoinQuery;
using chunks::GroupBySpec;
using schema::OrdinalRange;
using storage::AggTuple;

// ------------------------------- LruPolicy ----------------------------------

TEST(LruPolicyTest, EvictsLeastRecentlyUsed) {
  HandlePolicy p(std::make_unique<LruPolicy>());
  p.OnInsert(1, 1.0);
  p.OnInsert(2, 1.0);
  p.OnInsert(3, 1.0);
  EXPECT_EQ(p.PickVictim(1.0), 1u);
  p.OnAccess(1);  // 2 is now the oldest
  EXPECT_EQ(p.PickVictim(1.0), 2u);
  p.OnErase(2);
  EXPECT_EQ(p.PickVictim(1.0), 3u);
  EXPECT_EQ(p.size(), 2u);
}

TEST(LruPolicyTest, EmptyReturnsNothing) {
  HandlePolicy p(std::make_unique<LruPolicy>());
  EXPECT_FALSE(p.PickVictim(1.0).has_value());
  p.OnInsert(1, 1.0);
  p.OnErase(1);
  EXPECT_FALSE(p.PickVictim(1.0).has_value());
}

// ------------------------------ ClockPolicy ---------------------------------

TEST(ClockPolicyTest, SecondChance) {
  HandlePolicy p(std::make_unique<ClockPolicy>());
  p.OnInsert(1, 1.0);
  p.OnInsert(2, 1.0);
  p.OnInsert(3, 1.0);
  // All have their reference bit set; first sweep clears 1, 2, 3 then
  // evicts 1 (first unreferenced under the arm).
  EXPECT_EQ(p.PickVictim(1.0), 1u);
  p.OnErase(1);
  // 2 and 3 now have cleared bits; accessing 2 saves it.
  p.OnAccess(2);
  EXPECT_EQ(p.PickVictim(1.0), 3u);
}

TEST(ClockPolicyTest, SurvivesManyErasures) {
  HandlePolicy p(std::make_unique<ClockPolicy>());
  for (uint64_t i = 0; i < 100; ++i) p.OnInsert(i, 1.0);
  for (uint64_t i = 0; i < 99; ++i) p.OnErase(i);
  EXPECT_EQ(p.size(), 1u);
  EXPECT_EQ(p.PickVictim(1.0), 99u);
}

// --------------------------- BenefitClockPolicy -----------------------------

TEST(BenefitClockPolicyTest, LowBenefitEvictedBeforeHigh) {
  HandlePolicy p(std::make_unique<BenefitClockPolicy>());
  p.OnInsert(1, 100.0);  // expensive chunk
  p.OnInsert(2, 1.0);    // cheap chunk
  p.OnInsert(3, 1.0);
  // Incoming benefit 1.0: cheap entries drain after one sweep, the
  // expensive one survives ~100 sweeps.
  auto v = p.PickVictim(1.0);
  ASSERT_TRUE(v.has_value());
  EXPECT_NE(*v, 1u);
}

TEST(BenefitClockPolicyTest, ReaccessResetsWeight) {
  HandlePolicy p(std::make_unique<BenefitClockPolicy>());
  p.OnInsert(1, 3.0);
  p.OnInsert(2, 3.0);
  // First probe drains both weights to zero and nominates 1.
  auto v1 = p.PickVictim(3.0);
  ASSERT_TRUE(v1.has_value());
  EXPECT_EQ(*v1, 1u);
  // A hit on 1 restores its weight, so the next victim is 2.
  p.OnAccess(1);
  auto v2 = p.PickVictim(3.0);
  ASSERT_TRUE(v2.has_value());
  EXPECT_EQ(*v2, 2u);
}

TEST(BenefitClockPolicyTest, BoundedSweepFallsBackToMinWeight) {
  HandlePolicy p(std::make_unique<BenefitClockPolicy>());
  p.OnInsert(1, 1e9);
  p.OnInsert(2, 2e9);
  // Tiny incoming benefit would take forever to drain; the bounded sweep
  // must still nominate the smaller-weight entry.
  auto v = p.PickVictim(1e-3);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 1u);
}

TEST(BenefitClockPolicyTest, ZeroIncomingBenefitStillTerminates) {
  HandlePolicy p(std::make_unique<BenefitClockPolicy>());
  p.OnInsert(1, 5.0);
  EXPECT_TRUE(p.PickVictim(0.0).has_value());
}

// -------------------------------- ChunkCache --------------------------------

CachedChunk MakeChunk(uint32_t gb, uint64_t num, uint64_t filter,
                      double benefit, size_t rows) {
  CachedChunk c;
  c.group_by_id = gb;
  c.chunk_num = num;
  c.filter_hash = filter;
  c.benefit = benefit;
  storage::AggColumns cols(1);
  for (size_t i = 0; i < rows; ++i) {
    const uint32_t coord = static_cast<uint32_t>(i);
    cols.PushCell(&coord, static_cast<double>(num), 1, 0.0, 0.0);
  }
  c.payload = storage::ChunkPayload(cols);
  return c;
}

/// Counter `name` of `cache`'s registry, which must have registered it.
uint64_t Counted(const ChunkCache& cache, const std::string& name) {
  return cache.metrics().TakeSnapshot().counters.at(name);
}

TEST(ChunkCacheTest, InsertLookupMiss) {
  ChunkCache cache(1 << 20, "lru");
  EXPECT_EQ(cache.Lookup(1, 5, 0), nullptr);
  cache.Insert(MakeChunk(1, 5, 0, 1.0, 10));
  const ChunkHandle hit = cache.Lookup(1, 5, 0);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->rows(), 10u);
  EXPECT_DOUBLE_EQ(hit->payload.ToColumns().sums()[0], 5.0);
  EXPECT_EQ(cache.Lookup(1, 6, 0), nullptr);
  EXPECT_EQ(cache.Lookup(2, 5, 0), nullptr);
  EXPECT_EQ(Counted(cache, "cache.lookups"), 4u);
  EXPECT_EQ(Counted(cache, "cache.hits"), 1u);
}

TEST(ChunkCacheTest, FilterHashIsolatesEntries) {
  ChunkCache cache(1 << 20, "lru");
  cache.Insert(MakeChunk(1, 5, 0, 1.0, 4));
  cache.Insert(MakeChunk(1, 5, 777, 1.0, 9));
  const ChunkHandle unfiltered = cache.Lookup(1, 5, 0);
  const ChunkHandle filtered = cache.Lookup(1, 5, 777);
  ASSERT_NE(unfiltered, nullptr);
  ASSERT_NE(filtered, nullptr);
  EXPECT_EQ(unfiltered->rows(), 4u);
  EXPECT_EQ(filtered->rows(), 9u);
  EXPECT_EQ(cache.num_chunks(), 2u);
}

TEST(ChunkCacheTest, ReinsertReplaces) {
  ChunkCache cache(1 << 20, "lru");
  cache.Insert(MakeChunk(1, 5, 0, 1.0, 4));
  cache.Insert(MakeChunk(1, 5, 0, 1.0, 8));
  EXPECT_EQ(cache.num_chunks(), 1u);
  EXPECT_EQ(cache.Lookup(1, 5, 0)->rows(), 8u);
}

// A typical random-cold entry, 25 general rows of a 4-dimension chunk in
// a 100-cell box, is charged its index (kChunkEntryBytes: the make_shared
// block and the map node) plus its one allocation: at most 900 B.
TEST(ChunkCacheTest, PayloadEntryChargeCoversIndexAndAllocation) {
  storage::AggColumns cols(4);
  for (uint32_t i = 0; i < 25; ++i) {
    const uint32_t coords[4] = {10 + i / 5, 20 + i % 5, 30 + i % 2,
                                40 + i / 2 % 2};
    cols.PushCell(coords, i * 1.5, 1 + i, -1.0 * i, 2.0 * i);
  }
  ASSERT_EQ(cols.size(), 25u);
  CachedChunk c;
  c.payload = storage::ChunkPayload(cols);
  ASSERT_EQ(c.payload.form(), storage::ChunkPayload::Form::kBitmap);
  ASSERT_EQ(c.payload.singleton_rows(), 0u);
  uint64_t box_cells = 1;
  for (uint32_t d = 0; d < 4; ++d) box_cells *= c.payload.box_width(d);
  EXPECT_EQ(box_cells, 100u);
  EXPECT_EQ(c.ByteSize(), kChunkEntryBytes + c.payload.capacity_bytes());
  EXPECT_GT(kChunkEntryBytes, sizeof(CachedChunk) + sizeof(ChunkCacheEntry));
  EXPECT_LE(c.ByteSize(), 900u);
  const uint64_t charge = c.ByteSize();
  ChunkCache cache(1 << 20, "lru");
  cache.Insert(std::move(c));
  EXPECT_EQ(cache.bytes_used(), charge);
}

// bytes_used() is the sum of the resident entries' charges after every
// kind of change: insert, same-key replace, eviction and Clear.
TEST(ChunkCacheTest, BytesUsedIsSumOfEntryCharges) {
  const auto charged = [](const ChunkCache& cache) {
    uint64_t sum = 0;
    cache.ForEachEntry([&sum](const ChunkHandle& h) { sum += h->ByteSize(); });
    return sum;
  };
  const uint64_t big = MakeChunk(1, 1, 0, 1.0, 40).ByteSize();
  ChunkCache cache(big * 5, "clock", /*num_shards=*/2);
  for (uint64_t i = 0; i < 4; ++i) {
    cache.Insert(MakeChunk(1, i, 0, 1.0, 5 + 10 * i));
    EXPECT_EQ(cache.bytes_used(), charged(cache)) << "insert " << i;
  }
  cache.Insert(MakeChunk(1, 2, 0, 1.0, 3));  // same key, fewer rows
  EXPECT_EQ(cache.bytes_used(), charged(cache));
  EXPECT_EQ(cache.Lookup(1, 2, 0)->rows(), 3u);
  for (uint64_t i = 10; i < 40; ++i) {
    cache.Insert(MakeChunk(2, i, 0, 1.0, 40));
    EXPECT_EQ(cache.bytes_used(), charged(cache)) << "insert " << i;
    EXPECT_LE(cache.bytes_used(), cache.capacity_bytes());
  }
  EXPECT_GT(Counted(cache, "cache.evictions"), 0u);
  cache.Clear();
  EXPECT_EQ(cache.bytes_used(), 0u);
  EXPECT_EQ(charged(cache), 0u);
  EXPECT_EQ(cache.num_chunks(), 0u);
}

TEST(ChunkCacheTest, EvictsWhenOverBudget) {
  // Chunk 0's rows are singletons (SUM = MIN = MAX = 0, COUNT 1), so it
  // is smaller than chunks 1-4, which all have the same size: the budget
  // holds three of the largest.
  uint64_t entry_bytes = 0;
  for (uint64_t i = 0; i < 5; ++i) {
    entry_bytes = std::max(entry_bytes, MakeChunk(1, i, 0, 1.0, 10).ByteSize());
  }
  ASSERT_LT(MakeChunk(1, 0, 0, 1.0, 10).ByteSize(), entry_bytes);
  ChunkCache cache(entry_bytes * 3, "lru");
  for (uint64_t i = 0; i < 5; ++i) {
    cache.Insert(MakeChunk(1, i, 0, 1.0, 10));
  }
  EXPECT_EQ(cache.num_chunks(), 3u);
  EXPECT_EQ(Counted(cache, "cache.evictions"), 2u);
  EXPECT_LE(cache.bytes_used(), cache.capacity_bytes());
  // LRU: the oldest two (0, 1) are gone.
  EXPECT_EQ(cache.Lookup(1, 0, 0), nullptr);
  EXPECT_EQ(cache.Lookup(1, 1, 0), nullptr);
  EXPECT_NE(cache.Lookup(1, 4, 0), nullptr);
}

TEST(ChunkCacheTest, RejectsChunkLargerThanCache) {
  ChunkCache cache(256, "lru");
  cache.Insert(MakeChunk(1, 0, 0, 1.0, 1000));
  EXPECT_EQ(cache.num_chunks(), 0u);
  EXPECT_EQ(Counted(cache, "cache.rejected"), 1u);
}

TEST(ChunkCacheTest, BenefitPolicyKeepsExpensiveChunks) {
  const uint64_t entry_bytes = MakeChunk(1, 0, 0, 1.0, 10).ByteSize();
  ChunkCache cache(entry_bytes * 4, "benefit-clock");
  cache.Insert(MakeChunk(9, 0, 0, 1000.0, 10));  // highly aggregated chunk
  for (uint64_t i = 0; i < 50; ++i) {
    cache.Insert(MakeChunk(1, i, 0, 1.0, 10));  // stream of cheap chunks
  }
  // The expensive chunk must have survived the stream.
  EXPECT_NE(cache.Lookup(9, 0, 0), nullptr);
}

TEST(ChunkCacheTest, GroupByCountsTrackContents) {
  ChunkCache cache(1 << 20, "lru");
  cache.Insert(MakeChunk(1, 0, 0, 1.0, 4));
  cache.Insert(MakeChunk(1, 1, 0, 1.0, 4));
  cache.Insert(MakeChunk(1, 1, 7, 1.0, 4));  // same chunk, other filter
  cache.Insert(MakeChunk(2, 0, 0, 1.0, 4));
  cache.Insert(MakeChunk(9, 0, 0, 1.0, 4));  // beyond the requested ids
  EXPECT_EQ(cache.GroupByCounts(4), (std::vector<uint64_t>{0, 3, 1, 0}));
  cache.Clear();
  EXPECT_EQ(cache.GroupByCounts(4), (std::vector<uint64_t>{0, 0, 0, 0}));
  EXPECT_EQ(cache.num_chunks(), 0u);
  EXPECT_EQ(cache.bytes_used(), 0u);
}

TEST(ChunkCacheTest, ContainsDoesNotTouchStats) {
  ChunkCache cache(1 << 20, "lru");
  cache.Insert(MakeChunk(1, 0, 0, 1.0, 4));
  ASSERT_NE(cache.Lookup(1, 0, 0), nullptr);
  EXPECT_TRUE(cache.Contains(1, 0, 0));
  EXPECT_FALSE(cache.Contains(1, 1, 0));
  EXPECT_EQ(Counted(cache, "cache.lookups"), 1u);
  EXPECT_EQ(Counted(cache, "cache.hits"), 1u);
}

// -------------------------------- QueryCache --------------------------------

StarJoinQuery MakeQuery(std::array<uint8_t, 4> levels,
                        std::array<OrdinalRange, 4> sel) {
  StarJoinQuery q;
  q.group_by.num_dims = 4;
  for (int d = 0; d < 4; ++d) {
    q.group_by.levels[d] = levels[d];
    q.selection[d] = sel[d];
  }
  return q;
}

TEST(QueryContainsTest, ContainmentRules) {
  StarJoinQuery big = MakeQuery({1, 1, 1, 1},
                                {OrdinalRange{0, 10}, OrdinalRange{0, 10},
                                 OrdinalRange{0, 10}, OrdinalRange{0, 10}});
  StarJoinQuery small = MakeQuery({1, 1, 1, 1},
                                  {OrdinalRange{2, 8}, OrdinalRange{0, 10},
                                   OrdinalRange{5, 5}, OrdinalRange{1, 9}});
  EXPECT_TRUE(QueryContains(big, small));
  EXPECT_FALSE(QueryContains(small, big));
  EXPECT_TRUE(QueryContains(big, big));

  // Overlap without containment (the paper's Q3 case).
  StarJoinQuery shifted = MakeQuery({1, 1, 1, 1},
                                    {OrdinalRange{5, 15}, OrdinalRange{0, 10},
                                     OrdinalRange{0, 10}, OrdinalRange{0, 10}});
  EXPECT_FALSE(QueryContains(big, shifted));

  // Different group-by level: no reuse even if ranges nest.
  StarJoinQuery other_level = MakeQuery(
      {2, 1, 1, 1}, {OrdinalRange{2, 8}, OrdinalRange{0, 10},
                     OrdinalRange{5, 5}, OrdinalRange{1, 9}});
  EXPECT_FALSE(QueryContains(big, other_level));
}

TEST(QueryContainsTest, NonGroupByMustMatchExactly) {
  StarJoinQuery a = MakeQuery({1, 1, 1, 1},
                              {OrdinalRange{0, 10}, OrdinalRange{0, 10},
                               OrdinalRange{0, 10}, OrdinalRange{0, 10}});
  StarJoinQuery b = a;
  b.selection[0] = OrdinalRange{2, 5};
  a.non_group_by.push_back(NonGroupByPredicate{2, 2, OrdinalRange{0, 3}});
  EXPECT_FALSE(QueryContains(a, b));  // b lacks the predicate
  b.non_group_by.push_back(NonGroupByPredicate{2, 2, OrdinalRange{0, 3}});
  EXPECT_TRUE(QueryContains(a, b));
  b.non_group_by[0].range = OrdinalRange{0, 4};  // different range
  EXPECT_FALSE(QueryContains(a, b));
}

TEST(QueryCacheTest, HitOnContainedMissOnOverlap) {
  QueryCache cache(1 << 20, MakePolicy("lru"));
  CachedQuery entry;
  entry.query = MakeQuery({1, 1, 1, 1},
                          {OrdinalRange{0, 10}, OrdinalRange{0, 10},
                           OrdinalRange{0, 10}, OrdinalRange{0, 10}});
  entry.benefit = 1.0;
  entry.rows.resize(3);
  cache.Insert(std::move(entry));

  StarJoinQuery contained = MakeQuery(
      {1, 1, 1, 1}, {OrdinalRange{1, 5}, OrdinalRange{2, 7},
                     OrdinalRange{0, 10}, OrdinalRange{0, 10}});
  EXPECT_NE(cache.FindContaining(contained), nullptr);

  StarJoinQuery overlapping = MakeQuery(
      {1, 1, 1, 1}, {OrdinalRange{5, 15}, OrdinalRange{0, 10},
                     OrdinalRange{0, 10}, OrdinalRange{0, 10}});
  EXPECT_EQ(cache.FindContaining(overlapping), nullptr);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().lookups, 2u);
}

TEST(QueryCacheTest, StoresOverlappingQueriesRedundantly) {
  // The documented weakness: two overlapping queries both occupy space.
  QueryCache cache(1 << 20, MakePolicy("lru"));
  for (uint32_t s = 0; s < 3; ++s) {
    CachedQuery entry;
    entry.query = MakeQuery(
        {1, 1, 1, 1},
        {OrdinalRange{s, s + 10}, OrdinalRange{0, 10}, OrdinalRange{0, 10},
         OrdinalRange{0, 10}});
    entry.benefit = 1.0;
    entry.rows.resize(100);
    cache.Insert(std::move(entry));
  }
  EXPECT_EQ(cache.num_queries(), 3u);
}

TEST(QueryCacheTest, IdenticalQueryReplaces) {
  QueryCache cache(1 << 20, MakePolicy("lru"));
  for (int i = 0; i < 2; ++i) {
    CachedQuery entry;
    entry.query = MakeQuery({1, 1, 1, 1},
                            {OrdinalRange{0, 5}, OrdinalRange{0, 5},
                             OrdinalRange{0, 5}, OrdinalRange{0, 5}});
    entry.benefit = 1.0;
    entry.rows.resize(10 * (i + 1));
    cache.Insert(std::move(entry));
  }
  EXPECT_EQ(cache.num_queries(), 1u);
}

TEST(QueryCacheTest, EvictsWithinBudget) {
  CachedQuery probe;
  probe.rows.resize(50);
  const uint64_t entry_bytes = probe.ByteSize();
  QueryCache cache(entry_bytes * 2, MakePolicy("lru"));
  for (uint32_t s = 0; s < 5; ++s) {
    CachedQuery entry;
    entry.query = MakeQuery(
        {1, 1, 1, 1},
        {OrdinalRange{s * 20, s * 20 + 5}, OrdinalRange{0, 10},
         OrdinalRange{0, 10}, OrdinalRange{0, 10}});
    entry.benefit = 1.0;
    entry.rows.resize(50);
    cache.Insert(std::move(entry));
  }
  EXPECT_LE(cache.bytes_used(), cache.capacity_bytes());
  EXPECT_EQ(cache.num_queries(), 2u);
  EXPECT_EQ(cache.stats().evictions, 3u);
}

}  // namespace
}  // namespace chunkcache::cache
