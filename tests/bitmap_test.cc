#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "common/random.h"
#include "common/simd.h"
#include "index/bitmap.h"
#include "index/bitmap_index.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/fact_file.h"

namespace chunkcache::index {
namespace {

using storage::BufferPool;
using storage::FactFile;
using storage::InMemoryDiskManager;
using storage::Tuple;
using storage::TupleDesc;

// --------------------------------- Bitmap -----------------------------------

TEST(BitmapTest, SetGetClearCount) {
  Bitmap b(130);
  EXPECT_EQ(b.CountSet(), 0u);
  b.Set(0);
  b.Set(64);
  b.Set(129);
  EXPECT_TRUE(b.Get(0));
  EXPECT_TRUE(b.Get(64));
  EXPECT_TRUE(b.Get(129));
  EXPECT_FALSE(b.Get(1));
  EXPECT_EQ(b.CountSet(), 3u);
  b.Clear(64);
  EXPECT_FALSE(b.Get(64));
  EXPECT_EQ(b.CountSet(), 2u);
}

TEST(BitmapTest, AndOr) {
  Bitmap a(100), b(100);
  a.Set(1);
  a.Set(50);
  a.Set(99);
  b.Set(50);
  b.Set(99);
  b.Set(2);
  Bitmap both = a;
  both.And(b);
  EXPECT_EQ(both.CountSet(), 2u);
  EXPECT_TRUE(both.Get(50));
  EXPECT_TRUE(both.Get(99));
  Bitmap either = a;
  either.Or(b);
  EXPECT_EQ(either.CountSet(), 4u);
}

TEST(BitmapTest, ToVectorListsSetBits) {
  Bitmap b(67);
  const std::vector<uint64_t> want = {0, 1, 63, 64, 66};
  for (uint64_t i : want) b.Set(i);
  EXPECT_EQ(b.CountSet(), want.size());
  EXPECT_EQ(b.ToVector(), want);
}

TEST(BitmapTest, ForEachSetAscending) {
  Bitmap b(200);
  std::vector<uint64_t> expected = {3, 64, 65, 127, 128, 199};
  for (auto i : expected) b.Set(i);
  std::vector<uint64_t> seen;
  b.ForEachSet([&](uint64_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, expected);
}

// ------------------------------- BitmapIndex --------------------------------

struct IndexFixture {
  InMemoryDiskManager dm;
  BufferPool pool{&dm, 512};
  std::vector<Tuple> rows;

  // Two-dimension fact file; dim 0 has `d0_card` values round-robin, dim 1
  // random.
  Result<FactFile> MakeFact(uint32_t n, uint32_t d0_card, uint32_t d1_card) {
    auto file = FactFile::Create(&pool, TupleDesc{2});
    if (!file.ok()) return file;
    Random rng(1);
    for (uint32_t i = 0; i < n; ++i) {
      Tuple t;
      t.keys[0] = i % d0_card;
      t.keys[1] = static_cast<uint32_t>(rng.Uniform(d1_card));
      t.measure = i;
      auto rid = file->Append(t);
      if (!rid.ok()) return rid.status();
      rows.push_back(t);
    }
    return file;
  }
};

TEST(BitmapTest, WordOpsBitIdenticalScalarVsAvx2) {
  if (simd::DetectedLevel() != simd::IsaLevel::kAvx2) {
    GTEST_SKIP() << "no AVX2 on this host";
  }
  Random rng(31337);
  // Sizes straddle the 8-word AVX2 block and the 4-word skip window.
  for (uint64_t bits : {1ull, 63ull, 64ull, 65ull, 255ull, 256ull, 257ull,
                        511ull, 513ull, 4096ull, 4100ull}) {
    Bitmap a(bits), b(bits);
    for (uint64_t i = 0; i < bits; ++i) {
      if (rng.Uniform(3) == 0) a.Set(i);
      if (rng.Uniform(3) == 0) b.Set(i);
    }
    const auto run = [&](simd::IsaLevel level) {
      simd::ScopedLevel pin(level);
      Bitmap anded = a;
      anded.And(b);
      Bitmap ored = a;
      ored.Or(b);
      std::vector<uint64_t> visited;
      anded.ForEachSet([&](uint64_t i) { visited.push_back(i); });
      return std::tuple(anded.CountSet(), ored.CountSet(),
                        std::move(visited), anded.ToVector(),
                        ored.ToVector());
    };
    EXPECT_EQ(run(simd::IsaLevel::kScalar), run(simd::IsaLevel::kAvx2))
        << "bits=" << bits;
  }
}

TEST(BitmapTest, ForEachSetSkipsLongZeroRuns) {
  // A sparse bitmap with multi-word gaps exercises the 4-word zero-skip
  // fast path; positions must still come back in ascending order.
  Bitmap b(64 * 40);
  const std::vector<uint64_t> want = {0, 5, 64 * 17 + 3, 64 * 39 + 63};
  for (uint64_t i : want) b.Set(i);
  std::vector<uint64_t> got;
  b.ForEachSet([&](uint64_t i) { got.push_back(i); });
  EXPECT_EQ(got, want);
}

// Bitmaps start at page 0 of the index file: value 0's bitmap is read
// from there, and every value's matches the data.
TEST(BitmapIndexTest, EveryValueBitmapMatchesData) {
  IndexFixture f;
  auto fact = f.MakeFact(5000, 10, 7);
  ASSERT_TRUE(fact.ok());
  auto idx = BitmapIndex::BuildMany(&f.pool, &*fact, {{0, 10}});
  ASSERT_TRUE(idx.ok());
  ASSERT_EQ(idx->size(), 1u);
  BitmapIndex& index = (*idx)[0];
  EXPECT_EQ(f.dm.FilePageCount(index.file_id()),
            10 * index.pages_per_bitmap());
  for (uint32_t v = 0; v < 10; ++v) {
    Bitmap b;
    ASSERT_TRUE(index.ReadBitmap(v, &b).ok());
    EXPECT_EQ(b.num_bits(), 5000u);
    for (uint32_t i = 0; i < 5000; ++i) {
      ASSERT_EQ(b.Get(i), f.rows[i].keys[0] == v) << "value " << v
                                                 << " row " << i;
    }
  }
}

TEST(BitmapIndexTest, RangeIsUnionOfValues) {
  IndexFixture f;
  auto fact = f.MakeFact(3000, 10, 7);
  ASSERT_TRUE(fact.ok());
  auto idx = BitmapIndex::BuildMany(&f.pool, &*fact, {{0, 10}});
  ASSERT_TRUE(idx.ok());
  Bitmap range;
  ASSERT_TRUE((*idx)[0].EvaluateRange(2, 5, &range).ok());
  uint64_t expected = 0;
  for (const auto& t : f.rows) expected += (t.keys[0] >= 2 && t.keys[0] <= 5);
  EXPECT_EQ(range.CountSet(), expected);
}

// One scan builds both columns' indexes, one file each.
TEST(BitmapIndexTest, SecondDimensionAndSelection) {
  IndexFixture f;
  auto fact = f.MakeFact(4000, 8, 5);
  ASSERT_TRUE(fact.ok());
  auto idx = BitmapIndex::BuildMany(&f.pool, &*fact, {{0, 8}, {1, 5}});
  ASSERT_TRUE(idx.ok());
  ASSERT_EQ(idx->size(), 2u);
  EXPECT_EQ((*idx)[1].dim(), 1u);
  EXPECT_NE((*idx)[0].file_id(), (*idx)[1].file_id());
  Bitmap a, b;
  ASSERT_TRUE((*idx)[0].EvaluateRange(0, 3, &a).ok());
  ASSERT_TRUE((*idx)[1].EvaluateRange(2, 2, &b).ok());
  a.And(b);
  uint64_t expected = 0;
  for (const auto& t : f.rows) {
    expected += (t.keys[0] <= 3 && t.keys[1] == 2);
  }
  EXPECT_EQ(a.CountSet(), expected);
}

TEST(BitmapIndexTest, ErrorsOnBadArguments) {
  IndexFixture f;
  auto fact = f.MakeFact(100, 4, 4);
  ASSERT_TRUE(fact.ok());
  EXPECT_FALSE(BitmapIndex::BuildMany(&f.pool, &*fact, {{9, 4}}).ok());
  EXPECT_FALSE(BitmapIndex::BuildMany(&f.pool, &*fact, {{0, 0}}).ok());
  auto idx = BitmapIndex::BuildMany(&f.pool, &*fact, {{0, 4}});
  ASSERT_TRUE(idx.ok());
  Bitmap b;
  BitmapIndex& index = (*idx)[0];
  EXPECT_EQ(index.ReadBitmap(4, &b).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(index.EvaluateRange(2, 1, &b).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(index.EvaluateRange(0, 4, &b).code(), StatusCode::kOutOfRange);
}

TEST(BitmapIndexTest, BuildRejectsOutOfDomainOrdinal) {
  IndexFixture f;
  auto fact = f.MakeFact(100, 10, 4);
  ASSERT_TRUE(fact.ok());
  // Declare fewer values than the data actually contains.
  auto idx = BitmapIndex::BuildMany(&f.pool, &*fact, {{0, 5}});
  EXPECT_FALSE(idx.ok());
  EXPECT_EQ(idx.status().code(), StatusCode::kCorruption);
}

// An index over no rows has no pages; its bitmaps are empty.
TEST(BitmapIndexTest, IndexOverZeroRows) {
  IndexFixture f;
  auto fact = f.MakeFact(0, 4, 4);
  ASSERT_TRUE(fact.ok());
  auto idx = BitmapIndex::BuildMany(&f.pool, &*fact, {{0, 4}});
  ASSERT_TRUE(idx.ok());
  BitmapIndex& index = (*idx)[0];
  EXPECT_EQ(index.num_rows(), 0u);
  EXPECT_EQ(index.pages_per_bitmap(), 0u);
  EXPECT_EQ(f.dm.FilePageCount(index.file_id()), 0u);
  Bitmap b;
  ASSERT_TRUE(index.EvaluateRange(0, 3, &b).ok());
  EXPECT_EQ(b.num_bits(), 0u);
  EXPECT_EQ(b.CountSet(), 0u);
}

TEST(BitmapIndexTest, ReadingBitmapCostsIo) {
  IndexFixture f;
  auto fact = f.MakeFact(40000, 4, 4);  // bitmap = 5 KB -> 2 pages per value
  ASSERT_TRUE(fact.ok());
  auto idx = BitmapIndex::BuildMany(&f.pool, &*fact, {{0, 4}});
  ASSERT_TRUE(idx.ok());
  ASSERT_TRUE(f.pool.EvictAll().ok());
  f.pool.ResetStats();
  Bitmap b;
  ASSERT_TRUE((*idx)[0].ReadBitmap(0, &b).ok());
  EXPECT_EQ(f.pool.stats().misses, (*idx)[0].pages_per_bitmap());
}

}  // namespace
}  // namespace chunkcache::index
