#include <gtest/gtest.h>

#include <vector>

#include "common/random.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/fact_file.h"

namespace chunkcache::storage {
namespace {

// ------------------------------ DiskManager ---------------------------------

TEST(InMemoryDiskManagerTest, CreateAllocateReadWrite) {
  InMemoryDiskManager dm;
  const uint32_t f = dm.CreateFile();
  EXPECT_EQ(f, 1u);
  auto pid = dm.AllocatePage(f);
  ASSERT_TRUE(pid.ok());
  EXPECT_EQ(pid->page_no, 0u);

  Page p;
  p.Zero();
  p.data[0] = 0xAB;
  p.data[kPageSize - 1] = 0xCD;
  ASSERT_TRUE(dm.WritePage(*pid, p).ok());

  Page q;
  ASSERT_TRUE(dm.ReadPage(*pid, &q).ok());
  EXPECT_EQ(q.data[0], 0xAB);
  EXPECT_EQ(q.data[kPageSize - 1], 0xCD);
  EXPECT_EQ(dm.stats().reads, 1u);
  EXPECT_EQ(dm.stats().writes, 1u);
}

TEST(InMemoryDiskManagerTest, FreshPageIsZeroed) {
  InMemoryDiskManager dm;
  const uint32_t f = dm.CreateFile();
  auto pid = dm.AllocatePage(f);
  ASSERT_TRUE(pid.ok());
  Page p;
  ASSERT_TRUE(dm.ReadPage(*pid, &p).ok());
  for (uint32_t i = 0; i < kPageSize; i += 512) EXPECT_EQ(p.data[i], 0);
}

TEST(InMemoryDiskManagerTest, ErrorsOnBadIds) {
  InMemoryDiskManager dm;
  Page p;
  EXPECT_EQ(dm.ReadPage(PageId{1, 0}, &p).code(), StatusCode::kIoError);
  EXPECT_EQ(dm.AllocatePage(7).status().code(), StatusCode::kInvalidArgument);
  const uint32_t f = dm.CreateFile();
  EXPECT_EQ(dm.ReadPage(PageId{f, 3}, &p).code(), StatusCode::kIoError);
  EXPECT_EQ(dm.WritePage(PageId{f, 3}, p).code(), StatusCode::kIoError);
}

TEST(InMemoryDiskManagerTest, MultipleFilesAreIndependent) {
  InMemoryDiskManager dm;
  const uint32_t f1 = dm.CreateFile();
  const uint32_t f2 = dm.CreateFile();
  ASSERT_TRUE(dm.AllocatePage(f1).ok());
  ASSERT_TRUE(dm.AllocatePage(f2).ok());
  Page a, b;
  a.Zero();
  b.Zero();
  a.data[7] = 1;
  b.data[7] = 2;
  ASSERT_TRUE(dm.WritePage(PageId{f1, 0}, a).ok());
  ASSERT_TRUE(dm.WritePage(PageId{f2, 0}, b).ok());
  Page out;
  ASSERT_TRUE(dm.ReadPage(PageId{f1, 0}, &out).ok());
  EXPECT_EQ(out.data[7], 1);
  ASSERT_TRUE(dm.ReadPage(PageId{f2, 0}, &out).ok());
  EXPECT_EQ(out.data[7], 2);
  EXPECT_EQ(dm.FilePageCount(f1), 1u);
  EXPECT_EQ(dm.FilePageCount(f2), 1u);
}

// ------------------------------ BufferPool ----------------------------------

TEST(BufferPoolTest, HitAvoidsPhysicalRead) {
  InMemoryDiskManager dm;
  BufferPool pool(&dm, 4);
  const uint32_t f = dm.CreateFile();
  PageId pid;
  {
    auto g = pool.Allocate(f);
    ASSERT_TRUE(g.ok());
    pid = g->id();
    g->page()->data[0] = 42;
    g->MarkDirty();
  }
  dm.ResetStats();
  {
    auto g = pool.Fetch(pid);
    ASSERT_TRUE(g.ok());
    EXPECT_EQ(g->page()->data[0], 42);
  }
  EXPECT_EQ(dm.stats().reads, 0u);  // still cached
  EXPECT_EQ(pool.stats().hits, 1u);
}

TEST(BufferPoolTest, EvictionWritesBackDirtyPage) {
  InMemoryDiskManager dm;
  BufferPool pool(&dm, 2);
  const uint32_t f = dm.CreateFile();
  PageId first;
  {
    auto g = pool.Allocate(f);
    ASSERT_TRUE(g.ok());
    first = g->id();
    g->page()->data[100] = 7;
    g->MarkDirty();
  }
  // Fill the pool with more pages so `first` gets evicted.
  for (int i = 0; i < 4; ++i) {
    auto g = pool.Allocate(f);
    ASSERT_TRUE(g.ok());
  }
  // Read back through a fresh fetch: the data must have been written back.
  auto g = pool.Fetch(first);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->page()->data[100], 7);
  EXPECT_GT(pool.stats().evictions, 0u);
  EXPECT_GT(pool.stats().dirty_writebacks, 0u);
}

TEST(BufferPoolTest, AllPinnedExhaustsPool) {
  InMemoryDiskManager dm;
  BufferPool pool(&dm, 2);
  const uint32_t f = dm.CreateFile();
  auto g1 = pool.Allocate(f);
  auto g2 = pool.Allocate(f);
  ASSERT_TRUE(g1.ok());
  ASSERT_TRUE(g2.ok());
  auto g3 = pool.Allocate(f);
  EXPECT_FALSE(g3.ok());
  EXPECT_EQ(g3.status().code(), StatusCode::kResourceExhausted);
  // Releasing one pin makes room again.
  g1->Release();
  auto g4 = pool.Allocate(f);
  EXPECT_TRUE(g4.ok());
}

TEST(BufferPoolTest, RefetchAfterUnpinCountsHit) {
  InMemoryDiskManager dm;
  BufferPool pool(&dm, 8);
  const uint32_t f = dm.CreateFile();
  PageId pid;
  {
    auto g = pool.Allocate(f);
    ASSERT_TRUE(g.ok());
    pid = g->id();
  }
  const uint64_t misses_before = pool.stats().misses;
  for (int i = 0; i < 5; ++i) {
    auto g = pool.Fetch(pid);
    ASSERT_TRUE(g.ok());
  }
  EXPECT_EQ(pool.stats().misses, misses_before);
  EXPECT_GE(pool.stats().hits, 5u);
}

TEST(BufferPoolTest, EvictAllDropsCleanAndDirtyPages) {
  InMemoryDiskManager dm;
  BufferPool pool(&dm, 8);
  const uint32_t f = dm.CreateFile();
  PageId pid;
  {
    auto g = pool.Allocate(f);
    ASSERT_TRUE(g.ok());
    pid = g->id();
    g->page()->data[3] = 9;
    g->MarkDirty();
  }
  ASSERT_TRUE(pool.EvictAll().ok());
  dm.ResetStats();
  auto g = pool.Fetch(pid);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->page()->data[3], 9);
  EXPECT_EQ(dm.stats().reads, 1u);  // truly refetched from "disk"
}

TEST(BufferPoolTest, GuardMoveTransfersPin) {
  InMemoryDiskManager dm;
  BufferPool pool(&dm, 2);
  const uint32_t f = dm.CreateFile();
  auto g1 = pool.Allocate(f);
  ASSERT_TRUE(g1.ok());
  PageGuard moved = std::move(*g1);
  EXPECT_TRUE(moved.valid());
  moved.Release();
  // After release both frames are available again.
  auto g2 = pool.Allocate(f);
  auto g3 = pool.Allocate(f);
  EXPECT_TRUE(g2.ok());
  EXPECT_TRUE(g3.ok());
}

// A fixed stream of fetches over three files of 300 pages each, through a
// 64-frame pool: a warm pass, EvictAll, and a second pass after it. Pages
// come and go from every file, at page numbers far past any page table's
// first size. Each fetch must see its own page's bytes, and the pool's
// counters must read what they read when a hash table found resident
// pages: CLOCK picks the same victims whatever finds a resident page.
TEST(BufferPoolTest, FixedStreamKeepsHitsMissesAndEvictions) {
  InMemoryDiskManager dm;
  BufferPool pool(&dm, 64);
  constexpr uint32_t kFiles = 3;
  constexpr uint32_t kPages = 300;
  std::vector<uint32_t> files;
  for (uint32_t i = 0; i < kFiles; ++i) files.push_back(dm.CreateFile());
  for (uint32_t page = 0; page < kPages; ++page) {
    for (uint32_t file : files) {
      auto g = pool.Allocate(file);
      ASSERT_TRUE(g.ok());
      ASSERT_EQ(g->id().page_no, page);
      g->page()->data[0] = static_cast<uint8_t>(file);
      g->page()->data[1] = static_cast<uint8_t>(page);
      g->page()->data[2] = static_cast<uint8_t>(page >> 8);
      g->MarkDirty();
    }
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  ASSERT_TRUE(pool.EvictAll().ok());
  pool.ResetStats();
  Random rng(99);
  const auto pass = [&] {
    for (int i = 0; i < 6000; ++i) {
      // Half the fetches go to a 40-page hot range of one file.
      const uint32_t file = files[rng.Uniform(kFiles)];
      const uint32_t page = rng.Uniform(2) == 0
                                ? static_cast<uint32_t>(rng.Uniform(40)) + 100
                                : static_cast<uint32_t>(rng.Uniform(kPages));
      auto g = pool.Fetch(PageId{file, page});
      ASSERT_TRUE(g.ok());
      ASSERT_EQ(g->page()->data[0], static_cast<uint8_t>(file));
      ASSERT_EQ(g->page()->data[1] | g->page()->data[2] << 8, page);
    }
  };
  pass();
  const BufferPoolStats warm = pool.stats();
  ASSERT_TRUE(pool.EvictAll().ok());
  pass();
  const BufferPoolStats both = pool.stats();
  EXPECT_EQ(warm.hits, 1048u);
  EXPECT_EQ(warm.misses, 4952u);
  EXPECT_EQ(warm.evictions, 4888u);
  EXPECT_EQ(both.hits, 2021u);
  EXPECT_EQ(both.misses, 9979u);
  EXPECT_EQ(both.evictions, 9851u);
  EXPECT_EQ(both.dirty_writebacks, 0u);
  // Fetching past a file's end fails and leaves nothing resident.
  EXPECT_EQ(pool.Fetch(PageId{files[0], kPages}).status().code(),
            StatusCode::kIoError);
  EXPECT_EQ(pool.Fetch(PageId{files.back() + 1, 0}).status().code(),
            StatusCode::kIoError);
  EXPECT_EQ(pool.stats().hits, both.hits);
}

// -------------------------------- FactFile ----------------------------------

Tuple MakeTuple(uint32_t a, uint32_t b, double m) {
  Tuple t;
  t.keys[0] = a;
  t.keys[1] = b;
  t.measure = m;
  return t;
}

// Rows start at page 0: the first page holds row 0, and both scan paths
// read it from there.
TEST(FactFileTest, AppendThenScanFromRowZero) {
  InMemoryDiskManager dm;
  BufferPool pool(&dm, 64);
  auto file = FactFile::Create(&pool, TupleDesc{2});
  ASSERT_TRUE(file.ok());
  for (uint32_t i = 0; i < 1000; ++i) {
    auto rid = file->Append(MakeTuple(i, i * 2, i * 0.5));
    ASSERT_TRUE(rid.ok());
    EXPECT_EQ(*rid, i);
  }
  EXPECT_EQ(file->num_tuples(), 1000u);
  EXPECT_EQ(file->PageOfRow(0), 0u);
  EXPECT_EQ(dm.FilePageCount(file->file_id()), file->num_data_pages());
  ASSERT_TRUE(pool.EvictAll().ok());

  std::vector<Tuple> seen;
  ASSERT_TRUE(file->ScanRange(0, 3,
                              [&](RowId, const Tuple& t) {
                                seen.push_back(t);
                                return true;
                              })
                  .ok());
  ASSERT_EQ(seen.size(), 3u);
  for (uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(seen[i].keys[0], i);
    EXPECT_EQ(seen[i].keys[1], i * 2);
    EXPECT_DOUBLE_EQ(seen[i].measure, i * 0.5);
  }

  TupleColumns cols;
  ASSERT_TRUE(file->ScanRangeColumns(0, 1000, &cols).ok());
  ASSERT_EQ(cols.size(), 1000u);
  for (uint32_t i = 0; i < 1000; i += 123) {
    EXPECT_EQ(cols.keys[0][i], i);
    EXPECT_EQ(cols.keys[1][i], i * 2);
    EXPECT_DOUBLE_EQ(cols.measure[i], i * 0.5);
  }
  EXPECT_EQ(file->ScanRangeColumns(1001, 1, &cols).code(),
            StatusCode::kOutOfRange);
}

// A fact file with no rows has no pages, and every read of it is empty.
TEST(FactFileTest, EmptyFileHasNoPages) {
  InMemoryDiskManager dm;
  BufferPool pool(&dm, 16);
  auto file = FactFile::Create(&pool, TupleDesc{2});
  ASSERT_TRUE(file.ok());
  EXPECT_EQ(file->num_tuples(), 0u);
  EXPECT_EQ(file->num_data_pages(), 0u);
  EXPECT_EQ(dm.FilePageCount(file->file_id()), 0u);
  int visited = 0;
  ASSERT_TRUE(file->Scan([&](RowId, const Tuple&) {
                    ++visited;
                    return true;
                  })
                  .ok());
  EXPECT_EQ(visited, 0);
  TupleColumns cols;
  ASSERT_TRUE(file->ScanRangeColumns(0, 10, &cols).ok());
  EXPECT_EQ(cols.size(), 0u);
  std::vector<Tuple> out;
  EXPECT_EQ(file->FetchRows({0}, &out).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(dm.stats().reads, 0u);
}

TEST(FactFileTest, TuplesPerPageMatchesRecordSize) {
  InMemoryDiskManager dm;
  BufferPool pool(&dm, 64);
  auto file = FactFile::Create(&pool, TupleDesc{4});
  ASSERT_TRUE(file.ok());
  // 4 dims * 4 B + 8 B = 24 B -> 170 tuples per 4096-B page.
  EXPECT_EQ(file->desc().RecordSize(), 24u);
  EXPECT_EQ(file->tuples_per_page(), 4096u / 24u);
}

TEST(FactFileTest, ScanVisitsAllInOrder) {
  InMemoryDiskManager dm;
  BufferPool pool(&dm, 64);
  auto file = FactFile::Create(&pool, TupleDesc{2});
  ASSERT_TRUE(file.ok());
  const uint32_t n = 2500;
  for (uint32_t i = 0; i < n; ++i) {
    ASSERT_TRUE(file->Append(MakeTuple(i, 0, 0)).ok());
  }
  uint32_t expect = 0;
  ASSERT_TRUE(file->Scan([&](RowId rid, const Tuple& t) {
                    EXPECT_EQ(rid, expect);
                    EXPECT_EQ(t.keys[0], expect);
                    ++expect;
                    return true;
                  })
                  .ok());
  EXPECT_EQ(expect, n);
}

TEST(FactFileTest, ScanRangeRespectsBoundsAndEarlyStop) {
  InMemoryDiskManager dm;
  BufferPool pool(&dm, 64);
  auto file = FactFile::Create(&pool, TupleDesc{2});
  ASSERT_TRUE(file.ok());
  for (uint32_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(file->Append(MakeTuple(i, 0, 0)).ok());
  }
  std::vector<RowId> seen;
  ASSERT_TRUE(file->ScanRange(400, 100,
                              [&](RowId rid, const Tuple&) {
                                seen.push_back(rid);
                                return true;
                              })
                  .ok());
  ASSERT_EQ(seen.size(), 100u);
  EXPECT_EQ(seen.front(), 400u);
  EXPECT_EQ(seen.back(), 499u);

  seen.clear();
  ASSERT_TRUE(file->ScanRange(0, 1000,
                              [&](RowId rid, const Tuple&) {
                                seen.push_back(rid);
                                return rid < 9;  // stop after 10 tuples
                              })
                  .ok());
  EXPECT_EQ(seen.size(), 10u);
}

TEST(FactFileTest, ScanRangeBeyondEofClamps) {
  InMemoryDiskManager dm;
  BufferPool pool(&dm, 16);
  auto file = FactFile::Create(&pool, TupleDesc{2});
  ASSERT_TRUE(file.ok());
  for (uint32_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(file->Append(MakeTuple(i, 0, 0)).ok());
  }
  int count = 0;
  ASSERT_TRUE(file->ScanRange(5, 100,
                              [&](RowId, const Tuple&) {
                                ++count;
                                return true;
                              })
                  .ok());
  EXPECT_EQ(count, 5);
  EXPECT_EQ(file->ScanRange(11, 1, [](RowId, const Tuple&) { return true; })
                .code(),
            StatusCode::kOutOfRange);
}

TEST(FactFileTest, FetchRowsCountsOnePinPerPage) {
  InMemoryDiskManager dm;
  BufferPool pool(&dm, 64);
  auto file = FactFile::Create(&pool, TupleDesc{2});
  ASSERT_TRUE(file.ok());
  const uint32_t tpp = file->tuples_per_page();
  for (uint32_t i = 0; i < tpp * 4; ++i) {
    ASSERT_TRUE(file->Append(MakeTuple(i, 0, 0)).ok());
  }
  ASSERT_TRUE(pool.EvictAll().ok());
  pool.ResetStats();
  // Three rows on the same page -> one miss; one row on another page.
  // Rows 0-2 sit on page 0, which the first fetch must pin.
  std::vector<RowId> rids = {0, 1, 2, static_cast<RowId>(tpp * 2)};
  std::vector<Tuple> out;
  ASSERT_TRUE(file->FetchRows(rids, &out).ok());
  ASSERT_EQ(out.size(), 4u);
  for (uint32_t i = 0; i < 3; ++i) EXPECT_EQ(out[i].keys[0], i);
  EXPECT_EQ(out[3].keys[0], tpp * 2);
  EXPECT_EQ(pool.stats().misses, 2u);
}

TEST(FactFileTest, LargeBulkLoadSurvivesSmallPool) {
  // The pool is far smaller than the file; appends and scans must still
  // work through eviction pressure.
  InMemoryDiskManager dm;
  BufferPool pool(&dm, 8);
  auto file = FactFile::Create(&pool, TupleDesc{4});
  ASSERT_TRUE(file.ok());
  const uint32_t n = 20000;
  Random rng(3);
  std::vector<double> sums(1, 0.0);
  for (uint32_t i = 0; i < n; ++i) {
    Tuple t;
    for (int d = 0; d < 4; ++d) {
      t.keys[d] = static_cast<uint32_t>(rng.Uniform(100));
    }
    t.measure = static_cast<double>(rng.Uniform(1000));
    sums[0] += t.measure;
    ASSERT_TRUE(file->Append(t).ok());
  }
  double scanned = 0;
  ASSERT_TRUE(file->Scan([&](RowId, const Tuple& t) {
                    scanned += t.measure;
                    return true;
                  })
                  .ok());
  EXPECT_DOUBLE_EQ(scanned, sums[0]);
}

}  // namespace
}  // namespace chunkcache::storage
