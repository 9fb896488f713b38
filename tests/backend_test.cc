#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "backend/aggregator.h"
#include "backend/chunked_file.h"
#include "backend/engine.h"
#include "backend/star_join_query.h"
#include "common/random.h"
#include "schema/synthetic.h"
#include "storage/agg_columns.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "reference_oracle.h"

namespace chunkcache::backend {
namespace {

using chunks::ChunkCoords;
using chunks::ChunkingOptions;
using chunks::ChunkingScheme;
using chunks::GroupBySpec;
using oracle::ExpectRowsEqual;
using schema::OrdinalRange;
using storage::AggTuple;
using storage::BufferPool;
using storage::InMemoryDiskManager;
using storage::Tuple;

/// FNV-1a over every page of every file on `disk`, in file-id order.
uint64_t DigestDisk(InMemoryDiskManager* disk) {
  uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](uint64_t v) { h = (h ^ v) * 0x100000001b3ULL; };
  storage::Page page;
  for (uint32_t file = 1; disk->FilePageCount(file) != 0; ++file) {
    mix(file);
    mix(disk->FilePageCount(file));
    for (uint32_t p = 0; p < disk->FilePageCount(file); ++p) {
      EXPECT_TRUE(disk->ReadPage(storage::PageId{file, p}, &page).ok());
      for (uint8_t b : page.data) mix(b);
    }
  }
  return h;
}

// The bytes a load leaves on disk: the fact file, the chunk index and the
// four bitmap indexes, for a fixed seed, through a pool far smaller than
// the table so pages are written back mid-load. However the load batches
// its work, it must write these very pages (digests recorded from a
// tuple-at-a-time load with one scan per bitmap index).
TEST(BulkLoadDigest, FilesMatchTheRecordedBytes) {
  auto s = schema::BuildPaperSchema();
  ASSERT_TRUE(s.ok());
  const schema::StarSchema schema = std::move(s).value();
  ChunkingOptions opts;
  opts.range_fraction = 0.2;
  auto scheme = ChunkingScheme::Build(&schema, opts, 20000);
  ASSERT_TRUE(scheme.ok());
  schema::FactGenOptions gen;
  gen.num_tuples = 20000;
  gen.seed = 17;
  const std::vector<Tuple> tuples = schema::GenerateFactTuples(schema, gen);
  for (const bool clustered : {true, false}) {
    InMemoryDiskManager disk;
    BufferPool pool(&disk, 64);
    auto file = ChunkedFile::BulkLoad(&pool, &*scheme, tuples, clustered);
    ASSERT_TRUE(file.ok());
    BackendEngine engine(&pool, &*file, &*scheme);
    ASSERT_TRUE(engine.BuildBitmapIndexes().ok());
    ASSERT_TRUE(pool.FlushAll().ok());
    EXPECT_EQ(DigestDisk(&disk),
              clustered ? 0xf4c577f21f26dc33ULL : 0xdf1a79ffabbef4cbULL)
        << "clustered " << clustered;
  }
}

// The data fingerprint of fixed loads: the first n tuples of the digest
// test's seed, for n on both sides of the loader's 256-record CRC blocks.
// BulkLoad folds the records a block at a time, and must give the values
// recorded from a fold of one record at a time.
TEST(BulkLoadDigest, FingerprintMatchesTheRecordedValues) {
  auto s = schema::BuildPaperSchema();
  ASSERT_TRUE(s.ok());
  const schema::StarSchema schema = std::move(s).value();
  ChunkingOptions opts;
  opts.range_fraction = 0.2;
  auto scheme = ChunkingScheme::Build(&schema, opts, 20000);
  ASSERT_TRUE(scheme.ok());
  schema::FactGenOptions gen;
  gen.num_tuples = 20000;
  gen.seed = 17;
  const std::vector<Tuple> tuples = schema::GenerateFactTuples(schema, gen);
  const std::vector<std::pair<size_t, uint64_t>> recorded = {
      {0, 0xc2cce4608c28b28aULL},   {1, 0xc2cce460710bf4d7ULL},
      {255, 0xc2cce46062612af6ULL}, {256, 0xc2cce460f86652d0ULL},
      {257, 0xc2cce46042d136c3ULL}, {513, 0xc2cce46073efce27ULL},
      {20000, 0xc2cce460166bb9e8ULL}};
  for (const bool clustered : {true, false}) {
    for (const auto& [n, fingerprint] : recorded) {
      InMemoryDiskManager disk;
      BufferPool pool(&disk, 64);
      auto file = ChunkedFile::BulkLoad(
          &pool, &*scheme, {tuples.begin(), tuples.begin() + n}, clustered);
      ASSERT_TRUE(file.ok());
      EXPECT_EQ(file->fingerprint(), fingerprint)
          << "clustered " << clustered << " n " << n;
    }
  }
}

/// Shared environment: paper schema, 20k synthetic tuples, a chunked file,
/// and an engine with bitmap indexes.
class BackendFixture : public ::testing::Test {
 protected:
  static constexpr uint64_t kTuples = 20000;

  void SetUp() override {
    auto s = schema::BuildPaperSchema();
    ASSERT_TRUE(s.ok());
    schema_ = std::make_unique<schema::StarSchema>(std::move(s).value());
    ChunkingOptions opts;
    opts.range_fraction = 0.2;
    auto scheme = ChunkingScheme::Build(schema_.get(), opts, kTuples);
    ASSERT_TRUE(scheme.ok());
    scheme_ = std::make_unique<ChunkingScheme>(std::move(scheme).value());

    schema::FactGenOptions gen;
    gen.num_tuples = kTuples;
    gen.seed = 17;
    tuples_ = schema::GenerateFactTuples(*schema_, gen);

    pool_ = std::make_unique<BufferPool>(&disk_, 4096);
    auto file = ChunkedFile::BulkLoad(pool_.get(), scheme_.get(), tuples_);
    ASSERT_TRUE(file.ok());
    file_ = std::make_unique<ChunkedFile>(std::move(file).value());
    engine_ = std::make_unique<BackendEngine>(pool_.get(), file_.get(),
                                              scheme_.get());
    ASSERT_TRUE(engine_->BuildBitmapIndexes().ok());
  }

  /// The shared reference oracle over this fixture's tuples.
  std::vector<AggTuple> Naive(const StarJoinQuery& q) const {
    return oracle::NaiveStarJoin(*schema_, tuples_, q);
  }

  /// Reads base chunks `chunk_nums` the way the miss path does: their
  /// coalesced runs from the chunk index, then each run's columns.
  storage::TupleColumns ReadChunks(const std::vector<uint64_t>& chunk_nums) {
    storage::TupleColumns cols;
    cols.num_dims = scheme_->num_dims();
    auto runs = file_->CoalescedRuns(chunk_nums);
    EXPECT_TRUE(runs.ok()) << runs.status().ToString();
    if (!runs.ok()) return cols;
    for (const RowRun& run : *runs) {
      EXPECT_TRUE(file_->fact_file()
                      .ScanRangeColumns(run.first, run.count, &cols)
                      .ok());
    }
    return cols;
  }

  /// Full selection on every dimension at the given group-by.
  StarJoinQuery FullQuery(const GroupBySpec& gb) const {
    StarJoinQuery q;
    q.group_by = gb;
    for (uint32_t d = 0; d < schema_->num_dims(); ++d) {
      const auto& h = schema_->dimension(d).hierarchy;
      q.selection[d] =
          OrdinalRange{0, h.LevelCardinality(gb.levels[d]) - 1};
    }
    return q;
  }

  InMemoryDiskManager disk_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<schema::StarSchema> schema_;
  std::unique_ptr<ChunkingScheme> scheme_;
  std::vector<Tuple> tuples_;
  std::unique_ptr<ChunkedFile> file_;
  std::unique_ptr<BackendEngine> engine_;
};

// ------------------------------- ChunkedFile --------------------------------

TEST_F(BackendFixture, ChunkRunsCoverAllTuplesDisjointly) {
  const GroupBySpec base = scheme_->BaseSpec();
  const auto& grid = scheme_->GridFor(base);
  uint64_t total = 0;
  storage::RowId expected_start = 0;
  for (uint64_t c = 0; c < grid.num_chunks(); ++c) {
    auto run = file_->ChunkRun(c);
    if (!run.ok()) {
      EXPECT_EQ(run.status().code(), StatusCode::kNotFound);
      continue;
    }
    // Clustered: runs are laid out back to back in chunk order.
    EXPECT_EQ(run->first, expected_start);
    expected_start = run->first + run->second;
    total += run->second;
  }
  EXPECT_EQ(total, kTuples);
}

TEST_F(BackendFixture, ChunkRunYieldsOnlyThatChunksTuples) {
  const GroupBySpec base = scheme_->BaseSpec();
  const auto& grid = scheme_->GridFor(base);
  // Pick a handful of chunks spread over the grid.
  for (uint64_t c = 0; c < grid.num_chunks(); c += grid.num_chunks() / 7) {
    auto extent = scheme_->ChunkExtent(base, c);
    const storage::TupleColumns cols = ReadChunks({c});
    for (size_t i = 0; i < cols.size(); ++i) {
      for (uint32_t d = 0; d < 4; ++d) {
        EXPECT_TRUE(extent[d].Contains(cols.keys[d][i]));
      }
    }
    auto run = file_->ChunkRun(c);
    if (run.ok()) {
      EXPECT_EQ(cols.size(), run->second);
    } else {
      EXPECT_EQ(cols.size(), 0u);
    }
  }
}

TEST_F(BackendFixture, ChunkScanCostProportionalToChunk) {
  // Reading one chunk must touch far fewer pages than the whole file.
  ASSERT_TRUE(pool_->EvictAll().ok());
  const auto before = disk_.stats();
  EXPECT_GT(ReadChunks({0}).size(), 0u);
  const uint64_t chunk_pages = disk_.stats().reads - before.reads;
  EXPECT_LT(chunk_pages, file_->fact_file().num_data_pages() / 4);
}

/// The reference for CoalescedChunkRuns: one Get per chunk, then the
/// same coalescing.
std::vector<RowRun> PerChunkRuns(const index::BTree& chunk_index,
                                 const std::vector<uint64_t>& chunk_nums,
                                 uint64_t max_rows) {
  std::vector<RowRun> runs;
  for (uint64_t c : chunk_nums) {
    auto p = chunk_index.Get(c);
    if (p.ok()) {
      runs.push_back(RowRun{p->v1, p->v2, 1});
    } else {
      EXPECT_EQ(p.status().code(), StatusCode::kNotFound);
    }
  }
  return CoalesceRowRuns(std::move(runs), max_rows);
}

// One chunk-index walk per box resolves exactly the runs a Get per chunk
// does: random target chunks at random group-bys, their source boxes over
// the base file and over a materialized aggregate's index, with and
// without a cap on merged reads. The fixture's tuples fill every chunk, so
// this file keeps only those outside the middle third of dimension 0 and
// outside every fifth base chunk: boxes mix present and absent chunks, and
// some have none present. A box listed out of order is refused.
TEST_F(BackendFixture, CoalescedRunsMatchPerChunkGets) {
  const GroupBySpec base = scheme_->BaseSpec();
  const uint32_t card0 = schema_->dimension(0).hierarchy.LevelCardinality(
      schema_->dimension(0).hierarchy.depth());
  std::vector<Tuple> sparse;
  for (const Tuple& t : tuples_) {
    ChunkCoords cell{};
    for (uint32_t d = 0; d < 4; ++d) cell[d] = t.keys[d];
    const bool middle = t.keys[0] >= card0 / 3 && t.keys[0] < 2 * card0 / 3;
    if (!middle && scheme_->ChunkOfCell(base, cell) % 5 != 2) {
      sparse.push_back(t);
    }
  }
  auto file = ChunkedFile::BulkLoad(pool_.get(), scheme_.get(), sparse);
  ASSERT_TRUE(file.ok());
  BackendEngine engine(pool_.get(), &*file, scheme_.get());
  const GroupBySpec mid{{2, 1, 2, 1}, 4};
  ASSERT_TRUE(engine.MaterializeAggregate(mid).ok());
  const MaterializedAggregate& mat = engine.materialized()[0];
  Random rng(2024);
  for (const GroupBySpec& source : {base, mid}) {
    const index::BTree& chunk_index =
        source == base ? file->chunk_index() : mat.chunk_index();
    ASSERT_GE(chunk_index.height(), 2u) << source.ToString();
    uint64_t all_absent = 0;
    for (int round = 0; round < 400; ++round) {
      GroupBySpec target{{}, 4};
      for (uint32_t d = 0; d < 4; ++d) {
        target.levels[d] =
            static_cast<uint8_t>(rng.Uniform(source.levels[d] + 1u));
      }
      const uint64_t chunk =
          rng.Uniform(scheme_->GridFor(target).num_chunks());
      auto box = scheme_->SourceBox(target, chunk, source);
      ASSERT_TRUE(box.ok());
      std::vector<uint64_t> nums;
      box->ForEach(scheme_->GridFor(source),
                   [&](uint64_t c, const ChunkCoords&) { nums.push_back(c); });
      const uint64_t max_rows = rng.Uniform(3) == 0 ? 0 : 1 + rng.Uniform(300);
      auto got = CoalescedChunkRuns(chunk_index, nums, max_rows);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      const std::vector<RowRun> want =
          PerChunkRuns(chunk_index, nums, max_rows);
      ASSERT_TRUE(*got == want)
          << "target " << target.ToString() << " chunk " << chunk;
      all_absent += want.empty();
      if (nums.size() > 1) {
        std::swap(nums.front(), nums.back());
        EXPECT_EQ(CoalescedChunkRuns(chunk_index, nums, max_rows)
                      .status()
                      .code(),
                  StatusCode::kInvalidArgument);
      }
    }
    EXPECT_GT(all_absent, 0u) << source.ToString();
  }
}

TEST(ChunkedFileUnclustered, ChunkInterfaceUnsupported) {
  InMemoryDiskManager disk;
  BufferPool pool(&disk, 256);
  auto s = schema::BuildPaperSchema();
  ASSERT_TRUE(s.ok());
  auto schema = std::make_unique<schema::StarSchema>(std::move(s).value());
  auto scheme = ChunkingScheme::Build(schema.get(), ChunkingOptions{}, 1000);
  ASSERT_TRUE(scheme.ok());
  schema::FactGenOptions gen;
  gen.num_tuples = 1000;
  auto tuples = schema::GenerateFactTuples(*schema, gen);
  auto file = ChunkedFile::BulkLoad(&pool, &*scheme, tuples,
                                    /*clustered=*/false);
  ASSERT_TRUE(file.ok());
  EXPECT_FALSE(file->clustered());
  EXPECT_EQ(file->ChunkRun(0).status().code(), StatusCode::kUnsupported);
  EXPECT_EQ(file->CoalescedRuns({0}).status().code(),
            StatusCode::kUnsupported);
  // The relational interface still works.
  uint64_t n = 0;
  ASSERT_TRUE(file->Scan([&](storage::RowId, const Tuple&) {
                    ++n;
                    return true;
                  })
                  .ok());
  EXPECT_EQ(n, 1000u);
}

// -------------------------------- Aggregator --------------------------------

TEST_F(BackendFixture, HashAggregatorMatchesNaive) {
  GroupBySpec gb{{1, 1, 1, 1}, 4};
  HashAggregator agg(scheme_.get(), gb);
  for (const Tuple& t : tuples_) agg.AddBase(t);
  EXPECT_EQ(agg.rows_consumed(), kTuples);
  auto rows = agg.TakeRows();
  SortRows(&rows, 4);
  ExpectRowsEqual(rows, Naive(FullQuery(gb)), 4);
}

TEST_F(BackendFixture, MinMaxAggregatesMatchNaive) {
  GroupBySpec gb{{1, 0, 1, 0}, 4};
  HashAggregator agg(scheme_.get(), gb);
  for (const Tuple& t : tuples_) agg.AddBase(t);
  auto rows = agg.TakeRows();
  SortRows(&rows, 4);
  ExpectRowsEqual(rows, Naive(FullQuery(gb)), 4);
}

TEST_F(BackendFixture, MinMaxSurviveReAggregation) {
  // min of mins == direct min (closure property for MIN/MAX).
  GroupBySpec mid{{2, 1, 2, 1}, 4};
  GroupBySpec coarse{{1, 0, 1, 0}, 4};
  HashAggregator to_mid(scheme_.get(), mid);
  for (const Tuple& t : tuples_) to_mid.AddBase(t);
  auto mid_rows = to_mid.TakeRows();
  HashAggregator via_mid(scheme_.get(), coarse);
  for (const AggTuple& r : mid_rows) via_mid.AddAgg(r, mid);
  auto indirect = via_mid.TakeRows();
  SortRows(&indirect, 4);

  HashAggregator direct_agg(scheme_.get(), coarse);
  for (const Tuple& t : tuples_) direct_agg.AddBase(t);
  auto direct = direct_agg.TakeRows();
  SortRows(&direct, 4);

  ASSERT_EQ(direct.size(), indirect.size());
  for (size_t i = 0; i < direct.size(); ++i) {
    EXPECT_DOUBLE_EQ(direct[i].min_v, indirect[i].min_v) << "row " << i;
    EXPECT_DOUBLE_EQ(direct[i].max_v, indirect[i].max_v) << "row " << i;
  }
}

TEST_F(BackendFixture, ReAggregationMatchesDirect) {
  // base -> mid, then mid -> coarse must equal base -> coarse.
  GroupBySpec mid{{2, 1, 2, 1}, 4};
  GroupBySpec coarse{{1, 0, 1, 1}, 4};
  HashAggregator to_mid(scheme_.get(), mid);
  for (const Tuple& t : tuples_) to_mid.AddBase(t);
  auto mid_rows = to_mid.TakeRows();

  HashAggregator via_mid(scheme_.get(), coarse);
  for (const AggTuple& r : mid_rows) via_mid.AddAgg(r, mid);
  auto rows = via_mid.TakeRows();
  SortRows(&rows, 4);
  ExpectRowsEqual(rows, Naive(FullQuery(coarse)), 4);
}

TEST(AggregatorHelpers, FilterAndSort) {
  std::vector<AggTuple> rows(3);
  rows[0].coords = {5, 1};
  rows[1].coords = {2, 9};
  rows[2].coords = {2, 3};
  std::array<OrdinalRange, storage::kMaxDims> sel{};
  sel[0] = OrdinalRange{0, 4};
  sel[1] = OrdinalRange{0, 5};
  auto kept = FilterRows(rows, 2, sel);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].coords[0], 2u);
  EXPECT_EQ(kept[0].coords[1], 3u);

  SortRows(&rows, 2);
  EXPECT_EQ(rows[0].coords[1], 3u);
  EXPECT_EQ(rows[1].coords[1], 9u);
  EXPECT_EQ(rows[2].coords[0], 5u);
}

// ---------------------------------- Engine ----------------------------------

TEST_F(BackendFixture, ComputeChunksReconstructsFullGroupBy) {
  // Computing *all* chunks of a group-by and concatenating them must equal
  // the naive full aggregation.
  GroupBySpec gb{{1, 1, 1, 1}, 4};
  const auto& grid = scheme_->GridFor(gb);
  std::vector<uint64_t> nums(grid.num_chunks());
  for (uint64_t i = 0; i < nums.size(); ++i) nums[i] = i;
  WorkCounters work;
  auto data = engine_->ComputeChunks(gb, nums, {}, &work);
  ASSERT_TRUE(data.ok());
  std::vector<AggTuple> rows;
  for (const auto& c : *data) {
    // Every row must lie within its chunk's extent.
    auto extent = scheme_->ChunkExtent(gb, c.chunk_num);
    for (size_t i = 0; i < c.cols.size(); ++i) {
      const AggTuple r = c.cols.RowAt(i);
      for (uint32_t d = 0; d < 4; ++d) {
        EXPECT_TRUE(extent[d].Contains(r.coords[d]));
      }
      rows.push_back(r);
    }
  }
  SortRows(&rows, 4);
  ExpectRowsEqual(rows, Naive(FullQuery(gb)), 4);
  EXPECT_GT(work.tuples_processed, 0u);
}

TEST_F(BackendFixture, ComputeSingleChunkTouchesFewPages) {
  GroupBySpec gb{{2, 2, 2, 2}, 4};
  ASSERT_TRUE(pool_->EvictAll().ok());
  WorkCounters work;
  auto data = engine_->ComputeChunks(gb, {3}, {}, &work);
  ASSERT_TRUE(data.ok());
  // Cost of a chunk miss is proportional to the chunk, not the table
  // (Section 4.1 benefit 1).
  EXPECT_LT(work.pages_read, file_->fact_file().num_data_pages() / 4);
}

TEST_F(BackendFixture, ExecuteStarJoinMatchesNaiveOnRestrictedQuery) {
  StarJoinQuery q;
  q.group_by = GroupBySpec{{2, 1, 2, 1}, 4};
  q.selection[0] = OrdinalRange{10, 30};  // D0 level2 (50 values)
  q.selection[1] = OrdinalRange{5, 14};   // D1 level1 (25 values)
  q.selection[2] = OrdinalRange{2, 20};   // D2 level2 (25 values)
  q.selection[3] = OrdinalRange{0, 9};    // D3 level1 (10 values) = all
  WorkCounters work;
  auto rows = engine_->ExecuteStarJoin(q, &work);
  ASSERT_TRUE(rows.ok());
  ExpectRowsEqual(*rows, Naive(q), 4);
}

TEST_F(BackendFixture, BitmapAndScanPathsAgree) {
  StarJoinQuery q;
  q.group_by = GroupBySpec{{3, 2, 0, 0}, 4};
  q.selection[0] = OrdinalRange{12, 19};  // narrow: bitmap path
  q.selection[1] = OrdinalRange{0, 49};
  q.selection[2] = OrdinalRange{0, 0};
  q.selection[3] = OrdinalRange{0, 0};
  WorkCounters w1, w2;
  auto via_bitmap = engine_->ExecuteStarJoin(q, &w1);
  ASSERT_TRUE(via_bitmap.ok());
  // Force the scan path through a second engine with scan-only options.
  BackendOptions scan_only;
  scan_only.bitmap_selectivity_threshold = -1.0;
  BackendEngine scan_engine(pool_.get(), file_.get(), scheme_.get(),
                            scan_only);
  auto via_scan = scan_engine.ExecuteStarJoin(q, &w2);
  ASSERT_TRUE(via_scan.ok());
  ExpectRowsEqual(*via_bitmap, *via_scan, 4);
  ExpectRowsEqual(*via_bitmap, Naive(q), 4);
}

TEST_F(BackendFixture, NonGroupByPredicateFiltersBeforeAggregation) {
  StarJoinQuery q;
  q.group_by = GroupBySpec{{1, 0, 0, 0}, 4};  // by D0 level 1 only
  q.selection[0] = OrdinalRange{0, 24};
  q.selection[1] = OrdinalRange{0, 0};
  q.selection[2] = OrdinalRange{0, 0};
  q.selection[3] = OrdinalRange{0, 0};
  // Restrict D2 at its level 2 (not in the group-by).
  q.non_group_by.push_back(NonGroupByPredicate{2, 2, OrdinalRange{0, 7}});
  WorkCounters work;
  auto rows = engine_->ExecuteStarJoin(q, &work);
  ASSERT_TRUE(rows.ok());
  ExpectRowsEqual(*rows, Naive(q), 4);
  // And the chunk-computation path honors it too.
  const auto& grid = scheme_->GridFor(q.group_by);
  std::vector<uint64_t> nums(grid.num_chunks());
  for (uint64_t i = 0; i < nums.size(); ++i) nums[i] = i;
  WorkCounters w2;
  auto data = engine_->ComputeChunks(q.group_by, nums, q.non_group_by, &w2);
  ASSERT_TRUE(data.ok());
  std::vector<AggTuple> all;
  for (const auto& c : *data) {
    for (size_t i = 0; i < c.cols.size(); ++i) all.push_back(c.cols.RowAt(i));
  }
  SortRows(&all, 4);
  ExpectRowsEqual(all, Naive(q), 4);
}

TEST_F(BackendFixture, ContradictoryFiltersGiveEmptyResult) {
  StarJoinQuery q = FullQuery(GroupBySpec{{1, 1, 1, 1}, 4});
  q.non_group_by.push_back(NonGroupByPredicate{0, 1, OrdinalRange{0, 3}});
  q.non_group_by.push_back(NonGroupByPredicate{0, 1, OrdinalRange{10, 12}});
  WorkCounters work;
  auto rows = engine_->ExecuteStarJoin(q, &work);
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->empty());
}

TEST_F(BackendFixture, SelectivityIsProductOfFractions) {
  StarJoinQuery q = FullQuery(GroupBySpec{{1, 1, 1, 1}, 4});
  EXPECT_NEAR(engine_->Selectivity(q), 1.0, 1e-12);
  q.selection[0] = OrdinalRange{0, 4};  // 5 of 25 level-1 members = 20%
  EXPECT_NEAR(engine_->Selectivity(q), 0.2, 1e-12);
  q.selection[2] = OrdinalRange{1, 1};  // 1 of 5 = 20%
  EXPECT_NEAR(engine_->Selectivity(q), 0.04, 1e-12);
}

TEST_F(BackendFixture, MaterializedAggregateServesCoarserChunks) {
  // Pick a mid spec dense enough to actually aggregate (1250 cells vs 20k
  // tuples), so sourcing from it is visibly cheaper than from base.
  GroupBySpec mid{{1, 0, 1, 1}, 4};
  ASSERT_TRUE(engine_->MaterializeAggregate(mid).ok());
  EXPECT_EQ(engine_->MaterializeAggregate(mid).code(),
            StatusCode::kAlreadyExists);
  GroupBySpec coarse{{1, 0, 0, 0}, 4};
  const auto& grid = scheme_->GridFor(coarse);
  std::vector<uint64_t> nums(grid.num_chunks());
  for (uint64_t i = 0; i < nums.size(); ++i) nums[i] = i;

  WorkCounters with_mat;
  auto data = engine_->ComputeChunks(coarse, nums, {}, &with_mat);
  ASSERT_TRUE(data.ok());
  std::vector<AggTuple> rows;
  for (const auto& c : *data) {
    for (size_t i = 0; i < c.cols.size(); ++i) rows.push_back(c.cols.RowAt(i));
  }
  SortRows(&rows, 4);
  ExpectRowsEqual(rows, Naive(FullQuery(coarse)), 4);

  // The materialized source must process far fewer rows than base would.
  BackendEngine base_only(pool_.get(), file_.get(), scheme_.get());
  WorkCounters from_base;
  auto data2 = base_only.ComputeChunks(coarse, nums, {}, &from_base);
  ASSERT_TRUE(data2.ok());
  EXPECT_LT(with_mat.tuples_processed, from_base.tuples_processed / 2);
}

TEST_F(BackendFixture, UnrestrictedQuerySkipsBitmaps) {
  // A full-cube query must not read any bitmap pages: the engine takes
  // the scan path (and even the restricted-dims loop skips full ranges).
  StarJoinQuery q = FullQuery(GroupBySpec{{1, 1, 1, 1}, 4});
  ASSERT_TRUE(pool_->FlushAll().ok());
  ASSERT_TRUE(pool_->EvictAll().ok());
  disk_.ResetStats();
  WorkCounters work;
  auto rows = engine_->ExecuteStarJoin(q, &work);
  ASSERT_TRUE(rows.ok());
  // Scan path: exactly the fact file's pages, no index I/O.
  EXPECT_EQ(work.pages_read, uint64_t{file_->fact_file().num_data_pages()});
  EXPECT_EQ(work.tuples_processed, kTuples);
}

TEST_F(BackendFixture, HighSelectivityFallsBackToScan) {
  // Selectivity above the threshold must take the scan path even though
  // the query is restricted: tuples_processed equals the whole table.
  StarJoinQuery q = FullQuery(GroupBySpec{{1, 1, 1, 1}, 4});
  q.selection[0] = OrdinalRange{0, 19};  // 80% of D0 level 1
  ASSERT_GT(engine_->Selectivity(q), 0.25);
  WorkCounters work;
  auto rows = engine_->ExecuteStarJoin(q, &work);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(work.tuples_processed, kTuples);  // full scan visited all

  // Just under the threshold: bitmap path touches only matching tuples.
  StarJoinQuery narrow = FullQuery(GroupBySpec{{1, 1, 1, 1}, 4});
  narrow.selection[0] = OrdinalRange{0, 3};  // 16%
  ASSERT_LT(engine_->Selectivity(narrow), 0.25);
  WorkCounters w2;
  auto rows2 = engine_->ExecuteStarJoin(narrow, &w2);
  ASSERT_TRUE(rows2.ok());
  EXPECT_LT(w2.tuples_processed, kTuples / 2);
}

TEST_F(BackendFixture, ComputeChunksEmptyListAndEmptyChunk) {
  GroupBySpec gb{{3, 2, 3, 2}, 4};  // base level: sparse -> empty chunks
  WorkCounters work;
  auto none = engine_->ComputeChunks(gb, {}, {}, &work);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
  // Find an empty chunk (base grid has far more chunks than tuples at
  // this scale) and ask for it: the result is an empty row set, not an
  // error.
  const auto& grid = scheme_->GridFor(gb);
  for (uint64_t c = 0; c < grid.num_chunks(); ++c) {
    if (!file_->ChunkRun(c).ok()) {
      auto data = engine_->ComputeChunks(gb, {c}, {}, &work);
      ASSERT_TRUE(data.ok());
      ASSERT_EQ(data->size(), 1u);
      EXPECT_TRUE((*data)[0].cols.empty());
      return;
    }
  }
  GTEST_SKIP() << "no empty base chunk at this scale";
}

TEST_F(BackendFixture, MaterializeRejectsInvalidSpec) {
  GroupBySpec bogus{{7, 1, 1, 1}, 4};  // level 7 beyond D0's depth
  EXPECT_FALSE(engine_->MaterializeAggregate(bogus).ok());
}

}  // namespace
}  // namespace chunkcache::backend
