#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "chunks/chunk_grid.h"
#include "chunks/chunk_ranges.h"
#include "chunks/chunking_scheme.h"
#include "chunks/group_by_spec.h"
#include "schema/synthetic.h"

namespace chunkcache::chunks {
namespace {

using schema::BuildPaperSchema;
using schema::BuildSyntheticDimension;
using schema::OrdinalRange;
using schema::StarSchema;

// ------------------------------ GroupBySpec ---------------------------------

TEST(GroupBySpecTest, EqualityAndHash) {
  GroupBySpec a{{1, 2, 0, 1}, 4};
  GroupBySpec b{{1, 2, 0, 1}, 4};
  GroupBySpec c{{1, 2, 0, 2}, 4};
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
  GroupBySpecHash h;
  EXPECT_EQ(h(a), h(b));
}

TEST(GroupBySpecTest, CoarserOrEqual) {
  GroupBySpec coarse{{1, 0, 2, 1}, 4};
  GroupBySpec fine{{3, 2, 2, 2}, 4};
  EXPECT_TRUE(coarse.CoarserOrEqual(fine));
  EXPECT_FALSE(fine.CoarserOrEqual(coarse));
  EXPECT_TRUE(coarse.CoarserOrEqual(coarse));
  GroupBySpec mixed{{0, 2, 3, 0}, 4};  // finer on dim1/2, coarser on dim0/3
  EXPECT_FALSE(mixed.CoarserOrEqual(coarse));
  EXPECT_FALSE(coarse.CoarserOrEqual(mixed));
}

TEST(GroupBySpecTest, ToString) {
  GroupBySpec s{{2, 0, 3, 1}, 4};
  EXPECT_EQ(s.ToString(), "(2,0,3,1)");
}

// --------------------------- DimensionChunking ------------------------------

// The Figure 5/6 scenario: a 3-level hierarchy where level 3 wants ranges of
// size 3 and levels 1-2 ranges of size 2. Uniform division would break the
// hierarchy mapping; CreateChunkRanges must realign at each level.
TEST(DimensionChunkingTest, HierarchyAlignedRanges) {
  // Hierarchy: level1 = 4 values, level2 = 8 (fanout 2), level3 = 24
  // (fanout 3).
  auto dim = BuildSyntheticDimension("A", {4, 8, 24});
  ASSERT_TRUE(dim.ok());
  ChunkRangeSizes sizes{{2, 2, 3}};
  auto dc = DimensionChunking::Build(dim->hierarchy, sizes);
  ASSERT_TRUE(dc.ok());

  // Level 1: 4 values / size 2 = 2 ranges.
  EXPECT_EQ(dc->NumRanges(1), 2u);
  EXPECT_EQ(dc->Range(1, 0), (OrdinalRange{0, 1}));
  EXPECT_EQ(dc->Range(1, 1), (OrdinalRange{2, 3}));
  // Each level-1 range maps to 4 level-2 values -> 2 ranges of size 2 each.
  EXPECT_EQ(dc->NumRanges(2), 4u);
  EXPECT_EQ(dc->ChildRangeSpan(1, 0), (OrdinalRange{0, 1}));
  EXPECT_EQ(dc->ChildRangeSpan(1, 1), (OrdinalRange{2, 3}));
  // Each level-2 range maps to 6 level-3 values -> 2 ranges of size 3.
  EXPECT_EQ(dc->NumRanges(3), 8u);
  for (uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(dc->ChildRangeSpan(2, i), (OrdinalRange{2 * i, 2 * i + 1}));
  }
}

// Paper's exact Figure 5 pathology: 12 base values under ranges of 3 whose
// parents (6 values) use ranges of 2. With naive uniform ranges, base range
// R3,1 = {3,4,5} straddles parents {1,2} -> parents' ranges would not map to
// disjoint child range sets. CreateChunkRanges subdivides per parent range
// instead, so every parent range maps to a whole number of child ranges.
TEST(DimensionChunkingTest, RangesNestWithinParentRanges) {
  auto dim = BuildSyntheticDimension("A", {3, 6, 12});
  ASSERT_TRUE(dim.ok());
  ChunkRangeSizes sizes{{2, 2, 3}};
  auto dc = DimensionChunking::Build(dim->hierarchy, sizes);
  ASSERT_TRUE(dc.ok());
  const auto& h = dim->hierarchy;
  for (uint32_t level = 1; level < h.depth(); ++level) {
    for (uint32_t i = 0; i < dc->NumRanges(level); ++i) {
      const OrdinalRange parent = dc->Range(level, i);
      const OrdinalRange span = dc->ChildRangeSpan(level, i);
      // Union of the child ranges must equal exactly the values the parent
      // range maps to in the hierarchy.
      const OrdinalRange mapped{h.ChildRange(level, parent.begin).begin,
                                h.ChildRange(level, parent.end).end};
      EXPECT_EQ(dc->Range(level + 1, span.begin).begin, mapped.begin);
      EXPECT_EQ(dc->Range(level + 1, span.end).end, mapped.end);
      // And consecutive child ranges must tile it without gaps.
      for (uint32_t j = span.begin; j < span.end; ++j) {
        EXPECT_EQ(dc->Range(level + 1, j).end + 1,
                  dc->Range(level + 1, j + 1).begin);
      }
    }
  }
}

TEST(DimensionChunkingTest, RangesPartitionEveryLevel) {
  auto schema = BuildPaperSchema();
  ASSERT_TRUE(schema.ok());
  for (uint32_t d = 0; d < schema->num_dims(); ++d) {
    const auto& h = schema->dimension(d).hierarchy;
    ChunkRangeSizes sizes;
    for (uint32_t l = 1; l <= h.depth(); ++l) {
      sizes.per_level.push_back(std::max(1u, h.LevelCardinality(l) / 10));
    }
    auto dc = DimensionChunking::Build(h, sizes);
    ASSERT_TRUE(dc.ok());
    for (uint32_t l = 1; l <= h.depth(); ++l) {
      uint32_t next = 0;
      for (uint32_t i = 0; i < dc->NumRanges(l); ++i) {
        const OrdinalRange r = dc->Range(l, i);
        EXPECT_EQ(r.begin, next);
        next = r.end + 1;
        // range_of_value agrees with the ranges.
        for (uint32_t v = r.begin; v <= r.end; ++v) {
          EXPECT_EQ(dc->RangeOfValue(l, v), i);
        }
      }
      EXPECT_EQ(next, h.LevelCardinality(l));
    }
  }
}

TEST(DimensionChunkingTest, SpanAtLevelComposes) {
  auto dim = BuildSyntheticDimension("A", {4, 8, 24});
  ASSERT_TRUE(dim.ok());
  ChunkRangeSizes sizes{{2, 2, 3}};
  auto dc = DimensionChunking::Build(dim->hierarchy, sizes);
  ASSERT_TRUE(dc.ok());
  // Level-1 range 0 -> level-2 ranges {0,1} -> level-3 ranges {0..3}.
  EXPECT_EQ(dc->SpanAtLevel(1, 0, 2), (OrdinalRange{0, 1}));
  EXPECT_EQ(dc->SpanAtLevel(1, 0, 3), (OrdinalRange{0, 3}));
  EXPECT_EQ(dc->SpanAtLevel(1, 1, 3), (OrdinalRange{4, 7}));
  EXPECT_EQ(dc->SpanAtLevel(2, 3, 3), (OrdinalRange{6, 7}));
  EXPECT_EQ(dc->SpanAtLevel(3, 5, 3), (OrdinalRange{5, 5}));  // identity
  // From ALL: whole base.
  EXPECT_EQ(dc->SpanAtLevel(0, 0, 3), (OrdinalRange{0, 7}));
}

TEST(DimensionChunkingTest, RangeSizeOneAndFullLevel) {
  auto dim = BuildSyntheticDimension("A", {4, 8});
  ASSERT_TRUE(dim.ok());
  {
    ChunkRangeSizes sizes{{1, 1}};  // every value its own range
    auto dc = DimensionChunking::Build(dim->hierarchy, sizes);
    ASSERT_TRUE(dc.ok());
    EXPECT_EQ(dc->NumRanges(1), 4u);
    EXPECT_EQ(dc->NumRanges(2), 8u);
  }
  {
    ChunkRangeSizes sizes{{4, 8}};  // one range per parent mapping
    auto dc = DimensionChunking::Build(dim->hierarchy, sizes);
    ASSERT_TRUE(dc.ok());
    EXPECT_EQ(dc->NumRanges(1), 1u);
    EXPECT_EQ(dc->NumRanges(2), 1u);
  }
  {
    ChunkRangeSizes sizes{{100, 100}};  // oversize clamps to the level
    auto dc = DimensionChunking::Build(dim->hierarchy, sizes);
    ASSERT_TRUE(dc.ok());
    EXPECT_EQ(dc->NumRanges(1), 1u);
    EXPECT_EQ(dc->NumRanges(2), 1u);
  }
}

TEST(DimensionChunkingTest, RejectsWrongSizeCount) {
  auto dim = BuildSyntheticDimension("A", {4, 8});
  ASSERT_TRUE(dim.ok());
  ChunkRangeSizes sizes{{2}};
  EXPECT_FALSE(DimensionChunking::Build(dim->hierarchy, sizes).ok());
}

// -------------------------------- ChunkGrid ---------------------------------

TEST(ChunkGridTest, Figure8Numbering) {
  // Figure 8: 2-d grid; with row-major numbering (0,0)->0 and (1,2)->6 when
  // the second dimension has 4 ranges.
  GroupBySpec spec{{1, 1}, 2};
  ChunkGrid grid(spec, {3, 4});
  EXPECT_EQ(grid.num_chunks(), 12u);
  EXPECT_EQ(grid.GetChunkNum({0, 0}), 0u);
  EXPECT_EQ(grid.GetChunkNum({1, 2}), 6u);
  EXPECT_EQ(grid.GetChunkNum({2, 3}), 11u);
  for (uint64_t n = 0; n < grid.num_chunks(); ++n) {
    EXPECT_EQ(grid.GetChunkNum(grid.DecodeChunkNum(n)), n);
  }
}

TEST(ChunkGridTest, BoxEnumeratesCrossProduct) {
  GroupBySpec spec{{1, 1}, 2};
  ChunkGrid grid(spec, {4, 5});
  ChunkBox box;
  box.num_dims = 2;
  box.spans[0] = OrdinalRange{1, 2};
  box.spans[1] = OrdinalRange{3, 4};
  EXPECT_EQ(box.NumChunks(), 4u);
  std::set<uint64_t> nums;
  box.ForEach(grid, [&](uint64_t num, const ChunkCoords& c) {
    EXPECT_GE(c[0], 1u);
    EXPECT_LE(c[0], 2u);
    EXPECT_GE(c[1], 3u);
    EXPECT_LE(c[1], 4u);
    nums.insert(num);
  });
  EXPECT_EQ(nums, (std::set<uint64_t>{8, 9, 13, 14}));
}

TEST(ChunkGridTest, SingleChunkBox) {
  GroupBySpec spec{{1}, 1};
  ChunkGrid grid(spec, {7});
  ChunkBox box;
  box.num_dims = 1;
  box.spans[0] = OrdinalRange{3, 3};
  int count = 0;
  box.ForEach(grid, [&](uint64_t num, const ChunkCoords&) {
    EXPECT_EQ(num, 3u);
    ++count;
  });
  EXPECT_EQ(count, 1);
}

// ------------------------------ ChunkingScheme ------------------------------

// ChunkingScheme keeps a pointer to the schema, so the fixture gives the
// schema a stable heap location before building the scheme.
class ChunkingSchemeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto s = BuildPaperSchema();
    ASSERT_TRUE(s.ok());
    schema_ = std::make_unique<StarSchema>(std::move(s).value());
    ChunkingOptions opts;
    opts.range_fraction = 0.1;
    auto scheme = ChunkingScheme::Build(schema_.get(), opts, 500000);
    ASSERT_TRUE(scheme.ok());
    scheme_ = std::make_unique<ChunkingScheme>(std::move(scheme).value());
  }

  std::unique_ptr<StarSchema> schema_;
  std::unique_ptr<ChunkingScheme> scheme_;
};

TEST_F(ChunkingSchemeTest, GroupByIdRoundTrips) {
  const uint32_t n = scheme_->NumGroupByIds();
  EXPECT_EQ(n, 144u);
  std::set<uint32_t> ids;
  for (uint32_t id = 0; id < n; ++id) {
    const GroupBySpec spec = scheme_->SpecOfId(id);
    EXPECT_EQ(scheme_->GroupById(spec), id);
    ids.insert(id);
  }
  EXPECT_EQ(ids.size(), n);
}

TEST_F(ChunkingSchemeTest, BaseSpecIsFinest) {
  const GroupBySpec base = scheme_->BaseSpec();
  EXPECT_EQ(base.levels[0], 3);
  EXPECT_EQ(base.levels[1], 2);
  EXPECT_EQ(base.levels[2], 3);
  EXPECT_EQ(base.levels[3], 2);
  for (uint32_t id = 0; id < scheme_->NumGroupByIds(); ++id) {
    EXPECT_TRUE(scheme_->SpecOfId(id).CoarserOrEqual(base));
  }
}

TEST_F(ChunkingSchemeTest, GridIsStableAndCounts) {
  const GroupBySpec base = scheme_->BaseSpec();
  const ChunkGrid g1 = scheme_->GridFor(base);
  const ChunkGrid g2 = scheme_->GridFor(base);
  EXPECT_TRUE(g1 == g2);  // rebuilt per call, always the same grid
  EXPECT_FALSE(g1 == scheme_->GridFor(GroupBySpec{{2, 1, 0, 2}, 4}));
  // The grid's chunk count is the product of per-dimension range counts.
  // With fraction 0.1 the desired count is 10 ranges per dimension, but
  // hierarchy alignment may fragment ranges (Figure 6: "the desired chunk
  // range may not match the actual chunk range"), so the actual count is at
  // least the desired one.
  uint64_t product = 1;
  for (uint32_t d = 0; d < 4; ++d) {
    const uint32_t n =
        scheme_->dim_chunking(d).NumRanges(base.levels[d]);
    EXPECT_GE(n, 10u);
    EXPECT_EQ(g1.NumRangesOnDim(d), n);
    product *= n;
  }
  EXPECT_EQ(g1.num_chunks(), product);
}

TEST_F(ChunkingSchemeTest, StrictlyFinerIdsIsTheLatticeInIdOrder) {
  const uint32_t n = scheme_->NumGroupByIds();
  for (uint32_t id = 0; id < n; ++id) {
    const GroupBySpec spec = scheme_->SpecOfId(id);
    const std::vector<uint32_t>& finer = scheme_->StrictlyFinerIds(id);
    EXPECT_TRUE(std::is_sorted(finer.begin(), finer.end())) << "id " << id;
    for (uint32_t fine : finer) {
      EXPECT_NE(fine, id);
      EXPECT_TRUE(spec.CoarserOrEqual(scheme_->SpecOfId(fine))) << fine;
    }
    // Every dimension independently picks a level at or below the target's.
    uint64_t count = 1;
    for (uint32_t d = 0; d < 4; ++d) {
      count *= schema_->dimension(d).hierarchy.depth() + 1 - spec.levels[d];
    }
    EXPECT_EQ(finer.size(), count - 1) << "id " << id;
  }
}

TEST_F(ChunkingSchemeTest, BoxForSelectionCoversSelection) {
  GroupBySpec spec{{2, 1, 0, 2}, 4};  // D0@L2, D1@L1, D2@ALL, D3@L2
  std::array<OrdinalRange, storage::kMaxDims> sel{};
  sel[0] = OrdinalRange{7, 22};   // D0 level2 has 50 values
  sel[1] = OrdinalRange{3, 3};    // D1 level1 has 25 values
  sel[2] = OrdinalRange{0, 0};    // ALL
  sel[3] = OrdinalRange{10, 49};  // D3 level2 has 50 values
  const ChunkBox box = scheme_->BoxForSelection(spec, sel);
  const ChunkGrid& grid = scheme_->GridFor(spec);
  // Every selected cell's chunk is inside the box.
  for (uint32_t v0 = sel[0].begin; v0 <= sel[0].end; ++v0) {
    const uint32_t r0 = scheme_->dim_chunking(0).RangeOfValue(2, v0);
    EXPECT_TRUE(box.spans[0].Contains(r0));
  }
  // And each box chunk intersects the selection on every dimension.
  box.ForEach(grid, [&](uint64_t num, const ChunkCoords&) {
    auto extent = scheme_->ChunkExtent(spec, num);
    for (uint32_t d = 0; d < 4; ++d) {
      EXPECT_LE(extent[d].begin, sel[d].end);
      EXPECT_GE(extent[d].end, sel[d].begin);
    }
  });
}

TEST_F(ChunkingSchemeTest, ChunkExtentTilesTheGrid) {
  GroupBySpec spec{{1, 1, 1, 1}, 4};
  const ChunkGrid& grid = scheme_->GridFor(spec);
  // Sum of extent volumes = product of level cardinalities.
  uint64_t cells = 0;
  for (uint64_t n = 0; n < grid.num_chunks(); ++n) {
    auto extent = scheme_->ChunkExtent(spec, n);
    uint64_t vol = 1;
    for (uint32_t d = 0; d < 4; ++d) vol *= extent[d].size();
    cells += vol;
  }
  EXPECT_EQ(cells, 25ull * 25 * 5 * 10);
}

TEST_F(ChunkingSchemeTest, SourceBoxClosureProperty) {
  // Figure 3's closure: a chunk of (Time) is computable from the chunks of
  // (Product, Time) its box names. Verify: base cells covered by the target
  // chunk == union of base cells covered by its source chunks.
  const GroupBySpec coarse{{1, 0, 2, 1}, 4};
  const GroupBySpec fine = scheme_->BaseSpec();
  const ChunkGrid& cgrid = scheme_->GridFor(coarse);
  for (uint64_t n = 0; n < cgrid.num_chunks(); ++n) {
    auto box = scheme_->SourceBox(coarse, n, fine);
    ASSERT_TRUE(box.ok());
    // Base extent of the target chunk on each dimension.
    auto target_extent = scheme_->ChunkExtent(coarse, n);
    for (uint32_t d = 0; d < 4; ++d) {
      const auto& h = schema_->dimension(d).hierarchy;
      const OrdinalRange base_target =
          h.BaseRangeOf(coarse.levels[d], target_extent[d]);
      // Union of source chunk extents on dimension d.
      const auto& dc = scheme_->dim_chunking(d);
      const OrdinalRange first =
          dc.Range(fine.levels[d], box->spans[d].begin);
      const OrdinalRange last = dc.Range(fine.levels[d], box->spans[d].end);
      const OrdinalRange base_src =
          h.BaseRangeOf(fine.levels[d], OrdinalRange{first.begin, last.end});
      EXPECT_EQ(base_src, base_target)
          << "chunk " << n << " dim " << d;
    }
  }
}

TEST_F(ChunkingSchemeTest, SourceBoxIdentityWhenSameSpec) {
  const GroupBySpec spec{{2, 1, 1, 1}, 4};
  auto box = scheme_->SourceBox(spec, 5, spec);
  ASSERT_TRUE(box.ok());
  EXPECT_EQ(box->NumChunks(), 1u);
  const ChunkGrid& grid = scheme_->GridFor(spec);
  box->ForEach(grid, [&](uint64_t num, const ChunkCoords&) {
    EXPECT_EQ(num, 5u);
  });
}

TEST_F(ChunkingSchemeTest, SourceBoxRejectsFinerTarget) {
  const GroupBySpec coarse{{1, 1, 1, 1}, 4};
  const GroupBySpec fine = scheme_->BaseSpec();
  EXPECT_FALSE(scheme_->SourceBox(fine, 0, coarse).ok());
  EXPECT_EQ(scheme_->SourceBox(coarse, 1 << 20, fine).status().code(),
            StatusCode::kOutOfRange);
}

TEST_F(ChunkingSchemeTest, ChunkOfCellConsistentWithExtent) {
  const GroupBySpec spec{{2, 2, 2, 1}, 4};
  ChunkCoords cell{};
  cell[0] = 17;
  cell[1] = 42;
  cell[2] = 8;
  cell[3] = 9;
  const uint64_t num = scheme_->ChunkOfCell(spec, cell);
  auto extent = scheme_->ChunkExtent(spec, num);
  for (uint32_t d = 0; d < 4; ++d) {
    EXPECT_TRUE(extent[d].Contains(cell[d]));
  }
}

TEST_F(ChunkingSchemeTest, BenefitScalesWithAggregation) {
  // Higher aggregation -> fewer chunks -> larger per-chunk benefit
  // (Section 5.4: benefit = |base table| / #chunks).
  const GroupBySpec base = scheme_->BaseSpec();
  const GroupBySpec coarse{{1, 0, 0, 0}, 4};
  EXPECT_GT(scheme_->ChunkBenefit(coarse), scheme_->ChunkBenefit(base));
  const ChunkGrid& grid = scheme_->GridFor(base);
  EXPECT_DOUBLE_EQ(scheme_->ChunkBenefit(base),
                   500000.0 / grid.num_chunks());
}

TEST(ChunkingSchemeBuildTest, ValidatesOptions) {
  auto s = BuildPaperSchema();
  ASSERT_TRUE(s.ok());
  StarSchema schema = std::move(s).value();
  ChunkingOptions opts;
  opts.range_fraction = 0.0;
  EXPECT_FALSE(ChunkingScheme::Build(&schema, opts, 1000).ok());
  opts.range_fraction = 1.5;
  EXPECT_FALSE(ChunkingScheme::Build(&schema, opts, 1000).ok());
  opts.range_fraction = 0.5;
  opts.explicit_sizes.resize(2);  // wrong dimension count
  EXPECT_FALSE(ChunkingScheme::Build(&schema, opts, 1000).ok());
  EXPECT_FALSE(ChunkingScheme::Build(nullptr, ChunkingOptions{}, 1000).ok());
}

TEST(ChunkingSchemeBuildTest, ExplicitSizesHonored) {
  auto s = BuildPaperSchema();
  ASSERT_TRUE(s.ok());
  StarSchema schema = std::move(s).value();
  ChunkingOptions opts;
  opts.explicit_sizes = {
      ChunkRangeSizes{{5, 10, 20}},
      ChunkRangeSizes{{5, 10}},
      ChunkRangeSizes{{1, 5, 10}},
      ChunkRangeSizes{{2, 10}},
  };
  auto scheme = ChunkingScheme::Build(&schema, opts, 1000);
  ASSERT_TRUE(scheme.ok());
  EXPECT_EQ(scheme->dim_chunking(0).NumRanges(1), 5u);  // 25 values / size 5
  EXPECT_EQ(scheme->dim_chunking(2).NumRanges(1), 5u);  // 5 values / size 1
  // D3: 5 level-1 ranges; each maps to 10 level-2 values, divided by size
  // 10 -> one range apiece.
  EXPECT_EQ(scheme->dim_chunking(3).NumRanges(2), 5u);
}

}  // namespace
}  // namespace chunkcache::chunks
