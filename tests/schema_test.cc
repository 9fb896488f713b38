#include <gtest/gtest.h>

#include <numeric>

#include "schema/hierarchy.h"
#include "schema/star_schema.h"
#include "schema/synthetic.h"

namespace chunkcache::schema {
namespace {

// Small hand-built hierarchy:
//   level 1 (state):  WI, IL
//   level 2 (city):   Madison, Milwaukee | Chicago
//   level 3 (store):  M1, M2 | Mke1 | Chi1, Chi2, Chi3
Hierarchy MakeStoreHierarchy() {
  HierarchyBuilder b;
  b.AddLevel("state");
  EXPECT_TRUE(b.AddMember("WI").ok());
  EXPECT_TRUE(b.AddMember("IL").ok());
  b.AddLevel("city");
  EXPECT_TRUE(b.AddMember("Madison", 0).ok());
  EXPECT_TRUE(b.AddMember("Milwaukee", 0).ok());
  EXPECT_TRUE(b.AddMember("Chicago", 1).ok());
  b.AddLevel("store");
  EXPECT_TRUE(b.AddMember("M1", 0).ok());
  EXPECT_TRUE(b.AddMember("M2", 0).ok());
  EXPECT_TRUE(b.AddMember("Mke1", 1).ok());
  EXPECT_TRUE(b.AddMember("Chi1", 2).ok());
  EXPECT_TRUE(b.AddMember("Chi2", 2).ok());
  EXPECT_TRUE(b.AddMember("Chi3", 2).ok());
  auto h = b.Build();
  EXPECT_TRUE(h.ok());
  return std::move(h).value();
}

TEST(HierarchyTest, LevelsAndCardinalities) {
  Hierarchy h = MakeStoreHierarchy();
  EXPECT_EQ(h.depth(), 3u);
  EXPECT_EQ(h.LevelCardinality(0), 1u);  // ALL
  EXPECT_EQ(h.LevelCardinality(1), 2u);
  EXPECT_EQ(h.LevelCardinality(2), 3u);
  EXPECT_EQ(h.LevelCardinality(3), 6u);
  EXPECT_EQ(h.LevelName(0), "ALL");
  EXPECT_EQ(h.LevelName(2), "city");
}

TEST(HierarchyTest, MemberNamesAndOrdinals) {
  Hierarchy h = MakeStoreHierarchy();
  EXPECT_EQ(h.MemberName(1, 1), "IL");
  EXPECT_EQ(h.MemberName(3, 2), "Mke1");
  auto ord = h.OrdinalOf(2, "Chicago");
  ASSERT_TRUE(ord.ok());
  EXPECT_EQ(*ord, 2u);
  EXPECT_EQ(h.OrdinalOf(2, "Paris").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(h.OrdinalOf(9, "x").status().code(),
            StatusCode::kInvalidArgument);
  auto all = h.OrdinalOf(0, "anything");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(*all, 0u);
}

TEST(HierarchyTest, ParentAndChildRanges) {
  Hierarchy h = MakeStoreHierarchy();
  EXPECT_EQ(h.ParentOf(2, 0), 0u);  // Madison -> WI
  EXPECT_EQ(h.ParentOf(2, 2), 1u);  // Chicago -> IL
  EXPECT_EQ(h.ParentOf(3, 5), 2u);  // Chi3 -> Chicago
  EXPECT_EQ(h.ParentOf(1, 1), 0u);  // IL -> ALL

  EXPECT_EQ(h.ChildRange(1, 0), (OrdinalRange{0, 1}));  // WI -> Madison,Mke
  EXPECT_EQ(h.ChildRange(2, 2), (OrdinalRange{3, 5}));  // Chicago -> Chi1..3
  EXPECT_EQ(h.ChildRange(0, 0), (OrdinalRange{0, 1}));  // ALL -> states
}

TEST(HierarchyTest, AncestorAt) {
  Hierarchy h = MakeStoreHierarchy();
  EXPECT_EQ(h.AncestorAt(3, 4, 2), 2u);  // Chi2 -> Chicago
  EXPECT_EQ(h.AncestorAt(3, 4, 1), 1u);  // Chi2 -> IL
  EXPECT_EQ(h.AncestorAt(3, 2, 1), 0u);  // Mke1 -> WI
  EXPECT_EQ(h.AncestorAt(3, 4, 0), 0u);  // anything -> ALL
  EXPECT_EQ(h.AncestorAt(2, 1, 2), 1u);  // identity
  EXPECT_EQ(h.AncestorAt(2, 2, 1), 1u);  // Chicago -> IL (non-base walk)
}

TEST(HierarchyTest, BaseRanges) {
  Hierarchy h = MakeStoreHierarchy();
  EXPECT_EQ(h.BaseRange(1, 0), (OrdinalRange{0, 2}));  // WI's stores
  EXPECT_EQ(h.BaseRange(1, 1), (OrdinalRange{3, 5}));  // IL's stores
  EXPECT_EQ(h.BaseRange(2, 1), (OrdinalRange{2, 2}));  // Milwaukee
  EXPECT_EQ(h.BaseRange(3, 4), (OrdinalRange{4, 4}));  // identity at base
  EXPECT_EQ(h.BaseRange(0, 0), (OrdinalRange{0, 5}));  // ALL
  // Range of members maps to the contiguous union of their base ranges.
  EXPECT_EQ(h.BaseRangeOf(2, OrdinalRange{1, 2}), (OrdinalRange{2, 5}));
}

TEST(HierarchyBuilderTest, RejectsOutOfOrderParents) {
  HierarchyBuilder b;
  b.AddLevel("top");
  ASSERT_TRUE(b.AddMember("a").ok());
  ASSERT_TRUE(b.AddMember("b").ok());
  b.AddLevel("bottom");
  ASSERT_TRUE(b.AddMember("b1", 1).ok());
  auto bad = b.AddMember("a1", 0);  // parent order violated
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(HierarchyBuilderTest, RejectsDuplicatesBadParentsChildless) {
  {
    HierarchyBuilder b;
    b.AddLevel("l");
    ASSERT_TRUE(b.AddMember("x").ok());
    EXPECT_EQ(b.AddMember("x").status().code(), StatusCode::kAlreadyExists);
  }
  {
    HierarchyBuilder b;
    b.AddLevel("l1");
    ASSERT_TRUE(b.AddMember("x").ok());
    b.AddLevel("l2");
    EXPECT_EQ(b.AddMember("y", 5).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    // A parent with no children must be rejected at Build.
    HierarchyBuilder b;
    b.AddLevel("l1");
    ASSERT_TRUE(b.AddMember("p0").ok());
    ASSERT_TRUE(b.AddMember("p1").ok());
    b.AddLevel("l2");
    ASSERT_TRUE(b.AddMember("c0", 0).ok());  // p1 childless
    EXPECT_EQ(b.Build().status().code(), StatusCode::kInvalidArgument);
  }
  {
    HierarchyBuilder b;
    EXPECT_FALSE(b.Build().ok());  // no levels
  }
}

// ------------------------------ Synthetic ------------------------------------

TEST(SyntheticTest, PaperSchemaMatchesTable1) {
  auto schema = BuildPaperSchema();
  ASSERT_TRUE(schema.ok());
  ASSERT_EQ(schema->num_dims(), 4u);
  const uint32_t expected[4][3] = {
      {25, 50, 100}, {25, 50, 0}, {5, 25, 50}, {10, 50, 0}};
  const uint32_t depths[4] = {3, 2, 3, 2};
  for (uint32_t d = 0; d < 4; ++d) {
    const auto& h = schema->dimension(d).hierarchy;
    ASSERT_EQ(h.depth(), depths[d]) << "dim " << d;
    for (uint32_t l = 1; l <= depths[d]; ++l) {
      EXPECT_EQ(h.LevelCardinality(l), expected[d][l - 1])
          << "dim " << d << " level " << l;
    }
  }
}

TEST(SyntheticTest, HierarchicalClusteringHolds) {
  auto schema = BuildPaperSchema();
  ASSERT_TRUE(schema.ok());
  for (uint32_t d = 0; d < schema->num_dims(); ++d) {
    const auto& h = schema->dimension(d).hierarchy;
    for (uint32_t l = 2; l <= h.depth(); ++l) {
      uint32_t prev_parent = 0;
      for (uint32_t v = 0; v < h.LevelCardinality(l); ++v) {
        const uint32_t p = h.ParentOf(l, v);
        EXPECT_GE(p, prev_parent);
        prev_parent = p;
      }
    }
  }
}

TEST(SyntheticTest, ChildRangesPartitionEachLevel) {
  auto schema = BuildPaperSchema();
  ASSERT_TRUE(schema.ok());
  for (uint32_t d = 0; d < schema->num_dims(); ++d) {
    const auto& h = schema->dimension(d).hierarchy;
    for (uint32_t l = 1; l < h.depth(); ++l) {
      uint32_t next = 0;
      for (uint32_t v = 0; v < h.LevelCardinality(l); ++v) {
        const OrdinalRange r = h.ChildRange(l, v);
        EXPECT_EQ(r.begin, next);
        EXPECT_GE(r.end, r.begin);
        next = r.end + 1;
      }
      EXPECT_EQ(next, h.LevelCardinality(l + 1));
    }
  }
}

TEST(SyntheticTest, UnevenFanoutDistributesRemainder) {
  // 3 parents, 7 children: fanouts must be 3,2,2.
  auto dim = BuildSyntheticDimension("X", {3, 7});
  ASSERT_TRUE(dim.ok());
  const auto& h = dim->hierarchy;
  EXPECT_EQ(h.ChildRange(1, 0).size(), 3u);
  EXPECT_EQ(h.ChildRange(1, 1).size(), 2u);
  EXPECT_EQ(h.ChildRange(1, 2).size(), 2u);
}

TEST(SyntheticTest, RejectsBadSpecs) {
  EXPECT_FALSE(BuildSyntheticDimension("X", {}).ok());
  EXPECT_FALSE(BuildSyntheticDimension("X", {10, 5}).ok());
}

TEST(SyntheticTest, FactTuplesInDomainAndDeterministic) {
  auto schema = BuildPaperSchema();
  ASSERT_TRUE(schema.ok());
  FactGenOptions opts;
  opts.num_tuples = 5000;
  opts.seed = 9;
  auto a = GenerateFactTuples(*schema, opts);
  auto b = GenerateFactTuples(*schema, opts);
  ASSERT_EQ(a.size(), 5000u);
  const uint32_t base_cards[4] = {100, 50, 50, 50};
  for (size_t i = 0; i < a.size(); ++i) {
    for (uint32_t d = 0; d < 4; ++d) {
      EXPECT_LT(a[i].keys[d], base_cards[d]);
      EXPECT_EQ(a[i].keys[d], b[i].keys[d]);
    }
    EXPECT_GE(a[i].measure, 0.0);
    EXPECT_LT(a[i].measure, 100.0);
  }
}

TEST(SyntheticTest, ZipfSkewsDistribution) {
  auto schema = BuildPaperSchema();
  ASSERT_TRUE(schema.ok());
  FactGenOptions opts;
  opts.num_tuples = 20000;
  opts.zipf_theta = 1.0;
  auto tuples = GenerateFactTuples(*schema, opts);
  std::vector<uint32_t> counts(100, 0);
  for (const auto& t : tuples) counts[t.keys[0]]++;
  // Under Zipf(1) the most popular value dwarfs the least popular.
  EXPECT_GT(counts[0], counts[99] * 5);
}

TEST(StarSchemaTest, DimensionLookup) {
  auto schema = BuildPaperSchema();
  ASSERT_TRUE(schema.ok());
  auto idx = schema->DimensionIndex("D2");
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(*idx, 2u);
  EXPECT_EQ(schema->DimensionIndex("D9").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(schema->tuple_desc().num_dims, 4u);
  EXPECT_EQ(schema->fact_name(), "Sales");
  EXPECT_EQ(schema->measure_name(), "dollar_sales");
}

}  // namespace
}  // namespace chunkcache::schema
