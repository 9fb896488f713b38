#include <gtest/gtest.h>

#include <memory>

#include "common/random.h"
#include "schema/synthetic.h"
#include "sql/parser.h"

namespace chunkcache::sql {
namespace {

using backend::StarJoinQuery;
using schema::OrdinalRange;

class SqlFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    auto s = schema::BuildPaperSchema();
    ASSERT_TRUE(s.ok());
    schema_ = std::make_unique<schema::StarSchema>(std::move(s).value());
    parser_ = std::make_unique<SqlParser>(schema_.get());
  }

  std::unique_ptr<schema::StarSchema> schema_;
  std::unique_ptr<SqlParser> parser_;
};

TEST_F(SqlFixture, ParsesBasicStarJoin) {
  auto q = parser_->Parse(
      "SELECT D0.L2, D2.L1, SUM(dollar_sales) "
      "FROM Sales, D0, D2 "
      "WHERE D0.L2 BETWEEN 'D0.2.7' AND 'D0.2.33' AND D2.L1 = 'D2.1.3' "
      "GROUP BY D0.L2, D2.L1");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->group_by.levels[0], 2);
  EXPECT_EQ(q->group_by.levels[1], 0);
  EXPECT_EQ(q->group_by.levels[2], 1);
  EXPECT_EQ(q->group_by.levels[3], 0);
  EXPECT_EQ(q->selection[0], (OrdinalRange{7, 33}));
  EXPECT_EQ(q->selection[2], (OrdinalRange{3, 3}));
  EXPECT_EQ(q->selection[1], (OrdinalRange{0, 0}));  // aggregated away
  EXPECT_TRUE(q->non_group_by.empty());
}

TEST_F(SqlFixture, DefaultSelectionIsFullLevel) {
  auto q = parser_->Parse(
      "SELECT D1.L1, SUM(dollar_sales) FROM Sales, D1 GROUP BY D1.L1");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->selection[1], (OrdinalRange{0, 24}));
}

TEST_F(SqlFixture, ComparisonOperatorsIntersect) {
  auto q = parser_->Parse(
      "SELECT D0.L3, SUM(dollar_sales) FROM Sales, D0 "
      "WHERE D0.L3 >= 'D0.3.10' AND D0.L3 <= 'D0.3.40' "
      "AND D0.L3 > 'D0.3.11' AND D0.L3 < 'D0.3.39' "
      "GROUP BY D0.L3");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->selection[0], (OrdinalRange{12, 38}));
}

TEST_F(SqlFixture, NonGroupByPredicateRecognized) {
  // Selection on D0's level 1 while grouping on its level 2: a predicate
  // on a non-group-by attribute.
  auto q = parser_->Parse(
      "SELECT D0.L2, SUM(dollar_sales) FROM Sales, D0 "
      "WHERE D0.L1 = 'D0.1.4' GROUP BY D0.L2");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->non_group_by.size(), 1u);
  EXPECT_EQ(q->non_group_by[0].dim, 0u);
  EXPECT_EQ(q->non_group_by[0].level, 1u);
  EXPECT_EQ(q->non_group_by[0].range, (OrdinalRange{4, 4}));
  // Group-by selection defaults to full.
  EXPECT_EQ(q->selection[0], (OrdinalRange{0, 49}));
}

TEST_F(SqlFixture, CountStarAccepted) {
  auto q = parser_->Parse(
      "SELECT D3.L2, COUNT(*) FROM Sales, D3 GROUP BY D3.L2");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->group_by.levels[3], 2);
}

TEST_F(SqlFixture, AllAggregateFunctionsAccepted) {
  for (const char* agg :
       {"SUM(dollar_sales)", "MIN(dollar_sales)", "MAX(dollar_sales)",
        "AVG(dollar_sales)", "COUNT(*)", "COUNT(dollar_sales)"}) {
    const std::string text = std::string("SELECT D1.L1, ") + agg +
                             " FROM Sales, D1 GROUP BY D1.L1";
    auto q = parser_->Parse(text);
    EXPECT_TRUE(q.ok()) << text << " -> " << q.status().ToString();
  }
  // Several aggregates in one query.
  auto q = parser_->Parse(
      "SELECT D1.L1, SUM(dollar_sales), MIN(dollar_sales), "
      "MAX(dollar_sales), COUNT(*) FROM Sales, D1 GROUP BY D1.L1");
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  // Wrong argument still rejected.
  EXPECT_FALSE(parser_
                   ->Parse("SELECT D1.L1, MIN(profit) FROM Sales, D1 "
                           "GROUP BY D1.L1")
                   .ok());
}

TEST_F(SqlFixture, CaseInsensitiveKeywords) {
  auto q = parser_->Parse(
      "select D1.L1, sum(dollar_sales) from Sales, D1 "
      "where D1.L1 between 'D1.1.2' and 'D1.1.9' group by D1.L1");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->selection[1], (OrdinalRange{2, 9}));
}

TEST_F(SqlFixture, ErrorsAreDescriptive) {
  struct Case {
    const char* sql;
    StatusCode code;
  };
  const Case cases[] = {
      // Missing aggregate.
      {"SELECT D0.L1 FROM Sales, D0 GROUP BY D0.L1",
       StatusCode::kInvalidArgument},
      // Unknown dimension.
      {"SELECT D9.L1, SUM(dollar_sales) FROM Sales GROUP BY D9.L1",
       StatusCode::kNotFound},
      // Unknown level.
      {"SELECT D0.L9, SUM(dollar_sales) FROM Sales, D0 GROUP BY D0.L9",
       StatusCode::kNotFound},
      // Unknown member.
      {"SELECT D0.L1, SUM(dollar_sales) FROM Sales, D0 "
       "WHERE D0.L1 = 'nope' GROUP BY D0.L1",
       StatusCode::kNotFound},
      // Select item missing from GROUP BY.
      {"SELECT D0.L1, D1.L1, SUM(dollar_sales) FROM Sales, D0, D1 "
       "GROUP BY D0.L1",
       StatusCode::kInvalidArgument},
      // Wrong measure.
      {"SELECT D0.L1, SUM(profit) FROM Sales, D0 GROUP BY D0.L1",
       StatusCode::kInvalidArgument},
      // Missing fact table.
      {"SELECT D0.L1, SUM(dollar_sales) FROM D0 GROUP BY D0.L1",
       StatusCode::kInvalidArgument},
      // Empty range.
      {"SELECT D0.L1, SUM(dollar_sales) FROM Sales, D0 "
       "WHERE D0.L1 >= 'D0.1.9' AND D0.L1 <= 'D0.1.3' GROUP BY D0.L1",
       StatusCode::kInvalidArgument},
      // Unterminated string.
      {"SELECT D0.L1, SUM(dollar_sales) FROM Sales, D0 "
       "WHERE D0.L1 = 'D0.1.3 GROUP BY D0.L1",
       StatusCode::kInvalidArgument},
      // Grouping one dimension at two levels.
      {"SELECT D0.L1, D0.L2, SUM(dollar_sales) FROM Sales, D0 "
       "GROUP BY D0.L1, D0.L2",
       StatusCode::kInvalidArgument},
      // Trailing garbage.
      {"SELECT D0.L1, SUM(dollar_sales) FROM Sales, D0 GROUP BY D0.L1 xyz .",
       StatusCode::kInvalidArgument},
      // IN-list: the template selects one range per attribute.
      {"SELECT D0.L1, SUM(dollar_sales) FROM Sales, D0 "
       "WHERE D0.L1 IN ('D0.1.1', 'D0.1.3') GROUP BY D0.L1",
       StatusCode::kInvalidArgument},
  };
  for (const Case& c : cases) {
    auto q = parser_->Parse(c.sql);
    EXPECT_FALSE(q.ok()) << c.sql;
    EXPECT_EQ(q.status().code(), c.code) << c.sql << " -> "
                                         << q.status().ToString();
  }
}

TEST_F(SqlFixture, RoundTripsThroughToSql) {
  const char* original =
      "SELECT D0.L2, D2.L1, SUM(dollar_sales) FROM Sales, D0, D2 "
      "WHERE D0.L2 BETWEEN 'D0.2.7' AND 'D0.2.33' AND D2.L1 = 'D2.1.3' "
      "AND D1.L1 BETWEEN 'D1.1.0' AND 'D1.1.9' "
      "GROUP BY D0.L2, D2.L1";
  auto q = parser_->Parse(original);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->non_group_by.size(), 1u);  // D1 predicate is non-group-by
  const std::string rendered = ToSql(*schema_, *q);
  auto q2 = parser_->Parse(rendered);
  ASSERT_TRUE(q2.ok()) << rendered << " -> " << q2.status().ToString();
  EXPECT_TRUE(*q == *q2) << rendered;
}

// Fuzz round trip: random well-formed queries render to SQL and parse
// back to exactly themselves.
TEST_F(SqlFixture, RandomQueriesRoundTrip) {
  Random rng(123);
  for (int iter = 0; iter < 300; ++iter) {
    StarJoinQuery q;
    q.group_by.num_dims = 4;
    bool any = false;
    for (uint32_t d = 0; d < 4; ++d) {
      const auto& h = schema_->dimension(d).hierarchy;
      const uint32_t level =
          static_cast<uint32_t>(rng.Uniform(h.depth() + 1));
      q.group_by.levels[d] = static_cast<uint8_t>(level);
      if (level == 0) {
        q.selection[d] = OrdinalRange{0, 0};
        continue;
      }
      any = true;
      const uint32_t card = h.LevelCardinality(level);
      const uint32_t lo = static_cast<uint32_t>(rng.Uniform(card));
      const uint32_t hi =
          lo + static_cast<uint32_t>(rng.Uniform(card - lo));
      q.selection[d] = OrdinalRange{lo, hi};
    }
    if (!any) {
      q.group_by.levels[0] = 1;
      q.selection[0] = OrdinalRange{0, 24};
    }
    // Occasionally add a non-group-by predicate at a different level.
    if (rng.Bernoulli(0.3)) {
      for (uint32_t d = 0; d < 4; ++d) {
        const auto& h = schema_->dimension(d).hierarchy;
        const uint32_t level =
            1 + static_cast<uint32_t>(rng.Uniform(h.depth()));
        if (level == q.group_by.levels[d]) continue;
        const uint32_t card = h.LevelCardinality(level);
        const uint32_t lo = static_cast<uint32_t>(rng.Uniform(card));
        const uint32_t hi =
            lo + static_cast<uint32_t>(rng.Uniform(card - lo));
        q.non_group_by.push_back(
            backend::NonGroupByPredicate{d, level, OrdinalRange{lo, hi}});
        break;
      }
    }
    const std::string text = ToSql(*schema_, q);
    auto parsed = parser_->Parse(text);
    ASSERT_TRUE(parsed.ok())
        << "iter " << iter << ": " << text << " -> "
        << parsed.status().ToString();
    EXPECT_TRUE(*parsed == q) << "iter " << iter << ": " << text;
  }
}

TEST_F(SqlFixture, PaperQueryOneAnalog) {
  // The paper's Q1 in this schema's vocabulary: monthly sales of a product
  // category for a half year -> a level-2 slice with a level-1 filter.
  auto q = parser_->Parse(
      "SELECT D0.L3, D3.L2, SUM(dollar_sales) "
      "FROM Sales, D0, D3 "
      "WHERE D0.L1 = 'D0.1.2' "
      "AND D3.L2 BETWEEN 'D3.2.0' AND 'D3.2.24' "
      "GROUP BY D0.L3, D3.L2");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->group_by.levels[0], 3);
  EXPECT_EQ(q->group_by.levels[3], 2);
  EXPECT_EQ(q->selection[3], (OrdinalRange{0, 24}));
  ASSERT_EQ(q->non_group_by.size(), 1u);
  EXPECT_EQ(q->non_group_by[0].level, 1u);
}

}  // namespace
}  // namespace chunkcache::sql
