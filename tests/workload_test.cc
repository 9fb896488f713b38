#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "schema/synthetic.h"
#include "workload/query_generator.h"
#include "workload/session_generator.h"

namespace chunkcache::workload {
namespace {

using backend::StarJoinQuery;
using schema::OrdinalRange;

class GeneratorFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    auto s = schema::BuildPaperSchema();
    ASSERT_TRUE(s.ok());
    schema_ = std::make_unique<schema::StarSchema>(std::move(s).value());
  }

  /// Checks structural validity of a generated query.
  void ExpectValid(const StarJoinQuery& q) {
    ASSERT_EQ(q.group_by.num_dims, 4u);
    bool any_grouped = false;
    for (uint32_t d = 0; d < 4; ++d) {
      const auto& h = schema_->dimension(d).hierarchy;
      ASSERT_LE(q.group_by.levels[d], h.depth());
      const uint32_t level = q.group_by.levels[d];
      if (level == 0) {
        EXPECT_EQ(q.selection[d], (OrdinalRange{0, 0}));
      } else {
        any_grouped = true;
        EXPECT_LE(q.selection[d].begin, q.selection[d].end);
        EXPECT_LT(q.selection[d].end, h.LevelCardinality(level));
      }
    }
    EXPECT_TRUE(any_grouped);
  }

  /// True when every grouped dimension's selection maps into the hot
  /// prefix of the base level.
  bool InHotRegion(const StarJoinQuery& q, double hot_fraction) {
    const double f = std::pow(hot_fraction, 0.25);
    for (uint32_t d = 0; d < 4; ++d) {
      const uint32_t level = q.group_by.levels[d];
      if (level == 0) continue;
      const auto& h = schema_->dimension(d).hierarchy;
      const uint32_t base_card = h.LevelCardinality(h.depth());
      const uint32_t hot_end = std::max<uint32_t>(
          1, static_cast<uint32_t>(std::lround(f * base_card))) - 1;
      if (h.BaseRangeOf(level, q.selection[d]).end > hot_end) return false;
    }
    return true;
  }

  std::unique_ptr<schema::StarSchema> schema_;
};

TEST_F(GeneratorFixture, GeneratesStructurallyValidQueries) {
  QueryGenerator gen(schema_.get(), EqprStream(7));
  for (int i = 0; i < 2000; ++i) ExpectValid(gen.Next());
}

TEST_F(GeneratorFixture, DeterministicForFixedSeed) {
  QueryGenerator a(schema_.get(), EqprStream(42));
  QueryGenerator b(schema_.get(), EqprStream(42));
  for (int i = 0; i < 500; ++i) {
    EXPECT_TRUE(a.Next() == b.Next()) << "diverged at query " << i;
  }
}

TEST_F(GeneratorFixture, SeedsProduceDifferentStreams) {
  QueryGenerator a(schema_.get(), EqprStream(1));
  QueryGenerator b(schema_.get(), EqprStream(2));
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 10);
}

TEST_F(GeneratorFixture, RandomStreamHasNoProximity) {
  QueryGenerator gen(schema_.get(), RandomStream(3));
  for (int i = 0; i < 500; ++i) {
    gen.Next();
    EXPECT_FALSE(gen.last_was_proximity());
  }
}

TEST_F(GeneratorFixture, ProximityRateMatchesMix) {
  struct Case {
    WorkloadOptions opts;
    double expected;
  };
  for (const Case& c : {Case{EqprStream(5), 0.5},
                        Case{ProximityStream(5), 0.8}}) {
    QueryGenerator gen(schema_.get(), c.opts);
    int proximity = 0;
    const int n = 4000;
    for (int i = 0; i < n; ++i) {
      gen.Next();
      proximity += gen.last_was_proximity();
    }
    EXPECT_NEAR(static_cast<double>(proximity) / n, c.expected, 0.03);
  }
}

TEST_F(GeneratorFixture, HotRegionProbabilityHonored) {
  for (double p : {0.6, 0.8, 1.0}) {
    WorkloadOptions opts = RandomStream(11);
    opts.hot_access_prob = p;
    QueryGenerator gen(schema_.get(), opts);
    int hot = 0;
    const int n = 4000;
    for (int i = 0; i < n; ++i) {
      const StarJoinQuery q = gen.Next();
      if (gen.last_was_hot()) {
        EXPECT_TRUE(InHotRegion(q, opts.hot_fraction));
        ++hot;
      }
    }
    EXPECT_NEAR(static_cast<double>(hot) / n, p, 0.03);
  }
}

TEST_F(GeneratorFixture, ProximityKeepsAggregationLevel) {
  QueryGenerator gen(schema_.get(), ProximityStream(13));
  StarJoinQuery prev = gen.Next();
  for (int i = 0; i < 1000; ++i) {
    StarJoinQuery q = gen.Next();
    if (gen.last_was_proximity()) {
      EXPECT_TRUE(q.group_by == prev.group_by);
      // Exactly one dimension's selection may have shifted; widths kept.
      for (uint32_t d = 0; d < 4; ++d) {
        EXPECT_EQ(q.selection[d].size(), prev.selection[d].size());
      }
    }
    prev = q;
  }
}

TEST_F(GeneratorFixture, ProximityInheritsHotRegion) {
  WorkloadOptions opts = ProximityStream(17);
  opts.hot_access_prob = 1.0;  // Q100: everything must stay hot
  QueryGenerator gen(schema_.get(), opts);
  for (int i = 0; i < 2000; ++i) {
    const StarJoinQuery q = gen.Next();
    EXPECT_TRUE(InHotRegion(q, opts.hot_fraction)) << "query " << i;
  }
}

TEST_F(GeneratorFixture, StreamPresetsMatchTable2) {
  EXPECT_DOUBLE_EQ(RandomStream(1).proximity_prob, 0.0);
  EXPECT_DOUBLE_EQ(EqprStream(1).proximity_prob, 0.5);
  EXPECT_DOUBLE_EQ(ProximityStream(1).proximity_prob, 0.8);
  EXPECT_DOUBLE_EQ(RandomStream(1).hot_fraction, 0.2);
}

TEST_F(GeneratorFixture, CoversManyGroupBys) {
  QueryGenerator gen(schema_.get(), RandomStream(29));
  std::set<std::string> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(gen.Next().group_by.ToString());
  // 4*3*4*3 = 144 possible group-bys minus the all-ALL one; a random
  // stream should visit a large share.
  EXPECT_GT(seen.size(), 100u);
}

// ---------------------------- SessionGenerator ------------------------------

TEST_F(GeneratorFixture, SessionPairsShareTheRegion) {
  SessionOptions opts;
  opts.drill_down = true;
  opts.seed = 5;
  SessionGenerator gen(schema_.get(), opts);
  for (int s = 0; s < 200; ++s) {
    const StarJoinQuery coarse = gen.Next();
    EXPECT_TRUE(gen.last_started_session());
    const StarJoinQuery fine = gen.Next();
    EXPECT_FALSE(gen.last_started_session());
    for (uint32_t d = 0; d < 4; ++d) {
      const auto& h = schema_->dimension(d).hierarchy;
      // Fine view is exactly one level deeper (capped at depth).
      EXPECT_EQ(fine.group_by.levels[d],
                std::min<uint32_t>(coarse.group_by.levels[d] + 1,
                                   h.depth()));
      // Both views cover the same base-level cells on every dimension.
      EXPECT_EQ(h.BaseRangeOf(coarse.group_by.levels[d],
                              coarse.selection[d]),
                h.BaseRangeOf(fine.group_by.levels[d], fine.selection[d]))
          << "session " << s << " dim " << d;
    }
  }
}

TEST_F(GeneratorFixture, RollUpSessionEmitsFineFirst) {
  SessionOptions opts;
  opts.drill_down = false;
  opts.seed = 6;
  SessionGenerator gen(schema_.get(), opts);
  const StarJoinQuery first = gen.Next();
  const StarJoinQuery second = gen.Next();
  for (uint32_t d = 0; d < 4; ++d) {
    EXPECT_GE(first.group_by.levels[d], second.group_by.levels[d]);
  }
}

TEST_F(GeneratorFixture, SessionGeneratorIsDeterministic) {
  SessionOptions opts;
  opts.seed = 7;
  SessionGenerator a(schema_.get(), opts);
  SessionGenerator b(schema_.get(), opts);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(a.Next() == b.Next());
}

TEST_F(GeneratorFixture, SessionWidthsRespectOptions) {
  SessionOptions opts;
  opts.min_width = 3;
  opts.max_width = 3;
  opts.seed = 8;
  SessionGenerator gen(schema_.get(), opts);
  for (int i = 0; i < 50; ++i) {
    const StarJoinQuery q = gen.Next();
    if (!gen.last_started_session()) continue;  // check coarse views only
    for (uint32_t d = 0; d < 4; ++d) {
      EXPECT_EQ(q.selection[d].size(), 3u);
    }
  }
}

/// HashQuery chained over the first `n` queries a fresh
/// SessionGenerator(schema, options) emits.
uint64_t SessionStreamHash(const schema::StarSchema& schema,
                           const SessionOptions& options, size_t n) {
  SessionGenerator gen(&schema, options);
  uint64_t acc = 0xcbf29ce484222325ull;
  for (size_t i = 0; i < n; ++i) acc = HashQuery(gen.Next(), acc);
  return acc;
}

TEST_F(GeneratorFixture, SessionStreamHashMatchesGolden) {
  // Golden hash of the default serving workload stream (seed 1, 256
  // queries). This pins the generator's output bit-for-bit across runs and
  // platforms: if a refactor reorders rng draws or changes rounding, this
  // fails before any latency comparison is silently invalidated.
  SessionOptions opts;
  const uint64_t h = SessionStreamHash(*schema_, opts, 256);
  EXPECT_EQ(h, 0x9b4c4f7dabfb92f0ull);
  // And the hash is a pure function: a second fresh generator agrees.
  EXPECT_EQ(SessionStreamHash(*schema_, opts, 256), h);
}

TEST_F(GeneratorFixture, SessionStreamIndependentOfConsumerThreads) {
  // The serving harness generates on one thread and fans queries out to a
  // variable number of client threads. The stream must be a function of
  // (schema, options) only — materialize it once, then check that hashing
  // any prefix from a shared vector consumed by 1, 2, or 8 threads sees
  // the identical queries (i.e. generation happened before, and
  // independently of, consumption).
  SessionOptions opts;
  opts.seed = 42;
  SessionGenerator gen(schema_.get(), opts);
  std::vector<StarJoinQuery> stream;
  for (int i = 0; i < 128; ++i) stream.push_back(gen.Next());

  uint64_t want = 0xcbf29ce484222325ull;
  for (const auto& q : stream) want = HashQuery(q, want);
  EXPECT_EQ(SessionStreamHash(*schema_, opts, 128), want);

  for (int threads : {1, 2, 8}) {
    std::atomic<uint64_t> consumed{0};
    std::atomic<int> mismatches{0};
    std::vector<std::thread> workers;
    SessionGenerator replay(schema_.get(), opts);
    std::vector<StarJoinQuery> replayed;
    for (int i = 0; i < 128; ++i) replayed.push_back(replay.Next());
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&] {
        for (;;) {
          const uint64_t i = consumed.fetch_add(1);
          if (i >= stream.size()) return;
          if (!(stream[i] == replayed[i])) mismatches.fetch_add(1);
        }
      });
    }
    for (auto& w : workers) w.join();
    EXPECT_EQ(mismatches.load(), 0) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace chunkcache::workload
