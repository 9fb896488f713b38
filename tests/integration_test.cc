// Whole-system integration tests: differential testing of the three middle
// tiers against each other under sustained random workloads with cache
// pressure, and stress on the cache under a pathologically small backend
// pool.

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "backend/chunked_file.h"
#include "backend/engine.h"
#include "core/chunk_cache_manager.h"
#include "core/query_cache_manager.h"
#include "schema/synthetic.h"
#include "sql/parser.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "workload/query_generator.h"
#include "workload/session_generator.h"
#include "reference_oracle.h"

namespace chunkcache {
namespace {

using backend::ResultRow;
using backend::StarJoinQuery;
using chunks::ChunkingOptions;
using chunks::ChunkingScheme;
using oracle::ExpectIdenticalRows;
using storage::AggTuple;

struct FullSystem {
  std::unique_ptr<storage::InMemoryDiskManager> disk;
  std::unique_ptr<storage::BufferPool> pool;
  std::unique_ptr<schema::StarSchema> schema;
  std::unique_ptr<ChunkingScheme> scheme;
  std::unique_ptr<backend::ChunkedFile> file;
  std::unique_ptr<backend::BackendEngine> engine;

  static FullSystem Make(uint64_t tuples, uint32_t pool_frames,
                         double fraction = 0.15, uint64_t seed = 31) {
    FullSystem sys;
    sys.disk = std::make_unique<storage::InMemoryDiskManager>();
    sys.pool = std::make_unique<storage::BufferPool>(sys.disk.get(),
                                                     pool_frames);
    auto s = schema::BuildPaperSchema();
    CHUNKCACHE_CHECK(s.ok());
    sys.schema = std::make_unique<schema::StarSchema>(std::move(s).value());
    ChunkingOptions copts;
    copts.range_fraction = fraction;
    auto scheme = ChunkingScheme::Build(sys.schema.get(), copts, tuples);
    CHUNKCACHE_CHECK(scheme.ok());
    sys.scheme = std::make_unique<ChunkingScheme>(std::move(scheme).value());
    schema::FactGenOptions gen;
    gen.num_tuples = tuples;
    gen.seed = seed;
    auto file = backend::ChunkedFile::BulkLoad(
        sys.pool.get(), sys.scheme.get(),
        schema::GenerateFactTuples(*sys.schema, gen));
    CHUNKCACHE_CHECK(file.ok());
    sys.file = std::make_unique<backend::ChunkedFile>(std::move(file).value());
    sys.engine = std::make_unique<backend::BackendEngine>(
        sys.pool.get(), sys.file.get(), sys.scheme.get());
    CHUNKCACHE_CHECK(sys.engine->BuildBitmapIndexes().ok());
    return sys;
  }
};

void ExpectSameRows(const std::vector<AggTuple>& a,
                    const std::vector<AggTuple>& b, uint32_t num_dims,
                    const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  for (size_t i = 0; i < a.size(); ++i) {
    for (uint32_t d = 0; d < num_dims; ++d) {
      ASSERT_EQ(a[i].coords[d], b[i].coords[d]) << context << " row " << i;
    }
    ASSERT_NEAR(a[i].sum, b[i].sum, 1e-6) << context << " row " << i;
    ASSERT_EQ(a[i].count, b[i].count) << context << " row " << i;
  }
}

/// A deterministic query source by name: "eqpr", "zipfian", or "session"
/// (drill-down and roll-up session generators, swapping every two
/// queries).
std::function<StarJoinQuery()> MakeStream(const std::string& name,
                                          const schema::StarSchema* schema) {
  if (name == "eqpr" || name == "zipfian") {
    auto gen = std::make_shared<workload::QueryGenerator>(
        schema, name == "eqpr" ? workload::EqprStream(77)
                               : workload::ZipfianStream(1998));
    return [gen] { return gen->Next(); };
  }
  CHUNKCACHE_CHECK(name == "session");
  workload::SessionOptions drill;
  drill.drill_down = true;
  drill.seed = 1998;
  workload::SessionOptions roll;
  roll.drill_down = false;
  roll.seed = 2042;
  auto d = std::make_shared<workload::SessionGenerator>(schema, drill);
  auto r = std::make_shared<workload::SessionGenerator>(schema, roll);
  auto n = std::make_shared<uint64_t>(0);
  return [d, r, n] { return ((*n)++ / 2) % 2 == 0 ? d->Next() : r->Next(); };
}

// Differential test: under a long stream with heavy cache pressure (tiny
// caches force constant eviction), every tier must return identical
// result rows for every query. Replacement decides only which chunks stay
// cached, never answers, so the pressured chunk tier must also match a
// roomy twin of the same policy bit for bit. The pressured budget is a
// fraction of the roomy twin's working set (what it holds after the
// stream), so the pressure does not hang on what an entry costs.
class TierEquivalenceTest
    : public ::testing::TestWithParam<
          std::tuple<const char*, double, const char*>> {};

TEST_P(TierEquivalenceTest, AllTiersAgreeUnderPressure) {
  const char* policy = std::get<0>(GetParam());
  FullSystem sys = FullSystem::Make(30000, 4096);
  constexpr int kQueries = 120;

  core::ChunkManagerOptions roomy_opts;
  roomy_opts.cache_bytes = 1ull << 30;
  roomy_opts.policy = policy;
  core::ChunkCacheManager roomy(sys.engine.get(), roomy_opts);
  std::vector<std::vector<ResultRow>> roomy_rows;
  {
    const auto next = MakeStream(std::get<2>(GetParam()), sys.schema.get());
    for (int i = 0; i < kQueries; ++i) {
      core::QueryStats st;
      auto d = roomy.Execute(next(), &st);
      ASSERT_TRUE(d.ok()) << d.status().ToString();
      roomy_rows.push_back(std::move(d).value());
    }
  }
  const uint64_t working_set = roomy.chunk_cache().bytes_used();
  const uint64_t cache_bytes =
      static_cast<uint64_t>(std::get<1>(GetParam()) * working_set);

  core::ChunkManagerOptions copts;
  copts.cache_bytes = cache_bytes;
  copts.policy = policy;
  core::ChunkCacheManager chunk_tier(sys.engine.get(), copts);
  core::QueryManagerOptions qopts;
  qopts.cache_bytes = cache_bytes;
  qopts.policy = policy;
  core::QueryCacheManager query_tier(sys.engine.get(), qopts);
  core::NoCacheManager none(sys.engine.get());

  const auto next = MakeStream(std::get<2>(GetParam()), sys.schema.get());
  for (int i = 0; i < kQueries; ++i) {
    const StarJoinQuery q = next();
    core::QueryStats s1, s2, s3;
    auto a = chunk_tier.Execute(q, &s1);
    auto b = query_tier.Execute(q, &s2);
    auto c = none.Execute(q, &s3);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    ASSERT_TRUE(c.ok()) << c.status().ToString();
    ExpectSameRows(*a, *c, 4, "chunk vs none @" + std::to_string(i));
    ExpectSameRows(*b, *c, 4, "query vs none @" + std::to_string(i));
    ExpectIdenticalRows(*a, roomy_rows[i], 4,
                        "pressured vs roomy @" + std::to_string(i));
    // Sanity on stats invariants.
    EXPECT_EQ(s1.chunks_from_cache + s1.chunks_from_aggregation +
                  s1.chunks_from_backend,
              s1.chunks_needed);
    EXPECT_LE(s1.saved_fraction, 1.0);
    EXPECT_GE(s1.saved_fraction, 0.0);
  }
  // Caches stayed within budget throughout, and only the pressured one
  // evicted.
  EXPECT_LE(chunk_tier.chunk_cache().bytes_used(), cache_bytes);
  EXPECT_LE(query_tier.query_cache().bytes_used(), cache_bytes);
  EXPECT_GT(chunk_tier.metrics().TakeSnapshot().counters.at("cache.evictions"),
            0u);
  EXPECT_EQ(roomy.metrics().TakeSnapshot().counters.at("cache.evictions"), 0u);
}

// Budgets of 1/16 and 3/4 of the roomy working set.
INSTANTIATE_TEST_SUITE_P(
    PoliciesSizesAndStreams, TierEquivalenceTest,
    ::testing::Combine(::testing::Values("lru", "clock", "benefit-clock"),
                       ::testing::Values(1.0 / 16, 0.75),
                       ::testing::Values("eqpr", "zipfian", "session")));

// Figure 13's shape: benefit-weighted CLOCK saves more than LRU at every
// cache size. The paper's 500k-tuple setup and 2/5/10/30 MB caches are
// scaled by 30k/500k to 30k tuples and 120/300/600/1800 KB. Single
// streams can tie within noise, so each budget sums the CSR of five EQPR
// streams.
TEST(IntegrationTest, BenefitClockBeatsLruAtEveryCacheSize) {
  FullSystem sys = FullSystem::Make(30000, 2048, 0.1, 42);
  for (uint64_t kb : {120, 300, 600, 1800}) {
    std::map<std::string, double> csr_sum;
    for (const char* policy : {"lru", "benefit-clock"}) {
      for (uint64_t seed : {606, 1, 2, 3, 4}) {
        core::ChunkManagerOptions opts;
        opts.cache_bytes = kb << 10;
        opts.policy = policy;
        core::ChunkCacheManager tier(sys.engine.get(), opts);
        workload::QueryGenerator gen(sys.schema.get(),
                                     workload::EqprStream(seed));
        core::CsrAccumulator csr;
        for (int i = 0; i < 300; ++i) {
          core::QueryStats s;
          ASSERT_TRUE(tier.Execute(gen.Next(), &s).ok());
          csr.Record(s);
        }
        csr_sum[policy] += csr.Csr();
      }
    }
    std::printf("%4llu KB: CSR summed over 5 streams: lru %.3f, "
                "benefit-clock %.3f\n",
                static_cast<unsigned long long>(kb), csr_sum["lru"],
                csr_sum["benefit-clock"]);
    EXPECT_GT(csr_sum["benefit-clock"], csr_sum["lru"]) << kb << " KB";
  }
}

// Extensions must not change answers either.
TEST(IntegrationTest, ExtensionsPreserveAnswers) {
  FullSystem sys = FullSystem::Make(30000, 4096);
  core::ChunkManagerOptions plain_opts;
  core::ChunkManagerOptions ext_opts;
  ext_opts.enable_in_cache_aggregation = true;
  core::ChunkCacheManager plain(sys.engine.get(), plain_opts);
  core::ChunkCacheManager extended(sys.engine.get(), ext_opts);
  workload::QueryGenerator gen(sys.schema.get(),
                               workload::ProximityStream(78));
  for (int i = 0; i < 80; ++i) {
    const StarJoinQuery q = gen.Next();
    core::QueryStats s1, s2;
    auto a = plain.Execute(q, &s1);
    auto b = extended.Execute(q, &s2);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ExpectSameRows(*a, *b, 4, "plain vs extended @" + std::to_string(i));
  }
}

// Materialized aggregates at the backend must be answer-preserving under a
// workload too (they only change *where* chunks are computed from).
TEST(IntegrationTest, MaterializedAggregatesPreserveAnswers) {
  FullSystem sys = FullSystem::Make(30000, 4096);
  core::NoCacheManager reference(sys.engine.get());
  // Collect reference answers first (engine without materialized tables).
  workload::QueryGenerator gen1(sys.schema.get(), workload::EqprStream(79));
  std::vector<std::vector<ResultRow>> expected;
  std::vector<StarJoinQuery> queries;
  for (int i = 0; i < 60; ++i) {
    queries.push_back(gen1.Next());
    core::QueryStats s;
    auto rows = reference.Execute(queries.back(), &s);
    ASSERT_TRUE(rows.ok());
    expected.push_back(std::move(rows).value());
  }
  ASSERT_TRUE(sys.engine
                  ->MaterializeAggregate(chunks::GroupBySpec{{1, 1, 1, 1}, 4})
                  .ok());
  ASSERT_TRUE(sys.engine
                  ->MaterializeAggregate(chunks::GroupBySpec{{2, 1, 2, 1}, 4})
                  .ok());
  core::ChunkCacheManager tier(sys.engine.get(), core::ChunkManagerOptions{});
  for (size_t i = 0; i < queries.size(); ++i) {
    core::QueryStats s;
    auto rows = tier.Execute(queries[i], &s);
    ASSERT_TRUE(rows.ok());
    ExpectSameRows(*rows, expected[i], 4, "query " + std::to_string(i));
  }
}

// The whole backend survives a pathologically small buffer pool (16 pages):
// every structure pins at most a handful of pages at a time.
TEST(IntegrationTest, TinyBufferPool) {
  FullSystem sys = FullSystem::Make(15000, 16);
  core::ChunkCacheManager tier(sys.engine.get(), core::ChunkManagerOptions{});
  workload::QueryGenerator gen(sys.schema.get(), workload::EqprStream(80));
  for (int i = 0; i < 40; ++i) {
    core::QueryStats s;
    auto rows = tier.Execute(gen.Next(), &s);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString() << " @" << i;
  }
  EXPECT_GT(sys.pool->stats().evictions, 0u);
}

// SQL round trip at system level: text -> query -> execute -> ToSql ->
// re-parse -> execute gives identical rows.
TEST(IntegrationTest, SqlRoundTripEndToEnd) {
  FullSystem sys = FullSystem::Make(20000, 2048);
  core::ChunkCacheManager tier(sys.engine.get(), core::ChunkManagerOptions{});
  sql::SqlParser parser(sys.schema.get());
  const char* text =
      "SELECT D0.L2, D2.L2, SUM(dollar_sales) FROM Sales, D0, D2 "
      "WHERE D0.L2 BETWEEN 'D0.2.3' AND 'D0.2.30' "
      "AND D2.L2 BETWEEN 'D2.2.2' AND 'D2.2.17' "
      "AND D3.L1 BETWEEN 'D3.1.0' AND 'D3.1.4' "
      "GROUP BY D0.L2, D2.L2";
  auto q1 = parser.Parse(text);
  ASSERT_TRUE(q1.ok()) << q1.status().ToString();
  core::QueryStats s;
  auto rows1 = tier.Execute(*q1, &s);
  ASSERT_TRUE(rows1.ok());
  const std::string rendered = sql::ToSql(*sys.schema, *q1);
  auto q2 = parser.Parse(rendered);
  ASSERT_TRUE(q2.ok()) << rendered;
  auto rows2 = tier.Execute(*q2, &s);
  ASSERT_TRUE(rows2.ok());
  ExpectSameRows(*rows1, *rows2, 4, "sql round trip");
  EXPECT_TRUE(s.full_cache_hit);  // identical query -> cache hit
}

// Workload-driven CSR sanity: a Q100 stream against a large chunk cache
// must converge to a high CSR (the Section 6.1.4 effect, in miniature).
TEST(IntegrationTest, HotStreamConvergesToHighCsr) {
  FullSystem sys = FullSystem::Make(20000, 4096);
  core::ChunkManagerOptions opts;
  opts.cache_bytes = 64ull << 20;
  core::ChunkCacheManager tier(sys.engine.get(), opts);
  workload::WorkloadOptions wopts = workload::EqprStream(81);
  wopts.hot_access_prob = 1.0;
  workload::QueryGenerator gen(sys.schema.get(), wopts);
  core::CsrAccumulator cold, warm;
  for (int i = 0; i < 1000; ++i) {
    core::QueryStats s;
    ASSERT_TRUE(tier.Execute(gen.Next(), &s).ok());
    (i < 500 ? cold : warm).Record(s);
  }
  // Warm-phase savings must be substantial and clearly above the cold
  // phase (full convergence to the paper's 0.98 needs the full-scale
  // 5000-query run in bench_csr_simulation; this is the trend check).
  EXPECT_GT(warm.Csr(), 0.5);
  EXPECT_GT(warm.Csr(), cold.Csr() + 0.15);
}

}  // namespace
}  // namespace chunkcache
