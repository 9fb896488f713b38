// Cross-subsystem statistics invariants, checked against the metrics
// registry after real workloads: every chunk a successful query requested
// is accounted for by exactly one provenance counter, and the cache can
// never evict more than it inserted. The StatsInvariantStorm suite
// re-checks all of it while the fault injector is firing.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "backend/chunked_file.h"
#include "backend/engine.h"
#include "common/fault_injector.h"
#include "common/metrics.h"
#include "core/chunk_cache_manager.h"
#include "schema/synthetic.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "reference_oracle.h"

namespace chunkcache::core {
namespace {

using backend::StarJoinQuery;
using chunks::GroupBySpec;

struct InjectorReset {
  static void Reset() {
    FaultInjector::Global().DisarmAll();
    FaultInjector::Global().ResetCounters();
  }
};

/// Asserts every cross-subsystem invariant on a quiesced tier (no query
/// in flight). Call sites pass the expected number of Execute calls and
/// how many of them succeeded.
void ExpectInvariants(ChunkCacheManager& tier, uint64_t executions,
                      uint64_t successes) {
  const cache::ChunkCacheStats s = tier.StatsSnapshot();
  const MetricsRegistry::Snapshot m = tier.metrics().TakeSnapshot();

  // Query accounting: every Execute ended as exactly one of ok / error.
  EXPECT_EQ(m.counter("query.executions"), executions);
  EXPECT_EQ(m.counter("query.errors"), executions - successes);

  // Chunk provenance: each chunk a successful query needed came from
  // exactly one source — cache hit, middle-tier aggregation, backend
  // scan, a coalesced wait on another query, or a degraded answer.
  EXPECT_EQ(m.counter("chunks.requested"),
            m.counter("chunks.from_cache") +
                m.counter("chunks.from_aggregation") +
                m.counter("chunks.from_backend") +
                m.counter("chunks.coalesced_waits") +
                m.counter("chunks.degraded_answers"));

  // Cache lifecycle: nothing evicts that was not inserted, and what is
  // resident now is part of the unevicted remainder (Clear() may retire
  // entries without counting an eviction, hence <=).
  EXPECT_LE(m.counter("cache.evictions"), m.counter("cache.insertions"));
  EXPECT_LE(m.counter("cache.evictions") + tier.chunk_cache().num_chunks(),
            m.counter("cache.insertions"));
  EXPECT_LE(s.hits, s.lookups);

  // Shard counters fold exactly into the totals.
  uint64_t shard_lookups = 0;
  uint64_t shard_hits = 0;
  for (const auto& sh : s.shards) {
    EXPECT_LE(sh.hits, sh.lookups);
    shard_lookups += sh.lookups;
    shard_hits += sh.hits;
  }
  EXPECT_EQ(shard_lookups, s.lookups);
  EXPECT_EQ(shard_hits, s.hits);
}

class StatsInvariantFixture : public ::testing::Test {
 protected:
  static constexpr uint64_t kTuples = 10000;

  void SetUp() override {
    InjectorReset::Reset();
    auto s = schema::BuildPaperSchema();
    ASSERT_TRUE(s.ok());
    schema_ = std::make_unique<schema::StarSchema>(std::move(s).value());
    chunks::ChunkingOptions copts;
    copts.range_fraction = 0.2;
    auto scheme = chunks::ChunkingScheme::Build(schema_.get(), copts, kTuples);
    ASSERT_TRUE(scheme.ok());
    scheme_ =
        std::make_unique<chunks::ChunkingScheme>(std::move(scheme).value());
    pool_ = std::make_unique<storage::BufferPool>(&disk_, 2048);
    schema::FactGenOptions gen;
    gen.num_tuples = kTuples;
    gen.seed = 7;
    auto file = backend::ChunkedFile::BulkLoad(
        pool_.get(), scheme_.get(), schema::GenerateFactTuples(*schema_, gen));
    ASSERT_TRUE(file.ok());
    file_ = std::make_unique<backend::ChunkedFile>(std::move(file).value());
    engine_ = std::make_unique<backend::BackendEngine>(
        pool_.get(), file_.get(), scheme_.get());
    ASSERT_TRUE(engine_->BuildBitmapIndexes().ok());
    ASSERT_TRUE(pool_->FlushAll().ok());
  }

  void TearDown() override { InjectorReset::Reset(); }

  StarJoinQuery FullDomainQuery(const GroupBySpec& gb) const {
    StarJoinQuery q;
    q.group_by = gb;
    for (uint32_t d = 0; d < schema_->num_dims(); ++d) {
      q.selection[d] = {
          0,
          schema_->dimension(d).hierarchy.LevelCardinality(gb.levels[d]) - 1};
    }
    return q;
  }

  /// Mixed canned workload: repeats (hits), subsets, a finer and a
  /// coarser group-by (aggregation sources/targets), misaligned ranges.
  std::vector<StarJoinQuery> MixedWorkload() const {
    std::vector<StarJoinQuery> queries;
    auto q1 = FullDomainQuery(GroupBySpec{{2, 1, 2, 1}, 4});
    queries.push_back(q1);
    queries.push_back(q1);  // full-hit repeat
    {
      auto q = q1;
      q.selection[0] = {7, 33};
      q.selection[2] = {5, 19};
      queries.push_back(q);
    }
    queries.push_back(FullDomainQuery(GroupBySpec{{3, 2, 3, 2}, 4}));
    queries.push_back(FullDomainQuery(GroupBySpec{{1, 1, 1, 1}, 4}));
    queries.push_back(FullDomainQuery(GroupBySpec{{2, 2, 1, 2}, 4}));
    return queries;
  }

  storage::InMemoryDiskManager disk_;
  std::unique_ptr<schema::StarSchema> schema_;
  std::unique_ptr<chunks::ChunkingScheme> scheme_;
  std::unique_ptr<storage::BufferPool> pool_;
  std::unique_ptr<backend::ChunkedFile> file_;
  std::unique_ptr<backend::BackendEngine> engine_;
};

TEST_F(StatsInvariantFixture, ProvenanceAccountsEveryChunkServed) {
  ChunkManagerOptions opts;
  opts.enable_in_cache_aggregation = true;
  ChunkCacheManager tier(engine_.get(), opts);

  uint64_t want_requested = 0;
  uint64_t want_cache = 0;
  uint64_t want_agg = 0;
  uint64_t want_backend = 0;
  const auto queries = MixedWorkload();
  for (const StarJoinQuery& q : queries) {
    QueryStats s;
    auto rows = tier.Execute(q, &s);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    want_requested += s.chunks_needed;
    want_cache += s.chunks_from_cache;
    want_agg += s.chunks_from_aggregation;
    want_backend += s.chunks_from_backend;
  }
  // The registry totals are exactly the per-query stats, summed.
  const MetricsRegistry::Snapshot m = tier.metrics().TakeSnapshot();
  EXPECT_EQ(m.counter("chunks.requested"), want_requested);
  EXPECT_EQ(m.counter("chunks.from_cache"), want_cache);
  EXPECT_EQ(m.counter("chunks.from_aggregation"), want_agg);
  EXPECT_EQ(m.counter("chunks.from_backend"), want_backend);
  EXPECT_GT(want_cache, 0u);      // the repeat hit
  EXPECT_GT(want_agg, 0u);        // the coarser query rolled up
  ExpectInvariants(tier, queries.size(), queries.size());
}

TEST_F(StatsInvariantFixture, EvictionPressureKeepsLifecycleConsistent) {
  ChunkManagerOptions opts;
  opts.cache_bytes = 96 << 10;  // tiny: force evictions
  opts.cache_shards = 2;
  ChunkCacheManager tier(engine_.get(), opts);
  const auto queries = MixedWorkload();
  for (int round = 0; round < 2; ++round) {
    for (const StarJoinQuery& q : queries) {
      QueryStats s;
      ASSERT_TRUE(tier.Execute(q, &s).ok());
    }
  }
  const MetricsRegistry::Snapshot m = tier.metrics().TakeSnapshot();
  EXPECT_GT(m.counter("cache.evictions"), 0u);
  ExpectInvariants(tier, 2 * queries.size(), 2 * queries.size());
}

TEST_F(StatsInvariantFixture, ConcurrentClientsKeepEveryInvariant) {
  // Eight clients run the same workload at once, so owners and waiters
  // interleave; the counters must still add up exactly.
  ChunkManagerOptions opts;
  opts.cache_shards = 4;
  ChunkCacheManager tier(engine_.get(), opts);

  const auto queries = MixedWorkload();
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  std::atomic<uint64_t> ok_count{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (const StarJoinQuery& q : queries) {
        QueryStats s;
        if (tier.Execute(q, &s).ok()) ok_count.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_EQ(ok_count.load(), kThreads * queries.size());
  ExpectInvariants(tier, kThreads * queries.size(), ok_count.load());
}

TEST_F(StatsInvariantFixture, StatsSnapshotAgreesWithRegistry) {
  // The torn-read satellite: ChunkCacheStats is assembled from one
  // registry snapshot, so its fields must agree exactly with the
  // registry's own counters — there is no second bookkeeping to drift.
  ChunkManagerOptions opts;
  opts.enable_in_cache_aggregation = true;
  ChunkCacheManager tier(engine_.get(), opts);
  for (const StarJoinQuery& q : MixedWorkload()) {
    QueryStats s;
    ASSERT_TRUE(tier.Execute(q, &s).ok());
  }
  const cache::ChunkCacheStats s = tier.StatsSnapshot();
  const MetricsRegistry::Snapshot m = tier.metrics().TakeSnapshot();
  EXPECT_EQ(s.lookups, m.counter("cache.shard0.lookups") +
                           m.counter("cache.shard1.lookups") +
                           m.counter("cache.shard2.lookups") +
                           m.counter("cache.shard3.lookups"));
  EXPECT_EQ(s.insertions, m.counter("cache.insertions"));
  EXPECT_EQ(s.evictions, m.counter("cache.evictions"));
  EXPECT_EQ(s.rejected, m.counter("cache.rejected"));
  EXPECT_EQ(s.coalesced_waits, m.counter("chunks.coalesced_waits"));
  EXPECT_EQ(s.degraded_answers, m.counter("chunks.degraded_answers"));
  EXPECT_EQ(s.retries, m.counter("backend.retries"));
  EXPECT_EQ(s.deadline_expired, m.counter("query.deadline_expired"));
  EXPECT_EQ(s.faults_injected,
            FaultInjector::Global().faults_injected());
  EXPECT_EQ(s.contention_ns,
            m.histograms.at("cache.lock_wait_ns").sum);
  // Latency histogram saw exactly one record per Execute.
  EXPECT_EQ(m.histograms.at("query.latency_ns").count,
            m.counter("query.executions"));
}

// ---------------------------------------------------------------------------
// Storm suite: the same invariants must hold while the fault injector is
// killing scans, with concurrent clients and deadlines. Run with more
// iterations by the stats_invariant_storm ctest target via
// CHUNKCACHE_STORM_ITERS.

using StatsInvariantStorm = StatsInvariantFixture;

TEST_F(StatsInvariantStorm, InvariantsSurviveSeededFaultStorm) {
  ChunkManagerOptions opts;
  opts.cache_shards = 4;
  ChunkCacheManager tier(engine_.get(), opts);
  const auto queries = MixedWorkload();

  int iters = 3;
  if (const char* env = std::getenv("CHUNKCACHE_STORM_ITERS")) {
    const int parsed = std::atoi(env);
    if (parsed > 0) iters = parsed;
  }
  constexpr int kThreads = 3;

  uint64_t executions = 0;
  std::atomic<uint64_t> ok_count{0};
  FaultInjector& fi = FaultInjector::Global();
  for (int iter = 0; iter < iters; ++iter) {
    fi.Seed(0x57A75000ull + static_cast<uint64_t>(iter));
    fi.ArmAll(0.02);
    tier.chunk_cache().Clear();  // force backend traffic under fire

    std::mutex err_mu;
    std::vector<std::string> violations;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (size_t qi = 0; qi < queries.size(); ++qi) {
          ExecControl ctrl;
          if ((t + static_cast<int>(qi)) % 3 == 0) {
            ctrl.deadline = Deadline::AfterMs(500);
          }
          QueryStats s;
          auto rows = tier.Execute(queries[qi], &s, ctrl);
          if (rows.ok()) {
            ok_count.fetch_add(1);
            const std::string bad = oracle::ProvenanceViolation(s);
            if (!bad.empty()) {
              std::lock_guard<std::mutex> lock(err_mu);
              violations.push_back(bad + " for query " + std::to_string(qi));
            }
          } else {
            const StatusCode code = rows.status().code();
            if (code != StatusCode::kIoError &&
                code != StatusCode::kCorruption &&
                code != StatusCode::kResourceExhausted &&
                code != StatusCode::kDeadlineExceeded) {
              std::lock_guard<std::mutex> lock(err_mu);
              violations.push_back("unexpected status: " +
                                   rows.status().ToString());
            }
          }
        }
      });
    }
    for (auto& th : threads) th.join();
    ASSERT_TRUE(violations.empty()) << violations.front();
    executions += static_cast<uint64_t>(kThreads) * queries.size();

    // Quiesce, then: the invariants hold mid-storm, error paths included.
    fi.DisarmAll();
    ExpectInvariants(tier, executions, ok_count.load());
  }
  EXPECT_GT(FaultInjector::Global().faults_injected(), 0u);
}

}  // namespace
}  // namespace chunkcache::core
