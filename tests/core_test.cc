#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "backend/aggregator.h"
#include "backend/chunked_file.h"
#include "backend/engine.h"
#include "common/fault_injector.h"
#include "common/random.h"
#include "common/simd.h"
#include "core/chunk_cache_manager.h"
#include "core/query_cache_manager.h"
#include "schema/synthetic.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "workload/query_generator.h"
#include "reference_oracle.h"

namespace chunkcache::core {
namespace {

using backend::NonGroupByPredicate;
using backend::ResultRow;
using backend::StarJoinQuery;
using chunks::ChunkingOptions;
using chunks::ChunkingScheme;
using chunks::GroupBySpec;
using oracle::ExpectRowsEqual;
using schema::OrdinalRange;
using storage::AggTuple;
using storage::Tuple;

class CoreFixture : public ::testing::Test {
 protected:
  static constexpr uint64_t kTuples = 20000;

  void SetUp() override {
    auto s = schema::BuildPaperSchema();
    ASSERT_TRUE(s.ok());
    schema_ = std::make_unique<schema::StarSchema>(std::move(s).value());
    auto scheme = ChunkingScheme::Build(schema_.get(), chunking_, kTuples);
    ASSERT_TRUE(scheme.ok());
    scheme_ = std::make_unique<ChunkingScheme>(std::move(scheme).value());

    schema::FactGenOptions gen;
    gen.num_tuples = kTuples;
    gen.seed = 23;
    tuples_ = schema::GenerateFactTuples(*schema_, gen);

    pool_ = std::make_unique<storage::BufferPool>(&disk_, 4096);
    auto file = backend::ChunkedFile::BulkLoad(pool_.get(), scheme_.get(),
                                               tuples_);
    ASSERT_TRUE(file.ok());
    file_ = std::make_unique<backend::ChunkedFile>(std::move(file).value());
    engine_ = std::make_unique<backend::BackendEngine>(pool_.get(),
                                                       file_.get(),
                                                       scheme_.get());
    ASSERT_TRUE(engine_->BuildBitmapIndexes().ok());
    // Start cold, as System::ResetBackend does: the 4,096 frames would
    // otherwise still hold the whole table from the load, and no query
    // would read a page.
    ASSERT_TRUE(pool_->FlushAll().ok());
    ASSERT_TRUE(pool_->EvictAll().ok());
  }

  /// The shared reference oracle over this fixture's tuples.
  std::vector<AggTuple> Naive(const StarJoinQuery& q) const {
    return oracle::NaiveStarJoin(*schema_, tuples_, q);
  }

  /// A query whose selection is deliberately misaligned with chunk
  /// boundaries, so boundary post-filtering is exercised.
  StarJoinQuery MisalignedQuery() const {
    StarJoinQuery q;
    q.group_by = GroupBySpec{{2, 1, 2, 1}, 4};
    q.selection[0] = OrdinalRange{7, 33};  // D0 level2: 50 values
    q.selection[1] = OrdinalRange{3, 11};  // D1 level1: 25 values
    q.selection[2] = OrdinalRange{1, 17};  // D2 level2: 25 values
    q.selection[3] = OrdinalRange{2, 7};   // D3 level1: 10 values
    return q;
  }

  ChunkCacheManager MakeChunkManager(ChunkManagerOptions opts = {}) {
    return ChunkCacheManager(engine_.get(), opts);
  }

  /// Full-domain query at `gb`: every chunk of its grid is needed.
  StarJoinQuery FullDomainQuery(const GroupBySpec& gb) const {
    StarJoinQuery q;
    q.group_by = gb;
    for (uint32_t d = 0; d < 4; ++d) {
      const auto& h = schema_->dimension(d).hierarchy;
      q.selection[d] = OrdinalRange{0, h.LevelCardinality(gb.levels[d]) - 1};
    }
    return q;
  }

  /// The chunk numbers `q` needs, in decomposition order.
  std::vector<uint64_t> NeededChunks(const StarJoinQuery& q) const {
    std::vector<uint64_t> nums;
    scheme_->BoxForSelection(q.group_by, q.selection)
        .ForEach(scheme_->GridFor(q.group_by),
                 [&](uint64_t n, const chunks::ChunkCoords&) {
                   nums.push_back(n);
                 });
    return nums;
  }

  /// The chunks of `src` that chunk `chunk_num` of `target` rolls up from,
  /// in source-box order.
  std::vector<uint64_t> SourceChunks(const GroupBySpec& target,
                                     uint64_t chunk_num,
                                     const GroupBySpec& src) const {
    auto box = scheme_->SourceBox(target, chunk_num, src);
    EXPECT_TRUE(box.ok());
    std::vector<uint64_t> nums;
    box->ForEach(scheme_->GridFor(src),
                 [&](uint64_t n, const chunks::ChunkCoords&) {
                   nums.push_back(n);
                 });
    return nums;
  }

  /// Computes chunks `nums` of `spec` on the backend and admits them into
  /// `cache` under the filter of `preds`; returns their columns by chunk.
  std::map<uint64_t, storage::AggColumns> SeedChunks(
      cache::ChunkCache* cache, const GroupBySpec& spec,
      const std::vector<uint64_t>& nums,
      const std::vector<NonGroupByPredicate>& preds) {
    WorkCounters work;
    auto computed = engine_->ComputeChunks(spec, nums, preds, &work);
    EXPECT_TRUE(computed.ok());
    std::map<uint64_t, storage::AggColumns> out;
    for (backend::ChunkData& data : *computed) {
      cache::CachedChunk c;
      c.group_by_id = scheme_->GroupById(spec);
      c.chunk_num = data.chunk_num;
      c.filter_hash = ChunkCacheManager::FilterHash(preds);
      c.benefit = scheme_->ChunkBenefit(spec);
      c.payload = storage::ChunkPayload(data.cols);
      cache->Insert(std::move(c));
      out.emplace(data.chunk_num, std::move(data.cols));
    }
    return out;
  }

  ChunkingOptions chunking_{0.2, {}};
  storage::InMemoryDiskManager disk_;
  std::unique_ptr<storage::BufferPool> pool_;
  std::unique_ptr<schema::StarSchema> schema_;
  std::unique_ptr<ChunkingScheme> scheme_;
  std::vector<Tuple> tuples_;
  std::unique_ptr<backend::ChunkedFile> file_;
  std::unique_ptr<backend::BackendEngine> engine_;
};

// ----------------------------- ChunkCacheManager ----------------------------

TEST_F(CoreFixture, ChunkManagerAnswersCorrectly) {
  ChunkCacheManager mgr = MakeChunkManager();
  const StarJoinQuery q = MisalignedQuery();
  QueryStats stats;
  auto rows = mgr.Execute(q, &stats);
  ASSERT_TRUE(rows.ok());
  ExpectRowsEqual(*rows, Naive(q), 4);
  EXPECT_GT(stats.chunks_needed, 0u);
  EXPECT_EQ(stats.chunks_from_cache, 0u);
  EXPECT_EQ(stats.chunks_from_backend, stats.chunks_needed);
  EXPECT_FALSE(stats.full_cache_hit);
  EXPECT_DOUBLE_EQ(stats.saved_fraction, 0.0);
  // modeled_ms is the paper's cost model over this query's backend work,
  // and a cold pool makes that work read pages.
  EXPECT_GT(stats.backend_work.tuples_processed, 0u);
  EXPECT_GT(stats.backend_work.pages_read, 0u);
  EXPECT_DOUBLE_EQ(stats.modeled_ms,
                   CostModel().Cost(stats.backend_work.pages_read,
                                    stats.backend_work.pages_written,
                                    stats.backend_work.tuples_processed));
}

TEST_F(CoreFixture, RepeatQueryIsFullCacheHit) {
  ChunkCacheManager mgr = MakeChunkManager();
  const StarJoinQuery q = MisalignedQuery();
  QueryStats s1, s2;
  auto r1 = mgr.Execute(q, &s1);
  ASSERT_TRUE(r1.ok());
  auto r2 = mgr.Execute(q, &s2);
  ASSERT_TRUE(r2.ok());
  ExpectRowsEqual(*r2, *r1, 4);
  EXPECT_TRUE(s2.full_cache_hit);
  EXPECT_EQ(s2.chunks_from_cache, s2.chunks_needed);
  EXPECT_EQ(s2.backend_work.pages_read, 0u);
  EXPECT_EQ(s2.backend_work.tuples_processed, 0u);
  EXPECT_DOUBLE_EQ(s2.saved_fraction, 1.0);
}

TEST_F(CoreFixture, OverlappingQueryReusesSharedChunks) {
  // The paper's Q1/Q3 motivating scenario: overlap without containment.
  ChunkCacheManager mgr = MakeChunkManager();
  StarJoinQuery q1 = MisalignedQuery();
  QueryStats s1;
  ASSERT_TRUE(mgr.Execute(q1, &s1).ok());

  StarJoinQuery q3 = q1;
  q3.selection[0] = OrdinalRange{20, 45};  // shifted: overlaps q1's [7,33]
  QueryStats s3;
  auto rows = mgr.Execute(q3, &s3);
  ASSERT_TRUE(rows.ok());
  ExpectRowsEqual(*rows, Naive(q3), 4);
  EXPECT_GT(s3.chunks_from_cache, 0u);                    // partial reuse
  EXPECT_GT(s3.chunks_from_backend, 0u);                  // and partial miss
  EXPECT_LT(s3.chunks_from_backend, s3.chunks_needed);
  EXPECT_GT(s3.saved_fraction, 0.0);
  EXPECT_LT(s3.saved_fraction, 1.0);
}

TEST_F(CoreFixture, DifferentNonGroupByFiltersDoNotMix) {
  ChunkCacheManager mgr = MakeChunkManager();
  StarJoinQuery plain = MisalignedQuery();
  QueryStats s1;
  ASSERT_TRUE(mgr.Execute(plain, &s1).ok());

  StarJoinQuery filtered = plain;
  filtered.non_group_by.push_back(
      NonGroupByPredicate{0, 3, OrdinalRange{0, 49}});
  QueryStats s2;
  auto rows = mgr.Execute(filtered, &s2);
  ASSERT_TRUE(rows.ok());
  // Must NOT reuse the unfiltered chunks (condition 3 of Section 5.2.1).
  EXPECT_EQ(s2.chunks_from_cache, 0u);
  ExpectRowsEqual(*rows, Naive(filtered), 4);

  // But a repeat of the filtered query hits its own entries.
  QueryStats s3;
  ASSERT_TRUE(mgr.Execute(filtered, &s3).ok());
  EXPECT_TRUE(s3.full_cache_hit);
}

TEST_F(CoreFixture, FilterHashDistinguishesPredicates) {
  EXPECT_EQ(ChunkCacheManager::FilterHash({}), 0u);
  std::vector<NonGroupByPredicate> a = {{0, 1, OrdinalRange{0, 3}}};
  std::vector<NonGroupByPredicate> b = {{0, 1, OrdinalRange{0, 4}}};
  std::vector<NonGroupByPredicate> c = {{1, 1, OrdinalRange{0, 3}}};
  EXPECT_NE(ChunkCacheManager::FilterHash(a), 0u);
  EXPECT_NE(ChunkCacheManager::FilterHash(a), ChunkCacheManager::FilterHash(b));
  EXPECT_NE(ChunkCacheManager::FilterHash(a), ChunkCacheManager::FilterHash(c));
  // Order-insensitive.
  std::vector<NonGroupByPredicate> ab = {a[0], b[0]};
  std::vector<NonGroupByPredicate> ba = {b[0], a[0]};
  EXPECT_EQ(ChunkCacheManager::FilterHash(ab),
            ChunkCacheManager::FilterHash(ba));
}

TEST_F(CoreFixture, CsrAccumulatorTracksSavings) {
  ChunkCacheManager mgr = MakeChunkManager();
  CsrAccumulator csr;
  const StarJoinQuery q = MisalignedQuery();
  QueryStats s;
  ASSERT_TRUE(mgr.Execute(q, &s).ok());
  csr.Record(s);
  EXPECT_DOUBLE_EQ(csr.Csr(), 0.0);  // cold cache: nothing saved
  ASSERT_TRUE(mgr.Execute(q, &s).ok());
  csr.Record(s);
  EXPECT_DOUBLE_EQ(csr.Csr(), 0.5);  // second run fully saved
}

TEST_F(CoreFixture, TinyCacheStillAnswersCorrectly) {
  ChunkManagerOptions opts;
  opts.cache_bytes = 4096;  // pathologically small
  ChunkCacheManager mgr = MakeChunkManager(opts);
  const StarJoinQuery q = MisalignedQuery();
  QueryStats s;
  auto rows = mgr.Execute(q, &s);
  ASSERT_TRUE(rows.ok());
  ExpectRowsEqual(*rows, Naive(q), 4);
}

TEST_F(CoreFixture, InCacheAggregationAnswersCoarseFromFine) {
  ChunkManagerOptions opts;
  opts.enable_in_cache_aggregation = true;
  ChunkCacheManager mgr = MakeChunkManager(opts);

  // Warm the cache with the FULL fine-level group-by.
  StarJoinQuery fine;
  fine.group_by = GroupBySpec{{1, 1, 1, 1}, 4};
  for (uint32_t d = 0; d < 4; ++d) {
    const auto& h = schema_->dimension(d).hierarchy;
    fine.selection[d] = OrdinalRange{0, h.LevelCardinality(1) - 1};
  }
  QueryStats s1;
  ASSERT_TRUE(mgr.Execute(fine, &s1).ok());

  // A coarser query must now be computable without the backend.
  StarJoinQuery coarse;
  coarse.group_by = GroupBySpec{{1, 0, 1, 0}, 4};
  coarse.selection[0] = OrdinalRange{0, 24};
  coarse.selection[1] = OrdinalRange{0, 0};
  coarse.selection[2] = OrdinalRange{0, 4};
  coarse.selection[3] = OrdinalRange{0, 0};
  QueryStats s2;
  auto rows = mgr.Execute(coarse, &s2);
  ASSERT_TRUE(rows.ok());
  ExpectRowsEqual(*rows, Naive(coarse), 4);
  EXPECT_EQ(s2.chunks_from_backend, 0u);
  EXPECT_GT(s2.chunks_from_aggregation, 0u);
  EXPECT_EQ(s2.backend_work.pages_read, 0u);
  EXPECT_TRUE(s2.full_cache_hit);

  // The derived chunks were admitted: repeating the coarse query is a
  // plain cache hit, no aggregation work.
  QueryStats s3;
  ASSERT_TRUE(mgr.Execute(coarse, &s3).ok());
  EXPECT_EQ(s3.chunks_from_aggregation, 0u);
  EXPECT_EQ(s3.chunks_from_cache, s3.chunks_needed);
}

TEST_F(CoreFixture, InCacheAggregationDisabledGoesToBackend) {
  ChunkCacheManager mgr = MakeChunkManager();  // extension off
  StarJoinQuery fine;
  fine.group_by = GroupBySpec{{1, 1, 1, 1}, 4};
  for (uint32_t d = 0; d < 4; ++d) {
    const auto& h = schema_->dimension(d).hierarchy;
    fine.selection[d] = OrdinalRange{0, h.LevelCardinality(1) - 1};
  }
  QueryStats s1;
  ASSERT_TRUE(mgr.Execute(fine, &s1).ok());
  StarJoinQuery coarse;
  coarse.group_by = GroupBySpec{{1, 0, 1, 0}, 4};
  coarse.selection[0] = OrdinalRange{0, 24};
  coarse.selection[1] = OrdinalRange{0, 0};
  coarse.selection[2] = OrdinalRange{0, 4};
  coarse.selection[3] = OrdinalRange{0, 0};
  QueryStats s2;
  ASSERT_TRUE(mgr.Execute(coarse, &s2).ok());
  EXPECT_GT(s2.chunks_from_backend, 0u);
  EXPECT_EQ(s2.chunks_from_aggregation, 0u);
}

/// Chunking whose finer levels split each level-1 chunk range in two on
/// D0 and D1 and in five on D2, so source boxes span several chunks. With
/// one range fraction at every level they are mostly a single chunk.
class RollupFixture : public CoreFixture {
 protected:
  RollupFixture() {
    chunking_.explicit_sizes = {{{5, 5, 10}}, {{5, 5}}, {{5, 5, 10}}, {{5, 25}}};
  }
};

// A failed in-cache aggregation attempt must be invisible. The only finer
// candidate is one chunk short in every source box the query needs (its
// other boxes are complete, so the count filter lets the attempt probe),
// so a tier with the extension on must end in exactly the state of a twin
// with it off: same cache.lookups and cache.hits, same victim order. LRU
// makes any stray OnAccess show in the victim order.
TEST_F(RollupFixture, FailedInCacheAggregationLeavesNoTrace) {
  const GroupBySpec target{{1, 1, 1, 1}, 4};
  const GroupBySpec fine{{3, 2, 1, 1}, 4};
  StarJoinQuery q = FullDomainQuery(target);
  q.selection[0] = OrdinalRange{0, 4};
  const std::vector<uint64_t> needed = NeededChunks(q);
  const std::set<uint64_t> queried(needed.begin(), needed.end());

  ChunkManagerOptions opts;
  opts.cache_bytes = 8ull << 20;
  opts.policy = "lru";
  ChunkManagerOptions with_opts = opts;
  with_opts.enable_in_cache_aggregation = true;
  ChunkCacheManager with(engine_.get(), with_opts);
  ChunkCacheManager without(engine_.get(), opts);
  size_t partial_boxes = 0;
  for (uint64_t t : NeededChunks(FullDomainQuery(target))) {
    std::vector<uint64_t> box = SourceChunks(target, t, fine);
    if (queried.count(t) != 0) {
      box.pop_back();  // every earlier chunk would be pinned first
      if (box.empty()) continue;
      ++partial_boxes;
    }
    SeedChunks(&with.chunk_cache(), fine, box, {});
    SeedChunks(&without.chunk_cache(), fine, box, {});
  }
  ASSERT_GT(partial_boxes, 0u);

  QueryStats s_with, s_without;
  auto r_with = with.Execute(q, &s_with);
  auto r_without = without.Execute(q, &s_without);
  ASSERT_TRUE(r_with.ok());
  ASSERT_TRUE(r_without.ok());
  EXPECT_EQ(s_with.chunks_from_aggregation, 0u);
  EXPECT_EQ(s_with.chunks_from_backend, needed.size());
  const auto a = with.metrics().TakeSnapshot();
  const auto b = without.metrics().TakeSnapshot();
  ASSERT_EQ(a.counters.at("cache.evictions"), 0u);
  for (const char* name : {"cache.lookups", "cache.hits"}) {
    EXPECT_EQ(a.counters.at(name), b.counters.at(name)) << name;
  }

  // Victim order: an entry as large as the whole cache evicts every
  // resident, in the order the policy nominates them.
  struct EvictionLog : cache::CacheEventSink {
    std::vector<cache::ChunkKey> evicted;
    void OnAdmit(const std::shared_ptr<const cache::CachedChunk>&) override {}
    void OnEvict(const cache::ChunkKey& key) override {
      evicted.push_back(key);
    }
  };
  const auto victims = [](ChunkCacheManager& mgr) {
    EvictionLog log;
    mgr.chunk_cache().SetEventSink(&log);
    cache::CachedChunk big;
    big.filter_hash = 99;
    // The most general rows whose entry fits the budget: one row more
    // (under 48 bytes) would not, so no resident fits beside it.
    const uint64_t capacity = mgr.chunk_cache().capacity_bytes();
    const auto payload_of = [](uint32_t rows) {
      storage::AggColumns cols(1);
      for (uint32_t r = 0; r < rows; ++r) cols.PushCell(&r, 3.0, 2, 1.0, 2.0);
      return storage::ChunkPayload(cols);
    };
    uint32_t fits = 0;
    uint32_t too_many = static_cast<uint32_t>(capacity / 24);
    while (too_many - fits > 1) {
      const uint32_t mid = fits + (too_many - fits) / 2;
      big.payload = payload_of(mid);
      if (big.ByteSize() <= capacity) {
        fits = mid;
      } else {
        too_many = mid;
      }
    }
    big.payload = payload_of(fits);
    EXPECT_LE(big.ByteSize(), capacity);
    EXPECT_GT(big.ByteSize() + 48, capacity);
    mgr.chunk_cache().Insert(std::move(big));
    mgr.chunk_cache().SetEventSink(nullptr);
    return log.evicted;
  };
  const std::vector<cache::ChunkKey> want = victims(without);
  EXPECT_FALSE(want.empty());
  EXPECT_TRUE(victims(with) == want);
}

// Differential check of the closure-property roll-up against the reference
// rule: chunk t of the target comes from the first strictly finer group-by,
// in ascending id order, whose whole source box is cached, folded through
// ChunkAggregator in box order — bit-identical. The cache holds random
// partial contents: for each (target chunk, candidate source) the box is
// complete, one chunk short, or absent. The degraded variant kills the
// backend instead of enabling the extension; degraded answering rolls up
// through the same function.
class RollupReferenceTest
    : public RollupFixture,
      public ::testing::WithParamInterface<std::tuple<bool, bool>> {};

TEST_P(RollupReferenceTest, RolledUpChunksMatchReferenceBitForBit) {
  const auto [filtered, degraded] = GetParam();
  const GroupBySpec target{{1, 1, 1, 1}, 4};
  const uint32_t target_id = scheme_->GroupById(target);
  StarJoinQuery q = FullDomainQuery(target);
  if (filtered) {
    q.non_group_by.push_back(NonGroupByPredicate{3, 2, OrdinalRange{0, 24}});
  }
  const uint64_t filter_hash = ChunkCacheManager::FilterHash(q.non_group_by);
  const std::vector<uint64_t> needed = NeededChunks(q);
  std::vector<uint32_t> finer;  // brute force, not the scheme's table
  for (uint32_t id = 0; id < scheme_->NumGroupByIds(); ++id) {
    if (id != target_id && target.CoarserOrEqual(scheme_->SpecOfId(id))) {
      finer.push_back(id);
    }
  }

  for (uint64_t seed : {1, 2, 3}) {
    Random rng(seed);
    ChunkManagerOptions opts;
    opts.cache_bytes = 256ull << 20;  // nothing evicts
    opts.enable_in_cache_aggregation = !degraded;
    ChunkCacheManager mgr = MakeChunkManager(opts);

    std::set<uint32_t> candidates;
    while (candidates.size() < 4) {
      candidates.insert(finer[rng.Uniform(finer.size())]);
    }
    std::map<uint32_t, std::set<uint64_t>> to_seed;
    for (uint64_t t : needed) {
      bool any_complete = false;
      for (uint32_t id : candidates) {
        std::vector<uint64_t> box =
            SourceChunks(target, t, scheme_->SpecOfId(id));
        const double roll = rng.NextDouble();
        if (roll < 0.3) {
          any_complete = true;
        } else if (roll < 0.65) {
          box.erase(box.begin() +
                    static_cast<ptrdiff_t>(rng.Uniform(box.size())));
        } else {
          continue;
        }
        to_seed[id].insert(box.begin(), box.end());
      }
      if (degraded && !any_complete) {
        // Degraded answering is all-or-nothing: give every chunk a source.
        const uint32_t id = *candidates.rbegin();
        for (uint64_t n : SourceChunks(target, t, scheme_->SpecOfId(id))) {
          to_seed[id].insert(n);
        }
      }
    }
    std::map<std::pair<uint32_t, uint64_t>, storage::AggColumns> seeded;
    for (const auto& [id, nums] : to_seed) {
      auto cols = SeedChunks(&mgr.chunk_cache(), scheme_->SpecOfId(id),
                             std::vector<uint64_t>(nums.begin(), nums.end()),
                             q.non_group_by);
      for (auto& [n, c] : cols) seeded.emplace(std::make_pair(id, n), c);
    }

    std::map<uint64_t, storage::AggColumns> want;
    for (uint64_t t : needed) {
      for (uint32_t id : finer) {
        const GroupBySpec src = scheme_->SpecOfId(id);
        const std::vector<uint64_t> box = SourceChunks(target, t, src);
        bool whole = true;
        for (uint64_t n : box) whole = whole && seeded.count({id, n}) != 0;
        if (!whole) continue;
        backend::ChunkAggregator agg(scheme_.get(), target, t,
                                     engine_->options().dense_cell_limit);
        for (uint64_t n : box) agg.AddAggColumns(seeded.at({id, n}), src);
        want.emplace(t, agg.TakeColumns());
        break;
      }
    }
    ASSERT_FALSE(want.empty());

    FaultInjector& fi = FaultInjector::Global();
    if (degraded) {
      fi.Arm(FaultSite::kFactScan, 1.0);
      fi.Arm(FaultSite::kAggScan, 1.0);
    }
    QueryStats s;
    auto rows = mgr.Execute(q, &s);
    fi.DisarmAll();
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    ExpectRowsEqual(*rows, Naive(q), 4);
    if (degraded) {
      ASSERT_EQ(want.size(), needed.size());
      EXPECT_EQ(s.degraded_answers, needed.size());
    } else {
      EXPECT_EQ(s.chunks_from_aggregation, want.size());
      EXPECT_EQ(s.chunks_from_backend, needed.size() - want.size());
    }
    EXPECT_EQ(mgr.metrics().TakeSnapshot().counters.at("cache.evictions"),
              0u);
    for (const auto& [t, cols] : want) {
      cache::ChunkHandle h =
          mgr.chunk_cache().Lookup(target_id, t, filter_hash);
      ASSERT_NE(h, nullptr) << "seed " << seed << " chunk " << t;
      EXPECT_TRUE(h->payload.ToColumns() == cols)
          << "seed " << seed << " chunk " << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    FilterAndMode, RollupReferenceTest,
    ::testing::Combine(::testing::Bool(), ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<bool, bool>>& i) {
      return std::string(std::get<0>(i.param) ? "filtered" : "unfiltered") +
             (std::get<1>(i.param) ? "_degraded" : "_in_cache");
    });

TEST_F(CoreFixture, StatsAccountingInvariantsUnderInCacheAggregation) {
  ChunkManagerOptions opts;
  opts.enable_in_cache_aggregation = true;
  ChunkCacheManager mgr = MakeChunkManager(opts);
  workload::QueryGenerator gen(schema_.get(),
                               workload::ProximityStream(321));
  for (int i = 0; i < 60; ++i) {
    QueryStats s;
    ASSERT_TRUE(mgr.Execute(gen.Next(), &s).ok());
    EXPECT_EQ(s.chunks_from_cache + s.chunks_from_aggregation +
                  s.chunks_from_backend,
              s.chunks_needed)
        << "query " << i;
    EXPECT_GE(s.saved_fraction, 0.0);
    EXPECT_LE(s.saved_fraction, 1.0);
    EXPECT_EQ(s.full_cache_hit, s.chunks_from_backend == 0);
    EXPECT_GE(s.cost_estimate, 0.0);
  }
  EXPECT_LE(mgr.chunk_cache().bytes_used(),
            mgr.chunk_cache().capacity_bytes());
}

// Scalar and AVX2 dispatch answer a whole stream bit for bit, SUM
// included, through the tier's SIMD users: the dense fold on a miss and
// the in-cache roll-up.
TEST_F(CoreFixture, ScalarEqualsAvx2ThroughTheTier) {
  if (simd::DetectedLevel() != simd::IsaLevel::kAvx2) {
    GTEST_SKIP() << "no AVX2 on this host";
  }
  auto run = [&](simd::IsaLevel level) {
    simd::ScopedLevel pin(level);
    ChunkManagerOptions opts;
    opts.enable_in_cache_aggregation = true;
    ChunkCacheManager mgr = MakeChunkManager(opts);
    workload::WorkloadOptions wopts;
    wopts.seed = 23;
    workload::QueryGenerator gen(schema_.get(), wopts);
    std::vector<std::vector<ResultRow>> rows;
    uint64_t rolled_up = 0;
    for (int i = 0; i < 300; ++i) {
      QueryStats st;
      auto r = mgr.Execute(gen.Next(), &st);
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      rows.push_back(r.ok() ? std::move(r).value() : std::vector<ResultRow>{});
      rolled_up += st.chunks_from_aggregation;
    }
    EXPECT_GT(rolled_up, 0u);
    return rows;
  };
  const auto scalar = run(simd::IsaLevel::kScalar);
  const auto avx2 = run(simd::IsaLevel::kAvx2);
  ASSERT_EQ(scalar.size(), avx2.size());
  for (size_t i = 0; i < scalar.size(); ++i) {
    ASSERT_EQ(scalar[i].size(), avx2[i].size()) << "query " << i;
    for (size_t j = 0; j < scalar[i].size(); ++j) {
      const ResultRow& a = scalar[i][j];
      const ResultRow& b = avx2[i][j];
      EXPECT_TRUE(a.coords == b.coords && a.count == b.count &&
                  std::memcmp(&a.sum, &b.sum, sizeof(a.sum)) == 0 &&
                  std::memcmp(&a.min_v, &b.min_v, sizeof(a.min_v)) == 0 &&
                  std::memcmp(&a.max_v, &b.max_v, sizeof(a.max_v)) == 0)
          << "query " << i << " row " << j;
    }
  }
}

// ----------------------------- QueryCacheManager ----------------------------

TEST_F(CoreFixture, QueryManagerAnswersAndHitsOnRepeat) {
  QueryCacheManager mgr(engine_.get(), QueryManagerOptions{});
  const StarJoinQuery q = MisalignedQuery();
  QueryStats s1, s2;
  auto r1 = mgr.Execute(q, &s1);
  ASSERT_TRUE(r1.ok());
  ExpectRowsEqual(*r1, Naive(q), 4);
  EXPECT_FALSE(s1.full_cache_hit);
  EXPECT_GT(s1.backend_work.tuples_processed, 0u);

  auto r2 = mgr.Execute(q, &s2);
  ASSERT_TRUE(r2.ok());
  ExpectRowsEqual(*r2, *r1, 4);
  EXPECT_TRUE(s2.full_cache_hit);
  EXPECT_EQ(s2.backend_work.pages_read, 0u);
  EXPECT_DOUBLE_EQ(s2.saved_fraction, 1.0);
}

TEST_F(CoreFixture, QueryManagerHitsOnContainedQuery) {
  QueryCacheManager mgr(engine_.get(), QueryManagerOptions{});
  StarJoinQuery big = MisalignedQuery();
  QueryStats s1;
  ASSERT_TRUE(mgr.Execute(big, &s1).ok());

  StarJoinQuery small = big;
  small.selection[0] = OrdinalRange{10, 20};  // inside big's [7,33]
  QueryStats s2;
  auto rows = mgr.Execute(small, &s2);
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(s2.full_cache_hit);
  ExpectRowsEqual(*rows, Naive(small), 4);
}

TEST_F(CoreFixture, QueryManagerMissesOnOverlap) {
  // The chunk scheme's key advantage: query caching cannot reuse overlap.
  QueryCacheManager mgr(engine_.get(), QueryManagerOptions{});
  StarJoinQuery q1 = MisalignedQuery();
  QueryStats s1;
  ASSERT_TRUE(mgr.Execute(q1, &s1).ok());
  StarJoinQuery q3 = q1;
  q3.selection[0] = OrdinalRange{20, 45};
  QueryStats s3;
  auto rows = mgr.Execute(q3, &s3);
  ASSERT_TRUE(rows.ok());
  EXPECT_FALSE(s3.full_cache_hit);
  EXPECT_DOUBLE_EQ(s3.saved_fraction, 0.0);
  EXPECT_GT(s3.backend_work.tuples_processed, 0u);
  ExpectRowsEqual(*rows, Naive(q3), 4);
}

// ------------------------------- NoCacheManager -----------------------------

TEST_F(CoreFixture, NoCacheAlwaysGoesToBackend) {
  NoCacheManager mgr(engine_.get());
  const StarJoinQuery q = MisalignedQuery();
  for (int i = 0; i < 2; ++i) {
    QueryStats s;
    auto rows = mgr.Execute(q, &s);
    ASSERT_TRUE(rows.ok());
    ExpectRowsEqual(*rows, Naive(q), 4);
    EXPECT_FALSE(s.full_cache_hit);
    EXPECT_DOUBLE_EQ(s.saved_fraction, 0.0);
    EXPECT_GT(s.backend_work.tuples_processed, 0u);
  }
}

TEST_F(CoreFixture, EstimateColdCostMatchesChunkCount) {
  const StarJoinQuery q = MisalignedQuery();
  uint64_t needed = 0;
  const double cost = EstimateColdCost(*scheme_, q, &needed);
  EXPECT_GT(needed, 0u);
  EXPECT_DOUBLE_EQ(cost,
                   needed * scheme_->ChunkBenefit(q.group_by));
}

// Managers must agree with each other on every query shape.
class ManagerAgreementTest
    : public CoreFixture,
      public ::testing::WithParamInterface<int> {};

TEST_P(ManagerAgreementTest, AllManagersReturnIdenticalRows) {
  const int variant = GetParam();
  StarJoinQuery q;
  switch (variant) {
    case 0:
      q = MisalignedQuery();
      break;
    case 1:  // highly aggregated
      q.group_by = GroupBySpec{{1, 0, 0, 0}, 4};
      q.selection[0] = OrdinalRange{3, 18};
      q.selection[1] = OrdinalRange{0, 0};
      q.selection[2] = OrdinalRange{0, 0};
      q.selection[3] = OrdinalRange{0, 0};
      break;
    case 2:  // base level, narrow
      q.group_by = GroupBySpec{{3, 2, 3, 2}, 4};
      q.selection[0] = OrdinalRange{10, 25};
      q.selection[1] = OrdinalRange{5, 12};
      q.selection[2] = OrdinalRange{30, 44};
      q.selection[3] = OrdinalRange{17, 29};
      break;
    case 3:  // full cube at mid level
      q.group_by = GroupBySpec{{2, 1, 2, 1}, 4};
      q.selection[0] = OrdinalRange{0, 49};
      q.selection[1] = OrdinalRange{0, 24};
      q.selection[2] = OrdinalRange{0, 24};
      q.selection[3] = OrdinalRange{0, 9};
      break;
    case 4:  // with a non-group-by predicate
      q = MisalignedQuery();
      q.non_group_by.push_back(NonGroupByPredicate{3, 2, OrdinalRange{0, 24}});
      break;
  }
  ChunkCacheManager chunk_mgr(engine_.get(), ChunkManagerOptions{});
  QueryCacheManager query_mgr(engine_.get(), QueryManagerOptions{});
  NoCacheManager none(engine_.get());
  QueryStats s;
  auto a = chunk_mgr.Execute(q, &s);
  auto b = query_mgr.Execute(q, &s);
  auto c = none.Execute(q, &s);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(c.ok());
  const auto naive = Naive(q);
  ExpectRowsEqual(*a, naive, 4);
  ExpectRowsEqual(*b, naive, 4);
  ExpectRowsEqual(*c, naive, 4);
}

INSTANTIATE_TEST_SUITE_P(QueryShapes, ManagerAgreementTest,
                         ::testing::Range(0, 5));

}  // namespace
}  // namespace chunkcache::core
