// Multi-threaded tests for the sharded chunk cache, the pinned-handle
// lifetime guarantees, and concurrent clients of one manager. Run under
// ThreadSanitizer in CI (see .github/workflows/ci.yml).

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "backend/chunked_file.h"
#include "backend/engine.h"
#include "cache/chunk_cache.h"
#include "common/random.h"
#include "core/chunk_cache_manager.h"
#include "schema/synthetic.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "workload/query_generator.h"

namespace chunkcache {
namespace {

using backend::StarJoinQuery;
using cache::CachedChunk;
using cache::ChunkCache;
using cache::ChunkHandle;
using chunks::ChunkingOptions;
using chunks::ChunkingScheme;
using chunks::GroupBySpec;
using core::ChunkCacheManager;
using core::ChunkManagerOptions;
using core::QueryStats;
using storage::AggTuple;

/// A chunk whose rows encode (group_by_id, chunk_num) so readers can verify
/// they never observe another key's data.
CachedChunk MakeChunk(uint32_t gb, uint64_t chunk_num, size_t num_rows,
                      double benefit = 1.0) {
  CachedChunk c;
  c.group_by_id = gb;
  c.chunk_num = chunk_num;
  c.benefit = benefit;
  storage::AggColumns cols(2);
  for (size_t i = 0; i < num_rows; ++i) {
    const uint32_t coords[2] = {gb, static_cast<uint32_t>(chunk_num)};
    cols.PushCell(coords, static_cast<double>(gb) * 1000 + chunk_num, i + 1,
                  0.0, 0.0);
  }
  c.payload = storage::ChunkPayload(cols);
  return c;
}

/// Exact equality — both sides are produced by the same deterministic
/// pipeline, so even the doubles must match bit-for-bit.
bool RowsEqual(const std::vector<backend::ResultRow>& a,
               const std::vector<backend::ResultRow>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].coords != b[i].coords || a[i].sum != b[i].sum ||
        a[i].count != b[i].count || a[i].min_v != b[i].min_v ||
        a[i].max_v != b[i].max_v) {
      return false;
    }
  }
  return true;
}

void ExpectChunkConsistent(const ChunkHandle& h) {
  ASSERT_NE(h, nullptr);
  const storage::AggColumns cols = h->payload.ToColumns();
  for (size_t i = 0; i < cols.size(); ++i) {
    const AggTuple row = cols.RowAt(i);
    ASSERT_EQ(row.coords[0], h->group_by_id);
    ASSERT_EQ(row.coords[1], static_cast<uint32_t>(h->chunk_num));
    ASSERT_DOUBLE_EQ(row.sum,
                     static_cast<double>(h->group_by_id) * 1000 +
                         static_cast<double>(h->chunk_num));
    ASSERT_EQ(row.count, i + 1);
  }
}

// ------------------------- sharded cache hammering --------------------------

TEST(CacheConcurrencyTest, HammerLookupInsertClearKeepsInvariants) {
  // Budget small enough that the 8 threads constantly evict each other.
  constexpr uint64_t kCapacity = 64 * 1024;
  ChunkCache cache(kCapacity, "benefit-clock", /*num_shards=*/8);
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 4000;
  std::atomic<bool> budget_violated{false};

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &budget_violated, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const uint32_t gb = static_cast<uint32_t>((t + i) % 4);
        const uint64_t chunk = static_cast<uint64_t>(i % 97);
        switch (i % 5) {
          case 0:
          case 1:
            cache.Insert(MakeChunk(gb, chunk, 1 + i % 16));
            break;
          case 2:
          case 3: {
            ChunkHandle h = cache.Lookup(gb, chunk, 0);
            if (h != nullptr) ExpectChunkConsistent(h);
            break;
          }
          case 4:
            if (i % 1000 == 4) {
              cache.Clear();
            } else if (i % 100 == 9) {
              (void)cache.GroupByCounts(4);  // cross-shard snapshot
            } else {
              cache.Contains(gb, chunk, 0);
            }
            break;
        }
        if (cache.bytes_used() > cache.capacity_bytes()) {
          budget_violated.store(true);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_FALSE(budget_violated.load());
  EXPECT_LE(cache.bytes_used(), cache.capacity_bytes());

  // Per-group-by counts must agree with a full enumeration of keys.
  uint64_t by_group = 0;
  for (uint64_t n : cache.GroupByCounts(4)) by_group += n;
  EXPECT_EQ(by_group, cache.num_chunks());

  EXPECT_EQ(cache.num_shards(), 8u);
  const MetricsRegistry::Snapshot m = cache.metrics().TakeSnapshot();
  EXPECT_GT(m.counters.at("cache.lookups"), 0u);
  EXPECT_GT(m.counters.at("cache.insertions"), 0u);
}

TEST(CacheConcurrencyTest, DisjointWritersLandEveryChunk) {
  // Huge budget: nothing evicts, so every insert must be present at the end
  // and shard accounting must add up exactly.
  ChunkCache cache(1ull << 30, "lru", /*num_shards=*/16);
  constexpr int kThreads = 8;
  constexpr int kChunks = 100;

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      for (int c = 0; c < kChunks; ++c) {
        cache.Insert(MakeChunk(static_cast<uint32_t>(t), c, 4));
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(cache.num_chunks(), static_cast<size_t>(kThreads * kChunks));
  const std::vector<uint64_t> counts = cache.GroupByCounts(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(counts[t], static_cast<uint64_t>(kChunks));
    for (int c = 0; c < kChunks; ++c) {
      ChunkHandle h = cache.Lookup(t, c, 0);
      ExpectChunkConsistent(h);
    }
  }
}

// ----------------------------- pinned handles -------------------------------

TEST(CacheConcurrencyTest, HandleSurvivesEvictionUnderLookup) {
  // Regression test for the pointer-returning Lookup of the serial cache:
  // a handle obtained before a burst of inserts must keep its rows valid
  // even after the entry is evicted and replaced.
  ChunkCache cache(8 * 1024, "lru", /*num_shards=*/1);
  cache.Insert(MakeChunk(1, 7, 8));
  ChunkHandle pinned = cache.Lookup(1, 7, 0);
  ASSERT_NE(pinned, nullptr);

  // Evict everything (each newcomer is ~half the budget).
  for (int i = 0; i < 64; ++i) {
    cache.Insert(MakeChunk(2, i, 40));
  }
  EXPECT_EQ(cache.Lookup(1, 7, 0), nullptr) << "entry should have been evicted";

  // The pinned handle still reads the original data.
  ExpectChunkConsistent(pinned);
  EXPECT_EQ(pinned->rows(), 8u);

  // Replacing the same key mints a fresh object; the old pin is untouched.
  cache.Insert(MakeChunk(1, 7, 3));
  ChunkHandle fresh = cache.Lookup(1, 7, 0);
  ASSERT_NE(fresh, nullptr);
  EXPECT_NE(fresh.get(), pinned.get());
  EXPECT_EQ(pinned->rows(), 8u);
  EXPECT_EQ(fresh->rows(), 3u);
}

TEST(CacheConcurrencyTest, ReadersValidateWhileWriterEvicts) {
  constexpr uint64_t kCapacity = 32 * 1024;
  ChunkCache cache(kCapacity, "clock", /*num_shards=*/4);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> validated{0};

  std::thread writer([&] {
    for (int round = 0; !stop.load(std::memory_order_relaxed); ++round) {
      // Each round overwrites the same 64-key working set with fresh rows,
      // forcing constant eviction + replacement under the tiny budget.
      cache.Insert(MakeChunk(round % 3, round % 64, 8 + round % 32));
    }
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      for (int i = 0; i < 20000; ++i) {
        ChunkHandle h = cache.Lookup(i % 3, i % 64, 0);
        if (h == nullptr) continue;
        ExpectChunkConsistent(h);  // rows must be internally consistent
        validated.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& th : readers) th.join();
  stop.store(true);
  writer.join();

  EXPECT_GT(validated.load(), 0u);
  EXPECT_LE(cache.bytes_used(), kCapacity);
}

// ------------------- parallel pipeline vs serial fidelity -------------------

class PipelineFixture : public ::testing::Test {
 protected:
  static constexpr uint64_t kTuples = 20000;

  void SetUp() override {
    auto s = schema::BuildPaperSchema();
    ASSERT_TRUE(s.ok());
    schema_ = std::make_unique<schema::StarSchema>(std::move(s).value());
    ChunkingOptions copts;
    copts.range_fraction = 0.2;
    auto scheme = ChunkingScheme::Build(schema_.get(), copts, kTuples);
    ASSERT_TRUE(scheme.ok());
    scheme_ = std::make_unique<ChunkingScheme>(std::move(scheme).value());

    schema::FactGenOptions gen;
    gen.num_tuples = kTuples;
    gen.seed = 61;
    tuples_ = schema::GenerateFactTuples(*schema_, gen);

    pool_ = std::make_unique<storage::BufferPool>(&disk_, 4096);
    auto file =
        backend::ChunkedFile::BulkLoad(pool_.get(), scheme_.get(), tuples_);
    ASSERT_TRUE(file.ok());
    file_ = std::make_unique<backend::ChunkedFile>(std::move(file).value());
    engine_ = std::make_unique<backend::BackendEngine>(
        pool_.get(), file_.get(), scheme_.get());
    ASSERT_TRUE(engine_->BuildBitmapIndexes().ok());
  }

  storage::InMemoryDiskManager disk_;
  std::unique_ptr<storage::BufferPool> pool_;
  std::unique_ptr<schema::StarSchema> schema_;
  std::unique_ptr<ChunkingScheme> scheme_;
  std::vector<storage::Tuple> tuples_;
  std::unique_ptr<backend::ChunkedFile> file_;
  std::unique_ptr<backend::BackendEngine> engine_;
};

TEST_F(PipelineFixture, ConcurrentClientsMatchSerialManager) {
  // A serial reference manager answers a deterministic query stream; then
  // 4 client threads replay the same stream against a concurrent manager
  // (sharded cache, each client scanning on its own thread). Every answer
  // must match.
  workload::WorkloadOptions wopts;
  wopts.seed = 99;
  constexpr int kQueries = 48;
  std::vector<StarJoinQuery> queries;
  {
    workload::QueryGenerator gen(schema_.get(), wopts);
    for (int i = 0; i < kQueries; ++i) queries.push_back(gen.Next());
  }

  ChunkManagerOptions serial_opts;
  serial_opts.cache_bytes = 8ull << 20;
  core::ChunkCacheManager serial_mgr(engine_.get(), serial_opts);
  std::vector<std::vector<backend::ResultRow>> want(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    QueryStats st;
    auto rows = serial_mgr.Execute(queries[i], &st);
    ASSERT_TRUE(rows.ok());
    want[i] = std::move(*rows);
  }

  ChunkManagerOptions par_opts = serial_opts;
  par_opts.cache_shards = 8;
  core::ChunkCacheManager par_mgr(engine_.get(), par_opts);

  constexpr int kClients = 4;
  std::atomic<size_t> next{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (size_t i = next.fetch_add(1); i < queries.size();
           i = next.fetch_add(1)) {
        QueryStats st;
        auto rows = par_mgr.Execute(queries[i], &st);
        if (!rows.ok() || !RowsEqual(*rows, want[i])) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& th : clients) th.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(par_mgr.chunk_cache().num_shards(), 8u);
}

// The chunk index's thread contract (btree.h): read-only after BulkLoad,
// with lookups that pin through the locked buffer pool, so walks may run
// at once, as every server worker's do. Four threads walk overlapping
// source boxes over the base file's index and a materialized aggregate's,
// through an 8-frame pool that evicts and re-reads pages under them, and
// read the base runs' rows. Each walk's runs, and each base walk's rows,
// must equal a serial walk's.
TEST_F(PipelineFixture, ConcurrentChunkIndexWalksMatchSerial) {
  storage::InMemoryDiskManager disk;
  storage::BufferPool pool(&disk, 8);
  auto file = backend::ChunkedFile::BulkLoad(&pool, scheme_.get(), tuples_);
  ASSERT_TRUE(file.ok());
  backend::BackendEngine engine(&pool, &*file, scheme_.get());
  const GroupBySpec mid{{2, 1, 2, 1}, 4};
  ASSERT_TRUE(engine.MaterializeAggregate(mid).ok());
  const GroupBySpec base = scheme_->BaseSpec();

  struct Walk {
    const index::BTree* chunk_index;
    std::vector<uint64_t> chunk_nums;
    std::vector<backend::RowRun> runs;
    uint64_t rows_digest = 0;  // base walks only
  };
  // Folds the rows of base `runs` into one digest; false on a read error.
  const auto digest_rows = [&](const std::vector<backend::RowRun>& runs,
                               uint64_t* digest) {
    storage::TupleColumns cols;
    for (const backend::RowRun& run : runs) {
      if (!file->fact_file().ScanRangeColumns(run.first, run.count, &cols)
               .ok()) {
        return false;
      }
    }
    uint64_t h = cols.size();
    for (size_t i = 0; i < cols.size(); ++i) {
      for (uint32_t d = 0; d < cols.num_dims; ++d) {
        h = (h ^ cols.keys[d][i]) * 0x100000001b3ULL;
      }
      h = (h ^ static_cast<uint64_t>(cols.measure[i] * 1024)) *
          0x100000001b3ULL;
    }
    *digest = h;
    return true;
  };
  std::vector<Walk> walks;
  Random rng(5);
  for (const GroupBySpec& source : {base, mid}) {
    for (int i = 0; i < 24; ++i) {
      GroupBySpec target{{}, 4};
      for (uint32_t d = 0; d < 4; ++d) {
        target.levels[d] =
            static_cast<uint8_t>(rng.Uniform(source.levels[d] + 1u));
      }
      auto box = scheme_->SourceBox(
          target, rng.Uniform(scheme_->GridFor(target).num_chunks()), source);
      ASSERT_TRUE(box.ok());
      Walk w;
      w.chunk_index = source == base ? &file->chunk_index()
                                     : &engine.materialized()[0].chunk_index();
      box->ForEach(scheme_->GridFor(source),
                   [&](uint64_t c, const chunks::ChunkCoords&) {
                     w.chunk_nums.push_back(c);
                   });
      auto runs = backend::CoalescedChunkRuns(*w.chunk_index, w.chunk_nums, 0);
      ASSERT_TRUE(runs.ok());
      w.runs = std::move(*runs);
      if (source == base) {
        ASSERT_TRUE(digest_rows(w.runs, &w.rows_digest));
      }
      walks.push_back(std::move(w));
    }
  }

  constexpr int kThreads = 4;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t k = 0; k < 3 * walks.size(); ++k) {
        const Walk& w = walks[(k + t * walks.size() / kThreads) % walks.size()];
        auto runs =
            backend::CoalescedChunkRuns(*w.chunk_index, w.chunk_nums, 0);
        bool same = runs.ok() && *runs == w.runs;
        if (same && w.chunk_index == &file->chunk_index()) {
          uint64_t digest = 0;
          same = digest_rows(*runs, &digest) && digest == w.rows_digest;
        }
        if (!same) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(pool.stats().evictions, 0u);
}

}  // namespace
}  // namespace chunkcache
