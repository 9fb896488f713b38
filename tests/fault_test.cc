// Failure-injection tests: a DiskManager decorator that starts failing
// after a programmable number of operations verifies that every layer
// (buffer pool, fact file, B+Tree, bitmap index, backend engine, middle
// tier) propagates Status instead of crashing or corrupting siblings, and
// that a recovered disk leaves readable state behind.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "backend/chunked_file.h"
#include "backend/engine.h"
#include "common/fault_injector.h"
#include "common/retry.h"
#include "common/trace.h"
#include "core/chunk_cache_manager.h"
#include "index/bitmap_index.h"
#include "index/btree.h"
#include "schema/synthetic.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/fact_file.h"
#include "reference_oracle.h"
#include "storm_iters.h"

namespace chunkcache {
namespace {

using storage::BufferPool;
using storage::DiskManager;
using storage::InMemoryDiskManager;
using storage::Page;
using storage::PageId;
using storage::Tuple;
using storage::TupleDesc;

/// Decorator that fails reads/writes once `budget` operations have been
/// consumed. budget < 0 disables injection.
class FaultyDiskManager final : public DiskManager {
 public:
  explicit FaultyDiskManager(DiskManager* inner) : inner_(inner) {}

  void SetBudget(int64_t ops) { budget_ = ops; }

  uint32_t CreateFile() override { return inner_->CreateFile(); }

  Result<PageId> AllocatePage(uint32_t file_id) override {
    if (Exhausted()) return Status::IoError("injected allocation fault");
    return inner_->AllocatePage(file_id);
  }
  Status ReadPage(PageId id, Page* out) override {
    if (Exhausted()) return Status::IoError("injected read fault");
    CountRead();
    return inner_->ReadPage(id, out);
  }
  Status WritePage(PageId id, const Page& page) override {
    if (Exhausted()) return Status::IoError("injected write fault");
    CountWrite();
    return inner_->WritePage(id, page);
  }

 private:
  bool Exhausted() {
    if (budget_ < 0) return false;
    if (budget_ == 0) return true;
    --budget_;
    return false;
  }

  DiskManager* inner_;
  int64_t budget_ = -1;
};

TEST(FaultTest, FactFileAppendSurfacesIoError) {
  InMemoryDiskManager real;
  FaultyDiskManager disk(&real);
  BufferPool pool(&disk, 4);  // tiny pool forces eviction I/O
  auto file = storage::FactFile::Create(&pool, TupleDesc{2});
  ASSERT_TRUE(file.ok());
  Tuple t;
  t.keys[0] = 1;
  disk.SetBudget(3);
  Status last = Status::OK();
  for (int i = 0; i < 100000 && last.ok(); ++i) {
    last = file->Append(t).status();
  }
  EXPECT_EQ(last.code(), StatusCode::kIoError);
  // Disabling injection makes the file usable again.
  disk.SetBudget(-1);
  EXPECT_TRUE(file->Append(t).ok());
}

TEST(FaultTest, BTreeOperationsSurfaceIoErrorsAtEveryStage) {
  InMemoryDiskManager real;
  FaultyDiskManager disk(&real);
  BufferPool pool(&disk, 8);
  std::vector<std::pair<uint64_t, index::BTreePayload>> entries;
  for (uint64_t k = 0; k < 2000; ++k) {
    entries.emplace_back(k, index::BTreePayload{k, 0});
  }
  auto tree = index::BTree::BulkLoad(&pool, entries);
  ASSERT_TRUE(tree.ok());
  // Fail during lookups at several budgets: must return IoError, never
  // crash or return wrong data.
  for (int64_t budget : {0, 1, 2, 3, 5}) {
    disk.SetBudget(budget);
    auto got = tree->Get(1234);
    if (got.ok()) {
      EXPECT_EQ(got->v1, 1234u);
    } else {
      EXPECT_EQ(got.status().code(), StatusCode::kIoError);
    }
  }
  disk.SetBudget(-1);
  auto got = tree->Get(1234);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->v1, 1234u);
  ASSERT_TRUE(tree->CheckInvariants().ok());
}

TEST(FaultTest, EngineAndMiddleTierPropagateBackendFaults) {
  InMemoryDiskManager real;
  FaultyDiskManager disk(&real);
  BufferPool pool(&disk, 512);
  auto s = schema::BuildPaperSchema();
  ASSERT_TRUE(s.ok());
  auto schema = std::make_unique<schema::StarSchema>(std::move(s).value());
  chunks::ChunkingOptions copts;
  copts.range_fraction = 0.2;
  auto scheme = chunks::ChunkingScheme::Build(schema.get(), copts, 10000);
  ASSERT_TRUE(scheme.ok());
  schema::FactGenOptions gen;
  gen.num_tuples = 10000;
  auto file = backend::ChunkedFile::BulkLoad(
      &pool, &*scheme, schema::GenerateFactTuples(*schema, gen));
  ASSERT_TRUE(file.ok());
  backend::BackendEngine engine(&pool, &*file, &*scheme);
  ASSERT_TRUE(engine.BuildBitmapIndexes().ok());
  ASSERT_TRUE(pool.FlushAll().ok());
  ASSERT_TRUE(pool.EvictAll().ok());

  core::ChunkCacheManager tier(&engine, core::ChunkManagerOptions{});
  backend::StarJoinQuery q;
  q.group_by = chunks::GroupBySpec{{2, 1, 2, 1}, 4};
  q.selection[0] = {0, 49};
  q.selection[1] = {0, 24};
  q.selection[2] = {0, 24};
  q.selection[3] = {0, 9};

  // A cold query with a zero I/O budget must fail cleanly...
  disk.SetBudget(0);
  core::QueryStats stats;
  auto rows = tier.Execute(q, &stats);
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kIoError);

  // ...and succeed once the disk recovers, with correct contents.
  disk.SetBudget(-1);
  auto ok_rows = tier.Execute(q, &stats);
  ASSERT_TRUE(ok_rows.ok());
  EXPECT_GT(ok_rows->size(), 0u);

  // A later injected fault mid-stream must not poison subsequent queries.
  disk.SetBudget(5);
  backend::StarJoinQuery q2 = q;
  q2.selection[0] = {10, 39};
  (void)tier.Execute(q2, &stats);
  disk.SetBudget(-1);
  auto again = tier.Execute(q2, &stats);
  ASSERT_TRUE(again.ok());
  EXPECT_GT(again->size(), 0u);
}

TEST(FaultTest, BitmapIndexReadFaultsPropagate) {
  InMemoryDiskManager real;
  FaultyDiskManager disk(&real);
  BufferPool pool(&disk, 64);
  auto file = storage::FactFile::Create(&pool, TupleDesc{2});
  ASSERT_TRUE(file.ok());
  for (uint32_t i = 0; i < 5000; ++i) {
    Tuple t;
    t.keys[0] = i % 10;
    ASSERT_TRUE(file->Append(t).ok());
  }
  auto built = index::BitmapIndex::BuildMany(&pool, &*file, {{0, 10}});
  ASSERT_TRUE(built.ok());
  index::BitmapIndex& idx = (*built)[0];
  ASSERT_TRUE(pool.FlushAll().ok());
  ASSERT_TRUE(pool.EvictAll().ok());
  disk.SetBudget(0);
  index::Bitmap b;
  EXPECT_EQ(idx.ReadBitmap(3, &b).code(), StatusCode::kIoError);
  disk.SetBudget(-1);
  ASSERT_TRUE(idx.ReadBitmap(3, &b).ok());
  EXPECT_EQ(b.CountSet(), 500u);
}

// ------------------- compiled-in fault-injection framework ------------------

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

/// Like RowsEqual, but sums compare up to floating-point rounding: a chunk
/// assembled from cached finer chunks adds the same measures in a different
/// association order than a direct base scan, so its sum may differ in the
/// last ulps (the repo's in-cache aggregation tests use the same latitude).
/// Coordinates, counts, and min/max stay exact.
bool RowsNear(const std::vector<backend::ResultRow>& a,
              const std::vector<backend::ResultRow>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].coords != b[i].coords || a[i].count != b[i].count ||
        a[i].min_v != b[i].min_v || a[i].max_v != b[i].max_v) {
      return false;
    }
    const double tol = 1e-9 * std::max(1.0, std::abs(a[i].sum));
    if (std::abs(a[i].sum - b[i].sum) > tol) return false;
  }
  return true;
}

/// The injector is process-wide; restore it to pristine on entry and exit
/// of every test so a failing test cannot leak armed sites into successors.
struct InjectorReset {
  InjectorReset() { Reset(); }
  ~InjectorReset() { Reset(); }
  static void Reset() {
    FaultInjector::Global().DisarmAll();
    FaultInjector::Global().ResetCounters();
  }
};

TEST(FaultInjectorTest, DisarmedInjectorNeverFires) {
  InjectorReset guard;
  FaultInjector& fi = FaultInjector::Global();
  EXPECT_FALSE(fi.armed());
  EXPECT_TRUE(fi.Check(FaultSite::kDiskRead).ok());
  EXPECT_FALSE(fi.ShouldInject(FaultSite::kFactScan));
  EXPECT_EQ(fi.faults_injected(), 0u);
}

TEST(FaultInjectorTest, BudgetAndSkipAreExact) {
  InjectorReset guard;
  FaultInjector& fi = FaultInjector::Global();
  fi.Arm(FaultSite::kDiskRead, 1.0, StatusCode::kIoError, /*max_faults=*/3,
         /*skip_ops=*/2);
  EXPECT_TRUE(fi.armed());
  int faults = 0;
  for (int i = 0; i < 10; ++i) {
    if (!fi.Check(FaultSite::kDiskRead).ok()) ++faults;
  }
  // Ops 0-1 skipped, ops 2-4 fault, then the budget is spent.
  EXPECT_EQ(faults, 3);
  EXPECT_EQ(fi.faults_injected(FaultSite::kDiskRead), 3u);
  EXPECT_EQ(fi.checks(), 10u);

  // The surfaced status carries the configured code and names the site.
  fi.Arm(FaultSite::kAggScan, 1.0, StatusCode::kResourceExhausted);
  Status s = fi.Check(FaultSite::kAggScan);
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(s.ToString().find("agg-scan"), std::string::npos);
}

TEST(FaultInjectorTest, SeededDrawsReproduceOnOneThread) {
  InjectorReset guard;
  FaultInjector& fi = FaultInjector::Global();
  fi.Arm(FaultSite::kFactScan, 0.0);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(fi.Check(FaultSite::kFactScan).ok());
  }
  fi.Arm(FaultSite::kFactScan, 0.5);
  fi.Seed(1234);
  std::vector<bool> first;
  for (int i = 0; i < 64; ++i) {
    first.push_back(!fi.Check(FaultSite::kFactScan).ok());
  }
  fi.Seed(1234);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(!fi.Check(FaultSite::kFactScan).ok(), first[i]) << i;
  }
}

TEST(FaultInjectorTest, ChecksumTurnsBitFlipsIntoCorruption) {
  InjectorReset guard;
  InMemoryDiskManager disk;
  const uint32_t file_id = disk.CreateFile();
  auto id = disk.AllocatePage(file_id);
  ASSERT_TRUE(id.ok());
  Page p;
  for (size_t i = 0; i < p.data.size(); ++i) {
    p.data[i] = static_cast<uint8_t>(i * 31 + 7);
  }
  ASSERT_TRUE(disk.WritePage(*id, p).ok());

  FaultInjector& fi = FaultInjector::Global();
  fi.Arm(FaultSite::kDiskCorrupt, 1.0, StatusCode::kIoError, /*max_faults=*/1);
  Page out;
  Status s = disk.ReadPage(*id, &out);
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
  EXPECT_EQ(disk.stats().checksum_failures, 1u);

  // The flip hit the served copy, not the store: a retry reads clean.
  Page again;
  ASSERT_TRUE(disk.ReadPage(*id, &again).ok());
  EXPECT_EQ(std::memcmp(again.data.data(), p.data.data(), p.data.size()), 0);
}

// A page allocated and never written is covered by the zero page's
// checksum: it reads clean, and a flip in a read of it is caught.
TEST(FaultInjectorTest, NeverWrittenPageIsStillVerified) {
  InjectorReset guard;
  InMemoryDiskManager disk;
  const uint32_t file_id = disk.CreateFile();
  auto first = disk.AllocatePage(file_id);
  auto second = disk.AllocatePage(file_id);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  Page out;
  ASSERT_TRUE(disk.ReadPage(*second, &out).ok());

  FaultInjector& fi = FaultInjector::Global();
  fi.Arm(FaultSite::kDiskCorrupt, 1.0, StatusCode::kIoError, /*max_faults=*/1);
  EXPECT_EQ(disk.ReadPage(*first, &out).code(), StatusCode::kCorruption);
  EXPECT_EQ(disk.stats().checksum_failures, 1u);
  ASSERT_TRUE(disk.ReadPage(*first, &out).ok());
  for (uint8_t b : out.data) ASSERT_EQ(b, 0);
}

// The disk-alloc and disk-write sites are crossed only while files are
// built; the storms arm them after the build, when queries only read. Here
// each is armed for one fault at its first, a middle and its last crossing
// during a build (BulkLoad, BuildBitmapIndexes, FlushAll), with a pool that
// holds every page and one that must write pages back while loading. The
// fault must surface as an IoError naming its site from whichever call
// crossed it; the sanitizer builds check that nothing leaks on the way.
TEST(FaultInjectorTest, LoadTimeDiskFaultsSurfaceFromTheBuild) {
  InjectorReset guard;
  auto s = schema::BuildPaperSchema();
  ASSERT_TRUE(s.ok());
  const schema::StarSchema schema = std::move(s).value();
  chunks::ChunkingOptions copts;
  copts.range_fraction = 0.2;
  auto scheme = chunks::ChunkingScheme::Build(&schema, copts, 2000);
  ASSERT_TRUE(scheme.ok());
  schema::FactGenOptions gen;
  gen.num_tuples = 2000;
  const std::vector<Tuple> tuples = schema::GenerateFactTuples(schema, gen);
  const auto build = [&](size_t frames) -> Status {
    InMemoryDiskManager disk;
    BufferPool pool(&disk, frames);
    auto file = backend::ChunkedFile::BulkLoad(&pool, &*scheme, tuples);
    if (!file.ok()) return file.status();
    backend::BackendEngine engine(&pool, &*file, &*scheme);
    CHUNKCACHE_RETURN_IF_ERROR(engine.BuildBitmapIndexes());
    return pool.FlushAll();
  };

  FaultInjector& fi = FaultInjector::Global();
  for (const FaultSite site : {FaultSite::kDiskAlloc, FaultSite::kDiskWrite}) {
    for (const size_t frames : {2048, 16}) {
      // A dry run armed at probability 0 counts the site's crossings.
      fi.ResetCounters();
      fi.Arm(site, 0.0);
      ASSERT_TRUE(build(frames).ok());
      const uint64_t crossings = fi.checks();
      fi.DisarmAll();
      ASSERT_GE(crossings, 2u) << FaultSiteName(site) << " " << frames;
      for (const uint64_t skip : {uint64_t{0}, crossings / 2, crossings - 1}) {
        fi.ResetCounters();
        fi.Arm(site, 1.0, StatusCode::kIoError, /*max_faults=*/1, skip);
        const Status st = build(frames);
        fi.DisarmAll();
        const std::string where = std::string(FaultSiteName(site)) + " " +
                                  std::to_string(frames) + " frames, skip " +
                                  std::to_string(skip);
        EXPECT_EQ(fi.faults_injected(site), 1u) << where;
        EXPECT_EQ(st.code(), StatusCode::kIoError) << where;
        EXPECT_NE(st.ToString().find(FaultSiteName(site)), std::string::npos)
            << where << ": " << st.ToString();
      }
    }
  }
}

/// Backend + middle tier over a healthy in-memory disk; faults come from
/// the compiled-in injection sites rather than a decorator, so the whole
/// production stack (checksums, retries, degraded mode) is exercised.
class RobustTierFixture : public ::testing::Test {
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
    pool_ = std::make_unique<BufferPool>(&disk_, 512);
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
    // All pages clean: the storm workload is read-only, so armed write
    // faults cannot be triggered by background eviction of load-time dirt.
    ASSERT_TRUE(pool_->FlushAll().ok());
  }

  void TearDown() override { InjectorReset::Reset(); }

  backend::StarJoinQuery FullDomainQuery(const chunks::GroupBySpec& gb) const {
    backend::StarJoinQuery q;
    q.group_by = gb;
    for (uint32_t d = 0; d < schema_->num_dims(); ++d) {
      q.selection[d] = {
          0, schema_->dimension(d).hierarchy.LevelCardinality(gb.levels[d]) -
                 1};
    }
    return q;
  }

  backend::StarJoinQuery CoarseQuery() const {
    return FullDomainQuery(chunks::GroupBySpec{{2, 1, 2, 1}, 4});
  }

  InMemoryDiskManager disk_;
  std::unique_ptr<schema::StarSchema> schema_;
  std::unique_ptr<chunks::ChunkingScheme> scheme_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<backend::ChunkedFile> file_;
  std::unique_ptr<backend::BackendEngine> engine_;
};

TEST_F(RobustTierFixture, RetryRecoversFromTransientFaults) {
  core::ChunkCacheManager tier(engine_.get(), core::ChunkManagerOptions());
  const auto q = CoarseQuery();
  core::QueryStats stats;
  auto ref = tier.Execute(q, &stats);
  ASSERT_TRUE(ref.ok());
  tier.chunk_cache().Clear();

  // Two scan faults, the tier's three attempts: the query must recover on
  // the last attempt without surfacing any error.
  FaultInjector& fi = FaultInjector::Global();
  fi.Arm(FaultSite::kFactScan, 1.0, StatusCode::kResourceExhausted,
         /*max_faults=*/2);
  core::QueryStats retry_stats;
  auto rows = tier.Execute(q, &retry_stats);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_TRUE(RowsEqual(*rows, *ref));
  EXPECT_EQ(retry_stats.retries, 2u);
  EXPECT_EQ(fi.faults_injected(FaultSite::kFactScan), 2u);

  tier.RefreshMetrics();
  const auto snap = tier.metrics().TakeSnapshot();
  EXPECT_GE(snap.counters.at("backend.retries"), 2u);
  EXPECT_GE(snap.gauges.at("faults.injected"), 2);
}

TEST_F(RobustTierFixture, DegradedModeAnswersFromFinerChunks) {
  const core::ChunkManagerOptions opts{};
  core::ChunkCacheManager tier(engine_.get(), opts);
  core::ChunkCacheManager reference(engine_.get(), opts);

  const auto coarse = CoarseQuery();
  core::QueryStats ref_stats;
  auto ref = reference.Execute(coarse, &ref_stats);
  ASSERT_TRUE(ref.ok());

  // Warm the cache with the full base-level domain — strictly finer than
  // the coarse query in every dimension, so the closure property applies.
  const auto fine = FullDomainQuery(chunks::GroupBySpec{{3, 2, 3, 2}, 4});
  core::QueryStats warm_stats;
  ASSERT_TRUE(tier.Execute(fine, &warm_stats).ok());
  EXPECT_GT(warm_stats.chunks_from_backend, 0u);

  // Kill the backend at both scan layers.
  FaultInjector& fi = FaultInjector::Global();
  fi.Arm(FaultSite::kFactScan, 1.0);
  fi.Arm(FaultSite::kAggScan, 1.0);

  core::QueryStats stats;
  auto rows = tier.Execute(coarse, &stats);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_TRUE(RowsNear(*rows, *ref));
  EXPECT_EQ(stats.chunks_from_backend, 0u);
  EXPECT_EQ(stats.degraded_answers, stats.chunks_needed);
  EXPECT_GE(stats.retries, 1u);
  EXPECT_GE(
      tier.metrics().TakeSnapshot().counters.at("chunks.degraded_answers"),
      stats.degraded_answers);

  // The degraded answer is exactly what the healthy in-cache-aggregation
  // extension produces from the same cached chunks — bit-for-bit: the
  // closure-property roll-up is one deterministic code path, degraded
  // mode only changes when it runs.
  auto agg_opts = opts;
  agg_opts.enable_in_cache_aggregation = true;
  core::ChunkCacheManager agg_tier(engine_.get(), agg_opts);
  fi.DisarmAll();
  core::QueryStats agg_warm;
  ASSERT_TRUE(agg_tier.Execute(fine, &agg_warm).ok());
  core::QueryStats agg_stats;
  auto agg_rows = agg_tier.Execute(coarse, &agg_stats);
  ASSERT_TRUE(agg_rows.ok());
  EXPECT_GT(agg_stats.chunks_from_aggregation, 0u);
  EXPECT_TRUE(RowsEqual(*rows, *agg_rows));
  fi.Arm(FaultSite::kFactScan, 1.0);
  fi.Arm(FaultSite::kAggScan, 1.0);

  // Without a cached closure set the same dead backend is a clean error.
  tier.chunk_cache().Clear();
  core::QueryStats cold;
  auto dead = tier.Execute(coarse, &cold);
  ASSERT_FALSE(dead.ok());
  EXPECT_EQ(dead.status().code(), StatusCode::kIoError);

  fi.DisarmAll();
  core::QueryStats healthy_stats;
  auto healthy = tier.Execute(coarse, &healthy_stats);
  ASSERT_TRUE(healthy.ok());
  EXPECT_TRUE(RowsEqual(*healthy, *ref));
}

TEST_F(RobustTierFixture, GoldenDegradedTrace) {
  core::ChunkManagerOptions opts;
  opts.trace_capacity = 4;
  core::ChunkCacheManager tier(engine_.get(), opts);
  core::QueryStats warm_stats;
  ASSERT_TRUE(
      tier.Execute(FullDomainQuery(chunks::GroupBySpec{{3, 2, 3, 2}, 4}),
                   &warm_stats)
          .ok());

  FaultInjector& fi = FaultInjector::Global();
  fi.Arm(FaultSite::kFactScan, 1.0);
  fi.Arm(FaultSite::kAggScan, 1.0);
  const auto coarse = CoarseQuery();
  core::QueryStats stats;
  auto rows = tier.Execute(coarse, &stats);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(stats.degraded_answers, stats.chunks_needed);
  ASSERT_GT(stats.retries, 0u);

  // The failed scan stays under the miss pipeline, the roll-up that
  // replaced it is its sibling, and the root says how many chunks were
  // answered degraded.
  using Tags = std::vector<std::pair<std::string, std::string>>;
  struct WantSpan {
    std::string name;
    uint32_t parent;
    Tags tags;
  };
  const std::string n = std::to_string(stats.chunks_needed);
  const std::vector<WantSpan> want = {
      {"execute",
       kNoParentSpan,
       {{"group_by", coarse.group_by.ToString()},
        {"chunks_needed", n},
        {"status", "Ok"},
        {"degraded_chunks", n}}},
      {"decompose", 0, {{"chunks", n}}},
      {"cache_probe", 0, {{"hits", "0"}, {"owned", n}, {"waits", "0"}}},
      {"miss_pipeline",
       0,
       {{"chunks", n},
        {"provenance", "degraded"},
        {"retries", std::to_string(stats.retries)}}},
      {"scan_aggregate", 3, {}},
      {"degraded_rollup", 3, {{"chunks", n}}},
      {"rollup", 0, {{"rows", std::to_string(rows->size())}}}};
  const auto latest = tier.trace_recorder()->Latest(1);
  ASSERT_EQ(latest.size(), 1u);
  const std::vector<TraceSpan>& spans = latest[0].spans;
  ASSERT_EQ(spans.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(spans[i].name, want[i].name) << "span " << i;
    EXPECT_EQ(spans[i].parent, want[i].parent) << "span " << i;
    EXPECT_EQ(spans[i].tags, want[i].tags) << "span " << i;
  }
}

TEST_F(RobustTierFixture, ExpiredControlFailsFastWithoutPoisoningInflight) {
  core::ChunkCacheManager mgr(engine_.get(), core::ChunkManagerOptions());
  // Through the interface the serving layer uses: the control must reach
  // the chunk tier's pipeline, not be dropped on the way.
  core::MiddleTier& tier = mgr;
  const auto q = CoarseQuery();
  const uint64_t errors_before =
      mgr.metrics().TakeSnapshot().counter("query.errors");

  ExecControl expired;
  expired.deadline = Deadline(std::chrono::steady_clock::now() -
                              std::chrono::milliseconds(1));
  core::QueryStats stats;
  auto rows = tier.Execute(q, &stats, expired);
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kDeadlineExceeded);

  CancellationSource source;
  source.Cancel();
  ExecControl cancelled;
  cancelled.cancel = source.token();
  auto c = tier.Execute(q, &stats, cancelled);
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(mgr.metrics().TakeSnapshot().counter("query.errors"),
            errors_before + 2);

  // Neither failure claimed an in-flight slot: the same query runs clean
  // immediately, with no dead owner to time out on.
  core::QueryStats ok_stats;
  auto ok = tier.Execute(q, &ok_stats);
  ASSERT_TRUE(ok.ok());
  EXPECT_GT(ok->size(), 0u);
}

// ------------------------------- fault storm --------------------------------

class FaultStorm : public RobustTierFixture {};

TEST_F(FaultStorm, SeededStormNeverCorruptsAndRecoversBitIdentical) {
  core::ChunkManagerOptions opts;
  opts.cache_shards = 4;
  core::ChunkCacheManager tier(engine_.get(), opts);

  std::vector<backend::StarJoinQuery> queries;
  queries.push_back(CoarseQuery());
  {
    auto q = CoarseQuery();
    q.selection[0] = {10, 39};
    q.selection[2] = {5, 19};
    queries.push_back(q);
  }
  queries.push_back(FullDomainQuery(chunks::GroupBySpec{{1, 1, 1, 1}, 4}));
  {
    auto q = FullDomainQuery(chunks::GroupBySpec{{3, 2, 3, 2}, 4});
    q.selection[0] = {0, 59};
    queries.push_back(q);
  }
  queries.push_back(FullDomainQuery(chunks::GroupBySpec{{2, 2, 1, 2}, 4}));

  // Healthy reference answers.
  std::vector<std::vector<backend::ResultRow>> ref;
  for (const auto& q : queries) {
    core::QueryStats s;
    auto rows = tier.Execute(q, &s);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    ref.push_back(std::move(*rows));
  }

  const int iters = StormIters(3);  // the fault_storm entry raises this
  constexpr int kThreads = 3;

  FaultInjector& fi = FaultInjector::Global();
  for (int iter = 0; iter < iters; ++iter) {
    fi.Seed(0xC0FFEE00ull + static_cast<uint64_t>(iter));
    fi.ResetCounters();
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
          core::QueryStats s;
          auto rows = tier.Execute(queries[qi], &s, ctrl);
          if (rows.ok()) {
            // A query that answers at all must answer exactly: injected
            // faults may fail queries but never corrupt results. (Sums
            // compare up to fp rounding — degraded answers re-associate.)
            if (!RowsNear(*rows, ref[qi])) {
              std::lock_guard<std::mutex> lock(err_mu);
              violations.push_back("wrong rows for query " +
                                   std::to_string(qi));
            }
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
    EXPECT_GT(fi.checks(), 0u);
    EXPECT_GT(fi.faults_injected(), 0u) << "iteration " << iter;

    // Faults off: every answer must come back, bit-identical to healthy.
    fi.DisarmAll();
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      core::QueryStats s;
      auto rows = tier.Execute(queries[qi], &s);
      ASSERT_TRUE(rows.ok()) << rows.status().ToString();
      EXPECT_TRUE(RowsNear(*rows, ref[qi]))
          << "query " << qi << " iteration " << iter;
    }
  }
}

}  // namespace
}  // namespace chunkcache
