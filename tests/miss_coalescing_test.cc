// Tests for cross-query miss coalescing: the in-flight (singleflight)
// table, failure propagation to waiters, reclaiming a chunk whose owner
// gave up, and the exactly-one-computation-per-distinct-chunk guarantee
// under query storms. Runs under ThreadSanitizer in CI (see
// .github/workflows/ci.yml).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "backend/chunked_file.h"
#include "backend/engine.h"
#include "cache/chunk_cache.h"
#include "common/fault_injector.h"
#include "common/inflight_table.h"
#include "core/chunk_cache_manager.h"
#include "schema/synthetic.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "workload/query_generator.h"

namespace chunkcache {
namespace {

using backend::RowRun;
using backend::StarJoinQuery;
using chunks::ChunkingOptions;
using chunks::ChunkingScheme;
using core::ChunkCacheManager;
using core::ChunkManagerOptions;
using core::QueryStats;

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

uint64_t TotalKernels(const backend::BackendEngine& engine) {
  const backend::AggKernelStats ks = engine.kernel_stats();
  return ks.dense_kernels + ks.hash_kernels;
}

/// The cache probes `mgr`'s queries have made so far.
uint64_t Lookups(const ChunkCacheManager& mgr) {
  return mgr.metrics().TakeSnapshot().counters.at("cache.lookups");
}

/// The answer of a cold, serial, default-options manager: with nothing
/// cached and no concurrent query, every chunk comes from the backend.
std::vector<backend::ResultRow> ReferenceRows(backend::BackendEngine* engine,
                                              const StarJoinQuery& q) {
  ChunkCacheManager ref(engine, ChunkManagerOptions());
  QueryStats st;
  auto rows = ref.Execute(q, &st);
  EXPECT_TRUE(rows.ok());
  return std::move(*rows);
}

// ------------------------------ InflightTable -------------------------------

TEST(InflightTableTest, OwnerPublishesAndWaiterReceivesSharedValue) {
  InflightTable<int, int> table;
  auto first = table.Acquire(7);
  ASSERT_TRUE(first.owner);
  auto second = table.Acquire(7);
  EXPECT_FALSE(second.owner);
  EXPECT_EQ(second.slot.get(), first.slot.get());
  EXPECT_EQ(table.size(), 1u);

  table.Publish(7, first.slot, 42);
  auto got = second.slot->Wait();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, 42);

  // Publish retires the entry: the key is claimable again.
  EXPECT_EQ(table.size(), 0u);
  EXPECT_TRUE(table.Acquire(7).owner);
  EXPECT_GE(table.peak(), 1u);
}

TEST(InflightTableTest, WaitBlocksUntilPublish) {
  InflightTable<int, int> table;
  auto owner = table.Acquire(1);
  ASSERT_TRUE(owner.owner);
  auto waiter = table.Acquire(1);
  ASSERT_FALSE(waiter.owner);

  std::atomic<bool> received{false};
  std::thread t([&] {
    auto got = waiter.slot->Wait();
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, 99);
    received.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(received.load());
  table.Publish(1, owner.slot, 99);
  t.join();
  EXPECT_TRUE(received.load());
}

TEST(InflightTableTest, FailWakesWaitersWithErrorAndRetiresEntry) {
  InflightTable<int, int> table;
  auto owner = table.Acquire(3);
  auto waiter = table.Acquire(3);
  table.Fail(3, owner.slot, Status::IoError("boom"));

  auto got = waiter.slot->Wait();
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kIoError);

  // The failed entry is retired so a retry recomputes instead of waiting
  // forever on a dead slot.
  EXPECT_EQ(table.size(), 0u);
  auto retry = table.Acquire(3);
  EXPECT_TRUE(retry.owner);
  table.Publish(3, retry.slot, 5);
  auto ok = retry.slot->Wait();
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 5);
}

// ----------------------------- CoalesceRowRuns ------------------------------

TEST(CoalesceRowRunsTest, MaxRowsCapSplitsOnRunBoundaries) {
  std::vector<RowRun> runs = {{20, 10, 1}, {0, 10, 1}, {10, 10, 1}};
  // Unlimited: all three back-to-back runs merge into one read.
  auto merged = backend::CoalesceRowRuns(runs);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].first, 0u);
  EXPECT_EQ(merged[0].count, 30u);
  EXPECT_EQ(merged[0].chunks, 3u);

  // Capped at 25 rows: the third run would overflow the cap, so the split
  // lands on its boundary — no run is ever cut in half.
  auto capped = backend::CoalesceRowRuns(runs, /*max_rows=*/25);
  ASSERT_EQ(capped.size(), 2u);
  EXPECT_EQ(capped[0].first, 0u);
  EXPECT_EQ(capped[0].count, 20u);
  EXPECT_EQ(capped[1].first, 20u);
  EXPECT_EQ(capped[1].count, 10u);

  // Non-adjacent runs never merge, capped or not.
  std::vector<RowRun> gappy = {{0, 5, 1}, {7, 5, 1}};
  EXPECT_EQ(backend::CoalesceRowRuns(gappy, 100).size(), 2u);
}

// ------------------------------ storm fixture -------------------------------

class MissCoalescingFixture : public ::testing::Test {
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

  /// A deterministic generated query needing at least `min_chunks` chunks.
  StarJoinQuery PickQuery(uint64_t min_chunks, uint32_t seed = 17) {
    workload::WorkloadOptions wopts;
    wopts.seed = seed;
    workload::QueryGenerator gen(schema_.get(), wopts);
    for (int i = 0; i < 256; ++i) {
      StarJoinQuery q = gen.Next();
      const auto box = scheme_->BoxForSelection(q.group_by, q.selection);
      if (box.NumChunks() >= min_chunks && q.non_group_by.empty()) return q;
    }
    ADD_FAILURE() << "no generated query needs >= " << min_chunks
                  << " chunks";
    return StarJoinQuery{};
  }

  storage::InMemoryDiskManager disk_;
  std::unique_ptr<storage::BufferPool> pool_;
  std::unique_ptr<schema::StarSchema> schema_;
  std::unique_ptr<ChunkingScheme> scheme_;
  std::vector<storage::Tuple> tuples_;
  std::unique_ptr<backend::ChunkedFile> file_;
  std::unique_ptr<backend::BackendEngine> engine_;
};

TEST_F(MissCoalescingFixture, IdenticalStormComputesEachDistinctChunkOnce) {
  const StarJoinQuery query = PickQuery(/*min_chunks=*/6);
  const uint64_t distinct =
      scheme_->BoxForSelection(query.group_by, query.selection).NumChunks();
  const std::vector<backend::ResultRow> want =
      ReferenceRows(engine_.get(), query);

  ChunkManagerOptions opts;
  opts.cache_shards = 8;
  ChunkCacheManager mgr(engine_.get(), opts);
  const uint64_t kernels_before = TotalKernels(*engine_);

  constexpr int kThreads = 16;
  std::vector<QueryStats> stats(kThreads);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto rows = mgr.Execute(query, &stats[t]);
      if (!rows.ok() || !RowsEqual(*rows, want)) mismatches.fetch_add(1);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);

  // Exactly one backend computation per distinct chunk: the kernel tally
  // increments once per computed chunk, so a single duplicated chunk
  // (a cache race, a second owner, ...) fails this equality.
  EXPECT_EQ(TotalKernels(*engine_) - kernels_before, distinct);
  uint64_t backend_total = 0;
  uint64_t accounted = 0;
  for (const QueryStats& st : stats) {
    EXPECT_EQ(st.chunks_needed, distinct);
    backend_total += st.chunks_from_backend;
    accounted += st.chunks_from_backend + st.chunks_from_cache +
                 st.coalesced_waits + st.chunks_from_aggregation;
  }
  EXPECT_EQ(backend_total, distinct);
  EXPECT_EQ(accounted, static_cast<uint64_t>(kThreads) * distinct);

  mgr.RefreshMetrics();
  EXPECT_GE(mgr.metrics().TakeSnapshot().gauges.at("inflight.peak"), 1);
}

TEST_F(MissCoalescingFixture, OverlappingStormComputesUnionOnce) {
  const StarJoinQuery base = PickQuery(/*min_chunks=*/8);
  // Variants restrict the first dimension whose selection spans >= 2
  // ordinals; all variant chunk sets are subsets of the base query's.
  std::vector<StarJoinQuery> variants = {base};
  for (uint32_t d = 0; d < base.group_by.num_dims; ++d) {
    const auto& r = base.selection[d];
    if (r.end > r.begin) {
      const uint32_t mid = r.begin + (r.end - r.begin) / 2;
      StarJoinQuery lo = base;
      lo.selection[d].end = mid;
      StarJoinQuery hi = base;
      hi.selection[d].begin = mid;
      variants.push_back(lo);
      variants.push_back(hi);
      break;
    }
  }
  const uint64_t distinct =
      scheme_->BoxForSelection(base.group_by, base.selection).NumChunks();
  std::vector<std::vector<backend::ResultRow>> want;
  want.reserve(variants.size());
  for (const auto& q : variants) {
    want.push_back(ReferenceRows(engine_.get(), q));
  }

  ChunkManagerOptions opts;
  opts.cache_shards = 8;
  ChunkCacheManager mgr(engine_.get(), opts);
  const uint64_t kernels_before = TotalKernels(*engine_);

  constexpr int kThreads = 16;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const size_t v = static_cast<size_t>(t) % variants.size();
      QueryStats st;
      auto rows = mgr.Execute(variants[v], &st);
      if (!rows.ok() || !RowsEqual(*rows, want[v])) mismatches.fetch_add(1);
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(mismatches.load(), 0);
  // The union of all variants' chunks is exactly the base query's set, and
  // every distinct chunk was computed exactly once across the whole storm.
  EXPECT_EQ(TotalKernels(*engine_) - kernels_before, distinct);
}

// --------------------------- fault / gate fixture ---------------------------

/// DiskManager decorator with (a) an injectable read fault and (b) a gate
/// that blocks ReadPage while closed — used to hold a scan mid-flight so
/// concurrent requests pile up deterministically.
class GateDiskManager final : public storage::DiskManager {
 public:
  explicit GateDiskManager(storage::DiskManager* inner) : inner_(inner) {}

  void CloseGate() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = false;
  }
  void OpenGate() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }
  int blocked_readers() const {
    std::lock_guard<std::mutex> lock(mu_);
    return blocked_;
  }
  void set_fail_reads(bool v) {
    fail_reads_.store(v, std::memory_order_relaxed);
  }

  uint32_t CreateFile() override { return inner_->CreateFile(); }
  Result<storage::PageId> AllocatePage(uint32_t file_id) override {
    return inner_->AllocatePage(file_id);
  }
  Status ReadPage(storage::PageId id, storage::Page* out) override {
    if (fail_reads_.load(std::memory_order_relaxed)) {
      return Status::IoError("injected read fault");
    }
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (!open_) {
        ++blocked_;
        cv_.wait(lock, [&] { return open_; });
        --blocked_;
      }
    }
    return inner_->ReadPage(id, out);
  }
  Status WritePage(storage::PageId id, const storage::Page& page) override {
    return inner_->WritePage(id, page);
  }

 private:
  storage::DiskManager* inner_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = true;
  int blocked_ = 0;
  std::atomic<bool> fail_reads_{false};
};

class GatedBackendFixture : public ::testing::Test {
 protected:
  static constexpr uint64_t kTuples = 6000;

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
    gen.seed = 7;
    tuples_ = schema::GenerateFactTuples(*schema_, gen);

    gate_ = std::make_unique<GateDiskManager>(&disk_);
    // Tiny pool: reads cannot hide in the buffer pool, so gates and
    // injected faults always reach the disk layer.
    pool_ = std::make_unique<storage::BufferPool>(gate_.get(), 4);
    auto file =
        backend::ChunkedFile::BulkLoad(pool_.get(), scheme_.get(), tuples_);
    ASSERT_TRUE(file.ok());
    file_ = std::make_unique<backend::ChunkedFile>(std::move(file).value());
    engine_ = std::make_unique<backend::BackendEngine>(
        pool_.get(), file_.get(), scheme_.get());
    ASSERT_TRUE(engine_->BuildBitmapIndexes().ok());
  }

  /// The fault injector is process-wide: leave it disarmed for the next
  /// test.
  void TearDown() override {
    FaultInjector::Global().DisarmAll();
    FaultInjector::Global().ResetCounters();
  }

  /// Polls `cond` for up to 30 s; returns its final value.
  template <typename Cond>
  static bool WaitFor(Cond cond) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!cond() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return cond();
  }

  storage::InMemoryDiskManager disk_;
  std::unique_ptr<GateDiskManager> gate_;
  std::unique_ptr<storage::BufferPool> pool_;
  std::unique_ptr<schema::StarSchema> schema_;
  std::unique_ptr<ChunkingScheme> scheme_;
  std::vector<storage::Tuple> tuples_;
  std::unique_ptr<backend::ChunkedFile> file_;
  std::unique_ptr<backend::BackendEngine> engine_;
};

TEST_F(GatedBackendFixture, FailureReachesAllWaitersAndRetrySucceeds) {
  workload::WorkloadOptions wopts;
  wopts.seed = 5;
  workload::QueryGenerator gen(schema_.get(), wopts);
  const StarJoinQuery query = gen.Next();
  const std::vector<backend::ResultRow> want = [&] {
    ChunkCacheManager ref(engine_.get(), ChunkManagerOptions());
    QueryStats st;
    auto rows = ref.Execute(query, &st);
    EXPECT_TRUE(rows.ok());
    return std::move(*rows);
  }();

  ChunkManagerOptions opts;
  opts.cache_shards = 4;
  ChunkCacheManager mgr(engine_.get(), opts);

  gate_->set_fail_reads(true);
  constexpr int kThreads = 8;
  std::atomic<int> oks{0};
  std::atomic<int> io_errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      QueryStats st;
      auto rows = mgr.Execute(query, &st);
      if (rows.ok()) {
        oks.fetch_add(1);
      } else if (rows.status().code() == StatusCode::kIoError) {
        io_errors.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();

  // Nothing was cached, so every storm thread — owners and coalesced
  // waiters alike — must see the injected fault, and nobody deadlocks.
  EXPECT_EQ(oks.load(), 0);
  EXPECT_EQ(io_errors.load(), kThreads);

  // The failed entries were retired, so after the disk heals a retry
  // recomputes from scratch and matches the reference bit-for-bit.
  gate_->set_fail_reads(false);
  QueryStats st;
  auto rows = mgr.Execute(query, &st);
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(RowsEqual(*rows, want));
  EXPECT_GT(st.chunks_from_backend, 0u);
}

TEST_F(GatedBackendFixture, WaiterOutlivesOwnersDeadline) {
  workload::WorkloadOptions wopts;
  wopts.seed = 5;
  workload::QueryGenerator gen(schema_.get(), wopts);
  const StarJoinQuery query = gen.Next();
  const std::vector<backend::ResultRow> want =
      ReferenceRows(engine_.get(), query);

  ChunkCacheManager mgr(engine_.get(), ChunkManagerOptions());

  // Owner A claims every chunk of the query under a 1 s deadline and
  // stalls on its first read behind the closed gate.
  ASSERT_TRUE(pool_->FlushAll().ok());
  ASSERT_TRUE(pool_->EvictAll().ok());
  gate_->CloseGate();
  ExecControl ctrl_a;
  ctrl_a.deadline = Deadline::AfterMs(1000);
  QueryStats st_a;
  Result<std::vector<backend::ResultRow>> res_a = Status::Internal("not run");
  std::thread a([&] { res_a = mgr.Execute(query, &st_a, ctrl_a); });
  ASSERT_TRUE(WaitFor([&] { return gate_->blocked_readers() > 0; }))
      << "owner never reached the disk";
  const uint64_t owner_lookups = Lookups(mgr);

  // Waiter B, with no deadline, finds every chunk owned by A and waits.
  // The pause after its probes lets its claims land while A owns them.
  QueryStats st_b;
  Result<std::vector<backend::ResultRow>> res_b = Status::Internal("not run");
  std::thread b([&] { res_b = mgr.Execute(query, &st_b); });
  ASSERT_TRUE(WaitFor([&] {
    return Lookups(mgr) == 2 * owner_lookups;
  })) << "waiter never probed";
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // Once A's deadline has passed, A's stalled read fails once, retryably.
  // RunWithRetry finds the deadline spent before a second attempt, so A
  // fails its slots with DeadlineExceeded.
  ASSERT_TRUE(WaitFor([&] { return ctrl_a.deadline.expired(); }));
  FaultInjector& fi = FaultInjector::Global();
  fi.Arm(FaultSite::kDiskRead, 1.0, StatusCode::kIoError, /*max_faults=*/1);
  gate_->OpenGate();
  a.join();
  b.join();
  ASSERT_FALSE(res_a.ok());
  EXPECT_EQ(res_a.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(fi.faults_injected(FaultSite::kDiskRead), 1u);

  // A's deadline was A's alone: B claimed every chunk again and computed
  // it itself.
  ASSERT_TRUE(res_b.ok()) << res_b.status().ToString();
  EXPECT_TRUE(RowsEqual(*res_b, want));
  EXPECT_EQ(st_b.deadline_expired, 0u);
  EXPECT_EQ(st_b.chunks_from_backend, st_b.chunks_needed);
  EXPECT_EQ(st_b.chunks_from_backend + st_b.chunks_from_cache +
                st_b.coalesced_waits,
            st_b.chunks_needed);
}

TEST_F(GatedBackendFixture, WaiterTraceShowsWaitCoalesced) {
  workload::WorkloadOptions wopts;
  wopts.seed = 5;
  workload::QueryGenerator gen(schema_.get(), wopts);
  const StarJoinQuery query = gen.Next();

  ChunkManagerOptions opts;
  opts.trace_capacity = 4;
  ChunkCacheManager mgr(engine_.get(), opts);

  // Owner A claims every chunk of the query and stalls in its scan behind
  // the closed gate.
  ASSERT_TRUE(pool_->FlushAll().ok());
  ASSERT_TRUE(pool_->EvictAll().ok());
  gate_->CloseGate();
  QueryStats st_a;
  Result<std::vector<backend::ResultRow>> res_a = Status::Internal("not run");
  std::thread a([&] { res_a = mgr.Execute(query, &st_a); });
  ASSERT_TRUE(WaitFor([&] { return gate_->blocked_readers() > 0; }))
      << "owner never reached the disk";
  const uint64_t owner_lookups = Lookups(mgr);

  // Traced waiter B probes every chunk, finds each owned by A and waits.
  // Its last probe is followed at once by its last claim; the pause before
  // the gate opens lets that claim land while A still owns the chunk.
  QueryStats st_b;
  Result<std::vector<backend::ResultRow>> res_b = Status::Internal("not run");
  std::thread b([&] { res_b = mgr.Execute(query, &st_b); });
  ASSERT_TRUE(WaitFor([&] {
    return Lookups(mgr) == 2 * owner_lookups;
  })) << "waiter never probed";
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  gate_->OpenGate();
  a.join();
  b.join();
  ASSERT_TRUE(res_a.ok()) << res_a.status().ToString();
  ASSERT_TRUE(res_b.ok()) << res_b.status().ToString();
  ASSERT_EQ(st_b.coalesced_waits, st_b.chunks_needed);

  // B's tree: nothing hit or owned, every chunk collected from A.
  const std::string n = std::to_string(st_b.chunks_needed);
  using Tags = std::vector<std::pair<std::string, std::string>>;
  const std::vector<std::pair<std::string, Tags>> want = {
      {"execute",
       {{"group_by", query.group_by.ToString()},
        {"chunks_needed", n},
        {"status", "Ok"},
        {"coalesced_waits", n}}},
      {"decompose", {{"chunks", n}}},
      {"cache_probe", {{"hits", "0"}, {"owned", "0"}, {"waits", n}}},
      {"wait_coalesced", {{"chunks", n}}},
      {"rollup", {{"rows", std::to_string(res_b->size())}}}};
  const QueryTrace* waiter = nullptr;
  const std::vector<QueryTrace> traces = mgr.trace_recorder()->Latest(2);
  for (const QueryTrace& t : traces) {
    if (t.spans.size() > 2 && t.spans[2].name == "cache_probe" &&
        t.spans[2].tags == want[2].second) {
      waiter = &t;
    }
  }
  ASSERT_NE(waiter, nullptr) << "no trace with an all-waits probe";
  ASSERT_EQ(waiter->spans.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(waiter->spans[i].name, want[i].first) << "span " << i;
    EXPECT_EQ(waiter->spans[i].parent, i == 0 ? kNoParentSpan : 0u)
        << "span " << i;
    EXPECT_EQ(waiter->spans[i].tags, want[i].second) << "span " << i;
  }
}

}  // namespace
}  // namespace chunkcache
