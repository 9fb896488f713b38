// Golden-structure tests for the per-query trace spans: the span tree a
// canned workload produces is asserted name-by-name, parent-by-parent,
// tag-by-tag — durations and timestamps excluded — and must be bit-stable
// across runs. A serial workload never waits on another query's chunk, so
// it never shows a wait_coalesced span.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "backend/chunked_file.h"
#include "backend/engine.h"
#include "common/trace.h"
#include "core/chunk_cache_manager.h"
#include "schema/synthetic.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"

namespace chunkcache::core {
namespace {

using backend::StarJoinQuery;
using chunks::ChunkingOptions;
using chunks::ChunkingScheme;
using chunks::GroupBySpec;
using schema::OrdinalRange;

// The duration-free shape of a span: everything the golden tests compare.
struct SpanShape {
  std::string name;
  uint32_t parent = kNoParentSpan;
  std::vector<std::pair<std::string, std::string>> tags;

  bool operator==(const SpanShape& o) const {
    return name == o.name && parent == o.parent && tags == o.tags;
  }
};

using TraceShape = std::vector<SpanShape>;

TraceShape ShapeOf(const QueryTrace& t) {
  TraceShape out;
  out.reserve(t.spans.size());
  for (const TraceSpan& s : t.spans) {
    out.push_back(SpanShape{s.name, s.parent, s.tags});
  }
  return out;
}

std::vector<TraceShape> ShapesOf(TraceRecorder* rec, size_t n) {
  std::vector<TraceShape> out;
  for (const QueryTrace& t : rec->Latest(n)) out.push_back(ShapeOf(t));
  return out;
}

std::string Describe(const TraceShape& shape) {
  std::string out;
  for (const SpanShape& s : shape) {
    out += s.name + "(parent=" +
           (s.parent == kNoParentSpan ? std::string("root")
                                      : std::to_string(s.parent)) +
           ";";
    for (const auto& [k, v] : s.tags) out += " " + k + "=" + v;
    out += ")\n";
  }
  return out;
}

const std::string* TagValue(const SpanShape& s, const std::string& key) {
  for (const auto& [k, v] : s.tags) {
    if (k == key) return &v;
  }
  return nullptr;
}

class TraceFixture : public ::testing::Test {
 protected:
  static constexpr uint64_t kTuples = 10000;

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
    gen.seed = 23;
    pool_ = std::make_unique<storage::BufferPool>(&disk_, 4096);
    auto file = backend::ChunkedFile::BulkLoad(
        pool_.get(), scheme_.get(), schema::GenerateFactTuples(*schema_, gen));
    ASSERT_TRUE(file.ok());
    file_ = std::make_unique<backend::ChunkedFile>(std::move(file).value());
    engine_ = std::make_unique<backend::BackendEngine>(pool_.get(),
                                                       file_.get(),
                                                       scheme_.get());
    ASSERT_TRUE(engine_->BuildBitmapIndexes().ok());
  }

  /// Serial tracing options: one worker and one shard so the canned 4-d
  /// workload below is fully deterministic.
  static ChunkManagerOptions TracedOptions() {
    ChunkManagerOptions opts;
    opts.num_workers = 1;
    opts.cache_shards = 1;
    opts.trace_capacity = 32;
    return opts;
  }

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

  /// The canned 4-d workload: a misaligned-selection query (cold), the
  /// same query again (all hits), the full domain at the same group-by
  /// (partial hits), then the full domain one level coarser — which can
  /// be answered entirely by in-cache aggregation when that is enabled.
  std::vector<StarJoinQuery> CannedWorkload() const {
    StarJoinQuery q1;
    q1.group_by = GroupBySpec{{2, 1, 2, 1}, 4};
    q1.selection[0] = OrdinalRange{7, 33};
    q1.selection[1] = OrdinalRange{3, 11};
    q1.selection[2] = OrdinalRange{1, 17};
    q1.selection[3] = OrdinalRange{2, 7};
    return {q1, q1, FullDomainQuery(GroupBySpec{{2, 1, 2, 1}, 4}),
            FullDomainQuery(GroupBySpec{{1, 1, 1, 1}, 4})};
  }

  std::vector<TraceShape> RunWorkload(ChunkManagerOptions opts) {
    ChunkCacheManager mgr(engine_.get(), opts);
    const std::vector<StarJoinQuery> workload = CannedWorkload();
    for (const StarJoinQuery& q : workload) {
      QueryStats stats;
      auto rows = mgr.Execute(q, &stats);
      EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    }
    EXPECT_NE(mgr.trace_recorder(), nullptr);
    return ShapesOf(mgr.trace_recorder(), workload.size());
  }

  storage::InMemoryDiskManager disk_;
  std::unique_ptr<storage::BufferPool> pool_;
  std::unique_ptr<schema::StarSchema> schema_;
  std::unique_ptr<ChunkingScheme> scheme_;
  std::unique_ptr<backend::ChunkedFile> file_;
  std::unique_ptr<backend::BackendEngine> engine_;
};

TEST_F(TraceFixture, GoldenSpanTreeColdThenWarm) {
  ChunkCacheManager mgr(engine_.get(), TracedOptions());
  StarJoinQuery q;
  q.group_by = GroupBySpec{{2, 1, 2, 1}, 4};
  q.selection[0] = OrdinalRange{7, 33};
  q.selection[1] = OrdinalRange{3, 11};
  q.selection[2] = OrdinalRange{1, 17};
  q.selection[3] = OrdinalRange{2, 7};
  QueryStats stats;
  auto rows = mgr.Execute(q, &stats);
  ASSERT_TRUE(rows.ok());
  ASSERT_GT(stats.chunks_needed, 0u);

  TraceRecorder* rec = mgr.trace_recorder();
  ASSERT_NE(rec, nullptr);
  auto latest = rec->Latest(1);
  ASSERT_EQ(latest.size(), 1u);
  const TraceShape cold = ShapeOf(latest[0]);
  SCOPED_TRACE(Describe(cold));

  // Cold query: every chunk misses, so the tree is
  //   execute -> decompose, cache_probe, miss_pipeline -> scan_aggregate,
  //   rollup.
  ASSERT_EQ(cold.size(), 6u);
  const std::string chunks = std::to_string(stats.chunks_needed);

  EXPECT_EQ(cold[0].name, "execute");
  EXPECT_EQ(cold[0].parent, kNoParentSpan);
  ASSERT_NE(TagValue(cold[0], "group_by"), nullptr);
  EXPECT_EQ(*TagValue(cold[0], "group_by"), q.group_by.ToString());
  EXPECT_EQ(*TagValue(cold[0], "chunks_needed"), chunks);
  EXPECT_EQ(*TagValue(cold[0], "status"), "Ok");

  EXPECT_EQ(cold[1].name, "decompose");
  EXPECT_EQ(cold[1].parent, 0u);
  EXPECT_EQ(*TagValue(cold[1], "chunks"), chunks);

  EXPECT_EQ(cold[2].name, "cache_probe");
  EXPECT_EQ(cold[2].parent, 0u);
  EXPECT_EQ(*TagValue(cold[2], "hits"), "0");
  EXPECT_EQ(*TagValue(cold[2], "owned"), chunks);
  EXPECT_EQ(*TagValue(cold[2], "waits"), "0");

  EXPECT_EQ(cold[3].name, "miss_pipeline");
  EXPECT_EQ(cold[3].parent, 0u);
  EXPECT_EQ(*TagValue(cold[3], "chunks"), chunks);
  EXPECT_EQ(*TagValue(cold[3], "provenance"), "backend");

  EXPECT_EQ(cold[4].name, "scan_aggregate");
  EXPECT_EQ(cold[4].parent, 3u);

  EXPECT_EQ(cold[5].name, "rollup");
  EXPECT_EQ(cold[5].parent, 0u);
  EXPECT_EQ(*TagValue(cold[5], "rows"), std::to_string(rows->size()));

  // Every span's duration was closed (no kOpen sentinels leak out), and
  // children start no earlier than their parent.
  for (const TraceSpan& s : latest[0].spans) {
    EXPECT_NE(s.duration_ns, ~uint64_t{0}) << s.name;
    if (s.parent != kNoParentSpan) {
      EXPECT_GE(s.start_ns, latest[0].spans[s.parent].start_ns) << s.name;
    }
  }

  // Warm repeat: all hits — no miss pipeline, no scan.
  QueryStats warm_stats;
  ASSERT_TRUE(mgr.Execute(q, &warm_stats).ok());
  ASSERT_EQ(warm_stats.chunks_from_cache, warm_stats.chunks_needed);
  auto warm_latest = rec->Latest(1);
  ASSERT_EQ(warm_latest.size(), 1u);
  const TraceShape warm = ShapeOf(warm_latest[0]);
  SCOPED_TRACE(Describe(warm));
  ASSERT_EQ(warm.size(), 4u);
  EXPECT_EQ(warm[0].name, "execute");
  EXPECT_EQ(warm[1].name, "decompose");
  EXPECT_EQ(warm[2].name, "cache_probe");
  EXPECT_EQ(*TagValue(warm[2], "hits"), chunks);
  EXPECT_EQ(*TagValue(warm[2], "owned"), "0");
  EXPECT_EQ(warm[3].name, "rollup");
}

TEST_F(TraceFixture, SpanStructureBitStableAcrossRuns) {
  const std::vector<TraceShape> run1 = RunWorkload(TracedOptions());
  const std::vector<TraceShape> run2 = RunWorkload(TracedOptions());
  ASSERT_EQ(run1.size(), run2.size());
  for (size_t i = 0; i < run1.size(); ++i) {
    EXPECT_EQ(run1[i], run2[i])
        << "trace " << i << " diverged:\n--- run1:\n" << Describe(run1[i])
        << "--- run2:\n" << Describe(run2[i]);
  }
}

TEST_F(TraceFixture, InCacheAggregationEmitsItsSpan) {
  ChunkManagerOptions opts = TracedOptions();
  opts.enable_in_cache_aggregation = true;
  const std::vector<TraceShape> shapes = RunWorkload(opts);
  ASSERT_EQ(shapes.size(), 4u);
  // The last query (full domain, one level coarser than the now fully
  // cached group-by) must carry an aggregate_in_cache span with at least
  // one rolled-up chunk.
  const TraceShape& t = shapes.back();
  SCOPED_TRACE(Describe(t));
  const SpanShape* agg = nullptr;
  for (const SpanShape& s : t) {
    if (s.name == "aggregate_in_cache") agg = &s;
  }
  ASSERT_NE(agg, nullptr);
  ASSERT_NE(TagValue(*agg, "chunks"), nullptr);
  EXPECT_NE(*TagValue(*agg, "chunks"), "0");
}

TEST_F(TraceFixture, RingRetentionDropsOldestAndKeepsIds) {
  ChunkManagerOptions opts = TracedOptions();
  opts.trace_capacity = 2;
  ChunkCacheManager mgr(engine_.get(), opts);
  const StarJoinQuery q = FullDomainQuery(GroupBySpec{{1, 1, 1, 1}, 4});
  for (int i = 0; i < 3; ++i) {
    QueryStats stats;
    ASSERT_TRUE(mgr.Execute(q, &stats).ok());
  }
  TraceRecorder* rec = mgr.trace_recorder();
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->recorded(), 3u);
  const auto latest = rec->Latest(10);
  ASSERT_EQ(latest.size(), 2u);
  // Oldest first, ids assigned in admission order.
  EXPECT_EQ(latest[0].id, 2u);
  EXPECT_EQ(latest[1].id, 3u);
}

TEST_F(TraceFixture, DisabledTracingRecordsNothing) {
  ChunkManagerOptions opts = TracedOptions();
  opts.trace_capacity = 0;
  ChunkCacheManager mgr(engine_.get(), opts);
  EXPECT_EQ(mgr.trace_recorder(), nullptr);
  const StarJoinQuery q = FullDomainQuery(GroupBySpec{{1, 1, 1, 1}, 4});
  QueryStats stats;
  ASSERT_TRUE(mgr.Execute(q, &stats).ok());
}

TEST_F(TraceFixture, ExportJsonlIsOneObjectPerTrace) {
  ChunkCacheManager mgr(engine_.get(), TracedOptions());
  for (const StarJoinQuery& q : CannedWorkload()) {
    QueryStats stats;
    ASSERT_TRUE(mgr.Execute(q, &stats).ok());
  }
  const std::string jsonl = mgr.trace_recorder()->ExportJsonl(2);
  // Two lines, each a self-contained object with the root span.
  size_t lines = 0;
  for (char c : jsonl) lines += c == '\n';
  EXPECT_EQ(lines, 2u);
  EXPECT_NE(jsonl.find("\"trace\": "), std::string::npos);
  EXPECT_NE(jsonl.find("\"name\": \"execute\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"parent\": -1"), std::string::npos);
  EXPECT_NE(jsonl.find("\"tags\": {"), std::string::npos);
  EXPECT_EQ(jsonl.find("\"duration_ns\": 18446744073709551615"),
            std::string::npos)
      << "open-duration sentinel leaked into the export";
}

}  // namespace
}  // namespace chunkcache::core
