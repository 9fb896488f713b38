// Reproduces Figure 14: bitmap-index star-join performance on a randomly
// ordered fact file vs the chunked (multidimensionally clustered) file,
// across query selectivities. Expected shape (paper, Section 4.2): for
// selective queries the clustered file touches far fewer fact pages —
// matching tuples land in few chunks — while at low selectivity the two
// organizations converge (every page is touched either way).

#include <cstdio>
#include <memory>

#include "bench/common/experiment.h"
#include "core/query_cache_manager.h"

namespace chunkcache::bench {
namespace {

using backend::StarJoinQuery;
using schema::OrdinalRange;

struct Variant {
  std::unique_ptr<storage::InMemoryDiskManager> disk;
  std::unique_ptr<storage::BufferPool> pool;
  std::unique_ptr<backend::ChunkedFile> file;
  std::unique_ptr<backend::BackendEngine> engine;
};

Result<Variant> BuildVariant(const ExperimentConfig& config,
                             schema::StarSchema* schema,
                             chunks::ChunkingScheme* scheme, bool clustered) {
  Variant v;
  v.disk = std::make_unique<storage::InMemoryDiskManager>();
  v.pool = std::make_unique<storage::BufferPool>(v.disk.get(),
                                                 config.pool_frames);
  schema::FactGenOptions gen;
  gen.num_tuples = config.num_tuples;
  gen.seed = config.data_seed;
  std::vector<storage::Tuple> tuples = schema::GenerateFactTuples(*schema,
                                                                  gen);
  CHUNKCACHE_ASSIGN_OR_RETURN(
      backend::ChunkedFile file,
      backend::ChunkedFile::BulkLoad(v.pool.get(), scheme,
                                     std::move(tuples), clustered));
  v.file = std::make_unique<backend::ChunkedFile>(std::move(file));
  backend::BackendOptions bopts;
  bopts.bitmap_selectivity_threshold = 1.0;  // always take the bitmap path
  v.engine = std::make_unique<backend::BackendEngine>(
      v.pool.get(), v.file.get(), scheme, bopts);
  CHUNKCACHE_RETURN_IF_ERROR(v.engine->BuildBitmapIndexes());
  return v;
}

int Run() {
  const ExperimentConfig config = ExperimentConfig::FromEnv();
  PrintSetup(config, "Figure 14: bitmap performance, random vs chunked file");
  auto s = schema::BuildPaperSchema();
  if (!s.ok()) return 1;
  auto schema = std::make_unique<schema::StarSchema>(std::move(s).value());
  chunks::ChunkingOptions copts;
  copts.range_fraction = config.range_fraction;
  auto scheme_or = chunks::ChunkingScheme::Build(schema.get(), copts,
                                                 config.num_tuples);
  if (!scheme_or.ok()) return 1;
  auto scheme = std::make_unique<chunks::ChunkingScheme>(
      std::move(scheme_or).value());

  auto random_v = BuildVariant(config, schema.get(), scheme.get(),
                               /*clustered=*/false);
  auto chunked_v = BuildVariant(config, schema.get(), scheme.get(),
                                /*clustered=*/true);
  if (!random_v.ok() || !chunked_v.ok()) {
    std::fprintf(stderr, "build failed\n");
    return 1;
  }

  std::printf("%-22s %12s | %14s %14s | %14s %14s\n", "selection",
              "selectivity", "random pages", "random ms", "chunked pages",
              "chunked ms");

  // Range selections on D0 and D2 at base level of increasing width; each
  // query starts cold (buffer pool flushed), as on the paper's raw device.
  struct Shape {
    uint32_t w0;  // width on D0 (100 base values)
    uint32_t w2;  // width on D2 (50 base values)
  };
  for (const Shape& shape : {Shape{1, 1}, Shape{2, 2}, Shape{4, 4},
                             Shape{8, 8}, Shape{16, 16}, Shape{32, 25},
                             Shape{64, 50}, Shape{100, 50}}) {
    StarJoinQuery q;
    q.group_by = chunks::GroupBySpec{{3, 0, 3, 0}, 4};
    q.selection[0] = OrdinalRange{10, 10 + shape.w0 - 1};
    q.selection[1] = OrdinalRange{0, 0};
    q.selection[2] = OrdinalRange{5, 5 + shape.w2 - 1};
    q.selection[3] = OrdinalRange{0, 0};
    if (q.selection[0].end > 99) q.selection[0] = OrdinalRange{0, shape.w0 - 1};
    if (q.selection[2].end > 49) q.selection[2] = OrdinalRange{0, shape.w2 - 1};

    double pages[2], ms[2];
    int idx = 0;
    for (Variant* v : {&*random_v, &*chunked_v}) {
      if (!v->pool->FlushAll().ok() || !v->pool->EvictAll().ok()) return 1;
      v->disk->ResetStats();
      WorkCounters work;
      auto rows = v->engine->ExecuteStarJoin(q, &work);
      if (!rows.ok()) {
        std::fprintf(stderr, "query failed: %s\n",
                     rows.status().ToString().c_str());
        return 1;
      }
      // Report only fact-file page fetches' effect: total physical reads
      // minus the bitmap reads is dominated by tuple fetches; both
      // variants pay identical bitmap costs, so totals remain comparable.
      pages[idx] = static_cast<double>(work.pages_read);
      ms[idx] = CostModel().Cost(work.pages_read, work.pages_written,
                                  work.tuples_processed);
      ++idx;
    }
    const double selectivity =
        (static_cast<double>(shape.w0) / 100.0) *
        (static_cast<double>(shape.w2) / 50.0);
    char label[32];
    std::snprintf(label, sizeof(label), "D0[%u] x D2[%u]", shape.w0,
                  shape.w2);
    std::printf("%-22s %12.4f | %14.0f %14.1f | %14.0f %14.1f\n", label,
                selectivity, pages[0], ms[0], pages[1], ms[1]);
  }
  return 0;
}

}  // namespace
}  // namespace chunkcache::bench

int main() { return chunkcache::bench::Run(); }
