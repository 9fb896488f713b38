// Ablations over the design choices DESIGN.md calls out, beyond the
// paper's own figures:
//   1. in-cache aggregation (paper §7 future work) on/off, on a roll-up
//      heavy session stream;
//   2. materialized chunked aggregate tables at the backend on/off
//      (Section 3.1's "even statically precomputed aggregate tables can be
//      organized on a chunk basis");
//   3. chunked vs unordered backend file for the chunk-cache miss path —
//      isolating how much of the win comes from the file organization.
//
// Drill-down prefetch, the paper's other §7 idea, has no row: counting its
// own backend work, it raised the cost of every drill-down stream it ran
// on (EXPERIMENTS.md, "Delete drill-down prefetch").

#include <cstdio>
#include <memory>

#include "backend/materialization_advisor.h"
#include "bench/common/experiment.h"
#include "core/chunk_cache_manager.h"
#include "core/query_cache_manager.h"
#include "workload/session_generator.h"

namespace chunkcache::bench {
namespace {

using workload::SessionGenerator;
using workload::SessionOptions;

Result<StreamResult> RunSession(core::MiddleTier* tier, SessionGenerator* gen,
                                uint64_t n) {
  StreamResult r;
  r.tier = tier->name();
  r.queries = n;
  core::CsrAccumulator csr;
  double total = 0;
  for (uint64_t i = 0; i < n; ++i) {
    core::QueryStats stats;
    auto rows = tier->Execute(gen->Next(), &stats);
    if (!rows.ok()) return rows.status();
    total += stats.modeled_ms;
    csr.Record(stats);
    r.backend_pages += stats.backend_work.pages_read;
    r.backend_tuples += stats.backend_work.tuples_processed;
  }
  r.avg_ms_all = total / static_cast<double>(n);
  r.avg_ms_last100 = r.avg_ms_all;
  r.csr = csr.Csr();
  return r;
}

int Run() {
  const ExperimentConfig config = ExperimentConfig::FromEnv();
  PrintSetup(config, "Ablations: extensions and design choices");
  auto system = System::Build(config);
  if (!system.ok()) return 1;
  const uint64_t n = config.stream_queries;

  bool header = true;
  // --- 1. In-cache aggregation on a roll-up heavy session. ---------------
  for (bool enabled : {false, true}) {
    if (!(*system)->ResetBackend().ok()) return 1;
    core::ChunkManagerOptions opts;
    opts.enable_in_cache_aggregation = enabled;
    core::ChunkCacheManager tier(&(*system)->engine(), opts);
    SessionOptions sopts;
    sopts.drill_down = false;  // fine first, then roll up
    sopts.seed = 707;
    SessionGenerator gen(&(*system)->schema(), sopts);
    auto result = RunSession(&tier, &gen, n);
    if (!result.ok()) return 1;
    result->stream = enabled ? "rollup/agg=on" : "rollup/agg=off";
    PrintResult(*result, header);
    header = false;
  }

  // --- 2. Materialized chunked aggregates serving chunk computation. ------
  {
    if (!(*system)->ResetBackend().ok()) return 1;
    {
      core::ChunkCacheManager tier(&(*system)->engine(), {});
      workload::QueryGenerator gen(&(*system)->schema(),
                                   workload::EqprStream(909));
      auto result = RunStream(&tier, &gen, n);
      if (!result.ok()) return 1;
      result->stream = "eqpr/mat=off";
      PrintResult(*result, false);
    }
    // Materialize the HRU-greedy advisor's picks and rerun.
    backend::AdvisorOptions aopts;
    aopts.budget_views = 3;
    const auto picks = backend::SelectViewsToMaterialize(
        (*system)->scheme(), config.num_tuples, aopts);
    for (const auto& pick : picks) {
      std::printf("  (advisor pick: %s, ~%llu rows)\n",
                  pick.spec.ToString().c_str(),
                  static_cast<unsigned long long>(pick.estimated_rows));
      if (!(*system)->engine().MaterializeAggregate(pick.spec).ok()) return 1;
    }
    if (!(*system)->ResetBackend().ok()) return 1;
    {
      core::ChunkCacheManager tier(&(*system)->engine(), {});
      workload::QueryGenerator gen(&(*system)->schema(),
                                   workload::EqprStream(909));
      auto result = RunStream(&tier, &gen, n);
      if (!result.ok()) return 1;
      result->stream = "eqpr/mat=on";
      PrintResult(*result, false);
    }
  }

  // --- 3. Chunked vs unordered backend file for the miss path. ------------
  // With an unordered file the backend computes a missing chunk by scanning
  // the whole table (cost ~ table); the chunked file reads just the chunk.
  {
    storage::InMemoryDiskManager disk2;
    storage::BufferPool pool2(&disk2, config.pool_frames);
    schema::FactGenOptions gen2;
    gen2.num_tuples = config.num_tuples;
    gen2.seed = config.data_seed;
    auto unordered = backend::ChunkedFile::BulkLoad(
        &pool2, &(*system)->scheme(),
        schema::GenerateFactTuples((*system)->schema(), gen2),
        /*clustered=*/false);
    if (!unordered.ok()) return 1;
    backend::BackendEngine engine2(&pool2, &*unordered, &(*system)->scheme());
    if (!engine2.BuildBitmapIndexes().ok()) return 1;
    // Start cold, exactly like the chunked system below.
    if (!pool2.FlushAll().ok() || !pool2.EvictAll().ok()) return 1;
    pool2.ResetStats();
    disk2.ResetStats();

    // Shorter stream: every miss is a full scan, two orders of magnitude
    // slower — exactly the effect being demonstrated.
    const uint64_t short_n = std::min<uint64_t>(n, 150);
    {
      core::ChunkCacheManager tier(&engine2, {});
      workload::QueryGenerator gen(&(*system)->schema(),
                                   workload::EqprStream(1010));
      auto result = RunStream(&tier, &gen, short_n);
      if (!result.ok()) return 1;
      result->stream = "eqpr/unordered";
      PrintResult(*result, false);
    }
    if (!(*system)->ResetBackend().ok()) return 1;
    {
      core::ChunkCacheManager tier(&(*system)->engine(), {});
      workload::QueryGenerator gen(&(*system)->schema(),
                                   workload::EqprStream(1010));
      auto result = RunStream(&tier, &gen, short_n);
      if (!result.ok()) return 1;
      result->stream = "eqpr/chunked";
      PrintResult(*result, false);
    }
  }
  return 0;
}

}  // namespace
}  // namespace chunkcache::bench

int main() { return chunkcache::bench::Run(); }
