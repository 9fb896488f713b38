// Reproduces Figure 9: chunk-based caching vs query-level caching (plus a
// no-cache floor) across the three locality mixes of Table 2 — Random
// (0 % proximity), EQPR (50 %), Proximity (80 %) — each with the Q80 hot
// region (80 % of queries touch 20 % of the cube). Reported per
// configuration: average modeled execution time of the last 100 queries
// and the cost saving ratio. Expected shape (paper): chunk caching wins in
// every mix, by about 2x on average, and the gap widens with locality.

#include <cstdio>

#include "bench/common/experiment.h"
#include "core/chunk_cache_manager.h"
#include "core/query_cache_manager.h"
#include "core/semantic_cache_manager.h"

namespace chunkcache::bench {
namespace {

int Run() {
  const ExperimentConfig config = ExperimentConfig::FromEnv();
  PrintSetup(config, "Figure 9: locality types (Q80 hot region, 30 MB cache)");
  auto system = System::Build(config);
  if (!system.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 system.status().ToString().c_str());
    return 1;
  }
  // The query-level, semantic and no-cache tiers read the bitmap indexes.
  if (!(*system)->engine().BuildBitmapIndexes().ok()) return 1;

  struct Stream {
    const char* name;
    workload::WorkloadOptions opts;
  };
  const Stream streams[] = {
      {"Random", workload::RandomStream(101)},
      {"EQPR", workload::EqprStream(101)},
      {"Proximity", workload::ProximityStream(101)},
  };

  bool header = true;
  for (const Stream& stream : streams) {
    // Chunk-based caching.
    {
      if (!(*system)->ResetBackend().ok()) return 1;
      core::ChunkCacheManager tier(&(*system)->engine(), {});
      workload::QueryGenerator gen(&(*system)->schema(), stream.opts);
      auto result = RunStream(&tier, &gen, config.stream_queries);
      if (!result.ok()) {
        std::fprintf(stderr, "stream failed: %s\n",
                     result.status().ToString().c_str());
        return 1;
      }
      result->stream = stream.name;
      PrintResult(*result, header);
      header = false;
    }
    // Query-level caching.
    {
      if (!(*system)->ResetBackend().ok()) return 1;
      core::QueryCacheManager tier(&(*system)->engine(), {});
      workload::QueryGenerator gen(&(*system)->schema(), stream.opts);
      auto result = RunStream(&tier, &gen, config.stream_queries);
      if (!result.ok()) return 1;
      result->stream = stream.name;
      PrintResult(*result, false);
    }
    // Semantic-region caching (the Section 2.4 [DFJST] comparison point).
    {
      if (!(*system)->ResetBackend().ok()) return 1;
      core::SemanticCacheManager tier(&(*system)->engine(), {});
      workload::QueryGenerator gen(&(*system)->schema(), stream.opts);
      auto result = RunStream(&tier, &gen, config.stream_queries);
      if (!result.ok()) return 1;
      result->stream = stream.name;
      PrintResult(*result, false);
    }
    // No cache (floor).
    {
      if (!(*system)->ResetBackend().ok()) return 1;
      core::NoCacheManager tier(&(*system)->engine());
      workload::QueryGenerator gen(&(*system)->schema(), stream.opts);
      auto result = RunStream(&tier, &gen, config.stream_queries);
      if (!result.ok()) return 1;
      result->stream = stream.name;
      PrintResult(*result, false);
    }
  }
  return 0;
}

}  // namespace
}  // namespace chunkcache::bench

int main() { return chunkcache::bench::Run(); }
