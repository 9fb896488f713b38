// Reproduces Figure 10: chunk vs query caching as the hot-region share of
// the query stream grows — Q60, Q80, Q100 (60/80/100 % of queries touch
// 20 % of the cube), EQPR proximity mix. Expected shape (paper): both
// schemes improve with locality, chunk caching stays ahead throughout and
// exploits the extra locality better.

#include <cstdio>

#include "bench/common/experiment.h"
#include "core/chunk_cache_manager.h"
#include "core/query_cache_manager.h"

namespace chunkcache::bench {
namespace {

int Run() {
  const ExperimentConfig config = ExperimentConfig::FromEnv();
  PrintSetup(config, "Figure 10: hot-region percentage (EQPR, 30 MB cache)");
  auto system = System::Build(config);
  if (!system.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 system.status().ToString().c_str());
    return 1;
  }

  bool header = true;
  for (double pct : {0.6, 0.8, 1.0}) {
    workload::WorkloadOptions wopts = workload::EqprStream(202);
    wopts.hot_access_prob = pct;
    char label[16];
    std::snprintf(label, sizeof(label), "Q%d", static_cast<int>(pct * 100));

    {
      if (!(*system)->ResetBackend().ok()) return 1;
      core::ChunkCacheManager tier(&(*system)->engine(), {});
      workload::QueryGenerator gen(&(*system)->schema(), wopts);
      auto result = RunStream(&tier, &gen, config.stream_queries);
      if (!result.ok()) return 1;
      result->stream = label;
      PrintResult(*result, header);
      header = false;
    }
    {
      if (!(*system)->ResetBackend().ok()) return 1;
      core::QueryCacheManager tier(&(*system)->engine(), {});
      workload::QueryGenerator gen(&(*system)->schema(), wopts);
      auto result = RunStream(&tier, &gen, config.stream_queries);
      if (!result.ok()) return 1;
      result->stream = label;
      PrintResult(*result, false);
    }
  }
  return 0;
}

}  // namespace
}  // namespace chunkcache::bench

int main() { return chunkcache::bench::Run(); }
