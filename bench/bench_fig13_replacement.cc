// Reproduces Figure 13: replacement policies for the chunk cache (EQPR
// stream) — plain LRU, CLOCK (the paper's approximation of LRU) and the
// benefit-weighted CLOCK of Section 5.4.
// Expected shape (paper): the benefit-aware policy clearly beats plain
// LRU, because chunks at higher aggregation levels are much more expensive
// to recompute and deserve preferential retention. The effect shows at
// cache sizes that force real eviction pressure.

#include <cstdio>
#include <string>

#include "bench/common/experiment.h"
#include "cache/replacement.h"
#include "core/chunk_cache_manager.h"

namespace chunkcache::bench {
namespace {

int Run() {
  const ExperimentConfig config = ExperimentConfig::FromEnv();
  PrintSetup(config, "Figure 13: replacement policies (EQPR, chunk caching)");
  auto system = System::Build(config);
  if (!system.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 system.status().ToString().c_str());
    return 1;
  }

  bool header = true;
  for (uint64_t mb : {2, 5, 10, 30}) {
    for (const std::string& policy : cache::KnownPolicyNames()) {
      if (!(*system)->ResetBackend().ok()) return 1;
      core::ChunkManagerOptions opts;
      opts.policy = policy;
      opts.cache_bytes = mb << 20;
      core::ChunkCacheManager tier(&(*system)->engine(), opts);
      workload::QueryGenerator gen(&(*system)->schema(),
                                   workload::EqprStream(606));
      auto result = RunStream(&tier, &gen, config.stream_queries);
      if (!result.ok()) return 1;
      char label[32];
      std::snprintf(label, sizeof(label), "%s/%lluMB", policy.c_str(),
                    static_cast<unsigned long long>(mb));
      result->stream = label;
      PrintResult(*result, header);
      header = false;
    }
  }
  return 0;
}

}  // namespace
}  // namespace chunkcache::bench

int main() { return chunkcache::bench::Run(); }
