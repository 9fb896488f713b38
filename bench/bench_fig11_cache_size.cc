// Reproduces Figure 11: chunk-cache performance (CSR and average modeled
// execution time) as the cache size grows, EQPR stream. Expected shape
// (paper): both metrics improve with cache size and saturate once the hot
// working set fits.

#include <cstdio>

#include "bench/common/experiment.h"
#include "core/chunk_cache_manager.h"

namespace chunkcache::bench {
namespace {

int Run() {
  const ExperimentConfig config = ExperimentConfig::FromEnv();
  PrintSetup(config, "Figure 11: cache size sweep (EQPR, chunk caching)");
  auto system = System::Build(config);
  if (!system.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 system.status().ToString().c_str());
    return 1;
  }

  bool header = true;
  for (uint64_t mb : {1, 2, 5, 10, 20, 30, 60}) {
    if (!(*system)->ResetBackend().ok()) return 1;
    core::ChunkManagerOptions opts;
    opts.cache_bytes = mb << 20;
    core::ChunkCacheManager tier(&(*system)->engine(), opts);
    workload::QueryGenerator gen(&(*system)->schema(),
                                 workload::EqprStream(404));
    auto result = RunStream(&tier, &gen, config.stream_queries);
    if (!result.ok()) return 1;
    char label[16];
    std::snprintf(label, sizeof(label), "%lluMB",
                  static_cast<unsigned long long>(mb));
    result->stream = label;
    PrintResult(*result, header);
    header = false;
  }
  return 0;
}

}  // namespace
}  // namespace chunkcache::bench

int main() { return chunkcache::bench::Run(); }
