// Reproduces Figure 12: the effect of the chunk dimension range on chunk
// caching performance (EQPR stream). The x-axis is the ratio of the chunk
// range to the total dimension range at every level. Expected shape
// (paper): performance improves as the ratio grows away from tiny ranges
// (fewer chunks -> less per-chunk overhead), then worsens again as large
// boundary chunks force wasted computation — a U-shaped cost curve.
//
// Each ratio needs its own system build: the chunked file's physical
// layout depends on the chunk ranges.

#include <cstdio>

#include "bench/common/experiment.h"
#include "core/chunk_cache_manager.h"

namespace chunkcache::bench {
namespace {

int Run() {
  ExperimentConfig config = ExperimentConfig::FromEnv();
  PrintSetup(config, "Figure 12: chunk range ratio sweep (EQPR)");
  bool header = true;
  for (double ratio : {0.02, 0.04, 0.1, 0.2, 0.34, 0.5, 1.0}) {
    config.range_fraction = ratio;
    auto system = System::Build(config);
    if (!system.ok()) {
      std::fprintf(stderr, "build failed: %s\n",
                   system.status().ToString().c_str());
      return 1;
    }
    core::ChunkCacheManager tier(&(*system)->engine(), {});
    workload::QueryGenerator gen(&(*system)->schema(),
                                 workload::EqprStream(505));
    auto result = RunStream(&tier, &gen, config.stream_queries);
    if (!result.ok()) return 1;
    char label[24];
    std::snprintf(label, sizeof(label), "ratio=%.2f", ratio);
    result->stream = label;
    PrintResult(*result, header);
    header = false;
    std::printf("  (base grid: %llu chunks)\n",
                static_cast<unsigned long long>(
                    (*system)->scheme()
                        .GridFor((*system)->scheme().BaseSpec())
                        .num_chunks()));
  }
  return 0;
}

}  // namespace
}  // namespace chunkcache::bench

int main() { return chunkcache::bench::Run(); }
