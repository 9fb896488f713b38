#ifndef CHUNKCACHE_CORE_SEMANTIC_CACHE_MANAGER_H_
#define CHUNKCACHE_CORE_SEMANTIC_CACHE_MANAGER_H_

#include <string>
#include <vector>

#include "backend/engine.h"
#include "cache/semantic_cache.h"
#include "core/middle_tier.h"

namespace chunkcache::core {

struct SemanticManagerOptions {
  uint64_t cache_bytes = 30ull << 20;
  std::string policy = "benefit-clock";
};

/// Middle tier implementing semantic-region caching (Dar et al. [DFJST96]),
/// the related-work approach the paper's chunks replace: query results are
/// cached as arbitrary boxes, a new query is intersected with *all* cached
/// regions of its group-by, and each leftover remainder box runs as its own
/// backend query and is cached as a new region. Functionally it reuses
/// overlap like chunks do, but pays per-region intersection costs and
/// fragments the space into irregular regions.
class SemanticCacheManager final : public MiddleTier {
 public:
  SemanticCacheManager(backend::BackendEngine* engine,
                       SemanticManagerOptions options);

  std::string name() const override { return "semantic-cache"; }

  cache::SemanticRegionCache& region_cache() { return cache_; }

 private:
  Result<std::vector<backend::ResultRow>> Run(
      const backend::StarJoinQuery& query, QueryStats* stats,
      const ExecControl& ctrl) override;

  backend::BackendEngine* engine_;
  SemanticManagerOptions options_;
  cache::SemanticRegionCache cache_;
};

}  // namespace chunkcache::core

#endif  // CHUNKCACHE_CORE_SEMANTIC_CACHE_MANAGER_H_
