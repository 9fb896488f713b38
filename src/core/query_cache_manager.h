#ifndef CHUNKCACHE_CORE_QUERY_CACHE_MANAGER_H_
#define CHUNKCACHE_CORE_QUERY_CACHE_MANAGER_H_

#include <string>
#include <vector>

#include "backend/engine.h"
#include "cache/query_cache.h"
#include "core/middle_tier.h"

namespace chunkcache::core {

/// Configuration of the query-caching baseline.
struct QueryManagerOptions {
  uint64_t cache_bytes = 30ull << 20;
  std::string policy = "benefit-clock";
};

/// The query-level caching baseline (Section 6.1.4): caches whole query
/// results and reuses one via containment; misses run a full star join at
/// the backend (bitmap index path). Costs are normalized identically to
/// the chunk manager so CSR values are directly comparable.
class QueryCacheManager final : public MiddleTier {
 public:
  QueryCacheManager(backend::BackendEngine* engine,
                    QueryManagerOptions options);

  std::string name() const override { return "query-cache"; }

  cache::QueryCache& query_cache() { return cache_; }

 private:
  Result<std::vector<backend::ResultRow>> Run(
      const backend::StarJoinQuery& query, QueryStats* stats,
      const ExecControl& ctrl) override;

  backend::BackendEngine* engine_;
  QueryManagerOptions options_;
  cache::QueryCache cache_;
};

/// No middle-tier caching at all: every query runs at the backend. The
/// floor every caching scheme is measured against.
class NoCacheManager final : public MiddleTier {
 public:
  explicit NoCacheManager(backend::BackendEngine* engine) : engine_(engine) {}

  std::string name() const override { return "no-cache"; }

 private:
  Result<std::vector<backend::ResultRow>> Run(
      const backend::StarJoinQuery& query, QueryStats* stats,
      const ExecControl& ctrl) override;

  backend::BackendEngine* engine_;
};

/// Shared cost normalization: the expected number of base tuples a cold
/// backend scans for `query` — the number of chunks the query needs times
/// the per-chunk benefit. Used as c_i by every manager.
double EstimateColdCost(const chunks::ChunkingScheme& scheme,
                        const backend::StarJoinQuery& query,
                        uint64_t* chunks_needed);

}  // namespace chunkcache::core

#endif  // CHUNKCACHE_CORE_QUERY_CACHE_MANAGER_H_
