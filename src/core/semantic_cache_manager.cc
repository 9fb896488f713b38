#include "core/semantic_cache_manager.h"

#include "backend/aggregator.h"
#include "core/query_cache_manager.h"

namespace chunkcache::core {

using backend::ResultRow;
using backend::StarJoinQuery;
using cache::RegionBox;
using cache::SemanticRegion;
using storage::AggTuple;

SemanticCacheManager::SemanticCacheManager(backend::BackendEngine* engine,
                                           SemanticManagerOptions options)
    : engine_(engine),
      options_(std::move(options)),
      cache_(options_.cache_bytes, cache::MakePolicy(options_.policy)) {}

Result<std::vector<ResultRow>> SemanticCacheManager::Run(
    const StarJoinQuery& query, QueryStats* stats, const ExecControl&) {
  stats->cost_estimate = EstimateColdCost(engine_->scheme(), query,
                                          &stats->chunks_needed);

  cache::SemanticRegionCache::Probe probe = cache_.Decompose(query);
  std::vector<AggTuple> rows;
  for (const auto& [region, box] : probe.covered) {
    for (const AggTuple& row : region->rows) {
      if (box.Contains(row)) rows.push_back(row);
    }
  }

  // Each remainder box runs as its own backend query and becomes a new
  // cached region (DFJST's remainder-query strategy).
  for (const RegionBox& box : probe.remainder) {
    StarJoinQuery sub = query;
    for (uint32_t d = 0; d < box.num_dims; ++d) {
      sub.selection[d] = box.ranges[d];
    }
    CHUNKCACHE_ASSIGN_OR_RETURN(
        std::vector<ResultRow> sub_rows,
        engine_->ExecuteStarJoin(sub, &stats->backend_work));
    rows.insert(rows.end(), sub_rows.begin(), sub_rows.end());
    SemanticRegion region;
    region.group_by = query.group_by;
    region.non_group_by = query.non_group_by;
    region.box = box;
    region.benefit = EstimateColdCost(engine_->scheme(), sub, nullptr);
    region.rows = std::move(sub_rows);
    cache_.Insert(std::move(region));
  }

  backend::SortRows(&rows, query.group_by.num_dims);
  stats->full_cache_hit = probe.remainder.empty();
  stats->saved_fraction = probe.covered_fraction;
  stats->modeled_ms = CostModel().Cost(
      stats->backend_work.pages_read, stats->backend_work.pages_written,
      stats->backend_work.tuples_processed);
  return rows;
}

}  // namespace chunkcache::core
