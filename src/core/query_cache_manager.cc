#include "core/query_cache_manager.h"

#include "backend/aggregator.h"

namespace chunkcache::core {

using backend::ResultRow;
using backend::StarJoinQuery;
using chunks::ChunkCoords;

double EstimateColdCost(const chunks::ChunkingScheme& scheme,
                        const StarJoinQuery& query, uint64_t* chunks_needed) {
  const chunks::ChunkBox box =
      scheme.BoxForSelection(query.group_by, query.selection);
  const uint64_t needed = box.NumChunks();
  if (chunks_needed != nullptr) *chunks_needed = needed;
  return static_cast<double>(needed) * scheme.ChunkBenefit(query.group_by);
}

QueryCacheManager::QueryCacheManager(backend::BackendEngine* engine,
                                     QueryManagerOptions options)
    : engine_(engine),
      options_(std::move(options)),
      cache_(options_.cache_bytes, cache::MakePolicy(options_.policy)) {}

Result<std::vector<ResultRow>> QueryCacheManager::Run(
    const StarJoinQuery& query, QueryStats* stats, const ExecControl&) {
  stats->cost_estimate = EstimateColdCost(engine_->scheme(), query,
                                          &stats->chunks_needed);

  const cache::CachedQuery* hit = cache_.FindContaining(query);
  if (hit != nullptr) {
    // Containment hit: the selection on group-by attributes is a
    // post-aggregation filter, so the contained query is just a slice.
    std::vector<ResultRow> rows = backend::FilterRows(
        hit->rows, query.group_by.num_dims, query.selection);
    backend::SortRows(&rows, query.group_by.num_dims);
    stats->full_cache_hit = true;
    stats->saved_fraction = 1.0;
    stats->chunks_from_cache = stats->chunks_needed;
    return rows;
  }

  CHUNKCACHE_ASSIGN_OR_RETURN(
      std::vector<ResultRow> rows,
      engine_->ExecuteStarJoin(query, &stats->backend_work));
  stats->modeled_ms = CostModel().Cost(
      stats->backend_work.pages_read, stats->backend_work.pages_written,
      stats->backend_work.tuples_processed);
  stats->chunks_from_backend = stats->chunks_needed;

  cache::CachedQuery entry;
  entry.query = query;
  entry.benefit = stats->cost_estimate;
  entry.rows = rows;
  cache_.Insert(std::move(entry));
  return rows;
}

Result<std::vector<ResultRow>> NoCacheManager::Run(
    const StarJoinQuery& query, QueryStats* stats, const ExecControl&) {
  stats->cost_estimate = EstimateColdCost(engine_->scheme(), query,
                                          &stats->chunks_needed);
  CHUNKCACHE_ASSIGN_OR_RETURN(
      std::vector<ResultRow> rows,
      engine_->ExecuteStarJoin(query, &stats->backend_work));
  stats->modeled_ms = CostModel().Cost(stats->backend_work.pages_read,
                                       stats->backend_work.pages_written,
                                       stats->backend_work.tuples_processed);
  stats->chunks_from_backend = stats->chunks_needed;
  return rows;
}

}  // namespace chunkcache::core
