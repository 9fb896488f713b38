#ifndef CHUNKCACHE_CACHE_QUERY_CACHE_H_
#define CHUNKCACHE_CACHE_QUERY_CACHE_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "backend/star_join_query.h"
#include "cache/replacement.h"
#include "storage/tuple.h"

namespace chunkcache::cache {

/// One cached query result (the query-level caching baseline): the full
/// result rows of `query`, reusable for any new query it *contains*.
struct CachedQuery {
  backend::StarJoinQuery query;
  double benefit = 0;
  std::vector<storage::AggTuple> rows;

  uint64_t ByteSize() const {
    return sizeof(CachedQuery) + rows.size() * sizeof(storage::AggTuple);
  }
};

struct QueryCacheStats {
  uint64_t lookups = 0;
  uint64_t hits = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  uint64_t rejected = 0;
  uint64_t containment_checks = 0;  ///< Candidate queries examined.
};

/// Query-level result cache with containment-based reuse — the baseline the
/// paper compares against. A new query can be answered from a cached one
/// only when (Section 5.2.1):
///   1. the aggregation levels match exactly,
///   2. the non-group-by selections match exactly, and
///   3. the new query's group-by selection is contained in the cached one.
/// Containment testing scans all cached queries of the same group-by (the
/// linear cost the paper criticizes); replacement is benefit-weighted like
/// the chunk cache's.
class QueryCache {
 public:
  QueryCache(uint64_t capacity_bytes,
             std::unique_ptr<ReplacementPolicy> policy);

  QueryCache(const QueryCache&) = delete;
  QueryCache& operator=(const QueryCache&) = delete;

  /// Finds a cached query containing `q`; refreshes its replacement state
  /// on a hit. Pointer valid until the next Insert.
  const CachedQuery* FindContaining(const backend::StarJoinQuery& q);

  /// Inserts a full query result, evicting per policy until it fits.
  /// Identical queries replace their previous entry; overlapping but
  /// different queries are stored redundantly (that is the baseline's
  /// documented weakness).
  void Insert(CachedQuery entry);

  uint64_t bytes_used() const { return bytes_used_; }
  uint64_t capacity_bytes() const { return capacity_bytes_; }
  size_t num_queries() const { return by_handle_.size(); }
  const QueryCacheStats& stats() const { return stats_; }

 private:
  /// A cached query with its replacement node; ByteSize() charges only
  /// the CachedQuery.
  struct Entry : ReplacementNode {
    uint64_t handle = 0;
    CachedQuery cached;
  };

  void Erase(uint64_t handle);

  uint64_t capacity_bytes_;
  std::unique_ptr<ReplacementPolicy> policy_;
  uint64_t next_handle_ = 1;
  std::unordered_map<uint64_t, Entry> by_handle_;
  // group-by id is not interned here (the cache is schema-agnostic), so we
  // bucket candidates by a hash of the group-by levels.
  std::unordered_map<uint64_t, std::vector<uint64_t>> by_group_by_;
  uint64_t bytes_used_ = 0;
  QueryCacheStats stats_;
};

/// True if `outer` contains `inner` per the three reuse conditions.
bool QueryContains(const backend::StarJoinQuery& outer,
                   const backend::StarJoinQuery& inner);

}  // namespace chunkcache::cache

#endif  // CHUNKCACHE_CACHE_QUERY_CACHE_H_
