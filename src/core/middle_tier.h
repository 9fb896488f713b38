#ifndef CHUNKCACHE_CORE_MIDDLE_TIER_H_
#define CHUNKCACHE_CORE_MIDDLE_TIER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "backend/star_join_query.h"
#include "common/cost_model.h"
#include "common/logging.h"
#include "common/retry.h"
#include "common/status.h"

namespace chunkcache::core {

/// Per-query execution report, filled by every MiddleTier implementation.
struct QueryStats {
  /// Physical backend work this query triggered (pages, tuples).
  WorkCounters backend_work;

  /// Modeled execution time of the backend work under the paper's
  /// CostModel (the number the figures plot).
  double modeled_ms = 0;

  uint64_t chunks_needed = 0;
  uint64_t chunks_from_cache = 0;
  uint64_t chunks_from_aggregation = 0;  ///< In-cache aggregation extension.
  uint64_t chunks_from_backend = 0;

  /// Missing chunks this query did not compute itself because another
  /// in-flight query was already computing them (miss coalescing): the
  /// query blocked on the owner's result instead of duplicating backend
  /// work. Counted toward saved_fraction, like cache hits.
  uint64_t coalesced_waits = 0;

  /// Backend compute attempts repeated under the retry policy after a
  /// retryable failure (I/O error, corruption, resource exhaustion).
  uint64_t retries = 0;

  /// Chunks the backend could not deliver (failure or deadline) that were
  /// assembled instead from cached finer-level chunks via the closure
  /// property — the degraded-mode answer. Coordinates, counts, and min/max
  /// are bit-identical to the healthy path; sums agree up to floating-point
  /// summation order (the roll-up associates additions differently).
  uint64_t degraded_answers = 0;

  /// Chunk computations or waits cut short by this query's deadline.
  uint64_t deadline_expired = 0;

  /// True when the query was answered without touching the backend.
  bool full_cache_hit = false;

  /// Normalized query cost c_i for the cost-saving-ratio metric: the
  /// expected number of base tuples the backend would scan to compute the
  /// query with a cold cache. Comparable across caching schemes.
  double cost_estimate = 0;

  /// Fraction of cost_estimate served from the cache (h_i/r_i generalized
  /// to partial chunk hits).
  double saved_fraction = 0;
};

/// Accumulates the paper's Cost Saving Ratio (Section 6.1.3, after
/// [SSV]-style profit metrics): CSR = sum(c_i * h_i) / sum(c_i * r_i),
/// generalized so a query answered partially from the cache contributes
/// its satisfied fraction.
class CsrAccumulator {
 public:
  void Record(const QueryStats& s) {
    total_ += s.cost_estimate;
    saved_ += s.cost_estimate * s.saved_fraction;
  }
  double Csr() const { return total_ == 0 ? 0 : saved_ / total_; }

 private:
  double total_ = 0;
  double saved_ = 0;
};

/// A middle tier answers star-join queries, possibly out of a cache. The
/// four implementations (chunk caching, query caching, semantic-region
/// caching, no cache) share this interface so experiments can swap them
/// freely.
class MiddleTier {
 public:
  virtual ~MiddleTier() = default;

  /// Answers `query`, filling `*stats` (required; reset here first). Rows
  /// come back sorted canonically and exactly filtered to the query's
  /// selection. `ctrl` carries the query's deadline and cancellation; the
  /// serving layer maps a frame-header deadline onto it and cancels
  /// in-flight work when the client's connection drops. Tiers without
  /// deadline plumbing ignore it — they just cannot be cut short.
  Result<std::vector<backend::ResultRow>> Execute(
      const backend::StarJoinQuery& query, QueryStats* stats,
      const ExecControl& ctrl = {}) {
    CHUNKCACHE_CHECK(stats != nullptr);
    *stats = QueryStats();
    return Run(query, stats, ctrl);
  }

  virtual std::string name() const = 0;

  /// Folds statistics the tier keeps outside its metrics registry into
  /// registry gauges. Every path that exports the registry the tier
  /// records on calls this first, so the export is complete.
  virtual void RefreshMetrics() const {}

 private:
  /// The tier's execution proper; `*stats` arrives freshly reset.
  virtual Result<std::vector<backend::ResultRow>> Run(
      const backend::StarJoinQuery& query, QueryStats* stats,
      const ExecControl& ctrl) = 0;
};

}  // namespace chunkcache::core

#endif  // CHUNKCACHE_CORE_MIDDLE_TIER_H_
