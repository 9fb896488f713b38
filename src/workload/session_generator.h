#ifndef CHUNKCACHE_WORKLOAD_SESSION_GENERATOR_H_
#define CHUNKCACHE_WORKLOAD_SESSION_GENERATOR_H_

#include <cstdint>
#include <optional>

#include "backend/star_join_query.h"
#include "common/random.h"
#include "schema/star_schema.h"

namespace chunkcache::workload {

/// Models the analyst sessions of the paper's Section 2.2 (hierarchical
/// locality): the stream alternates coarse and fine views of one randomly
/// chosen region — either coarse-then-drill-down or fine-then-roll-up —
/// then moves to a sibling region. Drill-down sessions drive the served
/// benchmark's hot-session and session-persist workloads; roll-up sessions
/// are the shape that motivates in-cache aggregation (§7). The plain
/// hot-region/proximity streams of QueryGenerator model Table 2 instead.
struct SessionOptions {
  /// Coarse query first (drill-down session) or fine first (roll-up).
  bool drill_down = true;
  /// Hierarchy level of the coarse query on every dimension; the fine
  /// query is one level deeper (capped at each dimension's depth).
  uint32_t coarse_level = 1;
  /// Members selected per dimension at the coarse level: min..max width.
  uint32_t min_width = 2;
  uint32_t max_width = 4;
  uint64_t seed = 1;
};

/// Deterministic generator of drill-down / roll-up session pairs.
///
/// Determinism contract (the serving harness leans on this): the stream is
/// a pure function of (schema, options) — the generator owns its Random,
/// touches no global or time-dependent state, and is oblivious to how many
/// threads consume the queries downstream. workload_test pins the
/// contract with a golden HashQuery chain over the stream.
class SessionGenerator {
 public:
  SessionGenerator(const schema::StarSchema* schema, SessionOptions options);

  /// Next query: alternately the session's first view and its paired
  /// second view of the same region.
  backend::StarJoinQuery Next();

  /// True when the *previous* Next() started a new region.
  bool last_started_session() const { return last_started_; }

 private:
  backend::StarJoinQuery MakeCoarse();
  backend::StarJoinQuery Refine(const backend::StarJoinQuery& coarse) const;

  const schema::StarSchema* schema_;
  SessionOptions options_;
  Random rng_;
  std::optional<backend::StarJoinQuery> pending_;
  bool last_started_ = false;
};

/// Order-sensitive FNV-1a over one query's normalized fields; chain over a
/// stream by passing the previous hash as `seed`.
uint64_t HashQuery(const backend::StarJoinQuery& q, uint64_t seed);

}  // namespace chunkcache::workload

#endif  // CHUNKCACHE_WORKLOAD_SESSION_GENERATOR_H_
