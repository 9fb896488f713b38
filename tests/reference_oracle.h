// Reference oracle shared by the engine and middle-tier suites: a
// brute-force star-join evaluator over the generated tuples that folds all
// four aggregates, the row comparison every answer is checked with, and
// the per-query provenance invariant.

#ifndef CHUNKCACHE_TESTS_REFERENCE_ORACLE_H_
#define CHUNKCACHE_TESTS_REFERENCE_ORACLE_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "backend/star_join_query.h"
#include "core/middle_tier.h"
#include "schema/star_schema.h"
#include "storage/tuple.h"

namespace chunkcache::oracle {

/// Evaluates `q` by scanning every tuple: a tuple that passes the selection
/// and the non-group-by predicates folds into its cell at the query's
/// group-by (SUM, COUNT, MIN and MAX). Rows come back in canonical
/// (coordinate) order, like every tier's answer.
inline std::vector<storage::AggTuple> NaiveStarJoin(
    const schema::StarSchema& schema, const std::vector<storage::Tuple>& tuples,
    const backend::StarJoinQuery& q) {
  std::map<std::vector<uint32_t>, storage::AggTuple> cells;
  std::vector<uint32_t> coords(schema.num_dims());
  for (const storage::Tuple& t : tuples) {
    bool pass = true;
    for (uint32_t d = 0; d < schema.num_dims(); ++d) {
      const auto& h = schema.dimension(d).hierarchy;
      coords[d] = h.AncestorAt(h.depth(), t.keys[d], q.group_by.levels[d]);
      if (!q.selection[d].Contains(coords[d])) pass = false;
    }
    for (const auto& p : q.non_group_by) {
      const auto& h = schema.dimension(p.dim).hierarchy;
      const uint32_t v = h.AncestorAt(h.depth(), t.keys[p.dim], p.level);
      if (!p.range.Contains(v)) pass = false;
    }
    if (!pass) continue;
    storage::AggTuple& cell = cells[coords];
    for (uint32_t d = 0; d < schema.num_dims(); ++d) {
      cell.coords[d] = coords[d];
    }
    cell.FoldMeasure(t.measure);
  }
  std::vector<storage::AggTuple> rows;
  rows.reserve(cells.size());
  for (auto& [key, cell] : cells) rows.push_back(cell);
  return rows;
}

/// Coordinates, COUNT, MIN and MAX must match exactly. SUM may differ by
/// summation order (each path through the lattice groups the additions
/// differently), so it compares within 1e-6.
inline void ExpectRowsEqual(const std::vector<storage::AggTuple>& got,
                            const std::vector<storage::AggTuple>& want,
                            uint32_t num_dims) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    for (uint32_t d = 0; d < num_dims; ++d) {
      ASSERT_EQ(got[i].coords[d], want[i].coords[d]) << "row " << i;
    }
    EXPECT_NEAR(got[i].sum, want[i].sum, 1e-6) << "row " << i;
    EXPECT_EQ(got[i].count, want[i].count) << "row " << i;
    EXPECT_EQ(got[i].min_v, want[i].min_v) << "row " << i;
    EXPECT_EQ(got[i].max_v, want[i].max_v) << "row " << i;
  }
}

/// Checks one successful query's stats: every needed chunk has exactly one
/// provenance, and a full cache hit took nothing from the backend, another
/// query or a degraded roll-up. Returns what broke, or "" when both hold.
inline std::string ProvenanceViolation(const core::QueryStats& s) {
  const uint64_t provenance = s.chunks_from_cache + s.chunks_from_aggregation +
                              s.chunks_from_backend + s.coalesced_waits +
                              s.degraded_answers;
  if (s.chunks_needed != provenance) {
    return "chunks_needed " + std::to_string(s.chunks_needed) +
           " != provenance sum " + std::to_string(provenance);
  }
  if (s.full_cache_hit &&
      s.chunks_from_backend + s.coalesced_waits + s.degraded_answers != 0) {
    return "full_cache_hit with backend, coalesced or degraded chunks";
  }
  return "";
}

}  // namespace chunkcache::oracle

#endif  // CHUNKCACHE_TESTS_REFERENCE_ORACLE_H_
