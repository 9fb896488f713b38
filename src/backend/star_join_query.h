#ifndef CHUNKCACHE_BACKEND_STAR_JOIN_QUERY_H_
#define CHUNKCACHE_BACKEND_STAR_JOIN_QUERY_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "chunks/group_by_spec.h"
#include "schema/hierarchy.h"
#include "storage/tuple.h"

namespace chunkcache::backend {

/// A selection on a dimension attribute that is *not* the query's group-by
/// level for that dimension (Section 5.2.1's "selection on non group-by
/// attributes"). Such predicates are factored in before aggregation, so
/// cached results are only reusable when they match exactly.
struct NonGroupByPredicate {
  uint32_t dim = 0;
  uint32_t level = 0;           ///< Hierarchy level the predicate names.
  schema::OrdinalRange range;   ///< Selected members at that level.

  friend bool operator==(const NonGroupByPredicate& a,
                         const NonGroupByPredicate& b) {
    return a.dim == b.dim && a.level == b.level && a.range == b.range;
  }
};

/// The paper's star-join query template (Section 5.2.1):
///
///   SELECT <group-by attrs>, SUM(measure)
///   FROM fact, dims
///   WHERE <range/point selections>
///   GROUP BY <group-by attrs>
///
/// normalized to ordinals: `group_by` gives the aggregation level per
/// dimension; `selection[d]` is the inclusive ordinal range selected on
/// dimension d *at that dimension's group-by level* ({0,0} when d is
/// aggregated away, i.e. level 0 selects the single ALL member); and
/// `non_group_by` lists predicates on other levels, which must match
/// exactly for cache reuse.
struct StarJoinQuery {
  chunks::GroupBySpec group_by;
  std::array<schema::OrdinalRange, storage::kMaxDims> selection{};
  std::vector<NonGroupByPredicate> non_group_by;

  friend bool operator==(const StarJoinQuery& a, const StarJoinQuery& b) {
    if (!(a.group_by == b.group_by)) return false;
    for (uint32_t d = 0; d < a.group_by.num_dims; ++d) {
      if (!(a.selection[d] == b.selection[d])) return false;
    }
    return a.non_group_by == b.non_group_by;
  }

  /// Debug rendering: "gb=(2,0,1,1) sel=[3..7][0..0][1..4][0..9]".
  std::string ToString() const {
    std::string s = "gb=" + group_by.ToString() + " sel=";
    for (uint32_t d = 0; d < group_by.num_dims; ++d) {
      s += "[" + std::to_string(selection[d].begin) + ".." +
           std::to_string(selection[d].end) + "]";
    }
    return s;
  }
};

/// One result row of a star-join query (same shape as storage::AggTuple but
/// re-exported under the query vocabulary).
using ResultRow = storage::AggTuple;

}  // namespace chunkcache::backend

#endif  // CHUNKCACHE_BACKEND_STAR_JOIN_QUERY_H_
