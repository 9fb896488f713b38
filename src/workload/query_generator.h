#ifndef CHUNKCACHE_WORKLOAD_QUERY_GENERATOR_H_
#define CHUNKCACHE_WORKLOAD_QUERY_GENERATOR_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "backend/star_join_query.h"
#include "common/random.h"
#include "common/status.h"
#include "schema/star_schema.h"

namespace chunkcache::workload {

/// Knobs of the paper's query generator (Section 6.1.2). Locality enters in
/// two ways:
///  - Designated hot region: `hot_access_prob` of the randomly generated
///    queries are constrained to a sub-cube covering `hot_fraction` of the
///    multidimensional space (Q60/Q80/Q100 set this to .6/.8/1.0 with a
///    20 % hot region).
///  - Proximity: with probability `proximity_prob` the next query reuses
///    the previous query's aggregation level and shifts its selection to
///    adjacent members, modeling hierarchical locality (Table 2: Random
///    0/1, EQPR .5/.5, Proximity .8/.2).
struct WorkloadOptions {
  double hot_fraction = 0.2;
  double hot_access_prob = 0.8;
  double proximity_prob = 0.5;
  uint64_t seed = 1;

  /// Selected fraction of each grouped dimension's level range, drawn
  /// uniformly from [min_range_fraction, max_range_fraction].
  double min_range_fraction = 0.05;
  double max_range_fraction = 0.4;

  /// Probability that a dimension is aggregated away (level 0) when
  /// drawing a random aggregation level.
  double all_level_prob = 0.25;

  /// Zipfian multi-region locality (0 = off, the classic single hot
  /// prefix). When > 0, a "hot" query first draws one of `zipf_regions`
  /// fixed regions with Zipf(zipf_s) popularity — region k is a
  /// hot-fraction-sized window per dimension whose position is hashed
  /// from (k, dim), stable for the whole stream — and then selects inside
  /// that window. Region 0 is hit most, the tail rarely: the skewed reuse
  /// distribution replacement policies differ on.
  uint32_t zipf_regions = 0;
  double zipf_s = 0.9;
};

/// The three named streams of Table 2, with the hot-region setting of the
/// Figure 9 experiments (Q80).
WorkloadOptions RandomStream(uint64_t seed);
WorkloadOptions EqprStream(uint64_t seed);
WorkloadOptions ProximityStream(uint64_t seed);

/// The zipf-compressed workload's stream (bench/e2e): 16 fixed regions
/// with Zipf(0.9) popularity and moderate proximity — skewed reuse, where
/// replacement quality decides the cost saving ratio.
WorkloadOptions ZipfianStream(uint64_t seed);

/// Generates a stream of star-join queries over `schema` with tunable
/// locality. Deterministic for a fixed seed.
class QueryGenerator {
 public:
  QueryGenerator(const schema::StarSchema* schema, WorkloadOptions options);

  /// The next query in the stream.
  backend::StarJoinQuery Next();

  /// Whether the most recent query was constrained to the hot region
  /// (directly or by proximity inheritance) — used by tests to validate
  /// the stream's composition.
  bool last_was_hot() const { return last_hot_; }
  bool last_was_proximity() const { return last_proximity_; }

  const WorkloadOptions& options() const { return options_; }

 private:
  /// Largest ordinal at (dim, level) whose base range lies inside the hot
  /// region (inclusive). The hot region is the ordinal prefix of every
  /// dimension sized so the sub-cube covers ~hot_fraction of the space.
  uint32_t HotMaxOrdinal(uint32_t dim, uint32_t level) const;

  /// Draws a Zipf-distributed region index in [0, zipf_regions) via
  /// inverse CDF over the precomputed cumulative weights.
  uint32_t ZipfRegion();

  /// The [begin, end] ordinal window of zipf region `k` on (dim, level):
  /// hot-fraction-sized, anchored at a position hashed from (k, dim,
  /// level) so every revisit of region k lands on the same members.
  void RegionWindow(uint32_t k, uint32_t dim, uint32_t level,
                    uint32_t* begin, uint32_t* end) const;

  backend::StarJoinQuery RandomQuery(bool hot);
  backend::StarJoinQuery ProximityQuery();

  const schema::StarSchema* schema_;
  WorkloadOptions options_;
  Random rng_;
  // Per-dimension fraction of base values inside the hot region
  // (hot_fraction ^ (1/num_dims)).
  double per_dim_hot_fraction_;
  // Cumulative Zipf weights (empty when zipf_regions == 0).
  std::vector<double> zipf_cum_;
  std::optional<backend::StarJoinQuery> last_query_;
  bool last_hot_ = false;
  bool last_proximity_ = false;
};

}  // namespace chunkcache::workload

#endif  // CHUNKCACHE_WORKLOAD_QUERY_GENERATOR_H_
