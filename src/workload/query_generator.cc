#include "workload/query_generator.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace chunkcache::workload {

using backend::StarJoinQuery;
using chunks::GroupBySpec;
using schema::OrdinalRange;

WorkloadOptions RandomStream(uint64_t seed) {
  WorkloadOptions o;
  o.proximity_prob = 0.0;
  o.seed = seed;
  return o;
}

WorkloadOptions EqprStream(uint64_t seed) {
  WorkloadOptions o;
  o.proximity_prob = 0.5;
  o.seed = seed;
  return o;
}

WorkloadOptions ProximityStream(uint64_t seed) {
  WorkloadOptions o;
  o.proximity_prob = 0.8;
  o.seed = seed;
  return o;
}

WorkloadOptions ZipfianStream(uint64_t seed) {
  WorkloadOptions o;
  o.hot_access_prob = 0.9;
  o.proximity_prob = 0.3;
  o.zipf_regions = 16;
  o.zipf_s = 0.9;
  o.seed = seed;
  return o;
}

QueryGenerator::QueryGenerator(const schema::StarSchema* schema,
                               WorkloadOptions options)
    : schema_(schema), options_(options), rng_(options.seed) {
  CHUNKCACHE_CHECK(schema != nullptr);
  per_dim_hot_fraction_ =
      std::pow(options_.hot_fraction, 1.0 / schema_->num_dims());
  if (options_.zipf_regions > 0) {
    zipf_cum_.reserve(options_.zipf_regions);
    double total = 0;
    for (uint32_t k = 0; k < options_.zipf_regions; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), options_.zipf_s);
      zipf_cum_.push_back(total);
    }
    for (double& c : zipf_cum_) c /= total;
  }
}

uint32_t QueryGenerator::ZipfRegion() {
  const double u = rng_.NextDouble();
  const auto it = std::upper_bound(zipf_cum_.begin(), zipf_cum_.end(), u);
  const size_t k = static_cast<size_t>(it - zipf_cum_.begin());
  return static_cast<uint32_t>(std::min(k, zipf_cum_.size() - 1));
}

void QueryGenerator::RegionWindow(uint32_t k, uint32_t dim, uint32_t level,
                                  uint32_t* begin, uint32_t* end) const {
  const auto& h = schema_->dimension(dim).hierarchy;
  const uint32_t card = h.LevelCardinality(level);
  const uint32_t size = std::min<uint32_t>(
      card, std::max<uint32_t>(
                1, static_cast<uint32_t>(
                       std::lround(per_dim_hot_fraction_ * card))));
  // splitmix64-style mix of (k, dim, level): the anchor is a pure function
  // of the region identity, so region k always covers the same members.
  uint64_t x = (static_cast<uint64_t>(k) << 34) ^
               (static_cast<uint64_t>(dim) << 17) ^ level;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  x ^= x >> 31;
  *begin = static_cast<uint32_t>(x % (card - size + 1));
  *end = *begin + size - 1;
}

uint32_t QueryGenerator::HotMaxOrdinal(uint32_t dim, uint32_t level) const {
  const auto& h = schema_->dimension(dim).hierarchy;
  if (level == 0) return 0;
  const uint32_t base_card = h.LevelCardinality(h.depth());
  const uint32_t hot_base_end = std::max<uint32_t>(
      1, static_cast<uint32_t>(std::lround(per_dim_hot_fraction_ *
                                           base_card))) - 1;
  // Largest ordinal at `level` whose base range ends within the hot prefix.
  uint32_t best = 0;
  for (uint32_t v = 0; v < h.LevelCardinality(level); ++v) {
    if (h.BaseRange(level, v).end <= hot_base_end) {
      best = v;
    } else {
      break;  // base ranges are ordered; later members only extend further
    }
  }
  return best;
}

StarJoinQuery QueryGenerator::RandomQuery(bool hot) {
  StarJoinQuery q;
  q.group_by.num_dims = schema_->num_dims();
  bool any_grouped = false;
  for (uint32_t d = 0; d < schema_->num_dims(); ++d) {
    const auto& h = schema_->dimension(d).hierarchy;
    uint32_t level;
    if (rng_.Bernoulli(options_.all_level_prob)) {
      level = 0;
    } else {
      level = 1 + static_cast<uint32_t>(rng_.Uniform(h.depth()));
      any_grouped = true;
    }
    q.group_by.levels[d] = static_cast<uint8_t>(level);
  }
  // Avoid the degenerate grand-total query dominating: if every dimension
  // came out at ALL, force one to a real level.
  if (!any_grouped) {
    const uint32_t d = static_cast<uint32_t>(rng_.Uniform(schema_->num_dims()));
    q.group_by.levels[d] = 1;
  }
  // Zipfian mode: a hot query draws one popularity-skewed region for the
  // whole query, so its per-dimension windows are correlated (a real
  // recurring report, not independent per-axis noise).
  const bool zipf = hot && options_.zipf_regions > 0;
  const uint32_t zipf_k = zipf ? ZipfRegion() : 0;
  for (uint32_t d = 0; d < schema_->num_dims(); ++d) {
    const uint32_t level = q.group_by.levels[d];
    if (level == 0) {
      q.selection[d] = OrdinalRange{0, 0};
      continue;
    }
    const auto& h = schema_->dimension(d).hierarchy;
    uint32_t region_begin = 0;
    uint32_t region_end = h.LevelCardinality(level) - 1;
    if (zipf) {
      RegionWindow(zipf_k, d, level, &region_begin, &region_end);
    } else if (hot) {
      region_end = HotMaxOrdinal(d, level);
    }
    const uint32_t region_size = region_end - region_begin + 1;
    const double frac = options_.min_range_fraction +
                        rng_.NextDouble() * (options_.max_range_fraction -
                                             options_.min_range_fraction);
    uint32_t width = std::max<uint32_t>(
        1, static_cast<uint32_t>(
               std::lround(frac * h.LevelCardinality(level))));
    width = std::min(width, region_size);
    const uint32_t start =
        region_begin +
        static_cast<uint32_t>(rng_.Uniform(region_size - width + 1));
    q.selection[d] = OrdinalRange{start, start + width - 1};
  }
  return q;
}

StarJoinQuery QueryGenerator::ProximityQuery() {
  CHUNKCACHE_DCHECK(last_query_.has_value());
  StarJoinQuery q = *last_query_;
  // Shift the selection of one randomly chosen grouped dimension to the
  // adjacent members on its level ("same level of aggregation but the
  // selection predicate access adjacent members").
  std::vector<uint32_t> grouped;
  for (uint32_t d = 0; d < schema_->num_dims(); ++d) {
    if (q.group_by.levels[d] > 0) grouped.push_back(d);
  }
  if (grouped.empty()) return q;  // grand total: nothing to shift
  const uint32_t d = grouped[rng_.Uniform(grouped.size())];
  const uint32_t level = q.group_by.levels[d];
  const auto& h = schema_->dimension(d).hierarchy;
  // With zipf regions the parent's window is anywhere in the space, so
  // clamp only to the level range; the shift stays adjacent regardless.
  const uint32_t region_end =
      (last_hot_ && options_.zipf_regions == 0)
          ? HotMaxOrdinal(d, level)
          : h.LevelCardinality(level) - 1;
  const uint32_t width = q.selection[d].size();
  const bool forward = rng_.Bernoulli(0.5);
  int64_t begin = static_cast<int64_t>(q.selection[d].begin) +
                  (forward ? static_cast<int64_t>(width)
                           : -static_cast<int64_t>(width));
  // Clamp into the (possibly hot) region so proximity inherits locality.
  const int64_t max_begin =
      static_cast<int64_t>(region_end) - static_cast<int64_t>(width) + 1;
  begin = std::clamp<int64_t>(begin, 0, std::max<int64_t>(0, max_begin));
  q.selection[d] = OrdinalRange{static_cast<uint32_t>(begin),
                                static_cast<uint32_t>(begin) + width - 1};
  return q;
}

StarJoinQuery QueryGenerator::Next() {
  const bool proximity =
      last_query_.has_value() && rng_.Bernoulli(options_.proximity_prob);
  StarJoinQuery q;
  if (proximity) {
    q = ProximityQuery();
    // last_hot_ unchanged: the proximity query stays in its parent region.
    last_proximity_ = true;
  } else {
    const bool hot = rng_.Bernoulli(options_.hot_access_prob);
    q = RandomQuery(hot);
    last_hot_ = hot;
    last_proximity_ = false;
  }
  last_query_ = q;
  return q;
}

}  // namespace chunkcache::workload
