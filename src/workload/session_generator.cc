#include "workload/session_generator.h"

#include <algorithm>

#include "common/logging.h"

namespace chunkcache::workload {

using backend::StarJoinQuery;
using schema::OrdinalRange;

SessionGenerator::SessionGenerator(const schema::StarSchema* schema,
                                   SessionOptions options)
    : schema_(schema), options_(options), rng_(options.seed) {
  CHUNKCACHE_CHECK(schema != nullptr);
  CHUNKCACHE_CHECK(options_.min_width >= 1);
  CHUNKCACHE_CHECK(options_.max_width >= options_.min_width);
}

StarJoinQuery SessionGenerator::MakeCoarse() {
  StarJoinQuery q;
  q.group_by.num_dims = schema_->num_dims();
  for (uint32_t d = 0; d < schema_->num_dims(); ++d) {
    const auto& h = schema_->dimension(d).hierarchy;
    const uint32_t level = std::min(options_.coarse_level, h.depth());
    q.group_by.levels[d] = static_cast<uint8_t>(level);
    const uint32_t card = h.LevelCardinality(level);
    uint32_t width = options_.min_width +
                     static_cast<uint32_t>(rng_.Uniform(
                         options_.max_width - options_.min_width + 1));
    width = std::min(width, card);
    const uint32_t begin =
        static_cast<uint32_t>(rng_.Uniform(card - width + 1));
    q.selection[d] = OrdinalRange{begin, begin + width - 1};
  }
  return q;
}

StarJoinQuery SessionGenerator::Refine(const StarJoinQuery& coarse) const {
  StarJoinQuery fine;
  fine.group_by.num_dims = schema_->num_dims();
  for (uint32_t d = 0; d < schema_->num_dims(); ++d) {
    const auto& h = schema_->dimension(d).hierarchy;
    const uint32_t coarse_level = coarse.group_by.levels[d];
    const uint32_t fine_level = std::min(coarse_level + 1, h.depth());
    fine.group_by.levels[d] = static_cast<uint8_t>(fine_level);
    if (fine_level == coarse_level) {
      fine.selection[d] = coarse.selection[d];
    } else {
      fine.selection[d] = OrdinalRange{
          h.ChildRange(coarse_level, coarse.selection[d].begin).begin,
          h.ChildRange(coarse_level, coarse.selection[d].end).end};
    }
  }
  return fine;
}

StarJoinQuery SessionGenerator::Next() {
  if (pending_) {
    StarJoinQuery q = *pending_;
    pending_.reset();
    last_started_ = false;
    return q;
  }
  const StarJoinQuery coarse = MakeCoarse();
  const StarJoinQuery fine = Refine(coarse);
  last_started_ = true;
  if (options_.drill_down) {
    pending_ = fine;
    return coarse;
  }
  pending_ = coarse;
  return fine;
}

uint64_t HashQuery(const StarJoinQuery& q, uint64_t seed) {
  uint64_t acc = seed;
  auto mix = [&acc](uint64_t v) { acc = (acc ^ v) * 0x100000001b3ULL; };
  mix(q.group_by.num_dims);
  for (uint32_t d = 0; d < q.group_by.num_dims; ++d) {
    mix(q.group_by.levels[d]);
    mix(q.selection[d].begin);
    mix(q.selection[d].end);
  }
  mix(q.non_group_by.size());
  for (const auto& pred : q.non_group_by) {
    mix(pred.dim);
    mix(pred.level);
    mix(pred.range.begin);
    mix(pred.range.end);
  }
  return acc;
}

}  // namespace chunkcache::workload
