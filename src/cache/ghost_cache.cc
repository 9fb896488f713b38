#include "cache/ghost_cache.h"

#include "common/logging.h"
#include "common/metrics.h"

namespace chunkcache::cache {

// -------------------------------- GhostCacheSim ------------------------------

GhostCacheSim::GhostCacheSim(const std::string& policy_name,
                             uint64_t capacity_bytes)
    : policy_name_(policy_name),
      capacity_bytes_(capacity_bytes),
      policy_(MakePolicyOrDie(policy_name)) {}

bool GhostCacheSim::Access(uint64_t key_id, uint64_t bytes, double benefit) {
  auto it = entries_.find(key_id);
  if (it != entries_.end()) {
    ++hits_;
    policy_->OnAccess(key_id);
    return true;
  }
  ++misses_;
  if (bytes > capacity_bytes_) return false;  // real cache rejects these
  while (bytes_used_ + bytes > capacity_bytes_) {
    auto victim = policy_->PickVictim(benefit);
    if (!victim) break;
    auto vit = entries_.find(*victim);
    CHUNKCACHE_DCHECK(vit != entries_.end());
    bytes_used_ -= vit->second;
    entries_.erase(vit);
    policy_->OnErase(*victim);
    ++evictions_;
  }
  // Mirror ChunkCache: if eviction could not make room, the entry is
  // rejected (counted as a miss, nothing admitted).
  if (bytes_used_ + bytes > capacity_bytes_) return false;
  policy_->OnInsertKeyed(/*handle=*/key_id, key_id, benefit);
  entries_[key_id] = bytes;
  bytes_used_ += bytes;
  return false;
}

// -------------------------------- GhostCacheSet ------------------------------

GhostCacheSet::GhostCacheSet(const std::vector<std::string>& policies,
                             uint64_t capacity_bytes, MetricsRegistry* metrics)
    : capacity_bytes_(capacity_bytes) {
  sims_.reserve(policies.size());
  counters_.reserve(policies.size());
  for (const auto& name : policies) {
    sims_.push_back(std::make_unique<GhostCacheSim>(name, capacity_bytes));
    PolicyCounters pc;
    if (metrics != nullptr) {
      pc.hits = metrics->GetCounter("cache.ghost." + name + ".hits");
      pc.misses = metrics->GetCounter("cache.ghost." + name + ".misses");
      pc.evictions = metrics->GetCounter("cache.ghost." + name + ".evictions");
    }
    counters_.push_back(pc);
  }
  exported_evictions_.assign(sims_.size(), 0);
}

GhostCacheSet::~GhostCacheSet() = default;

void GhostCacheSet::Access(uint64_t key_id, uint64_t bytes, double benefit) {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < sims_.size(); ++i) {
    const bool hit = sims_[i]->Access(key_id, bytes, benefit);
    const PolicyCounters& pc = counters_[i];
    if (pc.hits == nullptr) continue;
    if (hit) {
      pc.hits->Increment();
    } else {
      pc.misses->Increment();
    }
  }
  for (size_t i = 0; i < sims_.size(); ++i) {
    const PolicyCounters& pc = counters_[i];
    if (pc.evictions == nullptr) continue;
    const uint64_t want = sims_[i]->evictions();
    if (want > exported_evictions_[i]) {
      pc.evictions->Add(want - exported_evictions_[i]);
      exported_evictions_[i] = want;
    }
  }
}

std::vector<GhostStanding> GhostCacheSet::Standings() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<GhostStanding> out;
  out.reserve(sims_.size());
  for (const auto& sim : sims_) {
    GhostStanding s;
    s.policy = sim->policy_name();
    s.hits = sim->hits();
    s.misses = sim->misses();
    s.evictions = sim->evictions();
    s.bytes_used = sim->bytes_used();
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace chunkcache::cache
