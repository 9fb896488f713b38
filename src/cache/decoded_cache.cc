#include "cache/decoded_cache.h"

namespace chunkcache::cache {

DecodedCache::DecodedCache(uint64_t capacity_bytes, MetricsRegistry* metrics)
    : capacity_bytes_(capacity_bytes) {
  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<MetricsRegistry>();
    metrics = owned_metrics_.get();
  }
  hits_ = metrics->GetCounter("cache.decoded_lru_hits");
  evictions_ = metrics->GetCounter("cache.decoded_lru_evictions");
  bytes_gauge_ = metrics->GetGauge("cache.decoded_lru_bytes");
}

std::shared_ptr<const storage::ChunkPayload> DecodedCache::Get(
    const ChunkKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) return nullptr;
  hits_->Increment();
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->second;
}

void DecodedCache::Put(const ChunkKey& key,
                       std::shared_ptr<const storage::ChunkPayload> payload) {
  if (payload == nullptr) return;
  const uint64_t bytes = Charge(*payload);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    bytes_used_ -= Charge(*it->second->second);
    it->second->second = std::move(payload);
    bytes_used_ += bytes;
    lru_.splice(lru_.begin(), lru_, it->second);
  } else {
    if (bytes > capacity_bytes_) return;  // would evict everything for one
    lru_.emplace_front(key, std::move(payload));
    index_[key] = lru_.begin();
    bytes_used_ += bytes;
  }
  EvictOverBudgetLocked();
  bytes_gauge_->Set(static_cast<int64_t>(bytes_used_));
}

void DecodedCache::EvictOverBudgetLocked() {
  while (bytes_used_ > capacity_bytes_ && !lru_.empty()) {
    const Entry& victim = lru_.back();
    bytes_used_ -= Charge(*victim.second);
    index_.erase(victim.first);
    lru_.pop_back();
    evictions_->Increment();
  }
}

}  // namespace chunkcache::cache
