#ifndef CHUNKCACHE_CACHE_GHOST_CACHE_H_
#define CHUNKCACHE_CACHE_GHOST_CACHE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/replacement.h"

namespace chunkcache {
class Counter;
class MetricsRegistry;
}  // namespace chunkcache

namespace chunkcache::cache {

/// Per-policy scoreboard row.
struct GhostStanding {
  std::string policy;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t bytes_used = 0;
};

/// Simulates one replacement policy against a stream of (key, bytes,
/// benefit) references under a byte budget, holding keys + sizes only.
/// Mirrors ChunkCache's insert semantics: an entry larger than the whole
/// budget is rejected; otherwise victims are evicted until the entry fits,
/// and the entry is rejected if the policy runs out of victims before it
/// does (exactly the real cache's admission loop). The key id doubles
/// as the policy handle, so keyed policies (ARC, 2Q) recognize re-fetched
/// keys exactly as they would with a stable key hash.
///
/// Not thread-safe; GhostCacheSet serializes access.
class GhostCacheSim {
 public:
  GhostCacheSim(const std::string& policy_name, uint64_t capacity_bytes);

  /// Feeds one reference. Returns true on a would-be hit.
  bool Access(uint64_t key_id, uint64_t bytes, double benefit);

  const std::string& policy_name() const { return policy_name_; }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t evictions() const { return evictions_; }
  uint64_t bytes_used() const { return bytes_used_; }
  size_t size() const { return entries_.size(); }

 private:
  const std::string policy_name_;
  const uint64_t capacity_bytes_;
  std::unique_ptr<ReplacementPolicy> policy_;
  std::unordered_map<uint64_t, uint64_t> entries_;  // key_id -> bytes
  uint64_t bytes_used_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
};

/// Online shadow simulation of K alternative replacement policies against
/// the real cache's access stream. The real cache calls Access() once per
/// policy event (lookup hit or insert); every simulator sees the same
/// stream, so one run scores every policy at once. Would-be hit/miss/
/// eviction counts are exported to the metrics registry as
/// "cache.ghost.<policy>.hits" / ".misses" / ".evictions".
class GhostCacheSet {
 public:
  /// `policies` must all be valid MakePolicy names (checked fatally).
  /// `metrics` may be null (counters skipped, standings still tracked).
  GhostCacheSet(const std::vector<std::string>& policies,
                uint64_t capacity_bytes, MetricsRegistry* metrics);
  ~GhostCacheSet();

  GhostCacheSet(const GhostCacheSet&) = delete;
  GhostCacheSet& operator=(const GhostCacheSet&) = delete;

  /// Feeds one reference from the real access stream to every simulator.
  void Access(uint64_t key_id, uint64_t bytes, double benefit);

  std::vector<GhostStanding> Standings() const;

  size_t num_policies() const { return sims_.size(); }
  uint64_t capacity_bytes() const { return capacity_bytes_; }

 private:
  struct PolicyCounters {
    Counter* hits = nullptr;
    Counter* misses = nullptr;
    Counter* evictions = nullptr;
  };

  const uint64_t capacity_bytes_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<GhostCacheSim>> sims_;
  std::vector<PolicyCounters> counters_;
  std::vector<uint64_t> exported_evictions_;  // last value pushed to registry
};

}  // namespace chunkcache::cache

#endif  // CHUNKCACHE_CACHE_GHOST_CACHE_H_
