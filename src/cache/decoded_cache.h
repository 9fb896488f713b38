#ifndef CHUNKCACHE_CACHE_DECODED_CACHE_H_
#define CHUNKCACHE_CACHE_DECODED_CACHE_H_

#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "cache/chunk_cache.h"
#include "common/metrics.h"
#include "storage/chunk_payload.h"

namespace chunkcache::cache {

/// Small LRU front for the compressed in-memory tier: maps a ChunkKey to
/// the box payload of a recently decoded blob so back-to-back hits on the
/// same chunk (row-major box enumeration, proximity streams) decode once
/// instead of per hit. Deliberately tiny relative to the chunk cache — it trades a
/// bounded slice of memory for the common re-hit, while the main budget
/// stays charged at encoded bytes.
///
/// Statistics live on the MetricsRegistry (the PR 5 convention):
/// "cache.decoded_lru_hits" / "cache.decoded_lru_evictions" counters and
/// the "cache.decoded_lru_bytes" gauge are kept current by the cache
/// itself — no shadow fields to fold at snapshot time. Passing a null
/// registry gives the cache a private one.
///
/// Thread-safe; values are shared_ptr<const ChunkPayload>, so a returned
/// decode stays valid however the LRU churns. Each is charged its struct
/// plus its allocation's capacity.
class DecodedCache {
 public:
  explicit DecodedCache(uint64_t capacity_bytes,
                        MetricsRegistry* metrics = nullptr);

  DecodedCache(const DecodedCache&) = delete;
  DecodedCache& operator=(const DecodedCache&) = delete;

  /// The decoded payload for `key`, refreshing its recency; null if
  /// absent. A hit bumps "cache.decoded_lru_hits".
  std::shared_ptr<const storage::ChunkPayload> Get(const ChunkKey& key);

  /// Remembers a decode, evicting least-recently-used entries over budget.
  /// A payload larger than the whole budget is simply not admitted.
  void Put(const ChunkKey& key,
           std::shared_ptr<const storage::ChunkPayload> payload);

  /// What one decoded payload is charged.
  static uint64_t Charge(const storage::ChunkPayload& payload) {
    return sizeof(storage::ChunkPayload) + payload.capacity_bytes();
  }

 private:
  using Entry =
      std::pair<ChunkKey, std::shared_ptr<const storage::ChunkPayload>>;

  void EvictOverBudgetLocked();

  const uint64_t capacity_bytes_;
  std::unique_ptr<MetricsRegistry> owned_metrics_;  // when none was passed
  Counter* hits_ = nullptr;       // cache.decoded_lru_hits
  Counter* evictions_ = nullptr;  // cache.decoded_lru_evictions
  Gauge* bytes_gauge_ = nullptr;  // cache.decoded_lru_bytes
  std::mutex mu_;
  std::list<Entry> lru_;  // front = most recent
  std::unordered_map<ChunkKey, std::list<Entry>::iterator, ChunkKeyHash>
      index_;
  uint64_t bytes_used_ = 0;
};

}  // namespace chunkcache::cache

#endif  // CHUNKCACHE_CACHE_DECODED_CACHE_H_
