// Ghost-cache shadow simulation: the online standings must be exactly
// reproducible by replaying the same stream through fresh simulators
// (oracle replay), must land on the metrics registry, and — when the
// active policy shadows itself on a serial single-shard cache — must agree
// with the real cache's counters.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cache/chunk_cache.h"
#include "cache/ghost_cache.h"
#include "cache/replacement.h"
#include "common/metrics.h"
#include "common/random.h"

namespace chunkcache::cache {
namespace {

/// One reference of a synthetic access stream: key identity, payload
/// size and insert benefit, as the real cache feeds them to the ghosts.
struct GhostEvent {
  uint64_t key_id = 0;
  uint64_t bytes = 0;
  double benefit = 0;
};

// A deterministic reference stream with skewed reuse: keys from a small
// universe, sizes varying enough to exercise multi-victim evictions.
std::vector<GhostEvent> MakeStream(uint64_t seed, size_t n) {
  Random rng(seed);
  std::vector<GhostEvent> events;
  events.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    GhostEvent e;
    // Quadratic skew: low keys recur far more often.
    const uint64_t a = rng.Uniform(128);
    const uint64_t b = rng.Uniform(128);
    e.key_id = std::min(a, b);
    // Size is a pure function of the key, as a cached chunk's is.
    e.bytes = 200 + (e.key_id * 37) % 1800;
    e.benefit = 1.0 + static_cast<double>(e.key_id % 7);
    events.push_back(e);
  }
  return events;
}

TEST(GhostCacheSimTest, RejectsEntriesLargerThanBudget) {
  GhostCacheSim sim("lru", 1000);
  EXPECT_FALSE(sim.Access(1, 5000, 1.0));  // larger than the whole budget
  EXPECT_EQ(sim.size(), 0u);
  EXPECT_EQ(sim.bytes_used(), 0u);
  EXPECT_EQ(sim.misses(), 1u);
  // And it stays a miss on re-reference: never admitted.
  EXPECT_FALSE(sim.Access(1, 5000, 1.0));
  EXPECT_EQ(sim.misses(), 2u);
}

TEST(GhostCacheSimTest, EvictsUntilTheEntryFits) {
  GhostCacheSim sim("lru", 1000);
  EXPECT_FALSE(sim.Access(1, 400, 1.0));
  EXPECT_FALSE(sim.Access(2, 400, 1.0));
  EXPECT_EQ(sim.bytes_used(), 800u);
  // 600 doesn't fit beside 800: one eviction suffices.
  EXPECT_FALSE(sim.Access(3, 600, 1.0));
  EXPECT_EQ(sim.evictions(), 1u);
  EXPECT_LE(sim.bytes_used(), 1000u);
  // Key 1 (LRU victim) is gone; key 3 is resident.
  EXPECT_TRUE(sim.Access(3, 600, 1.0));
  EXPECT_FALSE(sim.Access(1, 400, 1.0));
}

// The tentpole's validation requirement: same trace => same counters, for
// every policy the factory knows.
TEST(GhostCacheSetTest, OracleReplayReproducesOnlineStandings) {
  const std::vector<GhostEvent> stream = MakeStream(7, 20000);
  const uint64_t capacity = 20000;
  GhostCacheSet set(KnownPolicyNames(), capacity, nullptr);
  for (const GhostEvent& e : stream) set.Access(e.key_id, e.bytes, e.benefit);

  for (const GhostStanding& st : set.Standings()) {
    GhostCacheSim replay(st.policy, capacity);
    for (const GhostEvent& e : stream) {
      replay.Access(e.key_id, e.bytes, e.benefit);
    }
    EXPECT_EQ(replay.hits(), st.hits) << st.policy;
    EXPECT_EQ(replay.misses(), st.misses) << st.policy;
    EXPECT_EQ(replay.evictions(), st.evictions) << st.policy;
    EXPECT_EQ(replay.bytes_used(), st.bytes_used) << st.policy;
    EXPECT_EQ(st.hits + st.misses, stream.size()) << st.policy;
  }
}

TEST(GhostCacheSetTest, StandingsExportToTheRegistry) {
  MetricsRegistry registry;
  GhostCacheSet set({"lru", "arc"}, 10000, &registry);
  const std::vector<GhostEvent> stream = MakeStream(11, 5000);
  for (const GhostEvent& e : stream) set.Access(e.key_id, e.bytes, e.benefit);

  const MetricsRegistry::Snapshot snap = registry.TakeSnapshot();
  for (const GhostStanding& st : set.Standings()) {
    EXPECT_EQ(snap.counter("cache.ghost." + st.policy + ".hits"), st.hits);
    EXPECT_EQ(snap.counter("cache.ghost." + st.policy + ".misses"),
              st.misses);
    EXPECT_EQ(snap.counter("cache.ghost." + st.policy + ".evictions"),
              st.evictions);
  }
}

// Serial, single-shard: the active policy's own shadow sees exactly the
// reference stream the real cache serves, so its standings must agree
// with the real counters hit-for-hit.
TEST(GhostCacheIntegrationTest, ActivePolicyShadowMatchesRealCache) {
  const uint64_t entry_bytes = CachedChunk{}.ByteSize();
  const uint64_t capacity = entry_bytes * 8;
  ChunkCache cache(capacity, MakePolicy("lru"));
  cache.EnableGhostPolicies(KnownPolicyNames());

  Random rng(31);
  for (int i = 0; i < 5000; ++i) {
    const uint64_t a = rng.Uniform(32);
    const uint64_t b = rng.Uniform(32);
    const uint64_t chunk = std::min(a, b);  // skewed reuse
    if (cache.Lookup(1, chunk, 0) == nullptr) {
      CachedChunk c;
      c.group_by_id = 1;
      c.chunk_num = chunk;
      c.benefit = 1.0;
      cache.Insert(std::move(c));
    }
  }

  const ChunkCacheStats real = cache.stats();
  ASSERT_NE(cache.ghosts(), nullptr);
  bool found = false;
  for (const GhostStanding& st : cache.ghosts()->Standings()) {
    EXPECT_EQ(st.hits + st.misses, real.lookups) << st.policy;
    if (st.policy == "lru") {
      found = true;
      EXPECT_EQ(st.hits, real.hits);
      EXPECT_EQ(st.misses, real.lookups - real.hits);
    }
  }
  EXPECT_TRUE(found);
}

// Thread-safety of the shadow set under a concurrent cache (runs under
// TSAN in CI): every lookup produces exactly one ghost reference — a hit
// feed or an insert feed — so per-policy references equal total lookups.
TEST(GhostCacheIntegrationTest, ConcurrentFeedsCountEveryReference) {
  const uint64_t entry_bytes = CachedChunk{}.ByteSize();
  ChunkCache cache(entry_bytes * 64, "lru", /*num_shards=*/4);
  cache.EnableGhostPolicies({"lru", "arc", "2q"});

  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 4000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      Random rng(100 + static_cast<uint64_t>(t));
      for (int i = 0; i < kOpsPerThread; ++i) {
        const uint64_t chunk = rng.Uniform(256);
        if (cache.Lookup(2, chunk, 0) == nullptr) {
          CachedChunk c;
          c.group_by_id = 2;
          c.chunk_num = chunk;
          c.benefit = 1.0;
          cache.Insert(std::move(c));
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();

  const uint64_t lookups = cache.stats().lookups;
  EXPECT_EQ(lookups, static_cast<uint64_t>(kThreads) * kOpsPerThread);
  for (const GhostStanding& st : cache.ghosts()->Standings()) {
    EXPECT_EQ(st.hits + st.misses, lookups) << st.policy;
  }
}

}  // namespace
}  // namespace chunkcache::cache
