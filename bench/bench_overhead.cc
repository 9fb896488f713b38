// Quantifies the paper's uniformity argument (Sections 2.4 / 3.2 benefit
// 2): answering from a chunk cache costs one O(1) hash probe per needed
// chunk, while a semantic-region cache must intersect the query with the
// cached regions of its group-by — work that grows with cache population.
// This bench populates both caches with increasing numbers of entries for
// ONE group-by (the adversarial case for the semantic cache) and measures
// wall time per probe.

#include <chrono>
#include <cstdio>
#include <memory>

#include "cache/chunk_cache.h"
#include "cache/semantic_cache.h"
#include "chunks/group_by_spec.h"
#include "common/random.h"

namespace chunkcache::bench {
namespace {

using backend::StarJoinQuery;
using cache::SemanticRegion;
using chunks::GroupBySpec;
using schema::OrdinalRange;

// The timed loops store their result here, so the compiler cannot drop
// the probes as dead code.
volatile uint64_t g_sink = 0;

int Run() {
  std::printf("=== Probe overhead: chunk hash lookup vs semantic region "
              "intersection ===\n");
  std::printf("%-10s %22s %26s %20s\n", "entries", "chunk probe (ns)",
              "semantic probe (ns)", "intersect tests/probe");

  const GroupBySpec spec{{2, 1, 2, 1}, 4};
  Random rng(5);
  for (uint64_t n : {256u, 1024u, 4096u, 16384u, 65536u}) {
    // Chunk cache with n chunks of this group-by.
    cache::ChunkCache chunk_cache(1ull << 30, "lru");
    for (uint64_t i = 0; i < n; ++i) {
      cache::CachedChunk c;
      c.group_by_id = 7;
      c.chunk_num = i;
      c.benefit = 1.0;
      storage::AggColumns cols(4);
      for (uint32_t row = 0; row < 4; ++row) {
        const uint32_t coords[4] = {row, 0, 0, 0};
        cols.PushCell(coords, 0.0, 1, 0.0, 0.0);
      }
      c.payload = storage::ChunkPayload(cols);
      chunk_cache.Insert(std::move(c));
    }
    // Semantic cache with n small disjoint regions of the same group-by.
    cache::SemanticRegionCache sem_cache(1ull << 30,
                                         cache::MakePolicy("lru"));
    for (uint64_t i = 0; i < n; ++i) {
      SemanticRegion r;
      r.group_by = spec;
      r.box.num_dims = 4;
      r.box.ranges[0] = OrdinalRange{static_cast<uint32_t>(i % 1000) * 4,
                                     static_cast<uint32_t>(i % 1000) * 4 + 3};
      r.box.ranges[1] = OrdinalRange{static_cast<uint32_t>(i / 1000) * 4,
                                     static_cast<uint32_t>(i / 1000) * 4 + 3};
      r.box.ranges[2] = OrdinalRange{0, 24};
      r.box.ranges[3] = OrdinalRange{0, 9};
      r.benefit = 1.0;
      r.rows.resize(4);
      sem_cache.Insert(std::move(r));
    }

    const int probes = 2000;
    // Chunk probes: look up `chunks_per_query` chunk numbers.
    const int chunks_per_query = 32;
    auto t0 = std::chrono::steady_clock::now();
    uint64_t sink = 0;
    for (int p = 0; p < probes; ++p) {
      for (int c = 0; c < chunks_per_query; ++c) {
        sink += chunk_cache.Lookup(7, rng.Uniform(2 * n), 0) != nullptr;
      }
    }
    auto t1 = std::chrono::steady_clock::now();
    // Semantic probes: decompose a query box against the regions.
    const uint64_t tests_before = sem_cache.stats().intersection_tests;
    StarJoinQuery q;
    q.group_by = spec;
    for (int p = 0; p < probes; ++p) {
      const uint32_t x = static_cast<uint32_t>(rng.Uniform(3900));
      q.selection[0] = OrdinalRange{x, x + 60};
      q.selection[1] = OrdinalRange{0, 24};
      q.selection[2] = OrdinalRange{0, 24};
      q.selection[3] = OrdinalRange{0, 9};
      sink += sem_cache.Decompose(q).covered.size();
    }
    auto t2 = std::chrono::steady_clock::now();
    const double chunk_ns =
        std::chrono::duration<double, std::nano>(t1 - t0).count() / probes;
    const double sem_ns =
        std::chrono::duration<double, std::nano>(t2 - t1).count() / probes;
    const double tests_per_probe =
        static_cast<double>(sem_cache.stats().intersection_tests -
                            tests_before) /
        probes;
    std::printf("%-10llu %22.0f %26.0f %20.1f\n",
                static_cast<unsigned long long>(n), chunk_ns, sem_ns,
                tests_per_probe);
    g_sink = sink;
  }
  std::printf("(chunk probe = %d O(1) hash lookups; semantic probe scans "
              "all same-group-by regions)\n", 32);
  return 0;
}

}  // namespace
}  // namespace chunkcache::bench

int main() { return chunkcache::bench::Run(); }
