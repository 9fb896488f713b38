// Multi-client scaling of the chunk-cache middle tier. M client threads
// drain a shared, pre-generated query stream through one ChunkCacheManager
// with a sharded cache and max(2, M) scan slots; each query runs serially
// on its client's thread. We report aggregate throughput and the merged
// per-query latency distribution versus the client count.
//
// The first row (1 client, 1 shard) is the serial paper path, so it
// doubles as the no-regression baseline for the serial reproductions.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "bench/common/experiment.h"
#include "core/chunk_cache_manager.h"

namespace chunkcache::bench {
namespace {

using core::ChunkCacheManager;
using core::ChunkManagerOptions;
using core::QueryStats;

struct ConfigResult {
  uint32_t clients = 0;
  uint32_t shards = 0;
  double qps = 0;
  double p50_ms = 0;
  double p95_ms = 0;
  uint64_t errors = 0;
  uint64_t contention_ns = 0;
};

double Percentile(std::vector<double>* sorted_ms, double p) {
  if (sorted_ms->empty()) return 0;
  const size_t idx = static_cast<size_t>(p * (sorted_ms->size() - 1));
  return (*sorted_ms)[idx];
}

ConfigResult RunConfig(System* sys,
                       const std::vector<backend::StarJoinQuery>& queries,
                       uint32_t clients, uint32_t shards) {
  // Cold start: fresh manager, cold buffer pool — every config does the
  // same total work from the same starting state.
  if (!sys->ResetBackend().ok()) return {};

  ChunkManagerOptions opts;
  opts.num_workers = clients;  // max(2, clients) scan slots
  opts.cache_shards = shards;
  ChunkCacheManager mgr(&sys->engine(), opts);

  std::atomic<size_t> next{0};
  std::atomic<uint64_t> errors{0};
  std::vector<std::vector<double>> latencies(clients);

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (uint32_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      latencies[c].reserve(queries.size() / clients + 1);
      for (size_t i = next.fetch_add(1); i < queries.size();
           i = next.fetch_add(1)) {
        QueryStats st;
        const auto q0 = std::chrono::steady_clock::now();
        auto rows = mgr.Execute(queries[i], &st);
        const auto q1 = std::chrono::steady_clock::now();
        if (!rows.ok()) errors.fetch_add(1);
        latencies[c].push_back(
            std::chrono::duration<double, std::milli>(q1 - q0).count());
      }
    });
  }
  for (auto& th : threads) th.join();
  const auto t1 = std::chrono::steady_clock::now();
  const double wall_s = std::chrono::duration<double>(t1 - t0).count();

  std::vector<double> merged;
  merged.reserve(queries.size());
  for (auto& v : latencies) merged.insert(merged.end(), v.begin(), v.end());
  std::sort(merged.begin(), merged.end());

  ConfigResult r;
  r.clients = clients;
  r.shards = shards;
  r.qps = wall_s > 0 ? static_cast<double>(queries.size()) / wall_s : 0;
  r.p50_ms = Percentile(&merged, 0.50);
  r.p95_ms = Percentile(&merged, 0.95);
  r.errors = errors.load();
  r.contention_ns = mgr.StatsSnapshot().contention_ns;
  return r;
}

int Run() {
  ExperimentConfig config = ExperimentConfig::FromEnv();
  PrintSetup(config,
             "Concurrency scaling: M clients, max(2, M) scan slots, 16 shards");

  auto sys = System::Build(config);
  if (!sys.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 sys.status().ToString().c_str());
    return 1;
  }

  // One shared stream so every configuration answers the *same* queries.
  workload::WorkloadOptions wopts;
  wopts.seed = 7;
  workload::QueryGenerator gen(&(*sys)->schema(), wopts);
  std::vector<backend::StarJoinQuery> queries;
  queries.reserve(config.stream_queries);
  for (uint64_t i = 0; i < config.stream_queries; ++i) {
    queries.push_back(gen.Next());
  }

  std::printf("%-8s %-8s %-8s %12s %10s %10s %10s %12s\n", "clients",
              "slots", "shards", "qps", "p50(ms)", "p95(ms)", "speedup",
              "lock-wait(ms)");

  double base_qps = 0;
  const uint32_t hw = std::max(1u, std::thread::hardware_concurrency());
  for (uint32_t m : {1u, 2u, 4u, 8u}) {
    // The m = 1 row uses the serial configuration (one shard); the
    // concurrent rows get a 16-way sharded cache.
    const uint32_t shards = m == 1 ? 1 : 16;
    ConfigResult r = RunConfig(sys->get(), queries, m, shards);
    if (m == 1) base_qps = r.qps;
    std::printf("%-8u %-8u %-8u %12.1f %10.3f %10.3f %9.2fx %12.2f\n",
                r.clients, std::max(2u, m), r.shards, r.qps, r.p50_ms, r.p95_ms,
                base_qps > 0 ? r.qps / base_qps : 0,
                static_cast<double>(r.contention_ns) / 1e6);
    if (r.errors != 0) {
      std::fprintf(stderr, "config %u: %llu queries failed\n", m,
                   static_cast<unsigned long long>(r.errors));
      return 1;
    }
    if (m > hw) {
      std::printf("(note: %u clients oversubscribe %u hardware threads)\n",
                  m, hw);
    }
  }
  return 0;
}

}  // namespace
}  // namespace chunkcache::bench

int main() { return chunkcache::bench::Run(); }
