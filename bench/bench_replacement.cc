// Replacement-policy lab: every policy behind MakePolicy() x cache
// budget, across three workload mixes:
//   - zipfian:    16 fixed regions with Zipf(0.9) popularity — skewed
//                 reuse, where recency/frequency policies separate;
//   - scan-heavy: wide roaming selections — the flood that punishes
//                 policies without scan resistance;
//   - session:    alternating drill-down / roll-up analyst sessions from
//                 session_generator — the paper's hierarchical locality.
//
// Per cell: chunk-cache hit ratio, evictions, average and p99 per-query
// latency (from the query.latency_ns histogram), backend pages, and a
// result hash. Replacement only decides which chunks stay cached, never
// answers, so every cell of one mix must hash identically — the bench
// fails otherwise.
//
// Per {mix, budget} a ghost run shadows ALL policies against one real
// cache's access stream and checks the active policy's ghost agrees with
// the real cache (serial single-shard, so the shadow must match reality
// exactly).
//
// Results go to stdout AND BENCH_replacement.json (CI validates the
// schema). Honors CHUNKCACHE_BENCH_SCALE / CHUNKCACHE_BENCH_QUERIES.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "backend/star_join_query.h"
#include "bench/common/experiment.h"
#include "cache/ghost_cache.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "cache/replacement.h"
#include "core/chunk_cache_manager.h"
#include "workload/query_generator.h"
#include "workload/session_generator.h"

namespace chunkcache::bench {
namespace {

using backend::ResultRow;
using backend::StarJoinQuery;
using core::ChunkCacheManager;
using core::ChunkManagerOptions;
using core::QueryStats;

// A mix is a named factory for a deterministic query source; every cell
// of the sweep rebuilds the source so all runs see the same stream.
struct Mix {
  std::string name;
  std::function<std::function<StarJoinQuery()>(schema::StarSchema*)> make;
};

std::vector<Mix> MakeMixes() {
  std::vector<Mix> mixes;
  mixes.push_back({"zipfian", [](schema::StarSchema* s) {
                     auto gen = std::make_shared<workload::QueryGenerator>(
                         s, workload::ZipfianStream(1998));
                     return [gen] { return gen->Next(); };
                   }});
  mixes.push_back({"scan-heavy", [](schema::StarSchema* s) {
                     auto gen = std::make_shared<workload::QueryGenerator>(
                         s, workload::ScanHeavyStream(1998));
                     return [gen] { return gen->Next(); };
                   }});
  // Alternates whole sessions between a drill-down and a roll-up
  // generator: coarse->fine, then fine->coarse, over hashed regions.
  mixes.push_back({"session", [](schema::StarSchema* s) {
                     workload::SessionOptions drill;
                     drill.drill_down = true;
                     drill.seed = 1998;
                     workload::SessionOptions roll;
                     roll.drill_down = false;
                     roll.seed = 2042;
                     auto d = std::make_shared<workload::SessionGenerator>(
                         s, drill);
                     auto r = std::make_shared<workload::SessionGenerator>(
                         s, roll);
                     auto n = std::make_shared<uint64_t>(0);
                     return [d, r, n]() -> StarJoinQuery {
                       // Two queries per session pair; swap every pair.
                       const bool use_drill = ((*n)++ / 2) % 2 == 0;
                       return use_drill ? d->Next() : r->Next();
                     };
                   }});
  return mixes;
}

uint64_t HashRows(const std::vector<ResultRow>& rows, uint64_t acc) {
  auto mix = [&acc](uint64_t v) { acc = (acc ^ v) * 0x100000001b3ULL; };
  for (const ResultRow& r : rows) {
    for (uint32_t v : r.coords) mix(v);
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(r.sum), "");
    std::memcpy(&bits, &r.sum, 8);
    mix(bits);
    mix(r.count);
    std::memcpy(&bits, &r.min_v, 8);
    mix(bits);
    std::memcpy(&bits, &r.max_v, 8);
    mix(bits);
  }
  return acc;
}

struct Cell {
  std::string mix;
  double cache_mb = 0;
  std::string policy;
  double hit_ratio = 0;
  uint64_t evictions = 0;
  double avg_ms = 0;   ///< Real wall per query.
  double p99_ms = 0;   ///< query.latency_ns histogram p99.
  uint64_t pages = 0;
  uint64_t hash = 0;
};

struct GhostRun {
  std::string mix;
  double cache_mb = 0;
  std::string active_policy;
  std::vector<cache::GhostStanding> standings;
  bool matches_real = false;  ///< Active policy's ghost == real hits.
};

Result<Cell> RunCell(System* sys, const Mix& mix, uint64_t cache_bytes,
                     const std::string& policy, uint64_t num_queries) {
  CHUNKCACHE_RETURN_IF_ERROR(sys->ResetBackend());
  ChunkManagerOptions opts;
  opts.cache_bytes = cache_bytes;
  opts.policy = policy;
  opts.cost_model = sys->config().cost_model;
  ChunkCacheManager mgr(&sys->engine(), opts);
  auto next = mix.make(&sys->schema());

  Cell cell;
  cell.mix = mix.name;
  cell.cache_mb = static_cast<double>(cache_bytes) / (1 << 20);
  cell.policy = policy;
  cell.hash = 0xcbf29ce484222325ULL;
  uint64_t pages = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < num_queries; ++i) {
    const StarJoinQuery q = next();
    QueryStats st;
    CHUNKCACHE_ASSIGN_OR_RETURN(std::vector<ResultRow> rows,
                                mgr.Execute(q, &st));
    cell.hash = HashRows(rows, cell.hash);
    pages += st.backend_work.pages_read;
  }
  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  cell.avg_ms = wall_ms / static_cast<double>(num_queries);
  cell.pages = pages;
  const cache::ChunkCacheStats stats = mgr.StatsSnapshot();
  cell.hit_ratio = stats.lookups > 0
                       ? static_cast<double>(stats.hits) /
                             static_cast<double>(stats.lookups)
                       : 0;
  cell.evictions = stats.evictions;
  const MetricsRegistry::Snapshot snap = mgr.metrics().TakeSnapshot();
  const auto it = snap.histograms.find("query.latency_ns");
  if (it != snap.histograms.end()) {
    cell.p99_ms = it->second.Quantile(0.99) / 1e6;
  }
  return cell;
}

Result<GhostRun> RunGhosts(System* sys, const Mix& mix, uint64_t cache_bytes,
                           uint64_t num_queries) {
  CHUNKCACHE_RETURN_IF_ERROR(sys->ResetBackend());
  ChunkManagerOptions opts;
  opts.cache_bytes = cache_bytes;
  opts.policy = "lru";  // the active policy also runs as its own ghost
  opts.cost_model = sys->config().cost_model;
  opts.ghost_policies = cache::KnownPolicyNames();
  ChunkCacheManager mgr(&sys->engine(), opts);
  auto next = mix.make(&sys->schema());
  for (uint64_t i = 0; i < num_queries; ++i) {
    QueryStats st;
    CHUNKCACHE_ASSIGN_OR_RETURN(std::vector<ResultRow> rows,
                                mgr.Execute(next(), &st));
    (void)rows;
  }

  GhostRun run;
  run.mix = mix.name;
  run.cache_mb = static_cast<double>(cache_bytes) / (1 << 20);
  run.active_policy = opts.policy;
  const cache::GhostCacheSet* ghosts = mgr.chunk_cache().ghosts();
  CHUNKCACHE_CHECK(ghosts != nullptr);
  run.standings = ghosts->Standings();
  // The active policy's shadow saw the identical reference stream the
  // real (serial, single-shard) cache served, so it must agree.
  const uint64_t real_hits = mgr.StatsSnapshot().hits;
  for (const cache::GhostStanding& st : run.standings) {
    if (st.policy == run.active_policy) run.matches_real = st.hits == real_hits;
  }
  return run;
}

Status Run() {
  ExperimentConfig config = ExperimentConfig::FromEnv();
  config.pool_frames = 256;  // undersized pool: backend pages are real I/O
  PrintSetup(config, "Replacement lab: policy x budget");
  CHUNKCACHE_ASSIGN_OR_RETURN(std::unique_ptr<System> sys,
                              System::Build(config));

  const uint64_t num_queries =
      std::max<uint64_t>(50, config.stream_queries / 5);
  const double scale = static_cast<double>(config.num_tuples) / 500000.0;
  std::vector<uint64_t> budgets;
  for (double mb : {2.0, 5.0, 10.0}) {
    budgets.push_back(static_cast<uint64_t>(mb * scale * (1 << 20)));
  }
  const std::vector<std::string>& policies = cache::KnownPolicyNames();
  const std::vector<Mix> mixes = MakeMixes();

  std::vector<Cell> cells;
  std::vector<GhostRun> ghost_runs;
  bool identical_all = true;
  bool ghost_matches_real_all = true;

  for (const Mix& mix : mixes) {
    uint64_t mix_hash = 0;
    bool have_hash = false;
    std::printf("\n-- mix: %s --\n", mix.name.c_str());
    std::printf("%8s %18s %7s %9s %9s %9s %9s\n", "cache", "policy", "hit%",
                "evict", "ms/q", "p99 ms", "pages");
    for (uint64_t bytes : budgets) {
      for (const std::string& policy : policies) {
        CHUNKCACHE_ASSIGN_OR_RETURN(
            Cell cell, RunCell(sys.get(), mix, bytes, policy, num_queries));
        if (!have_hash) {
          mix_hash = cell.hash;
          have_hash = true;
        } else if (cell.hash != mix_hash) {
          identical_all = false;
          std::fprintf(stderr, "HASH MISMATCH: %s %s @%.2fMB diverged\n",
                       mix.name.c_str(), policy.c_str(), cell.cache_mb);
        }
        std::printf("%6.2fM %18s %6.1f%% %9llu %9.3f %9.3f %9llu\n",
                    cell.cache_mb, policy.c_str(), 100 * cell.hit_ratio,
                    static_cast<unsigned long long>(cell.evictions),
                    cell.avg_ms, cell.p99_ms,
                    static_cast<unsigned long long>(cell.pages));
        cells.push_back(std::move(cell));
      }
      CHUNKCACHE_ASSIGN_OR_RETURN(
          GhostRun gr, RunGhosts(sys.get(), mix, bytes, num_queries));
      ghost_matches_real_all = ghost_matches_real_all && gr.matches_real;
      std::printf("  ghosts @%.2fMB (real-agree %s):", gr.cache_mb,
                  gr.matches_real ? "ok" : "FAILED");
      for (const cache::GhostStanding& st : gr.standings) {
        const uint64_t refs = st.hits + st.misses;
        std::printf(" %s=%.1f%%", st.policy.c_str(),
                    refs > 0 ? 100.0 * static_cast<double>(st.hits) /
                                   static_cast<double>(refs)
                             : 0.0);
      }
      std::printf("\n");
      ghost_runs.push_back(std::move(gr));
    }
  }

  std::FILE* out = std::fopen("BENCH_replacement.json", "w");
  if (out == nullptr) {
    return Status::IoError("cannot write BENCH_replacement.json");
  }
  std::fprintf(out,
               "{\n  \"bench\": \"replacement\",\n  \"num_tuples\": %llu,\n"
               "  \"queries_per_point\": %llu,\n  \"policies\": [",
               static_cast<unsigned long long>(config.num_tuples),
               static_cast<unsigned long long>(num_queries));
  for (size_t i = 0; i < policies.size(); ++i) {
    std::fprintf(out, "\"%s\"%s", policies[i].c_str(),
                 i + 1 < policies.size() ? ", " : "");
  }
  std::fprintf(out, "],\n  \"cells\": [\n");
  for (size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    std::fprintf(
        out,
        "    {\"mix\": \"%s\", \"cache_mb\": %.2f, \"policy\": \"%s\", "
        "\"hit_ratio\": %.4f, \"evictions\": %llu, \"avg_ms\": %.4f, "
        "\"p99_ms\": %.4f, \"pages\": %llu}%s\n",
        c.mix.c_str(), c.cache_mb, c.policy.c_str(), c.hit_ratio,
        static_cast<unsigned long long>(c.evictions), c.avg_ms, c.p99_ms,
        static_cast<unsigned long long>(c.pages),
        i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"ghosts\": [\n");
  for (size_t i = 0; i < ghost_runs.size(); ++i) {
    const GhostRun& g = ghost_runs[i];
    std::fprintf(out,
                 "    {\"mix\": \"%s\", \"cache_mb\": %.2f, "
                 "\"matches_real\": %s, \"standings\": [",
                 g.mix.c_str(), g.cache_mb,
                 g.matches_real ? "true" : "false");
    for (size_t j = 0; j < g.standings.size(); ++j) {
      const cache::GhostStanding& st = g.standings[j];
      std::fprintf(out,
                   "{\"policy\": \"%s\", \"hits\": %llu, \"misses\": "
                   "%llu, \"evictions\": %llu}%s",
                   st.policy.c_str(),
                   static_cast<unsigned long long>(st.hits),
                   static_cast<unsigned long long>(st.misses),
                   static_cast<unsigned long long>(st.evictions),
                   j + 1 < g.standings.size() ? ", " : "");
    }
    std::fprintf(out, "]}%s\n", i + 1 < ghost_runs.size() ? "," : "");
  }
  std::fprintf(out,
               "  ],\n  \"identical_all\": %s,\n"
               "  \"ghost_matches_real_all\": %s\n}\n",
               identical_all ? "true" : "false",
               ghost_matches_real_all ? "true" : "false");
  std::fclose(out);
  std::printf("\nwrote BENCH_replacement.json\n");

  if (!identical_all) {
    return Status::Internal("results diverged across policies within a mix");
  }
  if (!ghost_matches_real_all) {
    return Status::Internal("active policy's ghost disagreed with the "
                            "real cache");
  }
  return Status::OK();
}

}  // namespace
}  // namespace chunkcache::bench

int main() {
  const chunkcache::Status s = chunkcache::bench::Run();
  if (!s.ok()) {
    std::fprintf(stderr, "bench_replacement failed: %s\n",
                 s.message().c_str());
    return 1;
  }
  return 0;
}
