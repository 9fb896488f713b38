// Crash-safe persistent cache: what does a warm restart buy, and what
// does durability cost?
//
// Four runs over the SAME deterministic query stream at a mid cache
// budget (the cache holds a strict subset of the working set, so warmth
// is visible):
//   1. baseline  — persistence off; reference result hash + wall time;
//   2. cold      — persistence on, fresh directory, clean shutdown
//                  (writes the final snapshot);
//   3. warm      — restarted on that directory: recovery time, recovered
//                  entries, and the first-N-query hit ratio, which must
//                  sit strictly above the cold run's (the warm-restart
//                  claim); ends with SimulateCrash — no shutdown
//                  snapshot, exactly a SIGKILL;
//   4. crash     — restarted on the killed directory: the newest snapshot
//                  the background persister completed (else the cold
//                  run's shutdown one); results still bit-identical and
//                  the first-N hit ratio still strictly above cold.
//
// Results go to stdout AND to BENCH_persistence.json (machine readable;
// CI validates the schema and the warm > cold, crash > cold, identical
// and zero quarantine claims). Honors CHUNKCACHE_BENCH_SCALE and
// CHUNKCACHE_BENCH_QUERIES.

#include <stdlib.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/common/experiment.h"
#include "core/chunk_cache_manager.h"
#include "workload/query_generator.h"

namespace chunkcache::bench {
namespace {

using backend::ResultRow;
using backend::StarJoinQuery;
using core::ChunkCacheManager;
using core::ChunkManagerOptions;
using core::QueryStats;

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t HashRows(const std::vector<ResultRow>& rows, uint64_t acc) {
  auto mix = [&acc](uint64_t v) { acc = (acc ^ v) * 0x100000001b3ULL; };
  for (const ResultRow& r : rows) {
    for (uint32_t v : r.coords) mix(v);
    uint64_t bits;
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

struct StreamOutcome {
  uint64_t hash = 0xcbf29ce484222325ULL;
  double wall_ms = 0;
  double first_n_hit_ratio = 0;   ///< chunk hit ratio over the first N.
  double stream_hit_ratio = 0;
  double recovery_ms = 0;
  cache::ChunkCacheStats stats;
};

/// Runs the canonical stream through one manager configuration. The
/// manager is constructed inside (construction time = recovery time when
/// persisting) and destroyed before returning unless `crash_at_end`
/// simulates a SIGKILL first.
Result<StreamOutcome> RunStream(System* sys, const ChunkManagerOptions& opts,
                                uint64_t num_queries, uint64_t first_n,
                                bool crash_at_end) {
  CHUNKCACHE_RETURN_IF_ERROR(sys->ResetBackend());
  const double t0 = NowMs();
  ChunkCacheManager mgr(&sys->engine(), opts);
  StreamOutcome out;
  out.recovery_ms = NowMs() - t0;

  // Zipfian hot regions: the realistic warm-restart shape — the queries
  // that were hot before the restart are hot again after it, so the
  // recovered contents are actually re-referenced. Same stream for every
  // configuration.
  workload::QueryGenerator gen(&sys->schema(),
                               workload::ZipfianStream(1998));
  uint64_t first_needed = 0, first_hits = 0, needed = 0, hits = 0;
  const double s0 = NowMs();
  for (uint64_t i = 0; i < num_queries; ++i) {
    const StarJoinQuery q = gen.Next();
    QueryStats st;
    CHUNKCACHE_ASSIGN_OR_RETURN(std::vector<ResultRow> rows,
                                mgr.Execute(q, &st));
    out.hash = HashRows(rows, out.hash);
    needed += st.chunks_needed;
    hits += st.chunks_from_cache;
    if (i < first_n) {
      first_needed += st.chunks_needed;
      first_hits += st.chunks_from_cache;
    }
  }
  out.wall_ms = NowMs() - s0;
  out.first_n_hit_ratio =
      first_needed ? static_cast<double>(first_hits) / first_needed : 0;
  out.stream_hit_ratio = needed ? static_cast<double>(hits) / needed : 0;
  out.stats = mgr.StatsSnapshot();
  if (crash_at_end && mgr.persistence() != nullptr) {
    mgr.persistence()->SimulateCrash();
  }
  return out;
}

Status Run() {
  ExperimentConfig config = ExperimentConfig::FromEnv();
  PrintSetup(config,
             "Persistent cache: warm restart vs cold, crash recovery");
  CHUNKCACHE_ASSIGN_OR_RETURN(std::unique_ptr<System> sys,
                              System::Build(config));

  char tmpl[] = "/tmp/chunkcache_bench_persist_XXXXXX";
  const char* dirp = ::mkdtemp(tmpl);
  if (dirp == nullptr) return Status::IoError("mkdtemp failed");
  const std::string dir = dirp;

  const uint64_t num_queries = std::max<uint64_t>(60, config.stream_queries / 5);
  const uint64_t first_n = std::max<uint64_t>(10, num_queries / 2);
  // Mid budget: the cache is useful but cannot hold everything, so both
  // replacement and warm-restart effects are visible.
  const double scale = static_cast<double>(config.num_tuples) / 500000.0;
  const uint64_t cache_bytes =
      static_cast<uint64_t>(4.0 * scale * (1 << 20));

  ChunkManagerOptions base;
  base.cache_bytes = cache_bytes;
  ChunkManagerOptions persist = base;
  persist.persist_dir = dir;
  persist.persist_snapshot_every = 512;

  CHUNKCACHE_ASSIGN_OR_RETURN(
      StreamOutcome baseline,
      RunStream(sys.get(), base, num_queries, first_n, false));
  CHUNKCACHE_ASSIGN_OR_RETURN(
      StreamOutcome cold,
      RunStream(sys.get(), persist, num_queries, first_n, false));
  CHUNKCACHE_ASSIGN_OR_RETURN(
      StreamOutcome warm,
      RunStream(sys.get(), persist, num_queries, first_n, true));
  CHUNKCACHE_ASSIGN_OR_RETURN(
      StreamOutcome crash,
      RunStream(sys.get(), persist, num_queries, first_n, false));

  std::error_code ec;
  std::filesystem::remove_all(dir, ec);

  const bool identical =
      cold.hash == baseline.hash && warm.hash == baseline.hash;
  const bool crash_identical = crash.hash == baseline.hash;
  const uint64_t quarantined =
      warm.stats.persist_quarantined + crash.stats.persist_quarantined;
  const double overhead_ms =
      (cold.wall_ms - baseline.wall_ms) / static_cast<double>(num_queries);

  std::printf("%9s %10s %10s %10s %9s %10s %6s\n", "run", "firstN%",
              "stream%", "wall ms", "recov ms", "recovered", "ident");
  auto row = [&](const char* name, const StreamOutcome& o, bool ident) {
    std::printf("%9s %9.1f%% %9.1f%% %10.1f %9.2f %10llu %6s\n", name,
                100 * o.first_n_hit_ratio, 100 * o.stream_hit_ratio, o.wall_ms,
                o.recovery_ms,
                static_cast<unsigned long long>(
                    o.stats.persist_recovered_entries),
                ident ? "yes" : "NO");
  };
  row("baseline", baseline, true);
  row("cold", cold, cold.hash == baseline.hash);
  row("warm", warm, warm.hash == baseline.hash);
  row("crash", crash, crash_identical);
  std::printf(
      "\nfirst-%llu hit ratio: warm restart %.1f%%, after crash %.1f%%, "
      "cold %.1f%%; persistence overhead %.4f ms/query; "
      "%llu snapshots / %llu bytes; quarantined %llu\n",
      static_cast<unsigned long long>(first_n), 100 * warm.first_n_hit_ratio,
      100 * crash.first_n_hit_ratio, 100 * cold.first_n_hit_ratio, overhead_ms,
      static_cast<unsigned long long>(cold.stats.persist_snapshots),
      static_cast<unsigned long long>(cold.stats.persist_snapshot_bytes),
      static_cast<unsigned long long>(quarantined));

  std::FILE* out = std::fopen("BENCH_persistence.json", "w");
  if (out == nullptr) {
    return Status::IoError("cannot write BENCH_persistence.json");
  }
  std::fprintf(
      out,
      "{\n  \"bench\": \"persistence\",\n  \"num_tuples\": %llu,\n"
      "  \"queries\": %llu,\n  \"first_n\": %llu,\n"
      "  \"cache_mb\": %.3f,\n"
      "  \"cold_first_n_hit_ratio\": %.4f,\n"
      "  \"warm_first_n_hit_ratio\": %.4f,\n"
      "  \"crash_first_n_hit_ratio\": %.4f,\n"
      "  \"warm_recovery_ms\": %.3f,\n"
      "  \"crash_recovery_ms\": %.3f,\n"
      "  \"warm_recovered_entries\": %llu,\n"
      "  \"snapshots\": %llu,\n  \"snapshot_bytes\": %llu,\n"
      "  \"overhead_ms_per_query\": %.5f,\n"
      "  \"quarantined\": %llu,\n"
      "  \"identical\": %s,\n  \"crash_identical\": %s\n}\n",
      static_cast<unsigned long long>(config.num_tuples),
      static_cast<unsigned long long>(num_queries),
      static_cast<unsigned long long>(first_n),
      static_cast<double>(cache_bytes) / (1 << 20),
      cold.first_n_hit_ratio, warm.first_n_hit_ratio, crash.first_n_hit_ratio,
      warm.recovery_ms, crash.recovery_ms,
      static_cast<unsigned long long>(warm.stats.persist_recovered_entries),
      static_cast<unsigned long long>(cold.stats.persist_snapshots),
      static_cast<unsigned long long>(cold.stats.persist_snapshot_bytes),
      overhead_ms, static_cast<unsigned long long>(quarantined),
      identical ? "true" : "false", crash_identical ? "true" : "false");
  std::fclose(out);
  std::printf("\nwrote BENCH_persistence.json\n");

  if (!identical || !crash_identical) {
    return Status::Internal("restarted cache diverged from baseline");
  }
  if (warm.first_n_hit_ratio <= cold.first_n_hit_ratio) {
    return Status::Internal("warm restart did not beat cold start");
  }
  if (crash.first_n_hit_ratio <= cold.first_n_hit_ratio) {
    return Status::Internal("restart after a crash did not beat cold start");
  }
  return Status::OK();
}

}  // namespace
}  // namespace chunkcache::bench

int main() {
  const chunkcache::Status s = chunkcache::bench::Run();
  if (!s.ok()) {
    std::fprintf(stderr, "bench_persistence failed: %s\n",
                 s.message().c_str());
    return 1;
  }
  return 0;
}
