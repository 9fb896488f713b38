// Interactive star-join SQL shell over the chunk-caching middle tier.
// Type the paper's star-join template against the Table 1 schema and watch
// the chunk cache work; dot-commands inspect the system.
//
//   $ ./shell [num_tuples] [--policy=<name>] [--persist-dir=PATH]
//             [--snapshot-every=N]
//   chunkcache> SELECT D0.L1, SUM(dollar_sales) FROM Sales, D0 GROUP BY D0.L1
//   chunkcache> .schema
//   chunkcache> .stats
//   chunkcache> .quit
//
// --persist-dir keeps the cache across restarts, snapshot-only: a
// background thread writes a snapshot every --snapshot-every cache admits
// and evicts (0 = only at exit), and a clean exit writes a final one. A
// run over other facts (another num_tuples) starts cold: each snapshot
// records the fingerprint of the facts and chunking it was taken against.
//
// Server mode (DESIGN.md §15) — instead of the REPL, expose the same tier
// over the binary-framed TCP protocol until stdin reaches EOF:
//
//   $ ./shell --serve            # ephemeral port, printed on startup
//   $ ./shell --serve=7437 --rate-qps=200 --max-deadline-ms=500
//
// --rate-qps is one budget that every tenant shares: the shell configures
// no tenant of its own (server::AdmissionOptions::default_quota).
//
// An unknown argument, a numeric flag whose value is not a number, an
// unknown --policy= name or an empty --persist-dir= prints the usage line
// and exits with status 2.

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>

#include "backend/chunked_file.h"
#include "backend/engine.h"
#include "common/simd.h"
#include "core/chunk_cache_manager.h"
#include "schema/synthetic.h"
#include "server/server.h"
#include "sql/parser.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"

using namespace chunkcache;

namespace {

void PrintSchema(const schema::StarSchema& schema) {
  std::printf("fact table %s(", schema.fact_name().c_str());
  for (uint32_t d = 0; d < schema.num_dims(); ++d) {
    std::printf("%s_id, ", schema.dimension(d).name.c_str());
  }
  std::printf("%s)\n", schema.measure_name().c_str());
  for (uint32_t d = 0; d < schema.num_dims(); ++d) {
    const auto& dim = schema.dimension(d);
    std::printf("dimension %s: ", dim.name.c_str());
    for (uint32_t l = 1; l <= dim.hierarchy.depth(); ++l) {
      std::printf("%s%s(%u)", l > 1 ? " -> " : "",
                  dim.hierarchy.LevelName(l).c_str(),
                  dim.hierarchy.LevelCardinality(l));
    }
    std::printf("   members like '%s'\n",
                dim.hierarchy.MemberName(dim.hierarchy.depth(), 0).c_str());
  }
}

/// Prints the usage line for a rejected argument; returns exit status 2.
int BadArgument(const std::string& arg) {
  std::fprintf(
      stderr,
      "shell: bad argument \"%s\"\n"
      "usage: shell [num_tuples] [--policy=<name>] [--persist-dir=PATH]\n"
      "             [--snapshot-every=N]\n"
      "             [--serve[=port]] [--rate-qps=Q] [--max-deadline-ms=N]\n"
      "policies:",
      arg.c_str());
  for (const auto& name : cache::KnownPolicyNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

/// Parses all of `s` as an unsigned decimal; false on an empty string, a
/// sign, trailing characters or overflow.
bool ParseU64(const std::string& s, uint64_t* out) {
  if (s.empty() || !std::isdigit(static_cast<unsigned char>(s[0]))) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (errno == ERANGE || *end != '\0') return false;
  *out = v;
  return true;
}

/// Parses all of `s` as a finite number that starts with a digit.
bool ParseRate(const std::string& s, double* out) {
  if (s.empty() || !std::isdigit(static_cast<unsigned char>(s[0]))) {
    return false;
  }
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (*end != '\0' || !std::isfinite(v)) return false;
  *out = v;
  return true;
}

void PrintHelp() {
  std::printf(
      "star-join SQL:\n"
      "  SELECT D0.L2, D3.L2, SUM(dollar_sales) FROM Sales, D0, D3\n"
      "  WHERE D0.L2 BETWEEN 'D0.2.5' AND 'D0.2.25' GROUP BY D0.L2, D3.L2\n"
      "dot-commands: .schema  .stats  .metrics  .trace [n]  .reset\n"
      "              .help  .quit\n"
      "  .metrics    Prometheus-style export of every registered metric\n"
      "  .trace [n]  span trees of the last n queries (default 1), JSONL\n");
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t tuples = 100000;
  // Flags write straight into the tier's and the server's options, so a
  // flag left out keeps the option's own default.
  core::ChunkManagerOptions mopts;
  mopts.enable_in_cache_aggregation = true;
  mopts.cache_shards = 8;     // sharded, thread-safe chunk cache
  mopts.trace_capacity = 64;  // per-query span trees for .trace
  server::ServerOptions sopts;
  bool serve = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--serve") {
      serve = true;
    } else if (arg.rfind("--serve=", 0) == 0) {
      uint64_t port = 0;
      if (!ParseU64(arg.substr(8), &port) || port > 65535) {
        return BadArgument(arg);
      }
      serve = true;
      sopts.port = static_cast<uint16_t>(port);
    } else if (arg.rfind("--rate-qps=", 0) == 0) {
      if (!ParseRate(arg.substr(11), &sopts.admission.default_quota.rate_qps)) {
        return BadArgument(arg);
      }
    } else if (arg.rfind("--max-deadline-ms=", 0) == 0) {
      if (!ParseU64(arg.substr(18), &sopts.max_deadline_ms)) {
        return BadArgument(arg);
      }
    } else if (arg.rfind("--policy=", 0) == 0) {
      mopts.policy = arg.substr(9);
      const auto& known = cache::KnownPolicyNames();
      if (std::find(known.begin(), known.end(), mopts.policy) == known.end()) {
        return BadArgument(arg);
      }
    } else if (arg.rfind("--persist-dir=", 0) == 0) {
      mopts.persist_dir = arg.substr(14);
      if (mopts.persist_dir.empty()) return BadArgument(arg);
    } else if (arg.rfind("--snapshot-every=", 0) == 0) {
      if (!ParseU64(arg.substr(17), &mopts.persist_snapshot_every)) {
        return BadArgument(arg);
      }
    } else if (!ParseU64(arg, &tuples)) {
      return BadArgument(arg);
    }
  }

  auto schema_or = schema::BuildPaperSchema();
  if (!schema_or.ok()) return 1;
  auto schema = std::make_unique<schema::StarSchema>(
      std::move(schema_or).value());
  chunks::ChunkingOptions copts;
  copts.range_fraction = 0.1;
  auto scheme_or = chunks::ChunkingScheme::Build(schema.get(), copts, tuples);
  if (!scheme_or.ok()) return 1;
  auto scheme = std::make_unique<chunks::ChunkingScheme>(
      std::move(scheme_or).value());
  storage::InMemoryDiskManager disk;
  storage::BufferPool pool(&disk, 2048);
  schema::FactGenOptions gen;
  gen.num_tuples = tuples;
  auto file_or = backend::ChunkedFile::BulkLoad(
      &pool, scheme.get(), schema::GenerateFactTuples(*schema, gen));
  if (!file_or.ok()) return 1;
  auto file = std::make_unique<backend::ChunkedFile>(
      std::move(file_or).value());
  backend::BackendEngine engine(&pool, file.get(), scheme.get());
  // Drops every cached page and zeroes the I/O statistics, so the next
  // query reads from disk as on a cold start.
  const auto cold_backend = [&] {
    if (!pool.FlushAll().ok() || !pool.EvictAll().ok()) return false;
    pool.ResetStats();
    disk.ResetStats();
    return true;
  };
  if (!cold_backend()) return 1;
  core::ChunkCacheManager tier(&engine, mopts);
  sql::SqlParser parser(schema.get());

  if (serve) {
    // Home the server's counters on the tier's registry so one .metrics-
    // style dump (the kMetricsRequest frame) covers cache + serving.
    sopts.metrics = &tier.metrics();
    server::ChunkServer srv(&tier, sopts);
    const Status st = srv.Start();
    if (!st.ok()) {
      std::fprintf(stderr, "serve failed: %s\n", st.ToString().c_str());
      return 1;
    }
    const double rate_qps = sopts.admission.default_quota.rate_qps;
    std::printf("chunkcache serving %llu synthetic sales facts on "
                "%s:%u (rate %s shared by all tenants, deadline cap %s) "
                "— EOF stops.\n",
                (unsigned long long)tuples, sopts.bind_address.c_str(),
                srv.port(),
                rate_qps > 0 ? (std::to_string(rate_qps) + " qps").c_str()
                             : "unlimited",
                sopts.max_deadline_ms > 0
                    ? (std::to_string(sopts.max_deadline_ms) + " ms").c_str()
                    : "none");
    std::fflush(stdout);
    std::string l;
    while (std::getline(std::cin, l)) {
    }
    srv.Stop();
    return 0;
  }

  std::printf("chunkcache shell — %llu synthetic sales facts loaded.\n",
              (unsigned long long)tuples);
  PrintHelp();

  std::string line;
  while (true) {
    std::printf("chunkcache> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    if (line.empty()) continue;
    if (line == ".quit" || line == ".exit") break;
    if (line == ".help") {
      PrintHelp();
      continue;
    }
    if (line == ".schema") {
      PrintSchema(*schema);
      continue;
    }
    if (line == ".stats" || line == "stats") {
      tier.RefreshMetrics();
      const MetricsRegistry::Snapshot ms = tier.metrics().TakeSnapshot();
      const auto c = [&ms](const char* name) {
        return (unsigned long long)ms.counter(name);
      };
      const auto g = [&ms](const char* name) {
        return (unsigned long long)ms.gauge(name);
      };
      const auto h = [&ms](const char* name) {
        auto it = ms.histograms.find(name);
        return it == ms.histograms.end() ? HistogramSnapshot{} : it->second;
      };
      std::printf("cache: chunks=%llu bytes=%llu/%llu shards=%u\n",
                  g("cache.entries"), g("cache.bytes_used"),
                  (unsigned long long)tier.chunk_cache().capacity_bytes(),
                  tier.chunk_cache().num_shards());
      const unsigned long long lookups = c("cache.lookups");
      const unsigned long long hits = c("cache.hits");
      std::printf("  lookups=%llu hits=%llu (%.1f%%) insertions=%llu "
                  "evictions=%llu rejected=%llu\n",
                  lookups, hits, lookups ? 100.0 * hits / lookups : 0.0,
                  c("cache.insertions"), c("cache.evictions"),
                  c("cache.rejected"));
      std::printf("  lock contention: %.3f ms total\n",
                  h("cache.lock_wait_ns").sum / 1e6);
      std::printf("replacement: policy=%s\n",
                  tier.chunk_cache().policy_name().c_str());
      std::printf("simd: level=%s detected=%s override=%s\n",
                  simd::IsaLevelName(
                      static_cast<simd::IsaLevel>(g("simd.level"))),
                  simd::IsaLevelName(simd::DetectedLevel()),
                  simd::OverrideName());
      std::printf("kernels: dense=%llu hash=%llu rows folded dense=%llu "
                  "hash=%llu\n",
                  g("kernels.dense"), g("kernels.hash"),
                  g("kernels.rows_folded_dense"),
                  g("kernels.rows_folded_hash"));
      std::printf("run i/o: coalesced reads=%llu single-run reads=%llu "
                  "runs merged=%llu\n",
                  g("kernels.coalesced_reads"), g("kernels.single_run_reads"),
                  g("kernels.runs_merged"));
      std::printf("coalescing: waits=%llu inflight peak=%llu\n",
                  c("chunks.coalesced_waits"), g("inflight.peak"));
      std::printf("faults: injected=%llu retries=%llu degraded=%llu "
                  "deadline expired=%llu checksum failures=%llu\n",
                  g("faults.injected"), c("backend.retries"),
                  c("chunks.degraded_answers"), c("query.deadline_expired"),
                  g("disk.checksum_failures"));
      if (tier.persistence() != nullptr) {
        std::printf("persist: snapshots=%llu bytes=%llu errors=%llu\n",
                    c("persist.snapshots"), c("persist.snapshot_bytes"),
                    c("persist.snapshot_errors"));
        std::printf("  recovery: entries=%llu quarantined=%llu in %.2fms "
                    "(generation %llu)\n",
                    c("persist.recovered_entries"), c("persist.quarantined"),
                    h("persist.recovery_ns").sum / 1e6,
                    (unsigned long long)tier.persistence()->generation());
      }
      const HistogramSnapshot lat = h("query.latency_ns");
      if (lat.count > 0) {
        std::printf("latency: queries=%llu mean=%.2fms p50=%.2fms "
                    "p95=%.2fms p99=%.2fms\n",
                    (unsigned long long)lat.count, lat.Mean() / 1e6,
                    lat.Quantile(0.5) / 1e6, lat.Quantile(0.95) / 1e6,
                    lat.Quantile(0.99) / 1e6);
      }
      continue;
    }
    if (line == ".metrics") {
      tier.RefreshMetrics();
      std::fputs(tier.metrics().ExportPrometheus().c_str(), stdout);
      continue;
    }
    if (line == ".trace" || line.rfind(".trace ", 0) == 0) {
      size_t n = 1;
      if (line.size() > 7) n = std::strtoull(line.c_str() + 7, nullptr, 10);
      if (n == 0) n = 1;
      TraceRecorder* rec = tier.trace_recorder();
      if (rec == nullptr || rec->recorded() == 0) {
        std::printf("no traces recorded yet\n");
        continue;
      }
      std::fputs(rec->ExportJsonl(n).c_str(), stdout);
      continue;
    }
    if (line == ".reset") {
      tier.chunk_cache().Clear();
      if (!cold_backend()) {
        std::printf("error: buffer pool reset failed\n");
        continue;
      }
      std::printf("cache and buffer pool cleared\n");
      continue;
    }
    auto query = parser.Parse(line);
    if (!query.ok()) {
      std::printf("error: %s\n", query.status().ToString().c_str());
      continue;
    }
    core::QueryStats stats;
    auto rows = tier.Execute(*query, &stats);
    if (!rows.ok()) {
      std::printf("error: %s\n", rows.status().ToString().c_str());
      continue;
    }
    // Print up to 20 rows with member names resolved.
    const size_t limit = std::min<size_t>(20, rows->size());
    for (size_t i = 0; i < limit; ++i) {
      const auto& r = (*rows)[i];
      std::string key;
      for (uint32_t d = 0; d < schema->num_dims(); ++d) {
        const uint32_t level = query->group_by.levels[d];
        if (level == 0) continue;
        if (!key.empty()) key += ", ";
        key += schema->dimension(d).hierarchy.MemberName(level, r.coords[d]);
      }
      std::printf("  %-50s  sum=%12.2f  count=%llu  min=%.2f  max=%.2f\n",
                  key.c_str(), r.sum, (unsigned long long)r.count, r.min_v,
                  r.max_v);
    }
    if (rows->size() > limit) {
      std::printf("  ... (%zu rows total)\n", rows->size());
    }
    std::printf("[%zu rows; %llu/%llu chunks cached, %llu aggregated "
                "in-cache, %llu computed; %llu pages, %llu tuples at "
                "backend]\n",
                rows->size(),
                (unsigned long long)stats.chunks_from_cache,
                (unsigned long long)stats.chunks_needed,
                (unsigned long long)stats.chunks_from_aggregation,
                (unsigned long long)stats.chunks_from_backend,
                (unsigned long long)stats.backend_work.pages_read,
                (unsigned long long)stats.backend_work.tuples_processed);
  }
  return 0;
}
