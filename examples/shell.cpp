// Interactive star-join SQL shell over the chunk-caching middle tier.
// Type the paper's star-join template against the Table 1 schema and watch
// the chunk cache work; dot-commands inspect the system.
//
//   $ ./shell [num_tuples] [--compress] [--policy=<name>]
//             [--ghosts[=p1,p2,...]] [--persist-dir=PATH] [--snapshot-every=N]
//   chunkcache> SELECT D0.L1, SUM(dollar_sales) FROM Sales, D0 GROUP BY D0.L1
//   chunkcache> .schema
//   chunkcache> .cache
//   chunkcache> .quit
//
// Server mode (DESIGN.md §15) — instead of the REPL, expose the same tier
// over the binary-framed TCP protocol until stdin reaches EOF:
//
//   $ ./shell --serve            # ephemeral port, printed on startup
//   $ ./shell --serve=7437 --rate-qps=200 --max-deadline-ms=500
//
// An unknown argument, or a numeric flag whose value is not a number,
// prints the usage line and exits with status 2.

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
#include "core/multi_range.h"
#include "schema/synthetic.h"
#include "server/server.h"
#include "sql/parser.h"
#include "storage/buffer_pool.h"
#include "storage/codec.h"
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
      "usage: shell [num_tuples] [--compress] [--policy=<name>]\n"
      "             [--ghosts[=p1,p2,...]] [--persist-dir=PATH]\n"
      "             [--snapshot-every=N] [--serve[=port]] [--rate-qps=Q]\n"
      "             [--max-deadline-ms=N]\n",
      arg.c_str());
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
      "dot-commands: .schema  .cache  .stats  .metrics  .trace [n]  .reset\n"
      "              .help  .quit\n"
      "  .metrics    Prometheus-style export of every registered metric\n"
      "  .trace [n]  span trees of the last n queries (default 1), JSONL\n");
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t tuples = 100000;
  bool compress = false;
  std::string policy = "benefit-clock";
  std::vector<std::string> ghosts;
  std::string persist_dir;
  uint64_t snapshot_every = 4096;
  bool serve = false;
  uint16_t serve_port = 0;
  double rate_qps = 0;
  uint64_t max_deadline_ms = 0;
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
      serve_port = static_cast<uint16_t>(port);
    } else if (arg.rfind("--rate-qps=", 0) == 0) {
      if (!ParseRate(arg.substr(11), &rate_qps)) return BadArgument(arg);
    } else if (arg.rfind("--max-deadline-ms=", 0) == 0) {
      if (!ParseU64(arg.substr(18), &max_deadline_ms)) return BadArgument(arg);
    } else if (arg == "--compress") {
      compress = true;
    } else if (arg.rfind("--policy=", 0) == 0) {
      policy = arg.substr(9);
      if (cache::MakePolicy(policy) == nullptr) {
        std::fprintf(stderr, "unknown policy \"%s\"; valid:", policy.c_str());
        for (const auto& n : cache::KnownPolicyNames()) {
          std::fprintf(stderr, " %s", n.c_str());
        }
        std::fprintf(stderr, "\n");
        return 1;
      }
    } else if (arg.rfind("--persist-dir=", 0) == 0) {
      persist_dir = arg.substr(14);
      if (persist_dir.empty()) {
        std::fprintf(stderr, "--persist-dir needs a path\n");
        return 1;
      }
    } else if (arg.rfind("--snapshot-every=", 0) == 0) {
      if (!ParseU64(arg.substr(17), &snapshot_every)) return BadArgument(arg);
    } else if (arg == "--ghosts") {
      ghosts.assign(cache::KnownPolicyNames().begin(),
                    cache::KnownPolicyNames().end());
    } else if (arg.rfind("--ghosts=", 0) == 0) {
      std::string list = arg.substr(9);
      size_t pos = 0;
      while (pos <= list.size()) {
        const size_t comma = list.find(',', pos);
        const std::string name =
            list.substr(pos, comma == std::string::npos ? std::string::npos
                                                        : comma - pos);
        if (!name.empty()) {
          if (cache::MakePolicy(name) == nullptr) {
            std::fprintf(stderr, "unknown ghost policy \"%s\"\n",
                         name.c_str());
            return 1;
          }
          ghosts.push_back(name);
        }
        if (comma == std::string::npos) break;
        pos = comma + 1;
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
  if (!engine.BuildBitmapIndexes().ok()) return 1;
  core::ChunkManagerOptions mopts;
  mopts.enable_in_cache_aggregation = true;
  mopts.num_workers = 4;     // parallel miss pipeline
  mopts.cache_shards = 8;    // sharded, thread-safe chunk cache
  mopts.trace_capacity = 64;  // per-query span trees for .trace
  mopts.enable_compression = compress;  // --compress: encoded cache tier
  mopts.policy = policy;
  mopts.ghost_policies = ghosts;  // shadow policy scoreboard for .stats
  // --persist-dir: the cache survives restarts (snapshot + WAL). Note the
  // shell regenerates its synthetic facts per run, so recovered entries
  // are only meaningful when num_tuples (and the seed) match the run that
  // wrote them — which they do for repeated invocations of this binary.
  mopts.persist_dir = persist_dir;
  mopts.persist_snapshot_every = snapshot_every;
  core::ChunkCacheManager tier(&engine, mopts);
  sql::SqlParser parser(schema.get());

  if (serve) {
    server::ServerOptions sopts;
    sopts.port = serve_port;
    sopts.admission.default_quota.rate_qps = rate_qps;
    sopts.max_deadline_ms = max_deadline_ms;
    // Home the server's counters on the tier's registry so one .metrics-
    // style dump (the kMetricsRequest frame) covers cache + serving.
    sopts.metrics = &tier.metrics();
    server::ChunkServer srv(&tier, sopts);
    const Status st = srv.Start();
    if (!st.ok()) {
      std::fprintf(stderr, "serve failed: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("chunkcache serving %llu synthetic sales facts on "
                "%s:%u (tenant rate %s, deadline cap %s) — EOF stops.\n",
                (unsigned long long)tuples, sopts.bind_address.c_str(),
                srv.port(),
                rate_qps > 0 ? (std::to_string(rate_qps) + " qps").c_str()
                             : "unlimited",
                max_deadline_ms > 0
                    ? (std::to_string(max_deadline_ms) + " ms").c_str()
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
    if (line == ".cache") {
      const auto& cs = tier.chunk_cache().stats();
      std::printf("chunks=%zu bytes=%llu/%llu hits=%llu lookups=%llu "
                  "evictions=%llu\n",
                  tier.chunk_cache().num_chunks(),
                  (unsigned long long)tier.chunk_cache().bytes_used(),
                  (unsigned long long)tier.chunk_cache().capacity_bytes(),
                  (unsigned long long)cs.hits,
                  (unsigned long long)cs.lookups,
                  (unsigned long long)cs.evictions);
      continue;
    }
    if (line == ".stats" || line == "stats") {
      const auto cs = tier.StatsSnapshot();
      std::printf("cache: chunks=%zu bytes=%llu/%llu shards=%u\n",
                  tier.chunk_cache().num_chunks(),
                  (unsigned long long)tier.chunk_cache().bytes_used(),
                  (unsigned long long)tier.chunk_cache().capacity_bytes(),
                  tier.chunk_cache().num_shards());
      std::printf("  lookups=%llu hits=%llu (%.1f%%) insertions=%llu "
                  "evictions=%llu rejected=%llu\n",
                  (unsigned long long)cs.lookups, (unsigned long long)cs.hits,
                  cs.lookups ? 100.0 * cs.hits / cs.lookups : 0.0,
                  (unsigned long long)cs.insertions,
                  (unsigned long long)cs.evictions,
                  (unsigned long long)cs.rejected);
      std::printf("  lock contention: %.3f ms total\n", cs.contention_ns / 1e6);
      std::printf("replacement: policy=%s\n",
                  tier.chunk_cache().policy_name().c_str());
      if (cache::GhostCacheSet* gs = tier.chunk_cache().ghosts()) {
        std::printf("  ghost standings (would-be hit ratio at same budget):\n");
        for (const auto& st : gs->Standings()) {
          const uint64_t refs = st.hits + st.misses;
          std::printf("    %-18s hits=%llu/%llu (%.1f%%) evictions=%llu\n",
                      st.policy.c_str(), (unsigned long long)st.hits,
                      (unsigned long long)refs,
                      refs ? 100.0 * st.hits / refs : 0.0,
                      (unsigned long long)st.evictions);
        }
      }
      for (size_t i = 0; i < cs.shards.size(); ++i) {
        const auto& sh = cs.shards[i];
        std::printf("  shard %2zu: chunks=%llu bytes=%llu lookups=%llu "
                    "hit%%=%.1f\n",
                    i, (unsigned long long)sh.chunks,
                    (unsigned long long)sh.bytes_used,
                    (unsigned long long)sh.lookups,
                    sh.lookups ? 100.0 * sh.hits / sh.lookups : 0.0);
      }
      std::printf("executor: tasks submitted=%llu run=%llu queue peak=%llu "
                  "steal-queue depth=%llu async prefetched=%llu\n",
                  (unsigned long long)cs.exec_tasks_submitted,
                  (unsigned long long)cs.exec_tasks_run,
                  (unsigned long long)cs.exec_queue_peak,
                  (unsigned long long)cs.exec_steal_queue_depth,
                  (unsigned long long)cs.async_prefetched_chunks);
      std::printf("simd: level=%s detected=%s override=%s\n",
                  simd::IsaLevelName(
                      static_cast<simd::IsaLevel>(cs.simd_level)),
                  simd::IsaLevelName(simd::DetectedLevel()),
                  simd::OverrideName());
      std::printf("kernels: dense=%llu hash=%llu rows folded dense=%llu "
                  "hash=%llu\n",
                  (unsigned long long)cs.dense_kernels,
                  (unsigned long long)cs.hash_kernels,
                  (unsigned long long)cs.rows_folded_dense,
                  (unsigned long long)cs.rows_folded_hash);
      std::printf("run i/o: coalesced reads=%llu single-run reads=%llu "
                  "runs merged=%llu\n",
                  (unsigned long long)cs.coalesced_reads,
                  (unsigned long long)cs.single_run_reads,
                  (unsigned long long)cs.runs_merged);
      std::printf("coalescing: waits=%llu dedup saved=%llu prefetch "
                  "dropped=%llu inflight peak=%llu\n",
                  (unsigned long long)cs.coalesced_waits,
                  (unsigned long long)cs.dedup_saved_chunks,
                  (unsigned long long)cs.prefetch_dropped_inflight,
                  (unsigned long long)cs.inflight_peak);
      std::printf("shared scans: batches=%llu requests=%llu queue hwm=%llu "
                  "deadline sheds=%llu\n",
                  (unsigned long long)cs.shared_scan_batches,
                  (unsigned long long)cs.shared_scan_requests,
                  (unsigned long long)cs.scan_queue_depth_hwm,
                  (unsigned long long)cs.scan_deadline_sheds);
      std::printf("faults: injected=%llu retries=%llu degraded=%llu "
                  "deadline expired=%llu checksum failures=%llu\n",
                  (unsigned long long)cs.faults_injected,
                  (unsigned long long)cs.retries,
                  (unsigned long long)cs.degraded_answers,
                  (unsigned long long)cs.deadline_expired,
                  (unsigned long long)cs.checksum_failures);
      const MetricsRegistry::Snapshot ms = tier.metrics().TakeSnapshot();
      if (tier.options().enable_compression) {
        std::printf("compression: chunks=%llu skipped=%llu raw bytes=%llu "
                    "encoded bytes=%llu ratio=%.3f\n",
                    (unsigned long long)cs.compressed_chunks,
                    (unsigned long long)cs.compression_skipped,
                    (unsigned long long)cs.codec_raw_bytes,
                    (unsigned long long)cs.codec_encoded_bytes,
                    cs.codec_raw_bytes
                        ? static_cast<double>(cs.codec_encoded_bytes) /
                              static_cast<double>(cs.codec_raw_bytes)
                        : 0.0);
        std::printf("  decode: calls=%llu decoded-lru hits=%llu "
                    "evictions=%llu\n",
                    (unsigned long long)cs.decode_calls,
                    (unsigned long long)cs.decoded_lru_hits,
                    (unsigned long long)cs.decoded_lru_evictions);
        for (size_t c = 0; c < storage::codec::kNumCodecs; ++c) {
          const char* nm = storage::codec::CodecName(
              static_cast<storage::codec::ColumnCodec>(c));
          const std::string base = std::string("cache.codec.") + nm;
          const uint64_t cols = ms.counter(base + ".columns");
          if (cols == 0) continue;
          const uint64_t raw = ms.counter(base + ".raw_bytes");
          const uint64_t enc = ms.counter(base + ".encoded_bytes");
          std::printf("  codec %-6s: columns=%llu raw=%llu encoded=%llu "
                      "ratio=%.3f\n",
                      nm, (unsigned long long)cols, (unsigned long long)raw,
                      (unsigned long long)enc,
                      raw ? static_cast<double>(enc) / static_cast<double>(raw)
                          : 0.0);
        }
        auto dec = ms.histograms.find("codec.decode_ns");
        if (dec != ms.histograms.end() && dec->second.count > 0) {
          const HistogramSnapshot& h = dec->second;
          std::printf("  decode-on-hit: n=%llu mean=%.1fus p50=%.1fus "
                      "p95=%.1fus p99=%.1fus\n",
                      (unsigned long long)h.count, h.Mean() / 1e3,
                      h.Quantile(0.5) / 1e3, h.Quantile(0.95) / 1e3,
                      h.Quantile(0.99) / 1e3);
        }
      }
      if (tier.persistence() != nullptr) {
        const auto& rec = tier.recovery_stats();
        std::printf("persist: wal records=%llu bytes=%llu errors=%llu "
                    "snapshots=%llu bytes=%llu errors=%llu\n",
                    (unsigned long long)cs.persist_wal_records,
                    (unsigned long long)cs.persist_wal_bytes,
                    (unsigned long long)cs.persist_wal_errors,
                    (unsigned long long)cs.persist_snapshots,
                    (unsigned long long)cs.persist_snapshot_bytes,
                    (unsigned long long)cs.persist_snapshot_errors);
        std::printf("  recovery: entries=%llu replayed=%llu truncated "
                    "bytes=%llu quarantined=%llu in %.2fms (generation %llu)\n",
                    (unsigned long long)cs.persist_recovered_entries,
                    (unsigned long long)cs.persist_replayed_records,
                    (unsigned long long)cs.persist_truncated_bytes,
                    (unsigned long long)cs.persist_quarantined,
                    rec.recovery_ns / 1e6,
                    (unsigned long long)tier.persistence()->generation());
      }
      auto lat = ms.histograms.find("query.latency_ns");
      if (lat != ms.histograms.end() && lat->second.count > 0) {
        const HistogramSnapshot& h = lat->second;
        std::printf("latency: queries=%llu mean=%.2fms p50=%.2fms "
                    "p95=%.2fms p99=%.2fms\n",
                    (unsigned long long)h.count, h.Mean() / 1e6,
                    h.Quantile(0.5) / 1e6, h.Quantile(0.95) / 1e6,
                    h.Quantile(0.99) / 1e6);
      }
      continue;
    }
    if (line == ".metrics") {
      // The snapshot folds the natively-atomic subsystem counters into
      // registry gauges, so the export below is complete.
      (void)tier.StatsSnapshot();
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
      std::printf("cache cleared\n");
      continue;
    }
    auto query = parser.ParseMulti(line);
    if (!query.ok()) {
      std::printf("error: %s\n", query.status().ToString().c_str());
      continue;
    }
    core::QueryStats stats;
    auto rows = core::ExecuteMultiRange(&tier, *query, &stats);
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
      std::printf("  %-50s  sum=%12.2f  count=%llu\n", key.c_str(), r.sum,
                  (unsigned long long)r.count);
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
