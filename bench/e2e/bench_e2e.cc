// End-to-end served benchmark: one workload per process.
//
//   bench_e2e --workload=<name> [--seed=7] [--setup-only] [--trace=<dir>]
//             [--out=<file.json>]
//
// Builds the paper's 500k-tuple data set, serves it through a ChunkServer
// over a ChunkCacheManager, and drives it over loopback TCP: set-up (with a
// warm-up pass), an open loop at the workload's fixed rate, a closed loop
// for capacity, then a reference check of sampled responses against a
// no-cache evaluation. Writes the report (end-to-end metrics, per-layer
// metrics, stream hashes, accounting) as JSON to --out or stdout. Exits 1
// when the run is invalid (wrong answers, broken accounting, a late load
// generator), 2 when it could not run. CHUNKCACHE_BENCH_* variables are
// ignored: the configuration is fixed and recorded in the report.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench/e2e/e2e.h"

namespace {

using chunkcache::bench::e2e::FindWorkload;
using chunkcache::bench::e2e::RunOptions;
using chunkcache::bench::e2e::Workloads;

int Usage(const char* msg) {
  std::fprintf(stderr, "bench_e2e: %s\nusage: bench_e2e --workload=<", msg);
  const char* sep = "";
  for (const auto& w : Workloads()) {
    std::fprintf(stderr, "%s%s", sep, w.name.c_str());
    sep = "|";
  }
  std::fprintf(stderr,
               "> [--seed=N] [--setup-only] [--trace=DIR] [--out=FILE]\n");
  return 2;
}

bool ParseUint(const std::string& s, uint64_t* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  std::string workload;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    uint64_t n = 0;
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed" && ParseUint(value, &n)) {
      options.seed = n;
    } else if (arg == "--setup-only") {
      options.setup_only = true;
    } else if (key == "--trace" && !value.empty()) {
      options.trace_dir = value;
    } else if (key == "--out" && !value.empty()) {
      out_path = value;
    } else {
      return Usage(("bad argument " + arg).c_str());
    }
  }
  const auto* spec = FindWorkload(workload);
  if (spec == nullptr) return Usage("unknown or missing --workload");
  options.spec = *spec;

  auto report = chunkcache::bench::e2e::RunWorkload(options);
  if (!report.ok()) {
    std::fprintf(stderr, "bench_e2e: %s\n", report.status().ToString().c_str());
    return 2;
  }
  const std::string json = chunkcache::bench::e2e::ReportJson(*report);
  if (out_path.empty()) {
    std::fputs(json.c_str(), stdout);
  } else {
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr || std::fputs(json.c_str(), f) < 0 ||
        std::fclose(f) != 0) {
      std::fprintf(stderr, "bench_e2e: cannot write %s\n", out_path.c_str());
      return 2;
    }
  }
  for (const std::string& p : report->problems) {
    std::fprintf(stderr, "bench_e2e: INVALID: %s\n", p.c_str());
  }
  if (!report->GeneratorOnTime()) {
    std::fprintf(stderr,
                 "bench_e2e: INVALID: generator lag p99 %.3f ms > %.1f ms\n",
                 report->generator_lag.p99,
                 chunkcache::bench::e2e::kMaxGeneratorLagMs);
  }
  return report->Valid() ? 0 : 1;
}
