// Workload explorer: runs a configurable synthetic query stream against
// the three middle tiers (chunk cache / query cache / no cache) and prints
// a comparison — a command-line version of the paper's Section 6
// experiments for trying out parameters. After the chunk tier's run it
// prints a census of what its cache holds: entries, the bytes charged per
// entry against cache_mb, rows per entry and the heap grown per entry.
//
//   $ ./workload_explorer [stream] [queries] [cache_mb] [policy] [tuples]
//     stream  : random | eqpr | proximity   (default eqpr)
//     queries : stream length               (default 500)
//     cache_mb: cache size in MiB           (default 30)
//     policy  : lru | clock | benefit-clock (default benefit-clock)
//     tuples  : base table size             (default 100000)

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "backend/chunked_file.h"
#include "backend/engine.h"
#include "core/chunk_cache_manager.h"
#include "core/query_cache_manager.h"
#include "core/semantic_cache_manager.h"
#include "schema/synthetic.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "workload/query_generator.h"

using namespace chunkcache;

namespace {

/// Heap bytes in use, where the allocator reports them (0 elsewhere).
uint64_t HeapInUse() {
#if defined(__GLIBC__)
  return mallinfo2().uordblks;
#else
  return 0;
#endif
}

/// One line on what `cache` holds; `heap_grown` is the heap growth since
/// the cache was empty.
void PrintCensus(const cache::ChunkCache& cache, uint64_t heap_grown) {
  uint64_t entries = 0, charged = 0, rows = 0;
  cache.ForEachEntry([&](const cache::ChunkHandle& h) {
    ++entries;
    charged += h->ByteSize();
    rows += h->rows();
  });
  const double n = entries == 0 ? 1.0 : static_cast<double>(entries);
  std::printf(
      "chunk cache: %llu entries, %.1f B/entry charged, %.1f rows/entry, "
      "%.1f B/entry heap\n\n",
      (unsigned long long)entries, static_cast<double>(charged) / n,
      static_cast<double>(rows) / n, static_cast<double>(heap_grown) / n);
}

}  // namespace

int main(int argc, char** argv) {
  const char* stream = argc > 1 ? argv[1] : "eqpr";
  const uint64_t queries = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 500;
  const uint64_t cache_mb = argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 30;
  const char* policy = argc > 4 ? argv[4] : "benefit-clock";
  const uint64_t tuples = argc > 5 ? std::strtoull(argv[5], nullptr, 10)
                                   : 100000;

  workload::WorkloadOptions wopts;
  if (std::strcmp(stream, "random") == 0) {
    wopts = workload::RandomStream(99);
  } else if (std::strcmp(stream, "proximity") == 0) {
    wopts = workload::ProximityStream(99);
  } else {
    wopts = workload::EqprStream(99);
    stream = "eqpr";
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

  std::printf("stream=%s queries=%llu cache=%lluMB policy=%s tuples=%llu\n\n",
              stream, (unsigned long long)queries,
              (unsigned long long)cache_mb, policy,
              (unsigned long long)tuples);
  std::printf("%-14s %10s %10s %14s %14s\n", "tier", "CSR", "hits",
              "pages_read", "tuples_scanned");

  auto report = [&](core::MiddleTier* tier) {
    if (!pool.FlushAll().ok() || !pool.EvictAll().ok()) return 1;
    workload::QueryGenerator qgen(schema.get(), wopts);
    core::CsrAccumulator csr;
    uint64_t pages = 0, scanned = 0, full_hits = 0;
    for (uint64_t i = 0; i < queries; ++i) {
      core::QueryStats stats;
      auto rows = tier->Execute(qgen.Next(), &stats);
      if (!rows.ok()) {
        std::fprintf(stderr, "query failed: %s\n",
                     rows.status().ToString().c_str());
        return 1;
      }
      pages += stats.backend_work.pages_read;
      scanned += stats.backend_work.tuples_processed;
      full_hits += stats.full_cache_hit;
      csr.Record(stats);
    }
    std::printf("%-14s %10.3f %10llu %14llu %14llu\n", tier->name().c_str(),
                csr.Csr(), (unsigned long long)full_hits,
                (unsigned long long)pages, (unsigned long long)scanned);
    return 0;
  };

  {
    core::ChunkManagerOptions opts;
    opts.cache_bytes = cache_mb << 20;
    opts.policy = policy;
    core::ChunkCacheManager tier(&engine, opts);
    const uint64_t heap_before = HeapInUse();
    if (report(&tier) != 0) return 1;
    const uint64_t heap_after = HeapInUse();
    PrintCensus(tier.chunk_cache(),
                heap_after > heap_before ? heap_after - heap_before : 0);
  }
  {
    core::QueryManagerOptions opts;
    opts.cache_bytes = cache_mb << 20;
    opts.policy = policy;
    core::QueryCacheManager tier(&engine, opts);
    if (report(&tier) != 0) return 1;
  }
  {
    core::SemanticManagerOptions opts;
    opts.cache_bytes = cache_mb << 20;
    opts.policy = policy;
    core::SemanticCacheManager tier(&engine, opts);
    if (report(&tier) != 0) return 1;
  }
  {
    core::NoCacheManager tier(&engine);
    if (report(&tier) != 0) return 1;
  }
  return 0;
}
