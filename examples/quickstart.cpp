// Quickstart: build the paper's star schema, load synthetic sales facts
// into a chunked file, attach the chunk-caching middle tier, and run SQL
// star-join queries against it — watching the second, overlapping query
// get answered mostly from the cache.
//
//   $ ./quickstart

#include <cstdio>
#include <memory>

#include "backend/chunked_file.h"
#include "backend/engine.h"
#include "core/chunk_cache_manager.h"
#include "schema/synthetic.h"
#include "sql/parser.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"

using namespace chunkcache;

int main() {
  // --- 1. Schema: four dimensions with hierarchies (paper Table 1). -------
  auto schema_or = schema::BuildPaperSchema();
  if (!schema_or.ok()) return 1;
  auto schema = std::make_unique<schema::StarSchema>(
      std::move(schema_or).value());

  // --- 2. Chunking scheme: hierarchy-aligned chunk ranges. ----------------
  chunks::ChunkingOptions copts;
  copts.range_fraction = 0.1;
  auto scheme_or = chunks::ChunkingScheme::Build(schema.get(), copts,
                                                 /*num_base_tuples=*/100000);
  if (!scheme_or.ok()) return 1;
  auto scheme = std::make_unique<chunks::ChunkingScheme>(
      std::move(scheme_or).value());

  // --- 3. Backend: the chunked fact file and its chunk index. -------------
  storage::InMemoryDiskManager disk;
  storage::BufferPool pool(&disk, 2048);  // 8 MiB
  schema::FactGenOptions gen;
  gen.num_tuples = 100000;
  auto file_or = backend::ChunkedFile::BulkLoad(
      &pool, scheme.get(), schema::GenerateFactTuples(*schema, gen));
  if (!file_or.ok()) return 1;
  auto file = std::make_unique<backend::ChunkedFile>(
      std::move(file_or).value());
  backend::BackendEngine engine(&pool, file.get(), scheme.get());
  std::printf("loaded %llu tuples into %llu non-empty chunks\n",
              (unsigned long long)file->num_tuples(),
              (unsigned long long)file->num_nonempty_chunks());

  // --- 4. Middle tier: the chunk cache. ------------------------------------
  core::ChunkManagerOptions mopts;
  mopts.cache_bytes = 8ull << 20;
  core::ChunkCacheManager tier(&engine, mopts);
  sql::SqlParser parser(schema.get());

  auto run = [&](const char* description, const char* text) {
    auto query = parser.Parse(text);
    if (!query.ok()) {
      std::printf("parse error: %s\n", query.status().ToString().c_str());
      return;
    }
    core::QueryStats stats;
    auto rows = tier.Execute(*query, &stats);
    if (!rows.ok()) {
      std::printf("exec error: %s\n", rows.status().ToString().c_str());
      return;
    }
    std::printf("\n%s\n  %s\n", description, text);
    std::printf("  -> %zu rows; chunks: %llu needed, %llu from cache, "
                "%llu computed; backend read %llu pages / %llu tuples\n",
                rows->size(), (unsigned long long)stats.chunks_needed,
                (unsigned long long)stats.chunks_from_cache,
                (unsigned long long)stats.chunks_from_backend,
                (unsigned long long)stats.backend_work.pages_read,
                (unsigned long long)stats.backend_work.tuples_processed);
    for (size_t i = 0; i < std::min<size_t>(3, rows->size()); ++i) {
      const auto& r = (*rows)[i];
      std::printf("     (%u,%u,%u,%u) sum=%.1f count=%llu\n", r.coords[0],
                  r.coords[1], r.coords[2], r.coords[3], r.sum,
                  (unsigned long long)r.count);
    }
  };

  run("Q1: mid-level slice (cold cache):",
      "SELECT D0.L2, D3.L2, SUM(dollar_sales) FROM Sales, D0, D3 "
      "WHERE D0.L2 BETWEEN 'D0.2.5' AND 'D0.2.25' "
      "AND D3.L2 BETWEEN 'D3.2.0' AND 'D3.2.24' "
      "GROUP BY D0.L2, D3.L2");

  run("Q2: overlapping slice (partially served from cache):",
      "SELECT D0.L2, D3.L2, SUM(dollar_sales) FROM Sales, D0, D3 "
      "WHERE D0.L2 BETWEEN 'D0.2.15' AND 'D0.2.35' "
      "AND D3.L2 BETWEEN 'D3.2.10' AND 'D3.2.34' "
      "GROUP BY D0.L2, D3.L2");

  run("Q3: exact repeat of Q2 (full cache hit):",
      "SELECT D0.L2, D3.L2, SUM(dollar_sales) FROM Sales, D0, D3 "
      "WHERE D0.L2 BETWEEN 'D0.2.15' AND 'D0.2.35' "
      "AND D3.L2 BETWEEN 'D3.2.10' AND 'D3.2.34' "
      "GROUP BY D0.L2, D3.L2");

  const MetricsRegistry::Snapshot m = tier.metrics().TakeSnapshot();
  std::printf("\ncache: %zu chunks, %llu/%llu bytes, %llu of %llu requested "
              "chunks from cache\n",
              tier.chunk_cache().num_chunks(),
              (unsigned long long)tier.chunk_cache().bytes_used(),
              (unsigned long long)tier.chunk_cache().capacity_bytes(),
              (unsigned long long)m.counter("chunks.from_cache"),
              (unsigned long long)m.counter("chunks.requested"));
  return 0;
}
