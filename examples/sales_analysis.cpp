// A realistic OLAP session over a hand-built retail star schema (the
// paper's motivating Product / Store / Date example): an analyst rolls up,
// drills down, and pans across months, and the chunk cache turns the
// locality of the session into cache hits. Also demonstrates the
// in-cache-aggregation extension answering a roll-up without the backend.
//
//   $ ./sales_analysis

#include <cstdio>
#include <memory>
#include <string>

#include "backend/chunked_file.h"
#include "backend/engine.h"
#include "core/chunk_cache_manager.h"
#include "schema/star_schema.h"
#include "schema/synthetic.h"
#include "sql/parser.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"

using namespace chunkcache;

namespace {

/// Product: category (4) -> product (16).
Result<schema::Dimension> BuildProduct() {
  schema::HierarchyBuilder b;
  b.AddLevel("category");
  const char* categories[] = {"Clothing", "Electronics", "Grocery", "Toys"};
  for (const char* c : categories) {
    CHUNKCACHE_RETURN_IF_ERROR(b.AddMember(c).status());
  }
  b.AddLevel("name");
  const char* products[] = {
      "blaire_cotton_shirts", "denim_jacket", "wool_socks", "rain_coat",
      "tv_55in", "laptop_14", "headphones", "smart_watch",
      "oat_cereal", "olive_oil", "coffee_beans", "dark_chocolate",
      "lego_castle", "plush_bear", "rc_car", "puzzle_1k"};
  for (uint32_t i = 0; i < 16; ++i) {
    CHUNKCACHE_RETURN_IF_ERROR(b.AddMember(products[i], i / 4).status());
  }
  CHUNKCACHE_ASSIGN_OR_RETURN(schema::Hierarchy h, b.Build());
  return schema::Dimension{"Product", std::move(h)};
}

/// Store: state (3) -> city (6) -> store (12).
Result<schema::Dimension> BuildStore() {
  schema::HierarchyBuilder b;
  b.AddLevel("state");
  for (const char* s : {"WI", "IL", "CA"}) {
    CHUNKCACHE_RETURN_IF_ERROR(b.AddMember(s).status());
  }
  b.AddLevel("city");
  const struct {
    const char* name;
    uint32_t state;
  } cities[] = {{"Madison", 0},  {"Milwaukee", 0}, {"Chicago", 1},
                {"Springfield", 1}, {"LosAngeles", 2}, {"SanFrancisco", 2}};
  for (const auto& c : cities) {
    CHUNKCACHE_RETURN_IF_ERROR(b.AddMember(c.name, c.state).status());
  }
  b.AddLevel("store");
  for (uint32_t i = 0; i < 12; ++i) {
    CHUNKCACHE_RETURN_IF_ERROR(
        b.AddMember("store_" + std::to_string(i), i / 2).status());
  }
  CHUNKCACHE_ASSIGN_OR_RETURN(schema::Hierarchy h, b.Build());
  return schema::Dimension{"Store", std::move(h)};
}

/// Date: year (2) -> month (24).
Result<schema::Dimension> BuildDate() {
  schema::HierarchyBuilder b;
  b.AddLevel("year");
  CHUNKCACHE_RETURN_IF_ERROR(b.AddMember("1997").status());
  CHUNKCACHE_RETURN_IF_ERROR(b.AddMember("1998").status());
  b.AddLevel("month");
  const char* months[] = {"Jan", "Feb", "Mar", "Apr", "May", "Jun",
                          "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"};
  for (uint32_t y = 0; y < 2; ++y) {
    for (uint32_t m = 0; m < 12; ++m) {
      CHUNKCACHE_RETURN_IF_ERROR(
          b.AddMember(std::string(y == 0 ? "1997-" : "1998-") + months[m], y)
              .status());
    }
  }
  CHUNKCACHE_ASSIGN_OR_RETURN(schema::Hierarchy h, b.Build());
  return schema::Dimension{"Date", std::move(h)};
}

}  // namespace

int main() {
  // --- Build the retail schema. --------------------------------------------
  auto product = BuildProduct();
  auto store = BuildStore();
  auto date = BuildDate();
  if (!product.ok() || !store.ok() || !date.ok()) {
    std::fprintf(stderr, "schema build failed\n");
    return 1;
  }
  std::vector<schema::Dimension> dims;
  dims.push_back(std::move(*product));
  dims.push_back(std::move(*store));
  dims.push_back(std::move(*date));
  auto schema = std::make_unique<schema::StarSchema>(
      "Sales", std::move(dims), "dollar_sales");

  // --- Chunk the cube and load 200k sales facts. ---------------------------
  chunks::ChunkingOptions copts;
  copts.range_fraction = 0.25;  // small dimensions: ~4 ranges per level
  auto scheme_or = chunks::ChunkingScheme::Build(schema.get(), copts, 200000);
  if (!scheme_or.ok()) return 1;
  auto scheme = std::make_unique<chunks::ChunkingScheme>(
      std::move(scheme_or).value());

  storage::InMemoryDiskManager disk;
  storage::BufferPool pool(&disk, 2048);
  schema::FactGenOptions gen;
  gen.num_tuples = 200000;
  gen.zipf_theta = 0.5;  // mildly skewed sales
  auto file_or = backend::ChunkedFile::BulkLoad(
      &pool, scheme.get(), schema::GenerateFactTuples(*schema, gen));
  if (!file_or.ok()) return 1;
  auto file = std::make_unique<backend::ChunkedFile>(
      std::move(file_or).value());
  backend::BackendEngine engine(&pool, file.get(), scheme.get());

  core::ChunkManagerOptions mopts;
  mopts.cache_bytes = 16ull << 20;
  mopts.enable_in_cache_aggregation = true;  // paper §7 extension
  core::ChunkCacheManager tier(&engine, mopts);
  sql::SqlParser parser(schema.get());

  auto run = [&](const char* step, const std::string& text) {
    auto query = parser.Parse(text);
    if (!query.ok()) {
      std::printf("%s\n  parse error: %s\n", step,
                  query.status().ToString().c_str());
      return;
    }
    core::QueryStats stats;
    auto rows = tier.Execute(*query, &stats);
    if (!rows.ok()) {
      std::printf("%s\n  exec error: %s\n", step,
                  rows.status().ToString().c_str());
      return;
    }
    const char* how = stats.full_cache_hit
                          ? (stats.chunks_from_aggregation > 0
                                 ? "aggregated in cache"
                                 : "cache")
                          : (stats.chunks_from_cache > 0 ? "mixed" : "backend");
    std::printf("%-52s %4zu rows  [%s: %llu/%llu chunks cached, "
                "%llu pages read]\n",
                step, rows->size(), how,
                (unsigned long long)(stats.chunks_from_cache +
                                     stats.chunks_from_aggregation),
                (unsigned long long)stats.chunks_needed,
                (unsigned long long)stats.backend_work.pages_read);
  };

  std::printf("analyst session over %llu sales facts\n\n",
              (unsigned long long)file->num_tuples());

  run("1. Sales by state:",
      "SELECT Store.state, SUM(dollar_sales) FROM Sales, Store "
      "GROUP BY Store.state");

  run("2. Wisconsin by city:",
      "SELECT Store.city, SUM(dollar_sales) FROM Sales, Store "
      "WHERE Store.city BETWEEN 'Madison' AND 'Milwaukee' "
      "GROUP BY Store.city");

  run("3. Madison stores, clothing, first half of 1997:",
      "SELECT Store.store, Date.month, SUM(dollar_sales) "
      "FROM Sales, Store, Date, Product "
      "WHERE Store.store BETWEEN 'store_0' AND 'store_1' "
      "AND Date.month BETWEEN '1997-Jan' AND '1997-Jun' "
      "AND Product.category = 'Clothing' "
      "GROUP BY Store.store, Date.month");

  run("4. Pan to Apr-Sep (overlaps step 3):",
      "SELECT Store.store, Date.month, SUM(dollar_sales) "
      "FROM Sales, Store, Date, Product "
      "WHERE Store.store BETWEEN 'store_0' AND 'store_1' "
      "AND Date.month BETWEEN '1997-Apr' AND '1997-Sep' "
      "AND Product.category = 'Clothing' "
      "GROUP BY Store.store, Date.month");

  run("5. All cities, all months (warms the cube face):",
      "SELECT Store.city, Date.month, SUM(dollar_sales) "
      "FROM Sales, Store, Date GROUP BY Store.city, Date.month");

  run("6. Roll up to state x year (aggregated from step 5's chunks):",
      "SELECT Store.state, Date.year, SUM(dollar_sales) "
      "FROM Sales, Store, Date GROUP BY Store.state, Date.year");

  run("7. Repeat of step 2 (cache hit):",
      "SELECT Store.city, SUM(dollar_sales) FROM Sales, Store "
      "WHERE Store.city BETWEEN 'Madison' AND 'Milwaukee' "
      "GROUP BY Store.city");

  const MetricsRegistry::Snapshot m = tier.metrics().TakeSnapshot();
  std::printf("\nsession cache: %zu chunks, %llu of %llu requested chunks "
              "from cache\n",
              tier.chunk_cache().num_chunks(),
              (unsigned long long)m.counter("chunks.from_cache"),
              (unsigned long long)m.counter("chunks.requested"));
  return 0;
}
