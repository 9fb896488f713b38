#include "bench/common/experiment.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>

namespace chunkcache::bench {

ExperimentConfig ExperimentConfig::FromEnv() {
  ExperimentConfig config;
  if (const char* scale_env = std::getenv("CHUNKCACHE_BENCH_SCALE")) {
    const double scale = std::atof(scale_env);
    if (scale > 0 && scale <= 1.0) {
      config.num_tuples =
          static_cast<uint64_t>(config.num_tuples * scale);
    }
  }
  if (const char* queries_env = std::getenv("CHUNKCACHE_BENCH_QUERIES")) {
    const long long n = std::atoll(queries_env);
    if (n > 0) config.stream_queries = static_cast<uint64_t>(n);
  }
  return config;
}

Result<std::unique_ptr<System>> System::Build(const ExperimentConfig& config) {
  auto system = std::unique_ptr<System>(new System(config));
  CHUNKCACHE_ASSIGN_OR_RETURN(schema::StarSchema schema,
                              schema::BuildPaperSchema());
  system->schema_ = std::make_unique<schema::StarSchema>(std::move(schema));

  chunks::ChunkingOptions copts;
  copts.range_fraction = config.range_fraction;
  CHUNKCACHE_ASSIGN_OR_RETURN(
      chunks::ChunkingScheme scheme,
      chunks::ChunkingScheme::Build(system->schema_.get(), copts,
                                    config.num_tuples));
  system->scheme_ =
      std::make_unique<chunks::ChunkingScheme>(std::move(scheme));

  schema::FactGenOptions gen;
  gen.num_tuples = config.num_tuples;
  gen.seed = config.data_seed;
  std::vector<storage::Tuple> tuples =
      schema::GenerateFactTuples(*system->schema_, gen);

  system->pool_ = std::make_unique<storage::BufferPool>(&system->disk_,
                                                        config.pool_frames);
  CHUNKCACHE_ASSIGN_OR_RETURN(
      backend::ChunkedFile file,
      backend::ChunkedFile::BulkLoad(system->pool_.get(),
                                     system->scheme_.get(),
                                     std::move(tuples)));
  system->file_ = std::make_unique<backend::ChunkedFile>(std::move(file));
  system->engine_ = std::make_unique<backend::BackendEngine>(
      system->pool_.get(), system->file_.get(), system->scheme_.get());
  CHUNKCACHE_RETURN_IF_ERROR(system->engine_->BuildBitmapIndexes());
  CHUNKCACHE_RETURN_IF_ERROR(system->ResetBackend());
  return system;
}

Status System::ResetBackend() {
  CHUNKCACHE_RETURN_IF_ERROR(pool_->FlushAll());
  CHUNKCACHE_RETURN_IF_ERROR(pool_->EvictAll());
  pool_->ResetStats();
  disk_.ResetStats();
  return Status::OK();
}

Result<StreamResult> RunStream(core::MiddleTier* tier,
                               workload::QueryGenerator* gen,
                               uint64_t num_queries) {
  StreamResult result;
  result.tier = tier->name();
  result.queries = num_queries;
  core::CsrAccumulator csr;
  std::deque<double> last100;
  double total_ms = 0;
  const auto start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < num_queries; ++i) {
    const backend::StarJoinQuery q = gen->Next();
    core::QueryStats stats;
    auto rows = tier->Execute(q, &stats);
    if (!rows.ok()) return rows.status();
    const double ms = stats.modeled_ms;
    total_ms += ms;
    last100.push_back(ms);
    if (last100.size() > 100) last100.pop_front();
    csr.Record(stats);
    result.backend_pages += stats.backend_work.pages_read;
    result.backend_tuples += stats.backend_work.tuples_processed;
  }
  const auto end = std::chrono::steady_clock::now();
  result.wall_seconds =
      std::chrono::duration<double>(end - start).count();
  result.avg_ms_all = total_ms / static_cast<double>(num_queries);
  double last_sum = 0;
  for (double ms : last100) last_sum += ms;
  result.avg_ms_last100 =
      last100.empty() ? 0 : last_sum / static_cast<double>(last100.size());
  result.csr = csr.Csr();
  return result;
}

void PrintResult(const StreamResult& r, bool header) {
  if (header) {
    std::printf("%-14s %-12s %8s %14s %12s %8s %12s %14s %10s\n", "tier",
                "stream", "queries", "avg_ms(last100)", "avg_ms(all)", "CSR",
                "pages_read", "tuples_scanned", "wall_s");
  }
  std::printf("%-14s %-12s %8llu %14.1f %12.1f %8.3f %12llu %14llu %10.2f\n",
              r.tier.c_str(), r.stream.c_str(),
              static_cast<unsigned long long>(r.queries), r.avg_ms_last100,
              r.avg_ms_all, r.csr,
              static_cast<unsigned long long>(r.backend_pages),
              static_cast<unsigned long long>(r.backend_tuples),
              r.wall_seconds);
}

void PrintSetup(const ExperimentConfig& config, const std::string& title) {
  std::printf("=== %s ===\n", title.c_str());
  std::printf(
      "setup: %llu tuples, Table-1 schema (D0 25/50/100, D1 25/50, "
      "D2 5/25/50, D3 10/50), pool %u pages, range fraction %.2f, "
      "cost model %.0fms/page + %.3fms/tuple\n",
      static_cast<unsigned long long>(config.num_tuples), config.pool_frames,
      config.range_fraction, CostModel().page_read_ms,
      CostModel().tuple_cpu_ms);
}

}  // namespace chunkcache::bench
