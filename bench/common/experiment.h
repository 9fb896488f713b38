#ifndef CHUNKCACHE_BENCH_COMMON_EXPERIMENT_H_
#define CHUNKCACHE_BENCH_COMMON_EXPERIMENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "backend/chunked_file.h"
#include "backend/engine.h"
#include "chunks/chunking_scheme.h"
#include "common/cost_model.h"
#include "core/middle_tier.h"
#include "schema/synthetic.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "workload/query_generator.h"

namespace chunkcache::bench {

/// Experiment-wide configuration, defaulting to the paper's Section 6.1.1
/// setup: 500,000 base tuples over the Table 1 schema, an 8 MB backend
/// buffer pool and chunk ranges at 10 % of each level. Every tier charges
/// its backend work under the default CostModel (10 ms per page, 1 us per
/// tuple), standing in for the 1997 raw device.
struct ExperimentConfig {
  uint64_t num_tuples = 500000;
  uint64_t data_seed = 42;
  double range_fraction = 0.1;
  uint32_t pool_frames = 2048;  ///< 8 MiB at 4 KiB pages.
  uint64_t stream_queries = 1500;  ///< Paper: 1500-query streams.

  /// Reads overrides from the environment: CHUNKCACHE_BENCH_SCALE (0..1]
  /// scales the tuple count, CHUNKCACHE_BENCH_QUERIES sets the stream
  /// length. Lets CI smoke-run every bench quickly.
  static ExperimentConfig FromEnv();
};

/// A fully built system: synthetic data bulk-loaded into a chunked file
/// with bitmap indexes, ready to attach middle tiers to.
class System {
 public:
  static Result<std::unique_ptr<System>> Build(const ExperimentConfig& config);

  schema::StarSchema& schema() { return *schema_; }
  chunks::ChunkingScheme& scheme() { return *scheme_; }
  backend::BackendEngine& engine() { return *engine_; }
  backend::ChunkedFile& file() { return *file_; }
  storage::BufferPool& pool() { return *pool_; }
  storage::InMemoryDiskManager& disk() { return disk_; }
  const ExperimentConfig& config() const { return config_; }

  /// Drops all cached pages and resets I/O statistics so the next run
  /// starts cold, as on the paper's raw device.
  Status ResetBackend();

 private:
  explicit System(ExperimentConfig config) : config_(config) {}

  ExperimentConfig config_;
  storage::InMemoryDiskManager disk_;
  std::unique_ptr<storage::BufferPool> pool_;
  std::unique_ptr<schema::StarSchema> schema_;
  std::unique_ptr<chunks::ChunkingScheme> scheme_;
  std::unique_ptr<backend::ChunkedFile> file_;
  std::unique_ptr<backend::BackendEngine> engine_;
};

/// Aggregate results of running one query stream against one middle tier.
struct StreamResult {
  std::string tier;
  std::string stream;
  uint64_t queries = 0;
  double avg_ms_all = 0;       ///< Modeled ms, averaged over every query.
  double avg_ms_last100 = 0;   ///< The paper's headline metric.
  double csr = 0;              ///< Cost saving ratio.
  uint64_t backend_pages = 0;
  uint64_t backend_tuples = 0;
  double wall_seconds = 0;     ///< Real elapsed time, for reference.
};

/// Runs `num_queries` from `gen` through `tier`, accumulating the paper's
/// metrics from each query's modeled_ms.
Result<StreamResult> RunStream(core::MiddleTier* tier,
                               workload::QueryGenerator* gen,
                               uint64_t num_queries);

/// Prints one table row; header printed when `header` is true.
void PrintResult(const StreamResult& r, bool header);

/// Shared banner describing the experiment setup.
void PrintSetup(const ExperimentConfig& config, const std::string& title);

}  // namespace chunkcache::bench

#endif  // CHUNKCACHE_BENCH_COMMON_EXPERIMENT_H_
