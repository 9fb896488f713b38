#ifndef CHUNKCACHE_BACKEND_SCAN_SCHEDULER_H_
#define CHUNKCACHE_BACKEND_SCAN_SCHEDULER_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "backend/engine.h"
#include "backend/star_join_query.h"
#include "chunks/group_by_spec.h"
#include "common/cost_model.h"
#include "common/metrics.h"
#include "common/retry.h"
#include "common/status.h"

namespace chunkcache::backend {

/// Bounded admission in front of the backend: at most
/// `max_outstanding_scans` BackendEngine::ComputeChunks calls run at once,
/// and further requests wait for a scan slot. Cross-query deduplication is
/// not done here — the manager's in-flight table already hands each
/// missing chunk to exactly one owner.
///
/// Deadlock safety: a slot is held only for the duration of one engine
/// call, which runs serially on the caller's thread and always completes,
/// and no thread waits for a slot while holding one.
class ScanScheduler {
 public:
  /// Cumulative statistics live on `metrics` (under "scheduler." names);
  /// passing nullptr gives the scheduler a private registry. Every
  /// admitted request ends in exactly one of three terminal outcomes, so
  /// once the scheduler quiesces requests == completions + deadline_sheds
  /// + request_errors holds exactly (stats_invariant_test checks it,
  /// faults included).
  ScanScheduler(BackendEngine* engine, uint32_t max_outstanding_scans,
                MetricsRegistry* metrics = nullptr);

  ScanScheduler(const ScanScheduler&) = delete;
  ScanScheduler& operator=(const ScanScheduler&) = delete;

  /// Computes `chunk_nums` of `target` under `non_group_by` once a scan
  /// slot is free. Blocking. The result is exactly a direct ComputeChunks
  /// call's, and its work is added to `*work`.
  ///
  /// `ctrl` (optional) bounds *admission*: a request whose deadline
  /// expires while it waits for a slot sheds with DeadlineExceeded
  /// instead of wedging. A scan that has started runs to completion.
  Result<std::vector<ChunkData>> Compute(
      const chunks::GroupBySpec& target,
      const std::vector<uint64_t>& chunk_nums,
      const std::vector<NonGroupByPredicate>& non_group_by,
      WorkCounters* work, const ExecControl* ctrl = nullptr);

 private:
  BackendEngine* engine_;
  const uint32_t max_outstanding_;

  // Registry-backed cumulative counters ("scheduler.*"); mu_ guards only
  // the slot count, never the statistics.
  std::unique_ptr<MetricsRegistry> owned_metrics_;
  MetricsRegistry* metrics_ = nullptr;
  Counter* requests_ = nullptr;
  Counter* completions_ = nullptr;
  Counter* deadline_sheds_ = nullptr;
  Counter* request_errors_ = nullptr;
  Gauge* outstanding_hwm_ = nullptr;
  Histogram* scan_ns_ = nullptr;

  std::mutex mu_;
  std::condition_variable cv_;
  uint32_t outstanding_ = 0;
};

}  // namespace chunkcache::backend

#endif  // CHUNKCACHE_BACKEND_SCAN_SCHEDULER_H_
