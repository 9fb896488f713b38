#include "backend/scan_scheduler.h"

#include <algorithm>
#include <chrono>

#include "common/fault_injector.h"
#include "common/logging.h"

namespace chunkcache::backend {

ScanScheduler::ScanScheduler(BackendEngine* engine,
                             uint32_t max_outstanding_scans,
                             MetricsRegistry* metrics)
    : engine_(engine),
      max_outstanding_(std::max<uint32_t>(1, max_outstanding_scans)),
      metrics_(metrics) {
  CHUNKCACHE_CHECK(engine_ != nullptr);
  if (metrics_ == nullptr) {
    owned_metrics_ = std::make_unique<MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  requests_ = metrics_->GetCounter("scheduler.requests");
  completions_ = metrics_->GetCounter("scheduler.completions");
  deadline_sheds_ = metrics_->GetCounter("scheduler.deadline_sheds");
  request_errors_ = metrics_->GetCounter("scheduler.request_errors");
  outstanding_hwm_ = metrics_->GetGauge("scheduler.outstanding_hwm");
  scan_ns_ = metrics_->GetHistogram("scheduler.scan_ns");
}

Result<std::vector<ChunkData>> ScanScheduler::Compute(
    const chunks::GroupBySpec& target,
    const std::vector<uint64_t>& chunk_nums,
    const std::vector<NonGroupByPredicate>& non_group_by, WorkCounters* work,
    const ExecControl* ctrl) {
  if (chunk_nums.empty()) return std::vector<ChunkData>{};
  CHUNKCACHE_CHECK(work != nullptr);
  CHUNKCACHE_FAULT_POINT(FaultSite::kScanAdmit);
  if (ctrl != nullptr) CHUNKCACHE_RETURN_IF_ERROR(ctrl->Check());
  const Deadline deadline = ctrl != nullptr ? ctrl->deadline : Deadline();
  {
    std::unique_lock<std::mutex> lock(mu_);
    requests_->Increment();
    const auto slot_free = [&] { return outstanding_ < max_outstanding_; };
    if (deadline.infinite()) {
      cv_.wait(lock, slot_free);
    } else if (!cv_.wait_until(lock, deadline.time_point(), slot_free)) {
      deadline_sheds_->Increment();
      return Status::DeadlineExceeded("scan slot wait timed out");
    }
    ++outstanding_;
    outstanding_hwm_->SetMax(static_cast<int64_t>(outstanding_));
  }

  const auto scan_t0 = std::chrono::steady_clock::now();
  auto out = engine_->ComputeChunks(target, chunk_nums, non_group_by, work);
  scan_ns_->Record(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - scan_t0)
          .count()));
  {
    std::lock_guard<std::mutex> lock(mu_);
    --outstanding_;
  }
  cv_.notify_one();
  (out.ok() ? completions_ : request_errors_)->Increment();
  return out;
}

}  // namespace chunkcache::backend
