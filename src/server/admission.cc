#include "server/admission.h"

namespace chunkcache::server {

const char* AdmitDecisionName(AdmitDecision d) {
  switch (d) {
    case AdmitDecision::kAdmitted:
      return "admitted";
    case AdmitDecision::kShedRate:
      return "shed-rate";
    case AdmitDecision::kShedTenantInflight:
      return "shed-tenant-inflight";
    case AdmitDecision::kShedGlobalInflight:
      return "shed-global-inflight";
  }
  return "unknown";
}

AdmissionController::Tenant::Tenant(const TenantQuota& q,
                                    MetricsRegistry* metrics,
                                    const std::string& label)
    : quota(q),
      bucket(q.rate_qps,
             q.burst > 0 ? q.burst : (q.rate_qps > 0 ? q.rate_qps / 10 : 1)) {
  const std::string base = "server.tenant." + label;
  counters = {metrics->GetCounter(base + ".offered"),
              metrics->GetCounter(base + ".admitted"),
              metrics->GetCounter(base + ".shed"),
              metrics->GetCounter(base + ".ok"),
              metrics->GetCounter(base + ".errors")};
}

AdmissionController::AdmissionController(AdmissionOptions options,
                                         MetricsRegistry* metrics)
    : options_(std::move(options)),
      admitted_(metrics->GetCounter("server.admission.admitted")),
      shed_rate_(metrics->GetCounter("server.admission.shed_rate")),
      shed_tenant_(metrics->GetCounter("server.admission.shed_tenant_inflight")),
      shed_global_(metrics->GetCounter("server.admission.shed_global_inflight")),
      inflight_gauge_(metrics->GetGauge("server.admission.inflight")),
      inflight_peak_(metrics->GetGauge("server.admission.inflight_peak")),
      shared_(options_.default_quota, metrics, "default") {
  for (const auto& [id, quota] : options_.tenant_quotas) {
    configured_.try_emplace(id, quota, metrics, std::to_string(id));
  }
}

AdmissionController::Tenant& AdmissionController::TenantFor(
    uint32_t tenant_id) {
  auto it = configured_.find(tenant_id);
  return it != configured_.end() ? it->second : shared_;
}

const AdmissionController::TenantCounters& AdmissionController::Counters(
    uint32_t tenant_id) {
  return TenantFor(tenant_id).counters;
}

AdmitDecision AdmissionController::TryAdmit(uint32_t tenant_id,
                                            uint64_t now_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  Tenant& t = TenantFor(tenant_id);
  if (options_.global_max_inflight != 0 &&
      global_inflight_ >= options_.global_max_inflight) {
    shed_global_->Increment();
    t.counters.shed->Increment();
    return AdmitDecision::kShedGlobalInflight;
  }
  if (t.quota.max_inflight != 0 && t.inflight >= t.quota.max_inflight) {
    shed_tenant_->Increment();
    t.counters.shed->Increment();
    return AdmitDecision::kShedTenantInflight;
  }
  if (!t.bucket.TryAcquire(now_ns)) {
    shed_rate_->Increment();
    t.counters.shed->Increment();
    return AdmitDecision::kShedRate;
  }
  ++t.inflight;
  ++global_inflight_;
  admitted_->Increment();
  t.counters.admitted->Increment();
  inflight_gauge_->Set(global_inflight_);
  inflight_peak_->SetMax(global_inflight_);
  return AdmitDecision::kAdmitted;
}

void AdmissionController::Release(uint32_t tenant_id) {
  std::lock_guard<std::mutex> lock(mu_);
  Tenant& t = TenantFor(tenant_id);
  if (t.inflight > 0) --t.inflight;
  if (global_inflight_ > 0) --global_inflight_;
  inflight_gauge_->Set(global_inflight_);
}

}  // namespace chunkcache::server
