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

AdmissionController::AdmissionController(AdmissionOptions options,
                                         MetricsRegistry* metrics)
    : options_(std::move(options)),
      metrics_(metrics),
      admitted_(metrics->GetCounter("server.admission.admitted")),
      shed_rate_(metrics->GetCounter("server.admission.shed_rate")),
      shed_tenant_(metrics->GetCounter("server.admission.shed_tenant_inflight")),
      shed_global_(metrics->GetCounter("server.admission.shed_global_inflight")),
      inflight_gauge_(metrics->GetGauge("server.admission.inflight")),
      inflight_peak_(metrics->GetGauge("server.admission.inflight_peak")) {}

AdmissionController::Tenant& AdmissionController::GetTenantLocked(
    uint32_t tenant_id) {
  auto it = tenants_.find(tenant_id);
  if (it != tenants_.end()) return *it->second;
  auto quota_it = options_.tenant_quotas.find(tenant_id);
  const TenantQuota& q = quota_it != options_.tenant_quotas.end()
                             ? quota_it->second
                             : options_.default_quota;
  auto tenant = std::make_unique<Tenant>(q);
  const std::string base = "server.tenant." + std::to_string(tenant_id);
  tenant->counters = {metrics_->GetCounter(base + ".offered"),
                      metrics_->GetCounter(base + ".admitted"),
                      metrics_->GetCounter(base + ".shed"),
                      metrics_->GetCounter(base + ".ok"),
                      metrics_->GetCounter(base + ".errors")};
  return *tenants_.emplace(tenant_id, std::move(tenant)).first->second;
}

const AdmissionController::TenantCounters& AdmissionController::Counters(
    uint32_t tenant_id) {
  std::lock_guard<std::mutex> lock(mu_);
  return GetTenantLocked(tenant_id).counters;
}

AdmitDecision AdmissionController::TryAdmit(uint32_t tenant_id,
                                            uint64_t now_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  Tenant& t = GetTenantLocked(tenant_id);
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
  Tenant& t = GetTenantLocked(tenant_id);
  if (t.inflight > 0) --t.inflight;
  if (global_inflight_ > 0) --global_inflight_;
  inflight_gauge_->Set(global_inflight_);
}

}  // namespace chunkcache::server
