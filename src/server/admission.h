#ifndef CHUNKCACHE_SERVER_ADMISSION_H_
#define CHUNKCACHE_SERVER_ADMISSION_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "common/metrics.h"
#include "common/token_bucket.h"

namespace chunkcache::server {

/// Per-tenant admission limits. Zeroed fields mean "unlimited", so a
/// default-constructed quota admits everything — rate limiting is opt-in.
struct TenantQuota {
  double rate_qps = 0;        ///< Sustained queries/second (0 = unlimited).
  double burst = 0;           ///< Bucket depth (0 = max(1, rate_qps / 10)).
  uint32_t max_inflight = 0;  ///< Concurrent admitted queries (0 = unlim).
};

struct AdmissionOptions {
  /// One budget shared by every tenant without an entry below: all of
  /// them together draw on one token bucket and one inflight count, so
  /// a client cannot gain capacity by sending fresh tenant ids.
  TenantQuota default_quota;
  /// Per-tenant quotas, keyed by the frame header's tenant id; each
  /// tenant listed here has a budget of its own.
  std::map<uint32_t, TenantQuota> tenant_quotas;
  /// Cap on concurrently admitted queries across all tenants — the
  /// server-wide overload backstop (0 = unlimited).
  uint32_t global_max_inflight = 0;
};

/// Why a query was (not) admitted. Every shed reason maps to one
/// RESOURCE_EXHAUSTED error frame; the enum keys the per-reason counters.
enum class AdmitDecision : uint8_t {
  kAdmitted = 0,
  kShedRate,            ///< Tenant token bucket empty.
  kShedTenantInflight,  ///< Tenant at its concurrency quota.
  kShedGlobalInflight,  ///< Server at the global concurrency cap.
};

const char* AdmitDecisionName(AdmitDecision d);

/// Multi-tenant admission: one token bucket + inflight count per
/// configured tenant and one shared by all other tenant ids, plus a
/// global inflight cap, all under one mutex (the hot path is a few
/// arithmetic ops; the serving layer calls this once per query frame).
/// The records are built at construction from AdmissionOptions, so the
/// state and the metric names are fixed by configuration: a frame's
/// tenant id selects a record and never creates one.
///
/// Time is an explicit nanosecond argument (see TokenBucket), so tests
/// drive a synthetic clock and decisions are deterministic. Checks are
/// ordered global cap -> tenant cap -> token bucket, and a shed never
/// consumes tokens — a rejected burst does not also starve the tenant's
/// future budget.
///
/// Metrics (on the registry passed in): server.admission.admitted plus one
/// server.admission.shed_* counter per reason, an inflight gauge + peak,
/// and each record's counters (TenantCounters): server.tenant.<id>.* for
/// a configured tenant, server.tenant.default.* for the shared record.
class AdmissionController {
 public:
  /// One record's server.tenant.<id or default>.{offered,admitted,shed,ok,
  /// errors} counters. The controller counts admitted and shed; the
  /// server counts the others.
  struct TenantCounters {
    Counter* offered = nullptr;
    Counter* admitted = nullptr;
    Counter* shed = nullptr;
    Counter* ok = nullptr;
    Counter* errors = nullptr;
  };

  AdmissionController(AdmissionOptions options, MetricsRegistry* metrics);

  AdmitDecision TryAdmit(uint32_t tenant_id, uint64_t now_ns);

  /// The counters of `tenant_id`'s record; the reference stays valid for
  /// the controller's lifetime.
  const TenantCounters& Counters(uint32_t tenant_id);

  /// Releases one admitted query's slot (tenant + global inflight).
  void Release(uint32_t tenant_id);

  const AdmissionOptions& options() const { return options_; }

 private:
  struct Tenant {
    /// Registers the server.tenant.<label>.* counters on `metrics`.
    Tenant(const TenantQuota& q, MetricsRegistry* metrics,
           const std::string& label);
    TenantQuota quota;
    TokenBucket bucket;     // guarded by mu_
    uint32_t inflight = 0;  // guarded by mu_
    TenantCounters counters;
  };

  /// `tenant_id`'s record: its own when configured, else the shared one.
  /// The map is not modified after construction, so no lock is needed.
  Tenant& TenantFor(uint32_t tenant_id);

  AdmissionOptions options_;
  Counter* admitted_;
  Counter* shed_rate_;
  Counter* shed_tenant_;
  Counter* shed_global_;
  Gauge* inflight_gauge_;
  Gauge* inflight_peak_;

  std::map<uint32_t, Tenant> configured_;  // one per tenant_quotas key
  Tenant shared_;                          // every other tenant id

  std::mutex mu_;
  uint32_t global_inflight_ = 0;  // guarded by mu_
};

}  // namespace chunkcache::server

#endif  // CHUNKCACHE_SERVER_ADMISSION_H_
