// Overload behavior: open-loop arrival streams at a multiple of the
// admitted capacity must degrade gracefully — every offered query gets
// exactly one terminal outcome (accepted + shed + errors == offered, read
// from the metrics registry), every shed is an explicit RESOURCE_EXHAUSTED
// frame flagged kFlagShed, the tier never executes a shed query, and the
// latency of *admitted* queries stays bounded because admission caps the
// queue, not the worker pool.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/middle_tier.h"
#include "server/client.h"
#include "server/server.h"
#include "server/wire.h"

namespace chunkcache::server {
namespace {

using backend::StarJoinQuery;

StarJoinQuery SampleQuery() {
  StarJoinQuery q;
  q.group_by.num_dims = 4;
  for (uint32_t d = 0; d < 4; ++d) {
    q.group_by.levels[d] = 1;
    q.selection[d] = schema::OrdinalRange{0, 3};
  }
  return q;
}

/// Fixed-service-time tier: each query costs `service_ms` of wall clock
/// (interruptible by deadline/cancel), so serving capacity is exactly
/// num_workers / service_time and overload multiples are computable.
class DelayTier : public core::MiddleTier {
 public:
  explicit DelayTier(uint32_t service_ms) : service_ms_(service_ms) {}

  Result<std::vector<backend::ResultRow>> Run(
      const StarJoinQuery& query, core::QueryStats* stats,
      const ExecControl& ctrl) override {
    (void)query;
    (void)stats;
    executed_.fetch_add(1);
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(service_ms_);
    while (std::chrono::steady_clock::now() < until) {
      Status st = ctrl.Check();
      if (!st.ok()) return st;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::vector<backend::ResultRow> rows(2);
    rows[0].count = 1;
    rows[1].count = 2;
    return rows;
  }

  std::string name() const override { return "delay"; }

  uint64_t executed() const { return executed_.load(); }

 private:
  uint32_t service_ms_;
  std::atomic<uint64_t> executed_{0};
};

struct TenantOutcome {
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t shed = 0;
  uint64_t errors = 0;
  uint64_t mislabeled_sheds = 0;  ///< shed without RESOURCE_EXHAUSTED+flag
};

/// One tenant's open-loop session: a sender thread emits queries on a
/// fixed arrival schedule without waiting for responses; a reader thread
/// drains and classifies every response on the same connection.
TenantOutcome RunOpenLoopTenant(uint16_t port, uint32_t tenant_id,
                                uint64_t num_queries,
                                std::chrono::microseconds interarrival) {
  ClientOptions copts;
  copts.port = port;
  copts.tenant_id = tenant_id;
  copts.recv_timeout_ms = 30000;
  auto client = ChunkClient::Connect(copts);
  EXPECT_TRUE(client.ok());
  TenantOutcome out;
  if (!client.ok()) return out;

  std::atomic<uint64_t> sent{0};
  std::thread sender([&] {
    const auto start = std::chrono::steady_clock::now();
    for (uint64_t i = 0; i < num_queries; ++i) {
      // Open loop: arrivals follow the schedule, not the service rate.
      std::this_thread::sleep_until(start + interarrival * i);
      auto id = (*client)->SendQuery(SampleQuery());
      if (!id.ok()) break;
      sent.fetch_add(1);
    }
  });

  sender.join();
  out.sent = sent.load();
  // Request ids are sequential from 1 on a fresh client; drain them all.
  for (uint64_t id = 1; id <= out.sent; ++id) {
    auto resp = (*client)->WaitResponse(id);
    EXPECT_TRUE(resp.ok()) << resp.status().ToString();
    if (!resp.ok()) {
      ++out.errors;
      continue;
    }
    if (resp->status.ok()) {
      ++out.ok;
      EXPECT_EQ(resp->summary.row_hash, wire::HashRows(resp->rows));
    } else if (resp->shed ||
               resp->status.code() == StatusCode::kResourceExhausted) {
      ++out.shed;
      // Shed responses must be explicit and correctly labeled: the
      // RESOURCE_EXHAUSTED code AND the kFlagShed flag, together.
      if (!resp->shed ||
          resp->status.code() != StatusCode::kResourceExhausted) {
        ++out.mislabeled_sheds;
      }
    } else {
      ++out.errors;
    }
  }
  return out;
}

TEST(ServingOverloadTest, ExactAccountingAndBoundedLatencyAtOverload) {
  constexpr uint32_t kServiceMs = 5;
  constexpr uint64_t kQueriesPerTenant = 120;
  constexpr uint32_t kNumTenants = 2;
  // Admission allows ~50 qps/tenant; the schedule offers one query every
  // 6 ms = ~167 qps/tenant, i.e. ~3.3x the admitted capacity.
  DelayTier tier(kServiceMs);
  ServerOptions opts;
  opts.num_workers = 4;
  TenantQuota quota;
  quota.rate_qps = 50;
  quota.burst = 4;
  for (uint32_t t = 1; t <= kNumTenants; ++t) {
    opts.admission.tenant_quotas[t] = quota;
  }
  // The global cap bounds queueing delay for admitted queries: at most 8
  // admitted-but-unfinished queries exist, so an admitted query waits at
  // most ~ (8/4 workers) service times behind others.
  opts.admission.global_max_inflight = 8;
  ChunkServer server(&tier, opts);
  ASSERT_TRUE(server.Start().ok());

  std::vector<TenantOutcome> outcomes(kNumTenants);
  std::vector<std::thread> tenants;
  for (uint32_t t = 0; t < kNumTenants; ++t) {
    tenants.emplace_back([&, t] {
      outcomes[t] =
          RunOpenLoopTenant(server.port(), /*tenant_id=*/t + 1,
                            kQueriesPerTenant,
                            std::chrono::microseconds(6000));
    });
  }
  for (auto& th : tenants) th.join();

  uint64_t sent = 0, ok = 0, shed = 0, errors = 0, mislabeled = 0;
  for (const auto& o : outcomes) {
    sent += o.sent;
    ok += o.ok;
    shed += o.shed;
    errors += o.errors;
    mislabeled += o.mislabeled_sheds;
  }
  ASSERT_EQ(sent, kQueriesPerTenant * kNumTenants);
  // Client-side books: every sent query got exactly one terminal response.
  EXPECT_EQ(ok + shed + errors, sent);
  EXPECT_EQ(mislabeled, 0u);
  EXPECT_EQ(errors, 0u);
  // At ~3x capacity, sheds must happen — and plenty of them. The token
  // budget over the ~0.72 s run is ~(0.72*50 + 4) per tenant ≈ 40, so at
  // least half the stream sheds even with generous timing slack.
  EXPECT_GT(shed, sent / 4);
  // But real work got through too (burst + refill tokens).
  EXPECT_GT(ok, 0u);

  // Server-side books, read from the registry: exact, not approximate.
  const auto snap = server.metrics().TakeSnapshot();
  EXPECT_EQ(snap.counter("server.queries.offered"), sent);
  EXPECT_EQ(snap.counter("server.queries.offered"),
            snap.counter("server.queries.ok") +
                snap.counter("server.queries.shed") +
                snap.counter("server.queries.errors"));
  EXPECT_EQ(snap.counter("server.queries.ok"), ok);
  EXPECT_EQ(snap.counter("server.queries.shed"), shed);
  // Shed queries never reached the tier: executed == admitted == ok.
  EXPECT_EQ(tier.executed(), ok);
  EXPECT_EQ(snap.counter("server.admission.admitted"), ok);

  // Bounded latency for admitted queries: with the global inflight cap at
  // 8 and 4 workers, an admitted query queues behind at most one service
  // time; p99 far under a second means overload never poisoned the
  // admitted class. (Generous bound: CI machines are noisy.)
  const auto it = snap.histograms.find("server.query.latency_ns");
  ASSERT_NE(it, snap.histograms.end());
  EXPECT_EQ(it->second.count, ok);
  EXPECT_LT(it->second.Quantile(0.99), 2e9) << "admitted p99 above 2 s";

  server.Stop();
}

TEST(ServingOverloadTest, GlobalInflightCapShedsWhenWorkersAreBusy) {
  // No rate limits at all — only the global concurrency backstop. A burst
  // of simultaneous slow queries must shed everything beyond the cap.
  constexpr uint32_t kCap = 3;
  DelayTier tier(/*service_ms=*/200);
  ServerOptions opts;
  opts.num_workers = 2;
  opts.admission.global_max_inflight = kCap;
  ChunkServer server(&tier, opts);
  ASSERT_TRUE(server.Start().ok());

  ClientOptions copts;
  copts.port = server.port();
  copts.tenant_id = 1;
  auto client = ChunkClient::Connect(copts);
  ASSERT_TRUE(client.ok());

  constexpr uint64_t kBurst = 10;
  for (uint64_t i = 0; i < kBurst; ++i) {
    ASSERT_TRUE((*client)->SendQuery(SampleQuery()).ok());
  }
  uint64_t ok = 0, shed = 0;
  for (uint64_t id = 1; id <= kBurst; ++id) {
    auto resp = (*client)->WaitResponse(id);
    ASSERT_TRUE(resp.ok());
    if (resp->status.ok()) {
      ++ok;
    } else {
      ASSERT_EQ(resp->status.code(), StatusCode::kResourceExhausted);
      ASSERT_TRUE(resp->shed);
      ++shed;
    }
  }
  // Exactly kCap admitted (the I/O thread admits serially, so the cap is
  // hit deterministically: queries 4..10 all arrive while 1..3 hold slots
  // for 200 ms).
  EXPECT_EQ(ok, kCap);
  EXPECT_EQ(shed, kBurst - kCap);
  EXPECT_EQ(tier.executed(), kCap);

  const auto snap = server.metrics().TakeSnapshot();
  EXPECT_EQ(snap.counter("server.queries.offered"), kBurst);
  EXPECT_EQ(snap.counter("server.admission.shed_global_inflight"), shed);
  EXPECT_EQ(snap.counter("server.queries.offered"),
            snap.counter("server.queries.ok") +
                snap.counter("server.queries.shed") +
                snap.counter("server.queries.errors"));
  server.Stop();
}

}  // namespace
}  // namespace chunkcache::server
