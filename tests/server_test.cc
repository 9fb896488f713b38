// Serving-layer tests: frame and payload codec round trips, deterministic
// admission decisions against a synthetic clock, and end-to-end protocol
// behavior over real sockets — bit-identity of served results against
// in-process execution (forced multi-frame streaming), deadline
// propagation into ExecControl, shed semantics, metrics dumps, and a tier2
// kill/reconnect churn storm. Runs under TSAN and ASAN in CI (see
// .github/workflows/ci.yml).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "backend/chunked_file.h"
#include "backend/engine.h"
#include "core/chunk_cache_manager.h"
#include "schema/synthetic.h"
#include "server/admission.h"
#include "server/client.h"
#include "server/frame.h"
#include "server/server.h"
#include "server/wire.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "workload/session_generator.h"

namespace chunkcache::server {
namespace {

using backend::StarJoinQuery;
using core::ChunkCacheManager;
using core::ChunkManagerOptions;
using core::QueryStats;

uint64_t StormIters(uint64_t dflt) {
  const char* env = std::getenv("CHUNKCACHE_STORM_ITERS");
  if (env == nullptr) return dflt;
  return std::max<uint64_t>(1, std::strtoull(env, nullptr, 10));
}

StarJoinQuery SampleQuery() {
  StarJoinQuery q;
  q.group_by.num_dims = 4;
  for (uint32_t d = 0; d < 4; ++d) {
    q.group_by.levels[d] = static_cast<uint8_t>(1 + (d % 2));
    q.selection[d] = schema::OrdinalRange{d, d + 3};
  }
  backend::NonGroupByPredicate pred;
  pred.dim = 2;
  pred.level = 2;
  pred.range = schema::OrdinalRange{5, 9};
  q.non_group_by.push_back(pred);
  return q;
}

// ------------------------------- framing ------------------------------------

TEST(FrameTest, RoundTripsThroughByteAtATimeReader) {
  FrameHeader h;
  h.type = FrameType::kQuery;
  h.flags = kFlagLast;
  h.tenant_id = 7;
  h.deadline_ms = 1500;
  h.request_id = 0x1122334455667788ull;
  std::vector<uint8_t> payload;
  for (int i = 0; i < 300; ++i) payload.push_back(static_cast<uint8_t>(i));
  std::vector<uint8_t> bytes;
  EncodeFrame(h, payload.data(), payload.size(), &bytes);
  ASSERT_EQ(bytes.size(), kFrameHeaderBytes + payload.size());

  FrameReader reader(1 << 16);
  for (size_t i = 0; i < bytes.size(); ++i) {
    auto before = reader.Next();
    if (i < bytes.size()) {
      ASSERT_TRUE(before.ok());
      // No frame may complete before the last byte arrives.
      EXPECT_FALSE(before->has_value()) << "completed early at byte " << i;
    }
    reader.Append(&bytes[i], 1);
  }
  auto got = reader.Next();
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(got->has_value());
  const Frame& f = **got;
  EXPECT_EQ(f.header.version, kProtocolVersion);
  EXPECT_EQ(f.header.type, FrameType::kQuery);
  EXPECT_EQ(f.header.flags, kFlagLast);
  EXPECT_EQ(f.header.tenant_id, 7u);
  EXPECT_EQ(f.header.deadline_ms, 1500u);
  EXPECT_EQ(f.header.request_id, 0x1122334455667788ull);
  EXPECT_EQ(f.payload, payload);
  // The frame was consumed exactly: a second copy appended at once parses
  // whole, and nothing follows it.
  reader.Append(bytes.data(), bytes.size());
  auto again = reader.Next();
  ASSERT_TRUE(again.ok());
  ASSERT_TRUE(again->has_value());
  EXPECT_EQ((*again)->payload, payload);
  auto none = reader.Next();
  ASSERT_TRUE(none.ok());
  EXPECT_FALSE(none->has_value());
}

TEST(FrameTest, ParsesBackToBackFramesFromOneAppend) {
  std::vector<uint8_t> bytes;
  for (uint64_t id = 1; id <= 3; ++id) {
    FrameHeader h;
    h.type = FrameType::kPing;
    h.request_id = id;
    EncodeFrame(h, nullptr, 0, &bytes);
  }
  FrameReader reader(1 << 16);
  reader.Append(bytes.data(), bytes.size());
  for (uint64_t id = 1; id <= 3; ++id) {
    auto got = reader.Next();
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(got->has_value());
    EXPECT_EQ((*got)->header.request_id, id);
  }
  auto empty = reader.Next();
  ASSERT_TRUE(empty.ok());
  EXPECT_FALSE(empty->has_value());
}

TEST(FrameTest, BadMagicPoisonsReader) {
  FrameHeader h;
  std::vector<uint8_t> bytes;
  EncodeFrame(h, nullptr, 0, &bytes);
  bytes[0] ^= 0xFF;
  FrameReader reader(1 << 16);
  reader.Append(bytes.data(), bytes.size());
  auto got = reader.Next();
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
  // Poisoned: even appending a pristine frame cannot resurrect the stream.
  std::vector<uint8_t> good;
  EncodeFrame(h, nullptr, 0, &good);
  reader.Append(good.data(), good.size());
  EXPECT_FALSE(reader.Next().ok());
}

TEST(FrameTest, OversizedDeclaredPayloadRejectedBeforeBuffering) {
  FrameHeader h;
  std::vector<uint8_t> payload(128, 0xAB);
  std::vector<uint8_t> bytes;
  EncodeFrame(h, payload.data(), payload.size(), &bytes);
  FrameReader reader(/*max_payload=*/64);
  // Header alone is enough to reject: no payload bytes appended yet.
  reader.Append(bytes.data(), kFrameHeaderBytes);
  auto got = reader.Next();
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kResourceExhausted);
}

TEST(FrameTest, PayloadCorruptionCaughtByCrc) {
  FrameHeader h;
  std::vector<uint8_t> payload(64, 0x5A);
  std::vector<uint8_t> bytes;
  EncodeFrame(h, payload.data(), payload.size(), &bytes);
  bytes[kFrameHeaderBytes + 10] ^= 0x01;
  FrameReader reader(1 << 16);
  reader.Append(bytes.data(), bytes.size());
  auto got = reader.Next();
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kCorruption);
}

// ----------------------------- wire payloads --------------------------------

TEST(WireTest, QueryRoundTrips) {
  const StarJoinQuery q = SampleQuery();
  std::vector<uint8_t> bytes;
  wire::EncodeQuery(q, &bytes);
  auto got = wire::DecodeQuery(bytes.data(), bytes.size());
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(*got == q);
}

TEST(WireTest, QueryDecodeRejectsStructuralLies) {
  const StarJoinQuery q = SampleQuery();
  std::vector<uint8_t> bytes;
  wire::EncodeQuery(q, &bytes);

  // Truncation at every boundary fails cleanly.
  for (size_t len = 0; len < bytes.size(); ++len) {
    auto got = wire::DecodeQuery(bytes.data(), len);
    EXPECT_FALSE(got.ok()) << "accepted a " << len << "-byte prefix";
  }
  // Trailing garbage is not tolerated either.
  std::vector<uint8_t> padded = bytes;
  padded.push_back(0);
  EXPECT_FALSE(wire::DecodeQuery(padded.data(), padded.size()).ok());
  // A predicate count far beyond the payload must not allocate.
  std::vector<uint8_t> lying = bytes;
  const size_t npred_off = 4 + 4 /*levels*/ + 4 * 8 /*selection*/;
  lying[npred_off] = 0xFF;
  lying[npred_off + 1] = 0xFF;
  lying[npred_off + 2] = 0xFF;
  lying[npred_off + 3] = 0xFF;
  EXPECT_FALSE(wire::DecodeQuery(lying.data(), lying.size()).ok());
}

TEST(WireTest, RowBatchAndHashRoundTrip) {
  std::vector<backend::ResultRow> rows;
  for (uint32_t i = 0; i < 10; ++i) {
    backend::ResultRow r{};
    for (uint32_t d = 0; d < storage::kMaxDims; ++d) r.coords[d] = i + d;
    r.sum = 1.5 * i;
    r.count = i;
    r.min_v = -static_cast<double>(i);
    r.max_v = i;
    rows.push_back(r);
  }
  std::vector<uint8_t> bytes;
  wire::EncodeRowBatch(rows, 0, rows.size(), &bytes);
  std::vector<backend::ResultRow> got;
  ASSERT_TRUE(wire::DecodeRowBatch(bytes.data(), bytes.size(), &got).ok());
  EXPECT_EQ(wire::HashRows(got), wire::HashRows(rows));
  // The hash is order-sensitive: swapping two rows changes it.
  std::swap(got[0], got[1]);
  EXPECT_NE(wire::HashRows(got), wire::HashRows(rows));
  // Count/size mismatch is rejected.
  std::vector<backend::ResultRow> sink;
  EXPECT_FALSE(
      wire::DecodeRowBatch(bytes.data(), bytes.size() - 1, &sink).ok());
}

// The row-batch bytes are the documented layout: a u32 count, then per
// row eight u32 coordinates and SUM, COUNT, MIN, MAX as little-endian
// 8-byte fields, whatever way the codec copies them.
TEST(WireTest, RowBatchBytesAreLittleEndianFields) {
  std::vector<backend::ResultRow> rows(3);
  for (uint32_t i = 0; i < rows.size(); ++i) {
    for (uint32_t d = 0; d < storage::kMaxDims; ++d) {
      rows[i].coords[d] = 0x01020304u * (i + 1) + d;
    }
    rows[i].sum = -1.25e300 * (i + 1);
    rows[i].count = 0x0102030405060708ULL + i;
    rows[i].min_v = -0.0;
    rows[i].max_v = std::numeric_limits<double>::denorm_min() * (i + 1);
  }
  std::vector<uint8_t> want;
  PutU32(&want, 2);
  for (size_t i = 1; i < rows.size(); ++i) {
    for (uint32_t d = 0; d < storage::kMaxDims; ++d) {
      PutU32(&want, rows[i].coords[d]);
    }
    PutF64(&want, rows[i].sum);
    PutU64(&want, rows[i].count);
    PutF64(&want, rows[i].min_v);
    PutF64(&want, rows[i].max_v);
  }
  std::vector<uint8_t> got = {0xAB};  // the batch appends after this byte
  wire::EncodeRowBatch(rows, 1, 2, &got);
  ASSERT_EQ(got.size(), 1 + want.size());
  EXPECT_TRUE(std::equal(want.begin(), want.end(), got.begin() + 1));
  std::vector<backend::ResultRow> back = {rows[0]};
  ASSERT_TRUE(wire::DecodeRowBatch(want.data(), want.size(), &back).ok());
  ASSERT_EQ(back.size(), 3u);
  EXPECT_EQ(wire::HashRows(back), wire::HashRows(rows));
}

TEST(WireTest, ErrorRoundTripsStatusCode) {
  std::vector<uint8_t> bytes;
  wire::EncodeError(Status::ResourceExhausted("query shed: shed-rate"),
                    &bytes);
  Status remote;
  ASSERT_TRUE(wire::DecodeError(bytes.data(), bytes.size(), &remote).ok());
  EXPECT_EQ(remote.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(remote.message(), "query shed: shed-rate");
}

// ------------------------------- admission ----------------------------------

TEST(AdmissionTest, RateLimitIsDeterministicUnderSyntheticClock) {
  MetricsRegistry metrics;
  AdmissionOptions opts;
  opts.default_quota.rate_qps = 10;  // one token per 100 ms
  opts.default_quota.burst = 2;
  AdmissionController adm(opts, &metrics);

  // Burst of 2 admits, third sheds, 100 ms later one more token exists.
  EXPECT_EQ(adm.TryAdmit(1, 0), AdmitDecision::kAdmitted);
  EXPECT_EQ(adm.TryAdmit(1, 0), AdmitDecision::kAdmitted);
  EXPECT_EQ(adm.TryAdmit(1, 0), AdmitDecision::kShedRate);
  EXPECT_EQ(adm.TryAdmit(1, 100'000'000), AdmitDecision::kAdmitted);
  EXPECT_EQ(adm.TryAdmit(1, 100'000'000), AdmitDecision::kShedRate);

  // Tenants are isolated: tenant 2's bucket is untouched by tenant 1.
  EXPECT_EQ(adm.TryAdmit(2, 100'000'000), AdmitDecision::kAdmitted);

  const auto snap = metrics.TakeSnapshot();
  EXPECT_EQ(snap.counter("server.admission.admitted"), 4u);
  EXPECT_EQ(snap.counter("server.admission.shed_rate"), 2u);
  EXPECT_EQ(snap.counter("server.tenant.1.admitted"), 3u);
  EXPECT_EQ(snap.counter("server.tenant.1.shed"), 2u);
  EXPECT_EQ(snap.counter("server.tenant.2.admitted"), 1u);
}

TEST(AdmissionTest, ShedDoesNotConsumeTokens) {
  MetricsRegistry metrics;
  AdmissionOptions opts;
  opts.default_quota.rate_qps = 10;
  opts.default_quota.burst = 1;
  opts.default_quota.max_inflight = 1;
  AdmissionController adm(opts, &metrics);

  EXPECT_EQ(adm.TryAdmit(1, 0), AdmitDecision::kAdmitted);
  // Shed on the inflight cap, repeatedly — must not drain the bucket.
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(adm.TryAdmit(1, 100'000'000), AdmitDecision::kShedTenantInflight);
  }
  adm.Release(1);
  // The 100 ms token survived all those sheds.
  EXPECT_EQ(adm.TryAdmit(1, 100'000'000), AdmitDecision::kAdmitted);
}

TEST(AdmissionTest, GlobalCapChecksBeforeTenantState) {
  MetricsRegistry metrics;
  AdmissionOptions opts;
  opts.global_max_inflight = 2;
  AdmissionController adm(opts, &metrics);
  EXPECT_EQ(adm.TryAdmit(1, 0), AdmitDecision::kAdmitted);
  EXPECT_EQ(adm.TryAdmit(2, 0), AdmitDecision::kAdmitted);
  EXPECT_EQ(adm.TryAdmit(3, 0), AdmitDecision::kShedGlobalInflight);
  EXPECT_EQ(metrics.TakeSnapshot().gauge("server.admission.inflight"), 2);
  adm.Release(1);
  EXPECT_EQ(adm.TryAdmit(3, 0), AdmitDecision::kAdmitted);
}

TEST(AdmissionTest, PerTenantQuotaOverridesDefault) {
  MetricsRegistry metrics;
  AdmissionOptions opts;
  opts.default_quota.max_inflight = 1;
  opts.tenant_quotas[9].max_inflight = 3;
  AdmissionController adm(opts, &metrics);
  EXPECT_EQ(adm.TryAdmit(9, 0), AdmitDecision::kAdmitted);
  EXPECT_EQ(adm.TryAdmit(9, 0), AdmitDecision::kAdmitted);
  EXPECT_EQ(adm.TryAdmit(9, 0), AdmitDecision::kAdmitted);
  EXPECT_EQ(adm.TryAdmit(9, 0), AdmitDecision::kShedTenantInflight);
  EXPECT_EQ(adm.TryAdmit(1, 0), AdmitDecision::kAdmitted);
  EXPECT_EQ(adm.TryAdmit(1, 0), AdmitDecision::kShedTenantInflight);
}

// --------------------------- stub-tier fixture ------------------------------

/// Deterministic MiddleTier stub: rows are a pure function of the query,
/// service time and deadline behavior are controllable. Protocol tests use
/// this so they exercise the server, not the cache.
class StubTier : public core::MiddleTier {
 public:
  Result<std::vector<backend::ResultRow>> Run(
      const StarJoinQuery& query, QueryStats* stats,
      const ExecControl& ctrl) override {
    calls.fetch_add(1);
    const auto start = std::chrono::steady_clock::now();
    while (std::chrono::steady_clock::now() - start <
           std::chrono::milliseconds(service_ms.load())) {
      Status st = ctrl.Check();
      if (!st.ok()) return st;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    Status st = ctrl.Check();
    if (!st.ok()) return st;
    std::vector<backend::ResultRow> rows(rows_per_query.load());
    uint64_t h = 0x9E3779B97F4A7C15ull;
    for (uint32_t d = 0; d < query.group_by.num_dims; ++d) {
      h = (h ^ query.selection[d].begin) * 0x100000001b3ull;
      h = (h ^ query.selection[d].end) * 0x100000001b3ull;
    }
    for (size_t i = 0; i < rows.size(); ++i) {
      for (uint32_t d = 0; d < storage::kMaxDims; ++d) {
        rows[i].coords[d] = static_cast<uint32_t>(h >> (4 * d)) + i;
      }
      rows[i].sum = static_cast<double>(h % 1000) + i;
      rows[i].count = i + 1;
      rows[i].min_v = -static_cast<double>(i);
      rows[i].max_v = static_cast<double>(i);
    }
    stats->chunks_needed = 1;
    stats->chunks_from_backend = 1;
    return rows;
  }

  std::string name() const override { return "stub"; }

  std::atomic<uint64_t> calls{0};
  std::atomic<uint32_t> service_ms{0};
  std::atomic<uint32_t> rows_per_query{8};
};

class ServerFixture : public ::testing::Test {
 protected:
  void StartServer(ServerOptions opts) {
    server_ = std::make_unique<ChunkServer>(&tier_, std::move(opts));
    ASSERT_TRUE(server_->Start().ok());
  }

  std::unique_ptr<ChunkClient> NewClient(uint32_t tenant = 1) {
    ClientOptions copts;
    copts.port = server_->port();
    copts.tenant_id = tenant;
    auto client = ChunkClient::Connect(copts);
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(*client);
  }

  /// offered == ok + shed + errors, read from the server registry.
  void ExpectExactAccounting() {
    const auto snap = server_->metrics().TakeSnapshot();
    EXPECT_EQ(snap.counter("server.queries.offered"),
              snap.counter("server.queries.ok") +
                  snap.counter("server.queries.shed") +
                  snap.counter("server.queries.errors"));
  }

  StubTier tier_;
  std::unique_ptr<ChunkServer> server_;
};

TEST_F(ServerFixture, PingAndMetricsDump) {
  StartServer(ServerOptions{});
  auto client = NewClient();
  ASSERT_TRUE(client->Ping().ok());
  auto metrics = client->FetchMetrics();
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics->find("server.queries.offered"), std::string::npos);
  EXPECT_NE(metrics->find("server.frames.received"), std::string::npos);
}

TEST_F(ServerFixture, QueryStreamsRowsAndVerifiesHash) {
  ServerOptions opts;
  // 3 rows per kResultBatch frame: an 8-row response streams in 3 frames.
  opts.result_batch_bytes = 3 * wire::kRowBytes + 4;
  StartServer(opts);
  auto client = NewClient();
  auto resp = client->Execute(SampleQuery());
  ASSERT_TRUE(resp.ok());
  ASSERT_TRUE(resp->status.ok()) << resp->status.ToString();
  EXPECT_EQ(resp->rows.size(), 8u);
  EXPECT_EQ(resp->summary.total_rows, 8u);
  EXPECT_EQ(resp->summary.row_hash, wire::HashRows(resp->rows));
  const auto snap = server_->metrics().TakeSnapshot();
  EXPECT_EQ(snap.counter("server.result.frames"), 3u);
  EXPECT_EQ(snap.counter("server.result.rows"), 8u);
  ExpectExactAccounting();
}

TEST_F(ServerFixture, PipelinedRequestsDemuxByRequestId) {
  StartServer(ServerOptions{});
  auto client = NewClient();
  std::vector<uint64_t> ids;
  for (int i = 0; i < 8; ++i) {
    StarJoinQuery q = SampleQuery();
    q.selection[0].begin = i;  // distinct rows per request
    q.selection[0].end = i + 3;
    auto id = client->SendQuery(q);
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  // Wait out of order: responses stash and resolve by id.
  for (auto it = ids.rbegin(); it != ids.rend(); ++it) {
    auto resp = client->WaitResponse(*it);
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp->request_id, *it);
    EXPECT_TRUE(resp->status.ok());
    EXPECT_EQ(resp->rows.size(), 8u);
  }
  ExpectExactAccounting();
}

TEST_F(ServerFixture, DeadlinePropagatesIntoExecControl) {
  StartServer(ServerOptions{});
  tier_.service_ms.store(10'000);  // would run 10 s without a deadline
  auto client = NewClient();
  auto resp = client->Execute(SampleQuery(), /*deadline_ms=*/50);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(resp->shed);  // an expired deadline is not an admission shed
  const auto snap = server_->metrics().TakeSnapshot();
  EXPECT_EQ(snap.counter("server.queries.deadline_exceeded"), 1u);
  EXPECT_EQ(snap.counter("server.queries.errors"), 1u);
  ExpectExactAccounting();
}

TEST_F(ServerFixture, ServerDeadlineCapAppliesToUnboundedQueries) {
  ServerOptions opts;
  opts.max_deadline_ms = 50;  // every query gets at most 50 ms
  StartServer(opts);
  tier_.service_ms.store(10'000);
  auto client = NewClient();
  auto resp = client->Execute(SampleQuery(), /*deadline_ms=*/0);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status.code(), StatusCode::kDeadlineExceeded);
}

TEST_F(ServerFixture, RateShedIsExplicitResourceExhausted) {
  ServerOptions opts;
  opts.admission.default_quota.rate_qps = 0.001;  // one token per ~17 min
  opts.admission.default_quota.burst = 1;
  StartServer(opts);
  auto client = NewClient();

  auto first = client->Execute(SampleQuery());
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first->status.ok());

  auto second = client->Execute(SampleQuery());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->status.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(second->shed);
  EXPECT_NE(second->status.message().find("shed"), std::string::npos);

  // The shed did not execute: the tier saw exactly one call.
  EXPECT_EQ(tier_.calls.load(), 1u);
  const auto snap = server_->metrics().TakeSnapshot();
  EXPECT_EQ(snap.counter("server.queries.shed"), 1u);
  ExpectExactAccounting();
}

TEST_F(ServerFixture, MalformedQueryPayloadAnswersErrorAndKeepsConnection) {
  StartServer(ServerOptions{});
  auto client = NewClient();

  // A syntactically valid frame whose payload is not a query.
  FrameHeader h;
  h.type = FrameType::kQuery;
  h.flags = kFlagLast;
  h.tenant_id = 1;
  h.request_id = 12345;
  const uint8_t junk[] = {0xDE, 0xAD, 0xBE, 0xEF};
  std::vector<uint8_t> bytes;
  EncodeFrame(h, junk, sizeof(junk), &bytes);
  ASSERT_TRUE(client->SendRaw(bytes.data(), bytes.size()).ok());
  auto resp = client->WaitResponse(12345);
  ASSERT_TRUE(resp.ok());
  EXPECT_FALSE(resp->status.ok());

  // Same connection still serves real queries.
  auto good = client->Execute(SampleQuery());
  ASSERT_TRUE(good.ok());
  EXPECT_TRUE(good->status.ok());
  ExpectExactAccounting();
}

// A tenant's server.tenant.<id>.{offered,ok,errors} count that tenant's
// queries only, and offered == ok + shed + errors holds per tenant as it
// does server-wide: a query payload that does not decode is offered and
// answered with an error, so it counts as an error of its tenant.
TEST_F(ServerFixture, PerTenantCountersCountThatTenantsQueries) {
  StartServer(ServerOptions{});
  auto seven = NewClient(/*tenant=*/7);
  auto eight = NewClient(/*tenant=*/8);
  for (int i = 0; i < 2; ++i) {
    auto resp = seven->Execute(SampleQuery());
    ASSERT_TRUE(resp.ok());
    EXPECT_TRUE(resp->status.ok());
  }
  tier_.service_ms.store(10'000);
  auto late = seven->Execute(SampleQuery(), /*deadline_ms=*/20);
  ASSERT_TRUE(late.ok());
  EXPECT_EQ(late->status.code(), StatusCode::kDeadlineExceeded);
  tier_.service_ms.store(0);
  FrameHeader h;
  h.type = FrameType::kQuery;
  h.flags = kFlagLast;
  h.tenant_id = 7;
  h.request_id = 777;
  const uint8_t junk[] = {0xDE, 0xAD};
  std::vector<uint8_t> bytes;
  EncodeFrame(h, junk, sizeof(junk), &bytes);
  ASSERT_TRUE(seven->SendRaw(bytes.data(), bytes.size()).ok());
  auto malformed = seven->WaitResponse(777);
  ASSERT_TRUE(malformed.ok());
  EXPECT_FALSE(malformed->status.ok());
  auto other = eight->Execute(SampleQuery());
  ASSERT_TRUE(other.ok());
  EXPECT_TRUE(other->status.ok());

  const auto snap = server_->metrics().TakeSnapshot();
  EXPECT_EQ(snap.counter("server.tenant.7.offered"), 4u);
  EXPECT_EQ(snap.counter("server.tenant.7.admitted"), 3u);
  EXPECT_EQ(snap.counter("server.tenant.7.ok"), 2u);
  EXPECT_EQ(snap.counter("server.tenant.7.errors"), 2u);
  EXPECT_EQ(snap.counter("server.tenant.7.shed"), 0u);
  EXPECT_EQ(snap.counter("server.tenant.8.offered"), 1u);
  EXPECT_EQ(snap.counter("server.tenant.8.ok"), 1u);
  EXPECT_EQ(snap.counter("server.tenant.8.errors"), 0u);
  ExpectExactAccounting();
}

TEST_F(ServerFixture, ClientVanishingMidQueryStillCountsAnOutcome) {
  StartServer(ServerOptions{});
  tier_.service_ms.store(150);
  auto client = NewClient();
  ASSERT_TRUE(client->SendQuery(SampleQuery()).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  client->CloseAbruptly();  // RST while the query executes

  // The connection's cancellation fails the query into `errors`; poll the
  // registry until the worker finishes (bounded wait).
  for (int i = 0; i < 200; ++i) {
    const auto snap = server_->metrics().TakeSnapshot();
    if (snap.counter("server.queries.ok") +
            snap.counter("server.queries.errors") ==
        snap.counter("server.queries.offered")) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ExpectExactAccounting();
  // And the server is still healthy for new clients.
  tier_.service_ms.store(0);
  auto fresh = NewClient();
  auto resp = fresh->Execute(SampleQuery());
  ASSERT_TRUE(resp.ok());
  EXPECT_TRUE(resp->status.ok());
}

TEST_F(ServerFixture, StopCancelsInflightQueries) {
  StartServer(ServerOptions{});
  tier_.service_ms.store(5'000);
  auto client = NewClient();
  ASSERT_TRUE(client->SendQuery(SampleQuery()).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const auto start = std::chrono::steady_clock::now();
  server_->Stop();  // must not wait out the 5 s service time
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::seconds(2));
  ExpectExactAccounting();
}

// ------------------------- kill/reconnect churn storm ------------------------

/// Tier2 storm (serving_storm in ctest): clients connect, pipeline a few
/// queries, and die — half abruptly (RST mid-response), half cleanly —
/// while a stable client keeps verifying correct service throughout.
TEST_F(ServerFixture, ServingStorm) {
  ServerOptions opts;
  opts.num_workers = 4;
  StartServer(opts);
  tier_.service_ms.store(2);
  const uint64_t rounds = StormIters(1) * 20;

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> stable_ok{0};
  std::thread stable([&] {
    auto client = NewClient(/*tenant=*/42);
    while (!stop.load()) {
      auto resp = client->Execute(SampleQuery());
      ASSERT_TRUE(resp.ok());
      ASSERT_TRUE(resp->status.ok());
      ASSERT_EQ(resp->summary.row_hash, wire::HashRows(resp->rows));
      stable_ok.fetch_add(1);
    }
  });

  std::vector<std::thread> churn;
  for (int t = 0; t < 4; ++t) {
    churn.emplace_back([&, t] {
      for (uint64_t r = 0; r < rounds; ++r) {
        auto client = NewClient(/*tenant=*/static_cast<uint32_t>(t));
        for (int q = 0; q < 3; ++q) {
          if (!client->SendQuery(SampleQuery()).ok()) break;
        }
        if ((r + t) % 2 == 0) {
          client->CloseAbruptly();  // RST with responses in flight
        }
        // else: destructor closes cleanly with unread responses buffered.
      }
    });
  }
  for (auto& th : churn) th.join();
  stop.store(true);
  stable.join();
  EXPECT_GT(stable_ok.load(), 0u);

  // Drain stragglers, then the books must balance exactly.
  for (int i = 0; i < 500; ++i) {
    const auto snap = server_->metrics().TakeSnapshot();
    if (snap.counter("server.queries.offered") ==
        snap.counter("server.queries.ok") +
            snap.counter("server.queries.shed") +
            snap.counter("server.queries.errors")) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ExpectExactAccounting();

  // And the server still serves a fresh connection.
  auto fresh = NewClient();
  auto resp = fresh->Execute(SampleQuery());
  ASSERT_TRUE(resp.ok());
  EXPECT_TRUE(resp->status.ok());
}

// --------------------------- real-tier bit-identity --------------------------

/// Served results must be bit-identical to in-process MiddleTier::Execute —
/// including multi-frame streamed responses and the compressed cache tier.
class BitIdentityFixture : public ::testing::Test {
 protected:
  static constexpr uint64_t kTuples = 6000;

  void SetUp() override {
    auto s = schema::BuildPaperSchema();
    ASSERT_TRUE(s.ok());
    schema_ = std::make_unique<schema::StarSchema>(std::move(s).value());
    chunks::ChunkingOptions copts;
    copts.range_fraction = 0.2;
    auto scheme = chunks::ChunkingScheme::Build(schema_.get(), copts, kTuples);
    ASSERT_TRUE(scheme.ok());
    scheme_ =
        std::make_unique<chunks::ChunkingScheme>(std::move(scheme).value());

    schema::FactGenOptions gen;
    gen.num_tuples = kTuples;
    gen.seed = 17;
    tuples_ = schema::GenerateFactTuples(*schema_, gen);

    pool_ = std::make_unique<storage::BufferPool>(&disk_, 4096);
    auto file =
        backend::ChunkedFile::BulkLoad(pool_.get(), scheme_.get(), tuples_);
    ASSERT_TRUE(file.ok());
    file_ = std::make_unique<backend::ChunkedFile>(std::move(file).value());
    engine_ = std::make_unique<backend::BackendEngine>(
        pool_.get(), file_.get(), scheme_.get());
    ASSERT_TRUE(engine_->BuildBitmapIndexes().ok());
  }

  storage::InMemoryDiskManager disk_;
  std::unique_ptr<storage::BufferPool> pool_;
  std::unique_ptr<schema::StarSchema> schema_;
  std::unique_ptr<chunks::ChunkingScheme> scheme_;
  std::vector<storage::Tuple> tuples_;
  std::unique_ptr<backend::ChunkedFile> file_;
  std::unique_ptr<backend::BackendEngine> engine_;
};

TEST_F(BitIdentityFixture, ServedEqualsDirect) {
  ChunkManagerOptions mopts;
  mopts.cache_shards = 4;
  ChunkCacheManager direct_mgr(engine_.get(), mopts);
  ChunkCacheManager served_mgr(engine_.get(), mopts);

  ServerOptions sopts;
  // Tiny batches force every nontrivial response to stream multi-frame.
  sopts.result_batch_bytes = 2 * wire::kRowBytes + 4;
  sopts.num_workers = 2;
  ChunkServer server(&served_mgr, sopts);
  ASSERT_TRUE(server.Start().ok());

  ClientOptions copts;
  copts.port = server.port();
  copts.tenant_id = 3;
  auto client = ChunkClient::Connect(copts);
  ASSERT_TRUE(client.ok());

  // The seeded session stream both sides execute in the same order.
  workload::SessionOptions wopts;
  wopts.seed = 5;
  workload::SessionGenerator gen(schema_.get(), wopts);
  uint64_t multi_frame_responses = 0;
  for (int i = 0; i < 24; ++i) {
    const StarJoinQuery q = gen.Next();
    QueryStats direct_stats;
    auto direct = direct_mgr.Execute(q, &direct_stats);
    ASSERT_TRUE(direct.ok());

    auto resp = (*client)->Execute(q);
    ASSERT_TRUE(resp.ok());
    ASSERT_TRUE(resp->status.ok()) << resp->status.ToString();
    // Hash equality is bit-identity over the full row stream (the client
    // already checked resp->rows against the server's kDone hash).
    ASSERT_EQ(wire::HashRows(resp->rows), wire::HashRows(*direct))
        << "query " << i << " diverged";
    ASSERT_EQ(resp->rows.size(), direct->size());
    if (direct->size() > 2) ++multi_frame_responses;
  }
  EXPECT_GT(multi_frame_responses, 0u) << "streaming path never exercised";
  server.Stop();
}

// A metrics dump fetched over the wire folds the tier's natively-atomic
// counters into the registry first, so the kernels the served queries ran
// and the SIMD level show up in it.
TEST_F(BitIdentityFixture, ServedMetricsDumpCarriesTierGauges) {
  ChunkCacheManager mgr(engine_.get(), ChunkManagerOptions{});
  ServerOptions sopts;
  sopts.metrics = &mgr.metrics();
  ChunkServer server(&mgr, sopts);
  ASSERT_TRUE(server.Start().ok());
  ClientOptions copts;
  copts.port = server.port();
  auto client = ChunkClient::Connect(copts);
  ASSERT_TRUE(client.ok());

  workload::SessionOptions wopts;
  wopts.seed = 5;
  workload::SessionGenerator gen(schema_.get(), wopts);
  for (int i = 0; i < 8; ++i) {
    auto resp = (*client)->Execute(gen.Next());
    ASSERT_TRUE(resp.ok());
    ASSERT_TRUE(resp->status.ok()) << resp->status.ToString();
  }
  auto dump = (*client)->FetchMetrics();
  ASSERT_TRUE(dump.ok());
  const std::string dense_key = "\"kernels.dense\": ";
  const size_t dense_at = dump->find(dense_key);
  ASSERT_NE(dense_at, std::string::npos) << *dump;
  EXPECT_GT(std::strtoll(dump->c_str() + dense_at + dense_key.size(),
                         nullptr, 10),
            0);
  EXPECT_NE(dump->find("\"simd.level\": "), std::string::npos) << *dump;
  // The chunk tier's memory gauges: the cache holds the queries' chunks.
  for (const std::string key :
       {"\"cache.entries\": ", "\"cache.bytes_used\": "}) {
    const size_t at = dump->find(key);
    ASSERT_NE(at, std::string::npos) << key << " missing from " << *dump;
    EXPECT_GT(std::strtoll(dump->c_str() + at + key.size(), nullptr, 10), 0)
        << key;
  }
  server.Stop();
}

}  // namespace
}  // namespace chunkcache::server
