// Protocol fuzzing: the frame parser and every payload decoder are fed
// truncated (every byte offset), bit-flipped, oversized, and garbage
// inputs — first in-process against FrameReader/wire decoders, then over
// live sockets against a running server. The server must answer an error
// frame or close the connection cleanly; it must never crash, hang, or
// leak (this test runs under ASAN and TSAN in CI), and it must keep
// serving valid clients afterwards.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/middle_tier.h"
#include "server/client.h"
#include "server/frame.h"
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
    q.selection[d] = schema::OrdinalRange{d, d + 2};
  }
  backend::NonGroupByPredicate pred;
  pred.dim = 1;
  pred.level = 2;
  pred.range = schema::OrdinalRange{0, 4};
  q.non_group_by.push_back(pred);
  return q;
}

std::vector<uint8_t> ValidQueryFrame() {
  FrameHeader h;
  h.type = FrameType::kQuery;
  h.flags = kFlagLast;
  h.tenant_id = 1;
  h.request_id = 77;
  std::vector<uint8_t> payload;
  wire::EncodeQuery(SampleQuery(), &payload);
  std::vector<uint8_t> bytes;
  EncodeFrame(h, payload.data(), payload.size(), &bytes);
  return bytes;
}

/// Trivial tier so the live-socket fuzz runs without a cache stack.
class FixedTier : public core::MiddleTier {
 public:
  Result<std::vector<backend::ResultRow>> Run(const StarJoinQuery&,
                                              core::QueryStats*,
                                              const ExecControl&) override {
    std::vector<backend::ResultRow> rows(4);
    for (size_t i = 0; i < rows.size(); ++i) rows[i].count = i + 1;
    return rows;
  }
  std::string name() const override { return "fixed"; }
};

// ----------------------------- parser-level ---------------------------------

TEST(FrameFuzzTest, TruncationAtEveryByteOffsetNeverYieldsAFrame) {
  const std::vector<uint8_t> bytes = ValidQueryFrame();
  for (size_t len = 0; len < bytes.size(); ++len) {
    FrameReader reader(1 << 16);
    reader.Append(bytes.data(), len);
    auto got = reader.Next();
    if (got.ok()) {
      EXPECT_FALSE(got->has_value()) << "frame completed from " << len
                                     << " of " << bytes.size() << " bytes";
    }
    // Error (e.g. nothing — prefixes of a valid frame parse as incomplete)
    // or incomplete are both fine; the invariant is no crash and no frame.
  }
}

TEST(FrameFuzzTest, EveryBitFlipEitherErrorsOrParsesNeverCrashes) {
  const std::vector<uint8_t> bytes = ValidQueryFrame();
  size_t parsed = 0, rejected = 0;
  for (size_t byte = 0; byte < bytes.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> mutated = bytes;
      mutated[byte] ^= static_cast<uint8_t>(1u << bit);
      FrameReader reader(1 << 16);
      reader.Append(mutated.data(), mutated.size());
      auto got = reader.Next();
      if (!got.ok()) {
        ++rejected;
        continue;
      }
      if (!got->has_value()) continue;  // flip grew payload_len: incomplete
      ++parsed;
      // Unprotected header fields (type/flags/ids) may flip and still
      // parse; the payload decoders must then hold the line.
      const Frame& f = **got;
      auto q = wire::DecodeQuery(f.payload.data(), f.payload.size());
      (void)q;  // any outcome is fine; ASAN checks the memory discipline
    }
  }
  // CRC + magic + length checks must reject at least every payload flip.
  EXPECT_GT(rejected, bytes.size() * 8 / 2);
  EXPECT_GT(parsed, 0u);  // header-field flips outside magic/version/len/crc
}

TEST(FrameFuzzTest, OversizedDeclaredLengthRejectedWithoutAllocation) {
  // Hand-craft a header claiming a 3.5 GiB payload.
  std::vector<uint8_t> bytes;
  PutU32(&bytes, kFrameMagic);
  bytes.push_back(kProtocolVersion);
  bytes.push_back(static_cast<uint8_t>(FrameType::kQuery));
  PutU16(&bytes, kFlagLast);
  PutU32(&bytes, 1);           // tenant
  PutU32(&bytes, 0);           // deadline
  PutU64(&bytes, 9);           // request id
  PutU32(&bytes, 0xE0000000u); // payload_len: 3.5 GiB
  PutU32(&bytes, 0);           // crc
  ASSERT_EQ(bytes.size(), kFrameHeaderBytes);
  FrameReader reader(1 << 20);
  reader.Append(bytes.data(), bytes.size());
  auto got = reader.Next();
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kResourceExhausted);
}

TEST(FrameFuzzTest, SeededGarbageStreamsNeverCrashTheParser) {
  Random rng(2024);
  for (int round = 0; round < 64; ++round) {
    FrameReader reader(1 << 16);
    std::vector<uint8_t> garbage(1 + rng.Uniform(512));
    for (auto& b : garbage) b = static_cast<uint8_t>(rng.Next64());
    // Occasionally lead with valid magic so parsing goes deeper.
    if (round % 4 == 0 && garbage.size() >= 5) {
      garbage[0] = 0x43;
      garbage[1] = 0x4B;
      garbage[2] = 0x48;
      garbage[3] = 0x43;
      garbage[4] = kProtocolVersion;
    }
    size_t off = 0;
    while (off < garbage.size()) {
      const size_t n =
          std::min<size_t>(1 + rng.Uniform(64), garbage.size() - off);
      reader.Append(garbage.data() + off, n);
      off += n;
      for (int i = 0; i < 4; ++i) {
        auto got = reader.Next();
        if (!got.ok() || !got->has_value()) break;
      }
    }
  }
}

TEST(WireFuzzTest, DecodersSurviveSeededRandomBuffers) {
  Random rng(7);
  for (int round = 0; round < 2000; ++round) {
    std::vector<uint8_t> buf(rng.Uniform(256));
    for (auto& b : buf) b = static_cast<uint8_t>(rng.Next64());
    (void)wire::DecodeQuery(buf.data(), buf.size());
    std::vector<backend::ResultRow> rows;
    (void)wire::DecodeRowBatch(buf.data(), buf.size(), &rows);
    (void)wire::DecodeDone(buf.data(), buf.size());
    Status remote;
    (void)wire::DecodeError(buf.data(), buf.size(), &remote);
  }
}

TEST(WireFuzzTest, TruncatedValidPayloadsErrorAtEveryOffset) {
  std::vector<uint8_t> query;
  wire::EncodeQuery(SampleQuery(), &query);
  std::vector<backend::ResultRow> rows(5);
  std::vector<uint8_t> batch;
  wire::EncodeRowBatch(rows, 0, rows.size(), &batch);
  std::vector<uint8_t> done;
  wire::EncodeDone(wire::DoneSummary{}, &done);
  std::vector<uint8_t> error;
  wire::EncodeError(Status::Internal("x"), &error);

  for (size_t len = 0; len < query.size(); ++len) {
    EXPECT_FALSE(wire::DecodeQuery(query.data(), len).ok());
  }
  for (size_t len = 0; len < batch.size(); ++len) {
    std::vector<backend::ResultRow> sink;
    EXPECT_FALSE(wire::DecodeRowBatch(batch.data(), len, &sink).ok());
  }
  for (size_t len = 0; len < done.size(); ++len) {
    EXPECT_FALSE(wire::DecodeDone(done.data(), len).ok());
  }
  for (size_t len = 0; len < error.size(); ++len) {
    Status remote;
    EXPECT_FALSE(wire::DecodeError(error.data(), len, &remote).ok());
  }
}

// ------------------------------ live sockets --------------------------------

class LiveFuzzFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    ServerOptions opts;
    opts.num_workers = 2;
    opts.max_payload_bytes = 1 << 16;
    server_ = std::make_unique<ChunkServer>(&tier_, opts);
    ASSERT_TRUE(server_->Start().ok());
  }

  std::unique_ptr<ChunkClient> NewClient() {
    ClientOptions copts;
    copts.port = server_->port();
    copts.tenant_id = 1;
    copts.recv_timeout_ms = 5000;
    auto client = ChunkClient::Connect(copts);
    EXPECT_TRUE(client.ok());
    return std::move(*client);
  }

  /// The health check after every attack: a fresh client gets real service.
  void ExpectStillServing() {
    auto client = NewClient();
    auto resp = client->Execute(SampleQuery());
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_TRUE(resp->status.ok());
    EXPECT_EQ(resp->rows.size(), 4u);
  }

  /// server.frames.bad once it is nonzero, or 0 after 5 s. The I/O thread
  /// may serve the health check before it reads an earlier attack's bytes,
  /// so the count needs a bounded moment to land.
  uint64_t BadFramesEventually() {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    uint64_t bad = 0;
    while ((bad = server_->metrics().TakeSnapshot().counter(
                "server.frames.bad")) == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return bad;
  }

  FixedTier tier_;
  std::unique_ptr<ChunkServer> server_;
};

TEST_F(LiveFuzzFixture, TruncatedFrameAtEveryOffsetThenDisconnect) {
  const std::vector<uint8_t> bytes = ValidQueryFrame();
  for (size_t len = 0; len < bytes.size(); ++len) {
    auto client = NewClient();
    if (len > 0) {
      ASSERT_TRUE(client->SendRaw(bytes.data(), len).ok());
    }
    if (len % 2 == 0) {
      client->CloseAbruptly();  // RST with a half-frame buffered
    }
    // else: orderly close via destructor — server sees EOF mid-frame.
  }
  ExpectStillServing();
}

TEST_F(LiveFuzzFixture, BitFlippedFramesPerByteAnswerOrClose) {
  const std::vector<uint8_t> bytes = ValidQueryFrame();
  Random rng(31);
  for (size_t byte = 0; byte < bytes.size(); ++byte) {
    std::vector<uint8_t> mutated = bytes;
    mutated[byte] ^= static_cast<uint8_t>(1u << rng.Uniform(8));
    auto client = NewClient();
    ASSERT_TRUE(client->SendRaw(mutated.data(), mutated.size()).ok());
    // Whatever happens — error frame, response to a reinterpreted header,
    // or connection close — the client must observe *something* terminal
    // rather than a wedged server: ping on a fresh connection stays fast.
    auto fresh = NewClient();
    ASSERT_TRUE(fresh->Ping().ok()) << "server wedged after flipping byte "
                                    << byte;
  }
  ExpectStillServing();
}

TEST_F(LiveFuzzFixture, OversizedFrameClosedWithoutBufferingIt) {
  std::vector<uint8_t> header;
  PutU32(&header, kFrameMagic);
  header.push_back(kProtocolVersion);
  header.push_back(static_cast<uint8_t>(FrameType::kQuery));
  PutU16(&header, kFlagLast);
  PutU32(&header, 1);
  PutU32(&header, 0);
  PutU64(&header, 5);
  PutU32(&header, 0xE0000000u);  // declares 3.5 GiB
  PutU32(&header, 0);
  auto client = NewClient();
  ASSERT_TRUE(client->SendRaw(header.data(), header.size()).ok());
  // The server answers one error frame (best-effort) and closes; either
  // way this connection is done and the server has buffered ~nothing.
  ExpectStillServing();
  EXPECT_GE(BadFramesEventually(), 1u);
}

TEST_F(LiveFuzzFixture, GarbageStreamsClosedCleanly) {
  Random rng(99);
  for (int round = 0; round < 32; ++round) {
    auto client = NewClient();
    std::vector<uint8_t> garbage(64 + rng.Uniform(4096));
    for (auto& b : garbage) b = static_cast<uint8_t>(rng.Next64());
    (void)client->SendRaw(garbage.data(), garbage.size());
  }
  ExpectStillServing();
  EXPECT_GE(BadFramesEventually(), 1u);
  const auto snap = server_->metrics().TakeSnapshot();
  // Garbage never counts as offered work: the shed/ok/error books only
  // track well-formed query frames.
  EXPECT_EQ(snap.counter("server.queries.offered"),
            snap.counter("server.queries.ok") +
                snap.counter("server.queries.shed") +
                snap.counter("server.queries.errors"));
}

TEST_F(LiveFuzzFixture, InterleavedAttacksAndValidTraffic) {
  Random rng(4242);
  const std::vector<uint8_t> valid = ValidQueryFrame();
  for (int round = 0; round < 40; ++round) {
    switch (rng.Uniform(4)) {
      case 0: {  // truncated frame, abrupt close
        auto c = NewClient();
        (void)c->SendRaw(valid.data(), 1 + rng.Uniform(valid.size() - 1));
        c->CloseAbruptly();
        break;
      }
      case 1: {  // corrupted payload byte (CRC must catch it)
        auto c = NewClient();
        std::vector<uint8_t> m = valid;
        m[kFrameHeaderBytes + rng.Uniform(m.size() - kFrameHeaderBytes)] ^= 1;
        (void)c->SendRaw(m.data(), m.size());
        break;
      }
      case 2: {  // pure garbage
        auto c = NewClient();
        std::vector<uint8_t> g(128);
        for (auto& b : g) b = static_cast<uint8_t>(rng.Next64());
        (void)c->SendRaw(g.data(), g.size());
        break;
      }
      default: {  // honest client gets honest service, mid-melee
        auto c = NewClient();
        auto resp = c->Execute(SampleQuery());
        ASSERT_TRUE(resp.ok());
        EXPECT_TRUE(resp->status.ok());
        break;
      }
    }
  }
  ExpectStillServing();
}

}  // namespace
}  // namespace chunkcache::server
