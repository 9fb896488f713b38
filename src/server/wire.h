#ifndef CHUNKCACHE_SERVER_WIRE_H_
#define CHUNKCACHE_SERVER_WIRE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "backend/star_join_query.h"
#include "common/status.h"
#include "core/middle_tier.h"

namespace chunkcache::server::wire {

/// Payload codecs of the serving protocol. Every decoder validates the
/// declared counts against the bytes actually present *before* allocating,
/// and returns Status::Corruption on any mismatch — the fuzz suite feeds
/// these bit-flipped and truncated payloads under ASAN.

/// StarJoinQuery payload (FrameType::kQuery):
///   u32 num_dims; num_dims * u8 group-by level;
///   num_dims * (u32 begin, u32 end) selection;
///   u32 num_preds; num_preds * (u32 dim, u32 level, u32 begin, u32 end).
void EncodeQuery(const backend::StarJoinQuery& q, std::vector<uint8_t>* out);
Result<backend::StarJoinQuery> DecodeQuery(const uint8_t* data, size_t len);

/// One serialized result row: kMaxDims u32 coords, then sum/count/min/max
/// (8 bytes each) — 64 bytes, fixed, in canonical result order.
inline constexpr size_t kRowBytes = storage::kMaxDims * 4 + 32;

/// Result-batch payload (FrameType::kResultBatch):
///   u32 row_count; row_count * kRowBytes.
/// `first`/`count` select the batch out of `rows` (bounded streaming).
void EncodeRowBatch(const std::vector<backend::ResultRow>& rows, size_t first,
                    size_t count, std::vector<uint8_t>* out);
Status DecodeRowBatch(const uint8_t* data, size_t len,
                      std::vector<backend::ResultRow>* rows);

/// Order-sensitive FNV-1a over the wire serialization of every row: the
/// bit-identity signature compared between served and in-process execution
/// (the client's kDone check and the server tests hash with this).
uint64_t HashRows(const std::vector<backend::ResultRow>& rows);

/// End-of-response payload (FrameType::kDone): the row-stream signature
/// plus the provenance counters a client-side cache report needs.
struct DoneSummary {
  uint64_t total_rows = 0;
  uint64_t row_hash = 0;
  uint64_t chunks_needed = 0;
  uint64_t chunks_from_cache = 0;
  uint64_t chunks_from_aggregation = 0;
  uint64_t chunks_from_backend = 0;
  uint64_t coalesced_waits = 0;
  uint64_t degraded_answers = 0;
  uint64_t deadline_expired = 0;
  uint8_t full_cache_hit = 0;
};
void EncodeDone(const DoneSummary& s, std::vector<uint8_t>* out);
Result<DoneSummary> DecodeDone(const uint8_t* data, size_t len);

/// Error payload (FrameType::kError): u32 StatusCode, u32 length, message.
/// The code round-trips exactly, so a shed's kResourceExhausted (and a
/// deadline's kDeadlineExceeded) is distinguishable client-side. The
/// decoded remote status lands in *remote; the returned Status reports
/// whether the payload itself was well-formed (Result<Status> would be
/// ambiguous — both of its constructors take a Status).
void EncodeError(const Status& status, std::vector<uint8_t>* out);
Status DecodeError(const uint8_t* data, size_t len, Status* remote);

/// Builds the DoneSummary for a finished query.
DoneSummary SummaryOf(const std::vector<backend::ResultRow>& rows,
                      const core::QueryStats& stats);

}  // namespace chunkcache::server::wire

#endif  // CHUNKCACHE_SERVER_WIRE_H_
