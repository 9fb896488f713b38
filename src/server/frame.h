#ifndef CHUNKCACHE_SERVER_FRAME_H_
#define CHUNKCACHE_SERVER_FRAME_H_

#include <cstdint>
#include <cstring>
#include <optional>
#include <vector>

#include "common/status.h"

namespace chunkcache::server {

/// Binary framing of the serving protocol (DESIGN.md §15). Every message on
/// the wire is one frame: a fixed 32-byte little-endian header followed by
/// `payload_len` payload bytes, integrity-checked by a CRC32C trailer field
/// in the header. Frames are self-delimiting, so a stream parser never needs
/// lookahead beyond the declared length, and a declared length is validated
/// against a hard cap before any allocation — a hostile 4 GiB claim costs
/// nothing.
///
///   offset  size  field
///        0     4  magic 0x43484B43 ("CHKC")
///        4     1  version (kProtocolVersion)
///        5     1  frame type (FrameType)
///        6     2  flags (FrameFlags bit set)
///        8     4  tenant id
///       12     4  deadline_ms (query frames; 0 = no deadline)
///       16     8  request id (echoed verbatim on every response frame)
///       24     4  payload_len
///       28     4  CRC32C of the payload bytes
inline constexpr uint32_t kFrameMagic = 0x43484B43u;  // "CHKC"
inline constexpr uint8_t kProtocolVersion = 1;
inline constexpr size_t kFrameHeaderBytes = 32;

enum class FrameType : uint8_t {
  kQuery = 1,         ///< client -> server: serialized StarJoinQuery.
  kResultBatch = 2,   ///< server -> client: one bounded batch of rows.
  kDone = 3,          ///< server -> client: end of a streamed result.
  kError = 4,         ///< server -> client: status code + message.
  kMetricsRequest = 5,  ///< client -> server: empty payload.
  kMetricsDump = 6,     ///< server -> client: registry JSON export.
  kPing = 7,
  kPong = 8,
};

enum FrameFlags : uint16_t {
  kFlagLast = 1u << 0,  ///< Final frame of this request's response stream.
  kFlagShed = 1u << 1,  ///< Error frame produced by admission shed, not
                        ///< execution: the query was never started and is
                        ///< safe to retry elsewhere.
};

struct FrameHeader {
  uint8_t version = kProtocolVersion;
  FrameType type = FrameType::kPing;
  uint16_t flags = 0;
  uint32_t tenant_id = 0;
  uint32_t deadline_ms = 0;
  uint64_t request_id = 0;
  uint32_t payload_len = 0;
  uint32_t payload_crc = 0;
};

struct Frame {
  FrameHeader header;
  std::vector<uint8_t> payload;
};

/// Little-endian scalar I/O shared by the frame and payload codecs.
inline void PutU16(std::vector<uint8_t>* out, uint16_t v) {
  out->push_back(static_cast<uint8_t>(v));
  out->push_back(static_cast<uint8_t>(v >> 8));
}
inline void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<uint8_t>(v >> (8 * i)));
}
inline void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<uint8_t>(v >> (8 * i)));
}
inline void PutF64(std::vector<uint8_t>* out, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, 8);
  PutU64(out, bits);
}
inline uint16_t GetU16(const uint8_t* p) {
  return static_cast<uint16_t>(p[0] | (uint16_t{p[1]} << 8));
}
inline uint32_t GetU32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}
inline uint64_t GetU64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}
inline double GetF64(const uint8_t* p) {
  const uint64_t bits = GetU64(p);
  double v;
  std::memcpy(&v, &bits, 8);
  return v;
}

/// Serializes one frame (header + payload, CRC computed here) onto `out`.
void EncodeFrame(const FrameHeader& header, const uint8_t* payload,
                 size_t payload_len, std::vector<uint8_t>* out);

/// Incremental frame parser over a byte stream. Append() buffers raw bytes;
/// Next() yields one complete frame, nullopt when more bytes are needed, or
/// an error Status on a malformed stream:
///   InvalidArgument   bad magic or unsupported version (stream is garbage
///                     or from a future protocol — unrecoverable, close);
///   ResourceExhausted declared payload_len exceeds max_payload (rejected
///                     before buffering the payload);
///   Corruption        payload CRC mismatch.
/// After any error the parser is poisoned: every later Next() returns the
/// same error, because frame boundaries can no longer be trusted.
class FrameReader {
 public:
  explicit FrameReader(uint32_t max_payload) : max_payload_(max_payload) {}

  void Append(const uint8_t* data, size_t len);

  Result<std::optional<Frame>> Next();

 private:
  uint32_t max_payload_;
  std::vector<uint8_t> buf_;
  size_t pos_ = 0;
  Status poisoned_ = Status::OK();
};

}  // namespace chunkcache::server

#endif  // CHUNKCACHE_SERVER_FRAME_H_
