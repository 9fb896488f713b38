#ifndef CHUNKCACHE_STORAGE_CODEC_H_
#define CHUNKCACHE_STORAGE_CODEC_H_

#include <array>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "storage/agg_columns.h"

namespace chunkcache::storage::codec {

/// Per-column encodings for chunk payloads. Every codec is lossless at the
/// bit level (doubles round-trip through their uint64 bit patterns), so an
/// encode→decode cycle reproduces the source column exactly — the property
/// the compression ablation (on == off bit-identity) rests on.
enum class ColumnCodec : uint8_t {
  kRaw = 0,           ///< memcpy of fixed-width values (the fallback).
  kVarint = 1,        ///< LEB128 per value — small unsigned values (counts).
  kDeltaZigzag = 2,   ///< zigzag(v[i]-v[i-1]) varints — sorted-ish columns.
  kDeltaOfDelta = 3,  ///< zigzag of second differences — near-linear runs.
  kDict = 4,          ///< sorted distinct dictionary + bit-packed indexes.
  kXorVarint = 5,     ///< varint(bits[i] ^ bits[i-1]) — measure doubles.
};
inline constexpr size_t kNumCodecs = 6;

/// Stable short name ("raw", "varint", "delta", "dod", "dict", "xor") for
/// metrics and reports.
const char* CodecName(ColumnCodec c);

/// Per-codec byte accounting for one or more encode calls: how many raw
/// bytes went in, how many encoded bytes came out, and how many columns
/// each codec won. Feeds the per-codec ratio counters on the metrics
/// registry.
struct CodecStats {
  std::array<uint64_t, kNumCodecs> raw_bytes{};
  std::array<uint64_t, kNumCodecs> encoded_bytes{};
  std::array<uint64_t, kNumCodecs> columns{};
};

/// Decoder selection: kFast is the production bulk decoder (word-wise
/// varint parsing, branch-light unpack loops); kReference is the scalar
/// decoder that checks every read — the ground truth the property tests
/// compare kFast against.
enum class DecodeMode { kFast, kReference };

// -- Column-level API ------------------------------------------------------
//
// Each encoder appends one self-describing column to `*out`:
//   u8 codec tag | varint payload_len | payload bytes
// choosing the smallest candidate codec for the data (cost is computed
// before encoding, so only the winner is materialized). Decoders consume
// exactly one column, append `n` values to `*out`, and return
// Status::Corruption on any truncated, over-long, or malformed input —
// they never read past `end` and never trust a length field without
// bounds-checking it first.

void EncodeU32Column(const uint32_t* v, size_t n, std::vector<uint8_t>* out,
                     CodecStats* stats = nullptr);
void EncodeU64Column(const uint64_t* v, size_t n, std::vector<uint8_t>* out,
                     CodecStats* stats = nullptr);
void EncodeF64Column(const double* v, size_t n, std::vector<uint8_t>* out,
                     CodecStats* stats = nullptr);

Status DecodeU32Column(const uint8_t** p, const uint8_t* end, size_t n,
                       std::vector<uint32_t>* out,
                       DecodeMode mode = DecodeMode::kFast);
Status DecodeU64Column(const uint8_t** p, const uint8_t* end, size_t n,
                       std::vector<uint64_t>* out,
                       DecodeMode mode = DecodeMode::kFast);
Status DecodeF64Column(const uint8_t** p, const uint8_t* end, size_t n,
                       std::vector<double>* out,
                       DecodeMode mode = DecodeMode::kFast);

// -- Payload-level API -----------------------------------------------------
//
// Self-contained blobs: a one-byte format tag, the dimension count, a
// varint row count, one encoded column per active column, and a trailing
// CRC32C over everything before it. Decode validates the CRC first (cheap
// relative to column decode), so random corruption is rejected up front
// and the column decoders only ever see structurally plausible input —
// which they still bounds-check.

/// Encodes `cols` (dimension ordinal columns first, then SUM/COUNT/MIN/MAX)
/// into `*out` (appended). Sorted row-major input compresses best — the
/// canonical chunk order — but any order round-trips exactly.
void EncodeAggColumns(const AggColumns& cols, std::vector<uint8_t>* out,
                      CodecStats* stats = nullptr);
Result<AggColumns> DecodeAggColumns(const uint8_t* data, size_t len,
                                    DecodeMode mode = DecodeMode::kFast);

/// Raw (uncompressed) byte size of the payload the blob encodes — the
/// denominator of a compression ratio.
uint64_t RawPayloadBytes(const AggColumns& cols);
/// The same for `rows` rows of `num_dims` dimensions.
uint64_t RawPayloadBytes(uint32_t num_dims, uint64_t rows);

}  // namespace chunkcache::storage::codec

#endif  // CHUNKCACHE_STORAGE_CODEC_H_
