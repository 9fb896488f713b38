#include "storage/codec.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <unordered_set>

#include "common/crc32c.h"
#include "common/logging.h"
#include "common/simd.h"

#if CHUNKCACHE_SIMD_X86_64
#include <immintrin.h>
#endif

namespace chunkcache::storage::codec {

namespace {

// -- varint / zigzag primitives --------------------------------------------

constexpr size_t kMaxVarintLen = 10;  // 64 bits / 7 bits per byte, rounded up

inline size_t VarintLen(uint64_t v) {
  // bit_width(0) == 0; a zero still takes one byte.
  return std::max<size_t>(1, (std::bit_width(v) + 6) / 7);
}

inline void PutVarint(std::vector<uint8_t>* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out->push_back(static_cast<uint8_t>(v));
}

/// Bounds-checked varint parse; rejects encodings longer than 10 bytes.
inline bool GetVarint(const uint8_t** p, const uint8_t* end, uint64_t* v) {
  uint64_t result = 0;
  uint32_t shift = 0;
  const uint8_t* q = *p;
  while (q < end && shift < 70) {
    const uint8_t byte = *q++;
    result |= static_cast<uint64_t>(byte & 0x7F) << (shift < 64 ? shift : 63);
    if ((byte & 0x80) == 0) {
      if (shift == 63 && (byte >> 1) != 0) return false;  // overflows 64 bits
      *p = q;
      *v = result;
      return true;
    }
    shift += 7;
  }
  return false;  // truncated or over-long
}

/// Fast-path varint parse for callers that guarantee >= kMaxVarintLen
/// readable bytes: the common one-byte case is a single branch.
inline const uint8_t* GetVarintFast(const uint8_t* p, uint64_t* v) {
  uint64_t result = *p;
  if ((result & 0x80) == 0) {
    *v = result;
    return p + 1;
  }
  result &= 0x7F;
  uint32_t shift = 7;
  do {
    const uint8_t byte = *++p;
    result |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      *v = result;
      return p + 1;
    }
    shift += 7;
  } while (shift < 64);
  return nullptr;  // over-long
}

inline uint64_t ZigzagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

inline int64_t ZigzagDecode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

inline uint64_t BitsOf(double d) {
  uint64_t b;
  std::memcpy(&b, &d, 8);
  return b;
}

inline double DoubleOf(uint64_t b) {
  double d;
  std::memcpy(&d, &b, 8);
  return d;
}

// -- cost estimators (compute the encoded size without materializing) ------

template <typename T>
size_t VarintCost(const T* v, size_t n) {
  size_t bytes = 0;
  for (size_t i = 0; i < n; ++i) bytes += VarintLen(static_cast<uint64_t>(v[i]));
  return bytes;
}

template <typename T>
size_t DeltaZigzagCost(const T* v, size_t n) {
  if (n == 0) return 0;
  size_t bytes = VarintLen(ZigzagEncode(static_cast<int64_t>(v[0])));
  for (size_t i = 1; i < n; ++i) {
    // Subtract with unsigned wraparound: u64 extremes overflow int64.
    const uint64_t delta =
        static_cast<uint64_t>(v[i]) - static_cast<uint64_t>(v[i - 1]);
    bytes += VarintLen(ZigzagEncode(static_cast<int64_t>(delta)));
  }
  return bytes;
}

template <typename T>
size_t DeltaOfDeltaCost(const T* v, size_t n) {
  if (n == 0) return 0;
  size_t bytes = VarintLen(ZigzagEncode(static_cast<int64_t>(v[0])));
  uint64_t prev_delta = 0;
  for (size_t i = 1; i < n; ++i) {
    const uint64_t delta =
        static_cast<uint64_t>(v[i]) - static_cast<uint64_t>(v[i - 1]);
    bytes += VarintLen(ZigzagEncode(static_cast<int64_t>(delta - prev_delta)));
    prev_delta = delta;
  }
  return bytes;
}

size_t XorVarintCost(const double* v, size_t n) {
  if (n == 0) return 0;
  size_t bytes = 8;
  uint64_t prev = BitsOf(v[0]);
  for (size_t i = 1; i < n; ++i) {
    const uint64_t bits = BitsOf(v[i]);
    bytes += VarintLen(bits ^ prev);
    prev = bits;
  }
  return bytes;
}

// -- dictionary candidate for u32 columns ----------------------------------

/// Distinct-value cap: a dictionary bigger than this cannot beat delta
/// coding on ordinal data, so the distinct scan gives up early.
constexpr size_t kMaxDictSize = 4096;

struct DictPlan {
  std::vector<uint32_t> values;  // sorted ascending distinct
  size_t cost = SIZE_MAX;        // encoded bytes if chosen
  uint32_t bits = 0;             // index width
};

DictPlan PlanDict(const uint32_t* v, size_t n) {
  DictPlan plan;
  if (n == 0) return plan;
  std::unordered_set<uint32_t> distinct;
  distinct.reserve(256);
  for (size_t i = 0; i < n; ++i) {
    distinct.insert(v[i]);
    if (distinct.size() > kMaxDictSize) return plan;  // not worth it
  }
  plan.values.assign(distinct.begin(), distinct.end());
  std::sort(plan.values.begin(), plan.values.end());
  plan.bits = std::max<uint32_t>(
      1, std::bit_width(static_cast<uint32_t>(plan.values.size() - 1)));
  size_t bytes = VarintLen(plan.values.size());
  uint32_t prev = 0;
  for (size_t i = 0; i < plan.values.size(); ++i) {
    bytes += VarintLen(i == 0 ? plan.values[0] : plan.values[i] - prev);
    prev = plan.values[i];
  }
  bytes += (n * plan.bits + 7) / 8;
  plan.cost = bytes;
  return plan;
}

// -- encoders ---------------------------------------------------------------

template <typename T>
void EncodeDeltaZigzag(const T* v, size_t n, std::vector<uint8_t>* out) {
  if (n == 0) return;
  PutVarint(out, ZigzagEncode(static_cast<int64_t>(v[0])));
  for (size_t i = 1; i < n; ++i) {
    const uint64_t delta =
        static_cast<uint64_t>(v[i]) - static_cast<uint64_t>(v[i - 1]);
    PutVarint(out, ZigzagEncode(static_cast<int64_t>(delta)));
  }
}

template <typename T>
void EncodeDeltaOfDelta(const T* v, size_t n, std::vector<uint8_t>* out) {
  if (n == 0) return;
  PutVarint(out, ZigzagEncode(static_cast<int64_t>(v[0])));
  uint64_t prev_delta = 0;
  for (size_t i = 1; i < n; ++i) {
    const uint64_t delta =
        static_cast<uint64_t>(v[i]) - static_cast<uint64_t>(v[i - 1]);
    PutVarint(out, ZigzagEncode(static_cast<int64_t>(delta - prev_delta)));
    prev_delta = delta;
  }
}

void EncodeDict(const uint32_t* v, size_t n, const DictPlan& plan,
                std::vector<uint8_t>* out) {
  PutVarint(out, plan.values.size());
  uint32_t prev = 0;
  for (size_t i = 0; i < plan.values.size(); ++i) {
    PutVarint(out, i == 0 ? plan.values[0] : plan.values[i] - prev);
    prev = plan.values[i];
  }
  // Bit-packed indexes, little-endian bit order within a 64-bit buffer.
  uint64_t acc = 0;
  uint32_t acc_bits = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t idx = static_cast<uint32_t>(
        std::lower_bound(plan.values.begin(), plan.values.end(), v[i]) -
        plan.values.begin());
    acc |= static_cast<uint64_t>(idx) << acc_bits;
    acc_bits += plan.bits;
    while (acc_bits >= 8) {
      out->push_back(static_cast<uint8_t>(acc));
      acc >>= 8;
      acc_bits -= 8;
    }
  }
  if (acc_bits > 0) out->push_back(static_cast<uint8_t>(acc));
}

void EncodeXorVarint(const double* v, size_t n, std::vector<uint8_t>* out) {
  if (n == 0) return;
  uint64_t prev = BitsOf(v[0]);
  const size_t at = out->size();
  out->resize(at + 8);
  std::memcpy(out->data() + at, &prev, 8);
  for (size_t i = 1; i < n; ++i) {
    const uint64_t bits = BitsOf(v[i]);
    PutVarint(out, bits ^ prev);
    prev = bits;
  }
}

template <typename T>
void EncodeRaw(const T* v, size_t n, std::vector<uint8_t>* out) {
  if (n == 0) return;  // empty vectors may hand us data() == nullptr
  const size_t at = out->size();
  out->resize(at + n * sizeof(T));
  std::memcpy(out->data() + at, v, n * sizeof(T));
}

void NoteCodec(CodecStats* stats, ColumnCodec codec, size_t raw,
               size_t encoded) {
  if (stats == nullptr) return;
  const size_t i = static_cast<size_t>(codec);
  stats->raw_bytes[i] += raw;
  stats->encoded_bytes[i] += encoded;
  stats->columns[i] += 1;
}

/// Emits `tag | varint(payload_len) | payload` by encoding into `*out`
/// directly: the payload length is computed up front by the cost
/// estimators, so no second buffer or memmove is needed.
template <typename EncodeFn>
void EmitColumn(std::vector<uint8_t>* out, ColumnCodec tag,
                size_t payload_len, EncodeFn&& encode) {
  out->push_back(static_cast<uint8_t>(tag));
  PutVarint(out, payload_len);
  const size_t at = out->size();
  encode(out);
  CHUNKCACHE_DCHECK(out->size() - at == payload_len);
  (void)at;
}

// -- column decode helpers --------------------------------------------------

struct ColumnHeader {
  ColumnCodec codec;
  const uint8_t* payload;
  size_t len;
};

Status ReadColumnHeader(const uint8_t** p, const uint8_t* end,
                        ColumnHeader* h) {
  if (*p >= end) return Status::Corruption("codec: truncated column tag");
  const uint8_t tag = *(*p)++;
  if (tag >= kNumCodecs) return Status::Corruption("codec: bad column tag");
  uint64_t len;
  if (!GetVarint(p, end, &len)) {
    return Status::Corruption("codec: bad column length");
  }
  if (len > static_cast<uint64_t>(end - *p)) {
    return Status::Corruption("codec: column length beyond input");
  }
  h->codec = static_cast<ColumnCodec>(tag);
  h->payload = *p;
  h->len = static_cast<size_t>(len);
  *p += len;
  return Status::OK();
}

#if CHUNKCACHE_SIMD_X86_64

/// kPextByLen[k] selects the low 7 bits of each of the first k bytes.
constexpr uint64_t kPextByLen[9] = {
    0,
    0x7f,
    0x7f7f,
    0x7f7f7f,
    0x7f7f7f7f,
    0x7f7f7f7fULL | (0x7fULL << 32),
    0x7f7f7f7f7f7fULL,
    0x7f7f7f7f7f7f7fULL,
    0x7f7f7f7f7f7f7f7fULL,
};

/// One step of the PEXT varint parse: reads the 8-byte window at `*p`
/// (caller guarantees 8 readable bytes), decodes a varint of up to 8
/// bytes with TZCNT over the inverted continuation bits plus a single
/// PEXT of the 7-bit payload groups, and advances `*p`. Returns false
/// when the window has no terminator (a 9- or 10-byte varint, i.e. a
/// value >= 2^56) — the caller falls back to the scalar parser for that
/// varint, so the accepted language and decoded values stay exactly
/// those of the scalar path.
__attribute__((target("bmi,bmi2"))) inline bool PextVarintStep(
    const uint8_t** p, uint64_t* v) {
  uint64_t w;
  std::memcpy(&w, *p, 8);
  const uint64_t stops = ~w & 0x8080808080808080ULL;
  if (stops == 0) return false;
  const unsigned len = static_cast<unsigned>(_tzcnt_u64(stops) >> 3) + 1;
  *v = _pext_u64(w, kPextByLen[len]);
  *p += len;
  return true;
}

/// BMI2 varint stream parse. Single-varint decode is one 8-byte load +
/// TZCNT + PEXT (see PextVarintStep), but throughput is bound by the
/// serial cursor-advance chain (~10 cycles: load -> ANDN -> TZCNT ->
/// advance), so for long streams the parse runs TWO cursors interleaved:
/// a movemask pre-scan counts stop bytes (exactly one per varint —
/// 32 bytes per POPCNT) to locate where varint n/2 ends, and the two
/// halves then parse as independent dependency chains that the CPU
/// overlaps. Because the second cursor emits indices [n/2, n) while the
/// first is still below n/2, `fn` must be a pure index-addressed store —
/// which every kFast decode callback is (reconstruction happens in a
/// separate vector pass).
template <typename Fn>
__attribute__((target("avx2,bmi,bmi2"))) Status DecodeVarintStreamBmi2(
    const ColumnHeader& h, size_t n, Fn&& fn) {
  const uint8_t* p = h.payload;
  const uint8_t* end = h.payload + h.len;
  size_t i = 0;
  if (n >= 512 && h.len >= 64) {
    // Pre-scan for where varints n/4, n/2 and 3n/4 end: the positions of
    // the k-th bytes with their high bit clear. PDEP(1 << j, mask)
    // isolates the j-th set bit of a 32-byte block's stop mask.
    const size_t targets[3] = {n / 4, n / 2, n / 2 + n / 4};
    const uint8_t* splits[3] = {nullptr, nullptr, nullptr};
    size_t count = 0;
    int found = 0;
    for (const uint8_t* q = p; q + 32 <= end && found < 3; q += 32) {
      const __m256i block =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(q));
      const uint32_t stops =
          ~static_cast<uint32_t>(_mm256_movemask_epi8(block));
      const unsigned c = static_cast<unsigned>(_mm_popcnt_u32(stops));
      while (found < 3 && count + c >= targets[found]) {
        const uint32_t kth = _pdep_u32(
            uint32_t{1} << (targets[found] - count - 1), stops);
        splits[found] = q + _tzcnt_u32(kth) + 1;
        ++found;
      }
      count += c;
    }
    if (found == 3) {
      // Four interleaved cursors, one per quarter of the stream: four
      // independent load->TZCNT->advance chains the CPU overlaps. A
      // cursor may peek (not consume) past its boundary; in a
      // well-formed stream each lands exactly on its split, which the
      // pc[k] == splits[k] checks enforce after the fact. Malformed
      // streams can emit garbage values before a check fires; every
      // caller discards its output on error.
      const uint8_t* pc[4] = {p, splits[0], splits[1], splits[2]};
      size_t ic[4] = {0, targets[0], targets[1], targets[2]};
      const size_t lim[4] = {targets[0], targets[1], targets[2], n};
      // A 9- or 10-byte varint (PextVarintStep returns false) must NOT
      // abort the interleave — columns whose values straddle wide
      // exponent ranges hit one every few thousand varints, and
      // degrading the rest of the stream to the checked parser costs
      // 3x. GetVarint handles just that varint and the cursors carry on.
      while (ic[0] < lim[0] && ic[1] < lim[1] && ic[2] < lim[2] &&
             ic[3] < lim[3] && end - pc[0] >= 8 && end - pc[1] >= 8 &&
             end - pc[2] >= 8 && end - pc[3] >= 8) {
        uint64_t v0, v1, v2, v3;
        if (!PextVarintStep(&pc[0], &v0) && !GetVarint(&pc[0], end, &v0)) {
          return Status::Corruption("codec: truncated varint stream");
        }
        fn(ic[0]++, v0);
        if (!PextVarintStep(&pc[1], &v1) && !GetVarint(&pc[1], end, &v1)) {
          return Status::Corruption("codec: truncated varint stream");
        }
        fn(ic[1]++, v1);
        if (!PextVarintStep(&pc[2], &v2) && !GetVarint(&pc[2], end, &v2)) {
          return Status::Corruption("codec: truncated varint stream");
        }
        fn(ic[2]++, v2);
        if (!PextVarintStep(&pc[3], &v3) && !GetVarint(&pc[3], end, &v3)) {
          return Status::Corruption("codec: truncated varint stream");
        }
        fn(ic[3]++, v3);
      }
      // Drain cursors 0-2 to their boundaries; cursor 3 hands its
      // progress to the shared single-cursor tail below.
      for (int k = 0; k < 3; ++k) {
        while (ic[k] < lim[k] && end - pc[k] >= 8) {
          uint64_t v;
          if (!PextVarintStep(&pc[k], &v) && !GetVarint(&pc[k], end, &v)) {
            return Status::Corruption("codec: truncated varint stream");
          }
          fn(ic[k]++, v);
        }
        for (; ic[k] < lim[k]; ++ic[k]) {
          uint64_t v;
          if (!GetVarint(&pc[k], end, &v)) {
            return Status::Corruption("codec: truncated varint stream");
          }
          fn(ic[k], v);
        }
        if (pc[k] != splits[k]) {
          return Status::Corruption("codec: varint stream split mismatch");
        }
      }
      p = pc[3];
      i = ic[3];
    }
  }
  while (i < n && end - p >= 8) {
    uint64_t v;
    if (!PextVarintStep(&p, &v)) {  // 9- or 10-byte varint
      if (!GetVarint(&p, end, &v)) {
        return Status::Corruption("codec: truncated varint stream");
      }
    }
    fn(i++, v);
  }
  for (; i < n; ++i) {
    uint64_t v;
    if (!GetVarint(&p, end, &v)) {
      return Status::Corruption("codec: truncated varint stream");
    }
    fn(i, v);
  }
  if (p != end) return Status::Corruption("codec: trailing column bytes");
  return Status::OK();
}

#endif  // CHUNKCACHE_SIMD_X86_64

/// Decodes a varint stream of exactly `n` values into `fn(i, value)`.
/// kFast uses the unchecked parser while >= kMaxVarintLen bytes remain;
/// under AVX2 dispatch it parses with the BMI2 PEXT kernel instead. Both
/// fast parsers accept the same streams and produce the same values as
/// the checked one, so the dispatch level never changes results.
template <typename Fn>
Status DecodeVarintStream(const ColumnHeader& h, size_t n, DecodeMode mode,
                          Fn&& fn) {
#if CHUNKCACHE_SIMD_X86_64
  // Streams averaging under two bytes per varint stay on the scalar fast
  // parser: its one-byte path is a single predicted branch (~1 cycle),
  // which the PEXT sequence cannot beat. The PEXT win grows with varint
  // length — at the 8-byte varints XOR'd doubles produce it is ~3x.
  if (mode == DecodeMode::kFast &&
      simd::ActiveLevel() == simd::IsaLevel::kAvx2 && h.len >= 2 * n) {
    return DecodeVarintStreamBmi2(h, n, std::forward<Fn>(fn));
  }
#endif
  const uint8_t* p = h.payload;
  const uint8_t* end = h.payload + h.len;
  size_t i = 0;
  if (mode == DecodeMode::kFast) {
    while (i < n && end - p >= static_cast<ptrdiff_t>(kMaxVarintLen)) {
      uint64_t v;
      const uint8_t* q = GetVarintFast(p, &v);
      if (q == nullptr) return Status::Corruption("codec: over-long varint");
      p = q;
      fn(i++, v);
    }
  }
  for (; i < n; ++i) {
    uint64_t v;
    if (!GetVarint(&p, end, &v)) {
      return Status::Corruption("codec: truncated varint stream");
    }
    fn(i, v);
  }
  if (p != end) return Status::Corruption("codec: trailing column bytes");
  return Status::OK();
}

template <typename T>
Status DecodeRawColumn(const ColumnHeader& h, size_t n, std::vector<T>* out) {
  if (h.len != n * sizeof(T)) {
    return Status::Corruption("codec: raw column size mismatch");
  }
  if (n == 0) return Status::OK();
  const size_t at = out->size();
  out->resize(at + n);
  std::memcpy(out->data() + at, h.payload, h.len);
  return Status::OK();
}

#if CHUNKCACHE_SIMD_X86_64

// -- AVX2 fast-decode kernels ------------------------------------------------
//
// The varint *parse* stays scalar (it is inherently serial); what
// vectorizes is the reconstruction: zigzag undo, prefix-sum / prefix-xor
// chains, and the dict bit-unpack. All reconstruction arithmetic is 64-bit
// integer add/xor/shift — associative mod 2^64 — so regrouping the scalar
// running chains into 4-lane prefix networks is bit-exact.

/// Parse target for the split parse/reconstruct pipeline. Thread-local so
/// concurrent chunk decodes never share or reallocate per call.
thread_local std::vector<uint64_t> tls_decode_scratch;

/// [0, x0, x1, x2]
__attribute__((target("avx2"))) inline __m256i ShiftLanesLeft1(__m256i x) {
  const __m256i p = _mm256_permute4x64_epi64(x, _MM_SHUFFLE(2, 1, 0, 0));
  return _mm256_blend_epi32(p, _mm256_setzero_si256(), 0x03);
}

/// [0, 0, x0, x1]
__attribute__((target("avx2"))) inline __m256i ShiftLanesLeft2(__m256i x) {
  const __m256i p = _mm256_permute4x64_epi64(x, _MM_SHUFFLE(1, 0, 0, 0));
  return _mm256_blend_epi32(p, _mm256_setzero_si256(), 0x0F);
}

/// In place: v[i] = ZigzagDecode(v[i]).
__attribute__((target("avx2"))) void ZigzagDecodeAvx2(uint64_t* v, size_t n) {
  const __m256i one = _mm256_set1_epi64x(1);
  const __m256i zero = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i x = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + i));
    const __m256i sign = _mm256_sub_epi64(zero, _mm256_and_si256(x, one));
    x = _mm256_xor_si256(_mm256_srli_epi64(x, 1), sign);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(v + i), x);
  }
  for (; i < n; ++i) v[i] = static_cast<uint64_t>(ZigzagDecode(v[i]));
}

/// In place inclusive prefix sum with carry-in: v[i] = seed + v[0]+..+v[i].
__attribute__((target("avx2"))) void PrefixSumAvx2(uint64_t* v, size_t n,
                                                   uint64_t seed) {
  __m256i run = _mm256_set1_epi64x(static_cast<long long>(seed));
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i x = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + i));
    x = _mm256_add_epi64(x, ShiftLanesLeft1(x));
    x = _mm256_add_epi64(x, ShiftLanesLeft2(x));
    x = _mm256_add_epi64(x, run);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(v + i), x);
    run = _mm256_permute4x64_epi64(x, 0xFF);  // broadcast new running total
  }
  uint64_t acc = i == 0 ? seed : v[i - 1];
  for (; i < n; ++i) {
    acc += v[i];
    v[i] = acc;
  }
}

/// In place inclusive prefix xor with carry-in.
__attribute__((target("avx2"))) void PrefixXorAvx2(uint64_t* v, size_t n,
                                                   uint64_t seed) {
  __m256i run = _mm256_set1_epi64x(static_cast<long long>(seed));
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i x = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + i));
    x = _mm256_xor_si256(x, ShiftLanesLeft1(x));
    x = _mm256_xor_si256(x, ShiftLanesLeft2(x));
    x = _mm256_xor_si256(x, run);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(v + i), x);
    run = _mm256_permute4x64_epi64(x, 0xFF);
  }
  uint64_t acc = i == 0 ? seed : v[i - 1];
  for (; i < n; ++i) {
    acc ^= v[i];
    v[i] = acc;
  }
}

/// Unpacks `n` bit-packed dict indexes of width `bits` from `p` (holding
/// `avail` bytes, already size-validated as ceil(n*bits/8)) and translates
/// them through dict[0..dict_size). Four indexes per step: one 8-byte load
/// broadcast to all lanes, variable right shifts, mask, then a gather
/// through the dictionary. Little-endian bit order matches the scalar
/// accumulator loop exactly. Returns false on an out-of-range index.
__attribute__((target("avx2"))) bool DictUnpackAvx2(const uint8_t* p,
                                                    size_t avail, size_t n,
                                                    uint32_t bits,
                                                    const uint32_t* dict,
                                                    size_t dict_size,
                                                    uint32_t* dst) {
  const uint64_t mask = (uint64_t{1} << bits) - 1;
  const __m256i vmask = _mm256_set1_epi64x(static_cast<long long>(mask));
  const __m256i max_idx =
      _mm256_set1_epi64x(static_cast<long long>(dict_size - 1));
  // Lane r shifts by r*bits more; bits <= 12, so the worst shift is
  // 7 + 3*12 + 12 = 55 bits — four indexes always fit one 8-byte load.
  const __m256i step = _mm256_set_epi64x(3 * bits, 2 * bits, bits, 0);
  size_t i = 0;
  uint64_t bitpos = 0;
  for (; i + 4 <= n; i += 4) {
    const size_t byte = bitpos >> 3;
    if (byte + 8 > avail) break;  // near the end: fall through to scalar
    uint64_t w;
    std::memcpy(&w, p + byte, 8);
    const __m256i sh = _mm256_add_epi64(
        _mm256_set1_epi64x(static_cast<long long>(bitpos & 7)), step);
    const __m256i idx = _mm256_and_si256(
        _mm256_srlv_epi64(_mm256_set1_epi64x(static_cast<long long>(w)), sh),
        vmask);
    if (_mm256_movemask_epi8(_mm256_cmpgt_epi64(idx, max_idx)) != 0) {
      return false;
    }
    const __m128i vals =
        _mm256_i64gather_epi32(reinterpret_cast<const int*>(dict), idx, 4);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), vals);
    bitpos += 4 * bits;
  }
  for (; i < n; ++i) {
    const size_t byte = bitpos >> 3;
    const uint32_t shift = static_cast<uint32_t>(bitpos & 7);
    uint64_t w = 0;
    std::memcpy(&w, p + byte, std::min<size_t>(8, avail - byte));
    const uint64_t idx = (w >> shift) & mask;
    if (idx >= dict_size) return false;
    dst[i] = dict[static_cast<size_t>(idx)];
    bitpos += bits;
  }
  return true;
}

/// Shared AVX2 fast path for the delta and delta-of-delta int codecs:
/// scalar-parse the varints into scratch, then reconstruct with vector
/// zigzag + prefix-sum passes (twice for delta-of-delta).
template <typename T>
Status DecodeDeltaAvx2(const ColumnHeader& h, size_t n, std::vector<T>* out,
                       bool delta_of_delta) {
  std::vector<uint64_t>& scratch = tls_decode_scratch;
  scratch.resize(n);
  uint64_t* s = scratch.data();
  Status st = DecodeVarintStream(h, n, DecodeMode::kFast,
                                 [s](size_t i, uint64_t v) { s[i] = v; });
  if (!st.ok()) return st;
  ZigzagDecodeAvx2(s, n);
  if (delta_of_delta) {
    if (n > 1) {
      PrefixSumAvx2(s + 1, n - 1, 0);     // second differences -> deltas
      PrefixSumAvx2(s + 1, n - 1, s[0]);  // deltas -> values
    }
  } else {
    PrefixSumAvx2(s, n, 0);
  }
  const size_t at = out->size();
  out->resize(at + n);
  T* dst = out->data() + at;
  for (size_t i = 0; i < n; ++i) dst[i] = static_cast<T>(s[i]);
  return Status::OK();
}

#endif  // CHUNKCACHE_SIMD_X86_64

template <typename T>
Status DecodeIntColumn(const ColumnHeader& h, size_t n, std::vector<T>* out,
                       DecodeMode mode) {
  const size_t at = out->size();
  switch (h.codec) {
    case ColumnCodec::kRaw:
      return DecodeRawColumn(h, n, out);
    case ColumnCodec::kVarint: {
      out->resize(at + n);
      T* dst = out->data() + at;
      Status s = DecodeVarintStream(h, n, mode, [&](size_t i, uint64_t v) {
        dst[i] = static_cast<T>(v);
      });
      if (!s.ok()) out->resize(at);
      return s;
    }
    case ColumnCodec::kDeltaZigzag: {
#if CHUNKCACHE_SIMD_X86_64
      if (mode == DecodeMode::kFast &&
          simd::ActiveLevel() == simd::IsaLevel::kAvx2) {
        return DecodeDeltaAvx2(h, n, out, /*delta_of_delta=*/false);
      }
#endif
      out->resize(at + n);
      T* dst = out->data() + at;
      uint64_t prev = 0;
      Status s = DecodeVarintStream(h, n, mode, [&](size_t i, uint64_t v) {
        prev = (i == 0 ? uint64_t{0} : prev) +
               static_cast<uint64_t>(ZigzagDecode(v));
        dst[i] = static_cast<T>(prev);
      });
      if (!s.ok()) out->resize(at);
      return s;
    }
    case ColumnCodec::kDeltaOfDelta: {
#if CHUNKCACHE_SIMD_X86_64
      if (mode == DecodeMode::kFast &&
          simd::ActiveLevel() == simd::IsaLevel::kAvx2) {
        return DecodeDeltaAvx2(h, n, out, /*delta_of_delta=*/true);
      }
#endif
      out->resize(at + n);
      T* dst = out->data() + at;
      uint64_t prev = 0;
      uint64_t prev_delta = 0;
      Status s = DecodeVarintStream(h, n, mode, [&](size_t i, uint64_t v) {
        if (i == 0) {
          prev = static_cast<uint64_t>(ZigzagDecode(v));
        } else {
          prev_delta += static_cast<uint64_t>(ZigzagDecode(v));
          prev += prev_delta;
        }
        dst[i] = static_cast<T>(prev);
      });
      if (!s.ok()) out->resize(at);
      return s;
    }
    case ColumnCodec::kDict: {
      if constexpr (sizeof(T) != 4) {
        return Status::Corruption("codec: dict codec on non-u32 column");
      } else {
        const uint8_t* p = h.payload;
        const uint8_t* end = h.payload + h.len;
        uint64_t dict_size;
        if (!GetVarint(&p, end, &dict_size) || dict_size == 0 ||
            dict_size > kMaxDictSize) {
          return Status::Corruption("codec: bad dictionary size");
        }
        std::vector<uint32_t> dict(static_cast<size_t>(dict_size));
        uint64_t prev = 0;
        for (size_t i = 0; i < dict.size(); ++i) {
          uint64_t d;
          if (!GetVarint(&p, end, &d)) {
            return Status::Corruption("codec: truncated dictionary");
          }
          prev = i == 0 ? d : prev + d;
          if (prev > UINT32_MAX) {
            return Status::Corruption("codec: dictionary value overflow");
          }
          dict[i] = static_cast<uint32_t>(prev);
        }
        const uint32_t bits = std::max<uint32_t>(
            1, std::bit_width(static_cast<uint32_t>(dict.size() - 1)));
        if (static_cast<uint64_t>(end - p) != (n * bits + 7) / 8) {
          return Status::Corruption("codec: dict index block size mismatch");
        }
        out->resize(at + n);
        T* dst = out->data() + at;
#if CHUNKCACHE_SIMD_X86_64
        if (mode == DecodeMode::kFast &&
            simd::ActiveLevel() == simd::IsaLevel::kAvx2) {
          if (!DictUnpackAvx2(p, static_cast<size_t>(end - p), n, bits,
                              dict.data(), dict.size(), dst)) {
            out->resize(at);
            return Status::Corruption("codec: dict index out of range");
          }
          return Status::OK();
        }
#endif
        uint64_t acc = 0;
        uint32_t acc_bits = 0;
        const uint64_t mask = (uint64_t{1} << bits) - 1;
        for (size_t i = 0; i < n; ++i) {
          while (acc_bits < bits) {
            acc |= static_cast<uint64_t>(*p++) << acc_bits;
            acc_bits += 8;
          }
          const uint64_t idx = acc & mask;
          acc >>= bits;
          acc_bits -= bits;
          if (idx >= dict.size()) {
            out->resize(at);
            return Status::Corruption("codec: dict index out of range");
          }
          dst[i] = dict[static_cast<size_t>(idx)];
        }
        return Status::OK();
      }
    }
    case ColumnCodec::kXorVarint:
      return Status::Corruption("codec: xor codec on integer column");
  }
  return Status::Corruption("codec: unreachable tag");
}

}  // namespace

const char* CodecName(ColumnCodec c) {
  switch (c) {
    case ColumnCodec::kRaw:
      return "raw";
    case ColumnCodec::kVarint:
      return "varint";
    case ColumnCodec::kDeltaZigzag:
      return "delta";
    case ColumnCodec::kDeltaOfDelta:
      return "dod";
    case ColumnCodec::kDict:
      return "dict";
    case ColumnCodec::kXorVarint:
      return "xor";
  }
  return "unknown";
}

void EncodeU32Column(const uint32_t* v, size_t n, std::vector<uint8_t>* out,
                     CodecStats* stats) {
  const size_t raw_cost = n * 4;
  const size_t delta_cost = DeltaZigzagCost(v, n);
  const size_t dod_cost = DeltaOfDeltaCost(v, n);
  const DictPlan dict = PlanDict(v, n);

  size_t best_cost = raw_cost;
  ColumnCodec best = ColumnCodec::kRaw;
  if (delta_cost < best_cost) best_cost = delta_cost, best = ColumnCodec::kDeltaZigzag;
  if (dod_cost < best_cost) best_cost = dod_cost, best = ColumnCodec::kDeltaOfDelta;
  if (dict.cost < best_cost) best_cost = dict.cost, best = ColumnCodec::kDict;

  EmitColumn(out, best, best_cost, [&](std::vector<uint8_t>* dst) {
    switch (best) {
      case ColumnCodec::kRaw:
        EncodeRaw(v, n, dst);
        break;
      case ColumnCodec::kDeltaZigzag:
        EncodeDeltaZigzag(v, n, dst);
        break;
      case ColumnCodec::kDeltaOfDelta:
        EncodeDeltaOfDelta(v, n, dst);
        break;
      case ColumnCodec::kDict:
        EncodeDict(v, n, dict, dst);
        break;
      default:
        break;
    }
  });
  NoteCodec(stats, best, raw_cost, best_cost);
}

void EncodeU64Column(const uint64_t* v, size_t n, std::vector<uint8_t>* out,
                     CodecStats* stats) {
  const size_t raw_cost = n * 8;
  const size_t varint_cost = VarintCost(v, n);
  const size_t delta_cost = DeltaZigzagCost(v, n);

  size_t best_cost = raw_cost;
  ColumnCodec best = ColumnCodec::kRaw;
  if (varint_cost < best_cost) best_cost = varint_cost, best = ColumnCodec::kVarint;
  if (delta_cost < best_cost) best_cost = delta_cost, best = ColumnCodec::kDeltaZigzag;

  EmitColumn(out, best, best_cost, [&](std::vector<uint8_t>* dst) {
    switch (best) {
      case ColumnCodec::kRaw:
        EncodeRaw(v, n, dst);
        break;
      case ColumnCodec::kVarint:
        for (size_t i = 0; i < n; ++i) PutVarint(dst, v[i]);
        break;
      case ColumnCodec::kDeltaZigzag:
        EncodeDeltaZigzag(v, n, dst);
        break;
      default:
        break;
    }
  });
  NoteCodec(stats, best, raw_cost, best_cost);
}

void EncodeF64Column(const double* v, size_t n, std::vector<uint8_t>* out,
                     CodecStats* stats) {
  const size_t raw_cost = n * 8;
  const size_t xor_cost = XorVarintCost(v, n);

  size_t best_cost = raw_cost;
  ColumnCodec best = ColumnCodec::kRaw;
  if (xor_cost < best_cost) best_cost = xor_cost, best = ColumnCodec::kXorVarint;

  EmitColumn(out, best, best_cost, [&](std::vector<uint8_t>* dst) {
    if (best == ColumnCodec::kRaw) {
      EncodeRaw(v, n, dst);
    } else {
      EncodeXorVarint(v, n, dst);
    }
  });
  NoteCodec(stats, best, raw_cost, best_cost);
}

Status DecodeU32Column(const uint8_t** p, const uint8_t* end, size_t n,
                       std::vector<uint32_t>* out, DecodeMode mode) {
  ColumnHeader h;
  CHUNKCACHE_RETURN_IF_ERROR(ReadColumnHeader(p, end, &h));
  return DecodeIntColumn(h, n, out, mode);
}

Status DecodeU64Column(const uint8_t** p, const uint8_t* end, size_t n,
                       std::vector<uint64_t>* out, DecodeMode mode) {
  ColumnHeader h;
  CHUNKCACHE_RETURN_IF_ERROR(ReadColumnHeader(p, end, &h));
  return DecodeIntColumn(h, n, out, mode);
}

Status DecodeF64Column(const uint8_t** p, const uint8_t* end, size_t n,
                       std::vector<double>* out, DecodeMode mode) {
  ColumnHeader h;
  CHUNKCACHE_RETURN_IF_ERROR(ReadColumnHeader(p, end, &h));
  const size_t at = out->size();
  switch (h.codec) {
    case ColumnCodec::kRaw:
      return DecodeRawColumn(h, n, out);
    case ColumnCodec::kXorVarint: {
      if (n == 0) {
        return h.len == 0 ? Status::OK()
                          : Status::Corruption("codec: trailing column bytes");
      }
      if (h.len < 8) return Status::Corruption("codec: truncated xor column");
      uint64_t prev;
      std::memcpy(&prev, h.payload, 8);
      out->resize(at + n);
      double* dst = out->data() + at;
      dst[0] = DoubleOf(prev);
      const ColumnHeader rest{h.codec, h.payload + 8, h.len - 8};
#if CHUNKCACHE_SIMD_X86_64
      if (mode == DecodeMode::kFast &&
          simd::ActiveLevel() == simd::IsaLevel::kAvx2) {
        std::vector<uint64_t>& scratch = tls_decode_scratch;
        scratch.resize(n - 1);
        uint64_t* s64 = scratch.data();
        Status s = DecodeVarintStream(
            rest, n - 1, DecodeMode::kFast,
            [s64](size_t i, uint64_t v) { s64[i] = v; });
        if (!s.ok()) {
          out->resize(at);
          return s;
        }
        PrefixXorAvx2(s64, n - 1, prev);
        // The xor chain yields the raw IEEE bit patterns; bulk-bitcast.
        if (n > 1) std::memcpy(dst + 1, s64, (n - 1) * 8);
        return Status::OK();
      }
#endif
      Status s =
          DecodeVarintStream(rest, n - 1, mode, [&](size_t i, uint64_t v) {
            prev ^= v;
            dst[i + 1] = DoubleOf(prev);
          });
      if (!s.ok()) out->resize(at);
      return s;
    }
    default:
      return Status::Corruption("codec: bad codec for double column");
  }
}

namespace {

constexpr uint8_t kAggBlobTag = 0xA1;

/// Blob epilogue: CRC32C over [data, data+len).
void AppendCrc(std::vector<uint8_t>* out, size_t from) {
  const uint32_t crc = Crc32c(out->data() + from, out->size() - from);
  const size_t at = out->size();
  out->resize(at + 4);
  std::memcpy(out->data() + at, &crc, 4);
}

/// Validates the trailing CRC and the Agg blob tag; on success sets `*p` past
/// the tag and `*end` to the start of the CRC, and parses num_dims +
/// num_rows. A claimed row count is sanity-bounded against the input
/// length (every active column costs at least one bit per row), so a
/// corrupt header can never drive a huge allocation.
Status OpenBlob(const uint8_t* data, size_t len, const uint8_t** p,
                const uint8_t** end, uint32_t* num_dims, size_t* num_rows) {
  if (len < 6) return Status::Corruption("codec: blob too short");
  uint32_t crc_stored;
  std::memcpy(&crc_stored, data + len - 4, 4);
  if (Crc32c(data, len - 4) != crc_stored) {
    return Status::Corruption("codec: blob checksum mismatch");
  }
  *p = data;
  *end = data + len - 4;
  const uint8_t tag = *(*p)++;
  if (tag != kAggBlobTag) return Status::Corruption("codec: bad blob tag");
  if (*p >= *end) return Status::Corruption("codec: truncated blob header");
  *num_dims = *(*p)++;
  if (*num_dims > kMaxDims) {
    return Status::Corruption("codec: bad dimension count");
  }
  uint64_t rows;
  if (!GetVarint(p, *end, &rows)) {
    return Status::Corruption("codec: bad row count");
  }
  if (rows > 8 * len) {
    return Status::Corruption("codec: row count beyond input size");
  }
  *num_rows = static_cast<size_t>(rows);
  return Status::OK();
}

}  // namespace

uint64_t RawPayloadBytes(const AggColumns& cols) {
  return RawPayloadBytes(cols.num_dims(), cols.size());
}

uint64_t RawPayloadBytes(uint32_t num_dims, uint64_t rows) {
  return rows * (num_dims * 4ull + 32ull);
}

void EncodeAggColumns(const AggColumns& cols, std::vector<uint8_t>* out,
                      CodecStats* stats) {
  const size_t from = out->size();
  out->push_back(kAggBlobTag);
  out->push_back(static_cast<uint8_t>(cols.num_dims()));
  PutVarint(out, cols.size());
  const size_t n = cols.size();
  for (uint32_t d = 0; d < cols.num_dims(); ++d) {
    EncodeU32Column(cols.coords(d).data(), n, out, stats);
  }
  EncodeF64Column(cols.sums().data(), n, out, stats);
  EncodeU64Column(cols.counts().data(), n, out, stats);
  EncodeF64Column(cols.mins().data(), n, out, stats);
  EncodeF64Column(cols.maxs().data(), n, out, stats);
  AppendCrc(out, from);
}

Result<AggColumns> DecodeAggColumns(const uint8_t* data, size_t len,
                                    DecodeMode mode) {
  const uint8_t* p = nullptr;
  const uint8_t* end = nullptr;
  uint32_t num_dims = 0;
  size_t n = 0;
  CHUNKCACHE_RETURN_IF_ERROR(OpenBlob(data, len, &p, &end, &num_dims, &n));
  AggColumns cols(num_dims);
  cols.Reserve(n);
  for (uint32_t d = 0; d < num_dims; ++d) {
    CHUNKCACHE_RETURN_IF_ERROR(
        DecodeU32Column(&p, end, n, cols.mutable_coords(d), mode));
  }
  CHUNKCACHE_RETURN_IF_ERROR(
      DecodeF64Column(&p, end, n, cols.mutable_sums(), mode));
  CHUNKCACHE_RETURN_IF_ERROR(
      DecodeU64Column(&p, end, n, cols.mutable_counts(), mode));
  CHUNKCACHE_RETURN_IF_ERROR(
      DecodeF64Column(&p, end, n, cols.mutable_mins(), mode));
  CHUNKCACHE_RETURN_IF_ERROR(
      DecodeF64Column(&p, end, n, cols.mutable_maxs(), mode));
  if (p != end) return Status::Corruption("codec: trailing blob bytes");
  return cols;
}

}  // namespace chunkcache::storage::codec
