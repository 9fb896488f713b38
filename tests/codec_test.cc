// Property tests for the chunk-payload codec layer: every codec must
// round-trip losslessly (bit-level for doubles), the fast decoder must
// agree with the checked reference decoder on every blob, and arbitrarily
// corrupted input must come back as Status — never a crash or over-read.

#include "storage/codec.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "common/crc32c.h"
#include "common/simd.h"
#include "gtest/gtest.h"
#include "storage/agg_columns.h"

namespace chunkcache::storage::codec {
namespace {

// Bit-level equality: NaNs and signed zeros must survive exactly, so
// operator== on doubles is not good enough.
bool BitsEqual(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  return a.empty() ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

void ExpectAggBitIdentical(const AggColumns& a, const AggColumns& b) {
  ASSERT_EQ(a.num_dims(), b.num_dims());
  ASSERT_EQ(a.size(), b.size());
  for (uint32_t d = 0; d < a.num_dims(); ++d) {
    EXPECT_EQ(a.coords(d), b.coords(d)) << "dim " << d;
  }
  EXPECT_TRUE(BitsEqual(a.sums(), b.sums()));
  EXPECT_EQ(a.counts(), b.counts());
  EXPECT_TRUE(BitsEqual(a.mins(), b.mins()));
  EXPECT_TRUE(BitsEqual(a.maxs(), b.maxs()));
}

template <typename T>
void RoundTripU32(const std::vector<T>& v) {
  std::vector<uint8_t> buf;
  EncodeU32Column(v.data(), v.size(), &buf);
  for (DecodeMode mode : {DecodeMode::kFast, DecodeMode::kReference}) {
    const uint8_t* p = buf.data();
    std::vector<uint32_t> out;
    ASSERT_TRUE(
        DecodeU32Column(&p, buf.data() + buf.size(), v.size(), &out, mode)
            .ok());
    EXPECT_EQ(p, buf.data() + buf.size()) << "column not fully consumed";
    EXPECT_EQ(out, v);
  }
}

TEST(CodecColumn, U32Distributions) {
  RoundTripU32(std::vector<uint32_t>{});                  // empty
  RoundTripU32(std::vector<uint32_t>{42});                // single row
  RoundTripU32(std::vector<uint32_t>(1000, 7));           // constant (dict)
  std::vector<uint32_t> sorted(777);
  for (size_t i = 0; i < sorted.size(); ++i) sorted[i] = uint32_t(3 * i);
  RoundTripU32(sorted);                                   // linear (dod)
  std::mt19937 rng(7);
  std::vector<uint32_t> lowcard(2000);
  for (auto& x : lowcard) x = rng() % 17;                 // dict-packable
  RoundTripU32(lowcard);
  std::vector<uint32_t> random(1500);
  for (auto& x : random) x = rng();                       // raw fallback
  RoundTripU32(random);
  RoundTripU32(std::vector<uint32_t>{0, std::numeric_limits<uint32_t>::max(),
                                     0, std::numeric_limits<uint32_t>::max()});
}

TEST(CodecColumn, U64Distributions) {
  for (auto v : {std::vector<uint64_t>{},
                 std::vector<uint64_t>{1},
                 std::vector<uint64_t>(500, 1),  // counts are mostly 1
                 std::vector<uint64_t>{0, std::numeric_limits<uint64_t>::max(),
                                       1, (1ull << 63)}}) {
    std::vector<uint8_t> buf;
    EncodeU64Column(v.data(), v.size(), &buf);
    for (DecodeMode mode : {DecodeMode::kFast, DecodeMode::kReference}) {
      const uint8_t* p = buf.data();
      std::vector<uint64_t> out;
      ASSERT_TRUE(
          DecodeU64Column(&p, buf.data() + buf.size(), v.size(), &out, mode)
              .ok());
      EXPECT_EQ(out, v);
    }
  }
}

TEST(CodecColumn, F64EdgeValuesBitExact) {
  const std::vector<double> v = {
      0.0,
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::epsilon(),
      1.0,
      1.0000000000000002,  // adjacent representable values: 1-bit XOR
  };
  std::vector<uint8_t> buf;
  EncodeF64Column(v.data(), v.size(), &buf);
  for (DecodeMode mode : {DecodeMode::kFast, DecodeMode::kReference}) {
    const uint8_t* p = buf.data();
    std::vector<double> out;
    ASSERT_TRUE(
        DecodeF64Column(&p, buf.data() + buf.size(), v.size(), &out, mode)
            .ok());
    EXPECT_TRUE(BitsEqual(out, v));
  }
}

TEST(CodecColumn, FastMatchesReferenceOnRandomColumns) {
  std::mt19937 rng(123);
  for (int iter = 0; iter < 50; ++iter) {
    const size_t n = rng() % 300;
    std::vector<double> v(n);
    for (auto& x : v) {
      switch (rng() % 4) {
        case 0: x = static_cast<double>(rng() % 1000); break;
        case 1: x = std::ldexp(static_cast<double>(rng()), -(int)(rng() % 60));
                break;
        case 2: x = -static_cast<double>(rng()); break;
        default: {
          uint64_t bits = (static_cast<uint64_t>(rng()) << 32) | rng();
          std::memcpy(&x, &bits, 8);  // arbitrary bit pattern, NaNs included
        }
      }
    }
    std::vector<uint8_t> buf;
    EncodeF64Column(v.data(), v.size(), &buf);
    std::vector<double> fast, ref;
    const uint8_t* pf = buf.data();
    const uint8_t* pr = buf.data();
    ASSERT_TRUE(DecodeF64Column(&pf, buf.data() + buf.size(), n, &fast,
                                DecodeMode::kFast)
                    .ok());
    ASSERT_TRUE(DecodeF64Column(&pr, buf.data() + buf.size(), n, &ref,
                                DecodeMode::kReference)
                    .ok());
    EXPECT_TRUE(BitsEqual(fast, ref));
    EXPECT_TRUE(BitsEqual(fast, v));
  }
}

AggColumns RandomAgg(std::mt19937& rng, uint32_t num_dims, size_t rows,
                     bool sorted) {
  AggColumns cols(num_dims);
  cols.Reserve(rows);
  std::array<uint32_t, kMaxDims> c{};
  for (size_t i = 0; i < rows; ++i) {
    for (uint32_t d = 0; d < num_dims; ++d) c[d] = rng() % 50;
    const double sum = static_cast<double>(rng()) / 7.0;
    const uint64_t count = 1 + rng() % 100;
    cols.PushCell(c.data(), sum, count, sum / count - 1.0, sum / count + 1.0);
  }
  if (sorted) cols.SortRowMajor();
  return cols;
}

TEST(CodecBlob, AggColumnsRoundTripProperty) {
  std::mt19937 rng(99);
  for (int iter = 0; iter < 60; ++iter) {
    const uint32_t num_dims = 1 + rng() % kMaxDims;
    const size_t rows = rng() % 400;
    const AggColumns cols = RandomAgg(rng, num_dims, rows, (iter % 2) == 0);
    std::vector<uint8_t> blob;
    CodecStats cs;
    EncodeAggColumns(cols, &blob, &cs);
    uint64_t raw_in = 0, enc_out = 0;
    for (size_t c = 0; c < kNumCodecs; ++c) {
      raw_in += cs.raw_bytes[c];
      enc_out += cs.encoded_bytes[c];
    }
    EXPECT_EQ(raw_in, RawPayloadBytes(cols));  // accounting is complete
    EXPECT_LE(enc_out, blob.size());
    for (DecodeMode mode : {DecodeMode::kFast, DecodeMode::kReference}) {
      auto back = DecodeAggColumns(blob.data(), blob.size(), mode);
      ASSERT_TRUE(back.ok()) << back.status().ToString();
      ExpectAggBitIdentical(cols, *back);
    }
  }
}

TEST(CodecBlob, AggColumnsEmptyAndSingleRow) {
  for (size_t rows : {size_t{0}, size_t{1}}) {
    std::mt19937 rng(5);
    const AggColumns cols = RandomAgg(rng, 3, rows, true);
    std::vector<uint8_t> blob;
    EncodeAggColumns(cols, &blob);
    auto back = DecodeAggColumns(blob.data(), blob.size());
    ASSERT_TRUE(back.ok());
    ExpectAggBitIdentical(cols, *back);
  }
}

// Fuzz-style robustness: truncations and bit flips of a valid blob must
// always produce a Status (the CRC rejects essentially all of them), and
// must never crash or read out of bounds (the CI ASAN job enforces the
// latter for real).
TEST(CodecBlob, TruncatedBlobNeverCrashes) {
  std::mt19937 rng(404);
  const AggColumns cols = RandomAgg(rng, 4, 200, true);
  std::vector<uint8_t> blob;
  EncodeAggColumns(cols, &blob);
  for (size_t len = 0; len < blob.size(); ++len) {
    for (DecodeMode mode : {DecodeMode::kFast, DecodeMode::kReference}) {
      auto res = DecodeAggColumns(blob.data(), len, mode);
      EXPECT_FALSE(res.ok()) << "truncated prefix of " << len << " decoded";
    }
  }
}

TEST(CodecBlob, BitFlippedBlobNeverCrashes) {
  std::mt19937 rng(505);
  const AggColumns cols = RandomAgg(rng, 3, 150, true);
  std::vector<uint8_t> blob;
  EncodeAggColumns(cols, &blob);
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<uint8_t> bad = blob;
    const int flips = 1 + rng() % 4;
    for (int f = 0; f < flips; ++f) {
      bad[rng() % bad.size()] ^= uint8_t(1u << (rng() % 8));
    }
    for (DecodeMode mode : {DecodeMode::kFast, DecodeMode::kReference}) {
      auto res = DecodeAggColumns(bad.data(), bad.size(), mode);
      if (res.ok()) {
        // A flip pair can cancel out (same byte twice); result must match.
        ExpectAggBitIdentical(cols, *res);
      }
    }
  }
}

TEST(CodecBlob, RandomGarbageNeverCrashes) {
  std::mt19937 rng(606);
  for (int iter = 0; iter < 3000; ++iter) {
    std::vector<uint8_t> junk(rng() % 200);
    for (auto& b : junk) b = uint8_t(rng());
    auto a = DecodeAggColumns(junk.data(), junk.size());
    // Random bytes essentially never carry a valid CRC32C trailer.
    EXPECT_FALSE(a.ok());
  }
}

TEST(CodecBlob, WrongFormatTagRejected) {
  std::mt19937 rng(9);
  const AggColumns cols = RandomAgg(rng, 2, 10, true);
  std::vector<uint8_t> blob;
  EncodeAggColumns(cols, &blob);
  // Change the format tag and re-seal the blob with a valid CRC32C. The
  // checksum then passes, so only the tag check keeps a blob of another
  // format, read back from a snapshot, away from the column decoders.
  blob[0] ^= 0xFF;
  const size_t body = blob.size() - 4;
  const uint32_t crc = Crc32c(blob.data(), body);
  std::memcpy(blob.data() + body, &crc, 4);
  for (DecodeMode mode : {DecodeMode::kFast, DecodeMode::kReference}) {
    auto res = DecodeAggColumns(blob.data(), blob.size(), mode);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.status().code(), StatusCode::kCorruption);
  }
}

// ---------------------- scalar == AVX2 decode parity ------------------------

bool Avx2Available() {
  return simd::DetectedLevel() == simd::IsaLevel::kAvx2;
}

/// Decodes `buf` with the checked reference decoder, then with the fast
/// decoder pinned to scalar and to AVX2 dispatch, and requires byte-level
/// agreement (values, consumed length, ok-ness). The payload is re-homed
/// at odd offsets so the vector loads also run from unaligned starts.
template <typename T>
void ExpectDecodeParity(const std::vector<uint8_t>& buf, size_t n,
                        Status (*decode)(const uint8_t**, const uint8_t*,
                                         size_t, std::vector<T>*,
                                         DecodeMode)) {
  for (size_t off : {size_t{0}, size_t{1}, size_t{3}, size_t{7}}) {
    std::vector<uint8_t> shifted(off + buf.size());
    if (!buf.empty()) std::memcpy(shifted.data() + off, buf.data(), buf.size());
    const uint8_t* base = shifted.data() + off;
    const uint8_t* end = base + buf.size();

    std::vector<T> ref;
    const uint8_t* pr = base;
    const Status sr = decode(&pr, end, n, &ref, DecodeMode::kReference);

    for (simd::IsaLevel lvl :
         {simd::IsaLevel::kScalar, simd::IsaLevel::kAvx2}) {
      simd::ScopedLevel pin(lvl);
      std::vector<T> fast;
      const uint8_t* pf = base;
      const Status sf = decode(&pf, end, n, &fast, DecodeMode::kFast);
      ASSERT_EQ(sf.ok(), sr.ok()) << "offset " << off;
      if (!sr.ok()) continue;
      ASSERT_EQ(pf - base, pr - base) << "consumed length diverged";
      ASSERT_EQ(fast.size(), ref.size());
      if (!ref.empty()) {
        EXPECT_EQ(
            std::memcmp(fast.data(), ref.data(), ref.size() * sizeof(T)), 0)
            << "offset " << off << " level " << int(lvl);
      }
    }
  }
}

TEST(CodecSimd, U32DecodeParityAcrossCodecs) {
  if (!Avx2Available()) GTEST_SKIP() << "no AVX2 on this host";
  std::mt19937 rng(99);
  for (size_t n : {1, 3, 4, 5, 7, 8, 9, 31, 33, 100, 257, 1023}) {
    std::vector<std::vector<uint32_t>> cols;
    cols.emplace_back(n, 7u);  // constant -> 1-bit dict
    std::vector<uint32_t> lowcard(n);
    for (auto& x : lowcard) x = rng() % 17;  // dict, 5-bit indexes
    cols.push_back(std::move(lowcard));
    std::vector<uint32_t> sorted(n);
    for (size_t i = 0; i < n; ++i) sorted[i] = uint32_t(3 * i + rng() % 3);
    cols.push_back(std::move(sorted));  // near-linear -> delta / dod
    std::vector<uint32_t> random(n);
    for (auto& x : random) x = rng();  // raw fallback
    cols.push_back(std::move(random));
    for (const auto& v : cols) {
      std::vector<uint8_t> buf;
      EncodeU32Column(v.data(), v.size(), &buf);
      ExpectDecodeParity<uint32_t>(buf, n, &DecodeU32Column);
    }
  }
  // Max-width dict: up to 4096 distinct values forces 12-bit packed
  // indexes, the widest shift the AVX2 unpacker ever performs.
  std::vector<uint32_t> wide(5000);
  for (auto& x : wide) x = rng() % 4096;
  std::vector<uint8_t> buf;
  EncodeU32Column(wide.data(), wide.size(), &buf);
  ExpectDecodeParity<uint32_t>(buf, wide.size(), &DecodeU32Column);
}

TEST(CodecSimd, U64DecodeParityAcrossCodecs) {
  if (!Avx2Available()) GTEST_SKIP() << "no AVX2 on this host";
  std::mt19937 rng(41);
  for (size_t n : {1, 3, 5, 8, 9, 100, 1023}) {
    std::vector<std::vector<uint64_t>> cols;
    cols.emplace_back(n, 1ull);  // counts are mostly 1
    std::vector<uint64_t> increasing(n);
    for (size_t i = 0; i < n; ++i) {
      increasing[i] = (uint64_t(i) << 20) + rng() % 1024;
    }
    cols.push_back(std::move(increasing));
    std::vector<uint64_t> random(n);
    for (auto& x : random) {
      x = (static_cast<uint64_t>(rng()) << 32) | rng();
    }
    cols.push_back(std::move(random));
    // Wrap-around deltas: zigzag + mod-2^64 prefix sum must still agree.
    std::vector<uint64_t> extremes(n);
    for (size_t i = 0; i < n; ++i) {
      extremes[i] = (i % 2) ? std::numeric_limits<uint64_t>::max() : 0;
    }
    cols.push_back(std::move(extremes));
    for (const auto& v : cols) {
      std::vector<uint8_t> buf;
      EncodeU64Column(v.data(), v.size(), &buf);
      ExpectDecodeParity<uint64_t>(buf, n, &DecodeU64Column);
    }
  }
}

TEST(CodecSimd, F64DecodeParityXorAndEdgeValues) {
  if (!Avx2Available()) GTEST_SKIP() << "no AVX2 on this host";
  std::mt19937 rng(123);
  for (size_t n : {1, 2, 3, 4, 5, 7, 8, 9, 31, 33, 100, 511}) {
    std::vector<double> v(n);
    for (auto& x : v) {
      switch (rng() % 5) {
        case 0: x = static_cast<double>(rng() % 1000); break;
        case 1: x = std::numeric_limits<double>::quiet_NaN(); break;
        case 2: x = (rng() % 2) ? std::numeric_limits<double>::infinity()
                                : -std::numeric_limits<double>::infinity();
                break;
        case 3: x = std::numeric_limits<double>::denorm_min(); break;
        default: {
          uint64_t bits = (static_cast<uint64_t>(rng()) << 32) | rng();
          std::memcpy(&x, &bits, 8);  // arbitrary bit pattern
        }
      }
    }
    std::vector<uint8_t> buf;
    EncodeF64Column(v.data(), v.size(), &buf);
    ExpectDecodeParity<double>(buf, n, &DecodeF64Column);
  }
}

TEST(CodecSimd, CorruptedBlobParityNeverCrashes) {
  if (!Avx2Available()) GTEST_SKIP() << "no AVX2 on this host";
  std::mt19937 rng(2026);
  std::vector<uint32_t> v(300);
  for (auto& x : v) x = rng() % 64;  // dict codec, the path with a gather
  std::vector<uint8_t> good;
  EncodeU32Column(v.data(), v.size(), &good);
  for (int iter = 0; iter < 200; ++iter) {
    std::vector<uint8_t> bad = good;
    // Flip a byte and/or truncate; the scalar and AVX2 fast decoders must
    // agree on ok-ness and, when both still decode, on the decoded bytes.
    // (kReference is intentionally left out: the checked decoder may be
    // stricter than kFast on malformed input, which is not a SIMD bug.)
    bad[rng() % bad.size()] ^= uint8_t(1 + rng() % 255);
    if (rng() % 3 == 0) bad.resize(rng() % (bad.size() + 1));

    std::vector<uint32_t> scalar_out, avx2_out;
    Status scalar_status, avx2_status;
    {
      simd::ScopedLevel pin(simd::IsaLevel::kScalar);
      const uint8_t* p = bad.data();
      scalar_status = DecodeU32Column(&p, bad.data() + bad.size(), v.size(),
                                      &scalar_out, DecodeMode::kFast);
    }
    {
      simd::ScopedLevel pin(simd::IsaLevel::kAvx2);
      const uint8_t* p = bad.data();
      avx2_status = DecodeU32Column(&p, bad.data() + bad.size(), v.size(),
                                    &avx2_out, DecodeMode::kFast);
    }
    ASSERT_EQ(scalar_status.ok(), avx2_status.ok()) << "iter " << iter;
    if (scalar_status.ok()) {
      EXPECT_EQ(scalar_out, avx2_out) << "iter " << iter;
    }
  }
}

}  // namespace
}  // namespace chunkcache::storage::codec
