// storage::ChunkPayload, the cache's one-allocation chunk layout: random
// canonical AggColumns with singleton and general rows round-trip through
// it bit for bit in both coordinate forms and every COUNT width, the
// boundary filter keeps what FilterRows keeps, and the roll-up fold over a
// payload equals the fold over its columns.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <iterator>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include "backend/aggregator.h"
#include "chunks/chunking_scheme.h"
#include "common/random.h"
#include "schema/synthetic.h"
#include "storage/agg_columns.h"
#include "storage/chunk_payload.h"

namespace chunkcache::storage {
namespace {

using schema::OrdinalRange;

/// Doubles that exercise every bit a copy could disturb: NaNs with
/// payloads (quiet and signalling), signed zeros, infinities, subnormals.
double EdgeDouble(Random* rng) {
  const auto bits = [](uint64_t b) {
    double d;
    std::memcpy(&d, &b, 8);
    return d;
  };
  switch (rng->Uniform(12)) {
    case 0:
      return bits(0x7FF8000000000000ULL | rng->Uniform(1ULL << 51));
    case 1:
      return bits(0xFFF0000000000001ULL + rng->Uniform(1ULL << 50));
    case 2:
      return std::numeric_limits<double>::infinity();
    case 3:
      return -std::numeric_limits<double>::infinity();
    case 4:
      return 0.0;
    case 5:
      return -0.0;
    case 6:
      return std::numeric_limits<double>::denorm_min();
    case 7:
      return bits(0x800FFFFFFFFFFFFFULL);  // largest negative subnormal
    default:
      return rng->NextDouble() * 2000.0 - 1000.0;
  }
}

/// A count no larger than `cap`, favouring 1 and the COUNT width
/// boundaries below it.
uint64_t EdgeCount(Random* rng, uint64_t cap) {
  static constexpr uint64_t kEdges[] = {
      1, 2, 255, 256, 65535, 65536, (1ULL << 32) - 1, 1ULL << 32, ~0ULL};
  const uint64_t pick = kEdges[rng->Uniform(std::size(kEdges))];
  if (pick <= cap && rng->Uniform(2) == 0) return pick;
  return 1 + rng->Uniform(std::min<uint64_t>(cap, 1000));
}

/// The bytes of the narrowest COUNT width holding `c`.
uint32_t WidthOf(uint64_t c) {
  return c <= 0xFF ? 1 : c <= 0xFFFF ? 2 : c <= 0xFFFFFFFFULL ? 4 : 8;
}

/// True when the payload keeps row `i` of `cols` as one value.
bool IsSingleton(const AggColumns& cols, size_t i) {
  const double s = cols.sums()[i];
  return cols.counts()[i] == 1 && std::memcmp(&s, &cols.mins()[i], 8) == 0 &&
         std::memcmp(&s, &cols.maxs()[i], 8) == 0;
}

/// `n` distinct cells of a box with `widths` starting at `begins`, in
/// canonical row-major order, with counts up to `count_cap`. The rows mix
/// singletons (COUNT 1, one value), near misses (COUNT 1 with a MIN or MAX
/// of other bits, or one value under a larger COUNT) and random rows. The
/// box's product must not overflow.
AggColumns RandomCanonical(Random* rng, uint32_t nd, size_t n,
                           const std::array<uint32_t, kMaxDims>& begins,
                           const std::array<uint32_t, kMaxDims>& widths,
                           uint64_t count_cap) {
  uint64_t cells = 1;
  for (uint32_t d = 0; d < nd; ++d) cells *= widths[d];
  std::set<uint64_t> picked;
  while (picked.size() < n) picked.insert(rng->Uniform(cells));
  AggColumns cols(nd);
  for (uint64_t cell : picked) {
    uint32_t coords[kMaxDims];
    for (uint32_t d = nd; d-- > 0;) {
      coords[d] = begins[d] + static_cast<uint32_t>(cell % widths[d]);
      cell /= widths[d];
    }
    const double v = EdgeDouble(rng);
    switch (rng->Uniform(4)) {
      case 0:
        cols.PushCell(coords, v, 1, v, v);
        break;
      case 1:
        if (rng->Uniform(2) == 0) {
          cols.PushCell(coords, v, 1, v, EdgeDouble(rng));
        } else {
          cols.PushCell(coords, 0.0, 1, -0.0, 0.0);
        }
        break;
      case 2:
        cols.PushCell(coords, v,
                      std::max<uint64_t>(2, EdgeCount(rng, count_cap)), v, v);
        break;
      default:
        cols.PushCell(coords, v, EdgeCount(rng, count_cap), EdgeDouble(rng),
                      EdgeDouble(rng));
    }
  }
  return cols;
}

bool BitsEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), 8 * a.size()) == 0);
}

void ExpectBitIdentical(const AggColumns& want, const AggColumns& got) {
  ASSERT_EQ(got.num_dims(), want.num_dims());
  ASSERT_EQ(got.size(), want.size());
  for (uint32_t d = 0; d < want.num_dims(); ++d) {
    EXPECT_EQ(got.coords(d), want.coords(d)) << "dim " << d;
  }
  EXPECT_TRUE(BitsEqual(got.sums(), want.sums()));
  EXPECT_EQ(got.counts(), want.counts());
  EXPECT_TRUE(BitsEqual(got.mins(), want.mins()));
  EXPECT_TRUE(BitsEqual(got.maxs(), want.maxs()));
}

uint64_t Cells(const ChunkPayload& p) {
  uint64_t cells = 1;
  for (uint32_t d = 0; d < p.num_dims(); ++d) cells *= p.box_width(d);
  return cells;
}

TEST(ChunkPayloadProperty, CanonicalColumnsRoundTripBitForBit) {
  Random rng(2024);
  size_t forms[2] = {0, 0};
  size_t widths_seen[9] = {};
  size_t all_singletons = 0;
  size_t all_rows = 0;
  for (int iter = 0; iter < 600; ++iter) {
    const uint32_t nd = 1 + static_cast<uint32_t>(rng.Uniform(kMaxDims));
    const size_t n = iter % 10 == 0 ? 0
                     : iter % 10 == 1 ? 1
                                      : 2 + rng.Uniform(60);
    // Dense boxes (a few cells per row) and sparse ones (far more than
    // kMaxBitmapCellsPerRow per row) in turn.
    const bool sparse = rng.Uniform(2) == 0;
    std::array<uint32_t, kMaxDims> begins{};
    std::array<uint32_t, kMaxDims> widths{};
    uint64_t cells = 1;
    for (uint32_t d = 0; d < nd; ++d) {
      begins[d] = static_cast<uint32_t>(
          rng.Uniform(2) == 0 ? rng.Uniform(1000)
                              : std::numeric_limits<uint32_t>::max() -
                                    rng.Uniform(1u << 20));
      const uint64_t room = std::numeric_limits<uint32_t>::max() -
                            uint64_t{begins[d]} + 1;
      uint64_t w = sparse ? 1 + rng.Uniform(4000) : 1 + rng.Uniform(4);
      w = std::min(w, room);
      if (cells * w > (1ULL << 40)) w = 1;
      widths[d] = static_cast<uint32_t>(w);
      cells *= w;
    }
    const size_t rows = static_cast<size_t>(std::min<uint64_t>(n, cells));
    static constexpr uint64_t kCaps[] = {0xFF, 0xFFFF, 0xFFFFFFFFULL, ~0ULL};
    const AggColumns cols =
        RandomCanonical(&rng, nd, rows, begins, widths, kCaps[iter % 4]);
    const ChunkPayload p(cols);
    ASSERT_EQ(p.num_dims(), nd);
    ASSERT_EQ(p.size(), rows);
    if (rows != 0) {
      const bool bitmap =
          Cells(p) <= ChunkPayload::kMaxBitmapCellsPerRow * rows;
      EXPECT_EQ(p.form(), bitmap ? ChunkPayload::Form::kBitmap
                                 : ChunkPayload::Form::kSparse);
      ++forms[bitmap ? 0 : 1];
    }
    size_t singletons = 0;
    uint64_t max_count = 0;
    for (size_t i = 0; i < rows; ++i) {
      if (IsSingleton(cols, i)) {
        ++singletons;
      } else {
        max_count = std::max(max_count, cols.counts()[i]);
      }
    }
    EXPECT_EQ(p.singleton_rows(), singletons);
    EXPECT_EQ(p.count_bytes(), WidthOf(max_count));
    ++widths_seen[p.count_bytes()];
    all_singletons += singletons;
    all_rows += rows;
    ExpectBitIdentical(cols, p.ToColumns());
  }
  EXPECT_GT(forms[0], 100u);
  EXPECT_GT(forms[1], 100u);
  for (uint32_t w : {1u, 2u, 4u, 8u}) {
    EXPECT_GT(widths_seen[w], 50u) << "width " << w;
  }
  // Singletons are about a quarter of the rows: both classes are common.
  EXPECT_GT(all_singletons, all_rows / 8);
  EXPECT_LT(all_singletons, all_rows / 2);
}

// Each COUNT width holds exactly its range: the largest general count
// on either side of a boundary picks the narrower or the wider width, and
// a singleton row's COUNT of 1 never widens anything.
TEST(ChunkPayloadProperty, CountWidthBoundaries) {
  const std::pair<uint64_t, uint32_t> cases[] = {
      {255, 1},   {256, 2},        {65535, 2},
      {65536, 4}, {(1ULL << 32) - 1, 4}, {1ULL << 32, 8},
      {~0ULL, 8}};
  for (const auto& [count, width] : cases) {
    AggColumns cols(2);
    const uint32_t a[2] = {3, 4};
    const uint32_t b[2] = {3, 5};
    const uint32_t c[2] = {4, 4};
    cols.PushCell(a, 1.5, 1, 1.5, 1.5);       // singleton
    cols.PushCell(b, 2.0, count, -1.0, 3.0);  // general, the largest count
    cols.PushCell(c, 7.0, 3, 7.0, 7.0);       // general: COUNT 3
    const ChunkPayload p(cols);
    EXPECT_EQ(p.count_bytes(), width) << count;
    EXPECT_EQ(p.singleton_rows(), 1u);
    ExpectBitIdentical(cols, p.ToColumns());
  }
}

// A row keeps one value only when all three doubles are one bit pattern:
// +0 against -0 stays general, and NaNs keep their payload bits.
TEST(ChunkPayloadProperty, RowClassesKeepEveryBit) {
  const auto bits = [](uint64_t b) {
    double d;
    std::memcpy(&d, &b, 8);
    return d;
  };
  const double qnan = bits(0x7FF8000000000123ULL);
  const double snan = bits(0xFFF0000000000456ULL);
  AggColumns cols(1);
  const auto push = [&cols](uint32_t x, double s, uint64_t n, double lo,
                            double hi) { cols.PushCell(&x, s, n, lo, hi); };
  push(0, 0.0, 1, -0.0, 0.0);    // general: +0 SUM, -0 MIN
  push(1, -0.0, 1, -0.0, -0.0);  // singleton -0
  push(2, qnan, 1, qnan, qnan);  // singleton quiet NaN with payload
  push(3, snan, 1, snan, snan);  // singleton signalling NaN with payload
  push(4, qnan, 1, bits(0x7FF8000000000124ULL), qnan);  // other payload
  push(5, 4.0, 2, 4.0, 4.0);     // general: one value under COUNT 2
  push(6, 5.0, 1, 5.0, 5.0);     // singleton
  const ChunkPayload p(cols);
  EXPECT_EQ(p.singleton_rows(), 4u);
  EXPECT_EQ(p.count_bytes(), 1u);
  ExpectBitIdentical(cols, p.ToColumns());
  std::vector<AggTuple> rows;
  std::array<OrdinalRange, kMaxDims> all{};
  all.fill(OrdinalRange{0, 100});
  p.AppendRowsInside(all, &rows);
  ASSERT_EQ(rows.size(), 7u);
  EXPECT_EQ(std::memcmp(&rows[2].max_v, &qnan, 8), 0);
  EXPECT_EQ(std::memcmp(&rows[3].min_v, &snan, 8), 0);
}

// Singleton rows cost their value and a class bit; general rows their
// three doubles and a COUNT of the entry's width.
TEST(ChunkPayloadProperty, SingletonRowsKeepOneValue) {
  AggColumns cols(1);
  for (uint32_t x = 0; x < 10; ++x) {
    const double v = x;
    if (x % 5 < 3) {
      cols.PushCell(&x, v, 1, v, v);
    } else {
      cols.PushCell(&x, v, 2, v, v);
    }
  }
  const ChunkPayload p(cols);
  ASSERT_EQ(p.form(), ChunkPayload::Form::kBitmap);
  EXPECT_EQ(p.singleton_rows(), 6u);
  // Header 8, box 8, one bitmap word 8, 2 class bytes and 4 one-byte
  // counts padded to 8, 6 values and 4 general rows of three doubles.
  EXPECT_EQ(p.capacity_bytes(), 8u + 8 + 8 + 8 + 6 * 8 + 4 * 24);
  ExpectBitIdentical(cols, p.ToColumns());
}

TEST(ChunkPayloadProperty, RowsOutOfOrderKeepTheirOrderInSparseForm) {
  // Duplicate and descending coordinates cannot be a bitmap.
  AggColumns cols(2);
  const uint32_t hi[2] = {9, 9};
  const uint32_t lo[2] = {8, 8};
  cols.PushCell(hi, 1.0, 1, 1.0, 1.0);
  cols.PushCell(lo, 2.0, 2, 2.0, 2.0);
  cols.PushCell(lo, 3.0, 3, 3.0, 3.0);
  const ChunkPayload p(cols);
  EXPECT_EQ(p.form(), ChunkPayload::Form::kSparse);
  ExpectBitIdentical(cols, p.ToColumns());
}

TEST(ChunkPayloadProperty, AppendRowsInsideMatchesFilterRows) {
  Random rng(77);
  for (int iter = 0; iter < 300; ++iter) {
    const uint32_t nd = 1 + static_cast<uint32_t>(rng.Uniform(4));
    std::array<uint32_t, kMaxDims> begins{};
    std::array<uint32_t, kMaxDims> widths{};
    uint64_t cells = 1;
    for (uint32_t d = 0; d < nd; ++d) {
      begins[d] = static_cast<uint32_t>(rng.Uniform(50));
      widths[d] = 1 + static_cast<uint32_t>(rng.Uniform(iter % 2 ? 6 : 80));
      cells *= widths[d];
    }
    const size_t n =
        static_cast<size_t>(std::min<uint64_t>(rng.Uniform(40), cells));
    const AggColumns cols = RandomCanonical(&rng, nd, n, begins, widths,
                                            /*count_cap=*/~0ULL);
    std::array<OrdinalRange, kMaxDims> sel{};
    for (uint32_t d = 0; d < kMaxDims; ++d) {
      const uint32_t lo = static_cast<uint32_t>(rng.Uniform(120));
      sel[d] = OrdinalRange{lo, lo + static_cast<uint32_t>(rng.Uniform(80))};
      if (rng.Uniform(4) == 0) sel[d] = OrdinalRange{0, 1000};
    }
    std::vector<AggTuple> got;
    ChunkPayload(cols).AppendRowsInside(sel, &got);
    const std::vector<AggTuple> want =
        backend::FilterRows(cols.ToRows(), nd, sel);
    ASSERT_EQ(got.size(), want.size()) << "iter " << iter;
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].coords, want[i].coords);
      EXPECT_EQ(std::memcmp(&got[i].sum, &want[i].sum, 8), 0);
      EXPECT_EQ(got[i].count, want[i].count);
      EXPECT_EQ(std::memcmp(&got[i].min_v, &want[i].min_v, 8), 0);
      EXPECT_EQ(std::memcmp(&got[i].max_v, &want[i].max_v, 8), 0);
    }
  }
}

// The roll-up fold reads payloads; it must equal the columnar fold of the
// same rows bit for bit, dense and hash kernels alike.
TEST(ChunkPayloadProperty, PayloadFoldEqualsColumnFold) {
  auto s = schema::BuildPaperSchema();
  ASSERT_TRUE(s.ok());
  const schema::StarSchema schema = std::move(s).value();
  chunks::ChunkingOptions copts;
  copts.range_fraction = 0.2;
  auto built = chunks::ChunkingScheme::Build(&schema, copts, 20000);
  ASSERT_TRUE(built.ok());
  const chunks::ChunkingScheme scheme = std::move(built).value();
  Random rng(5);
  chunks::GroupBySpec finest{};
  finest.num_dims = schema.num_dims();
  for (uint32_t d = 0; d < finest.num_dims; ++d) {
    finest.levels[d] = schema.dimension(d).hierarchy.depth();
  }
  chunks::GroupBySpec coarse = finest;
  for (uint32_t d = 0; d < coarse.num_dims; ++d) coarse.levels[d] = 1;
  uint64_t folded[2] = {0, 0};
  for (uint64_t dense_limit : {uint64_t{1} << 30, uint64_t{0}}) {
    for (int iter = 0; iter < 100; ++iter) {
      const uint64_t target_chunk =
          rng.Uniform(scheme.GridFor(coarse).num_chunks());
      auto box = scheme.SourceBox(coarse, target_chunk, finest);
      ASSERT_TRUE(box.ok());
      std::vector<AggColumns> sources;
      box->ForEach(scheme.GridFor(finest),
                   [&](uint64_t num, const chunks::ChunkCoords&) {
                     const auto extent = scheme.ChunkExtent(finest, num);
                     std::array<uint32_t, kMaxDims> begins{};
                     std::array<uint32_t, kMaxDims> widths{};
                     uint64_t cells = 1;
                     for (uint32_t d = 0; d < finest.num_dims; ++d) {
                       begins[d] = extent[d].begin;
                       widths[d] = extent[d].size();
                       cells *= widths[d];
                     }
                     const size_t n = static_cast<size_t>(
                         std::min<uint64_t>(rng.Uniform(60), cells));
                     sources.push_back(RandomCanonical(
                         &rng, finest.num_dims, n, begins, widths,
                         /*count_cap=*/1u << 20));
                   });
      backend::ChunkAggregator by_cols(&scheme, coarse, target_chunk,
                                       dense_limit);
      backend::ChunkAggregator by_payload(&scheme, coarse, target_chunk,
                                          dense_limit);
      for (const AggColumns& c : sources) {
        by_cols.AddAggColumns(c, finest);
        by_payload.AddPayload(ChunkPayload(c), finest);
      }
      EXPECT_EQ(by_cols.rows_consumed(), by_payload.rows_consumed());
      folded[by_payload.dense() ? 0 : 1] += by_payload.rows_consumed();
      ExpectBitIdentical(by_cols.TakeColumns(), by_payload.TakeColumns());
    }
  }
  EXPECT_GT(folded[0], 1000u);  // dense kernel
  EXPECT_GT(folded[1], 1000u);  // hash fallback
}

}  // namespace
}  // namespace chunkcache::storage
