#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "backend/agg_file.h"
#include "backend/aggregator.h"
#include "backend/chunked_file.h"
#include "backend/engine.h"
#include "backend/star_join_query.h"
#include "chunks/chunking_scheme.h"
#include "common/cost_model.h"
#include "common/random.h"
#include "common/simd.h"
#include "schema/star_schema.h"
#include "schema/synthetic.h"
#include "storage/agg_columns.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/fact_file.h"

namespace chunkcache::backend {
namespace {

using chunks::ChunkCoords;
using chunks::ChunkingOptions;
using chunks::ChunkingScheme;
using chunks::GroupBySpec;
using schema::OrdinalRange;
using storage::AggColumns;
using storage::AggTuple;
using storage::BufferPool;
using storage::InMemoryDiskManager;
using storage::Tuple;
using storage::TupleColumns;

// ------------------------------- AggColumns ---------------------------------

std::vector<AggTuple> SampleRows() {
  std::vector<AggTuple> rows(4);
  rows[0].coords = {5, 1, 0};
  rows[1].coords = {2, 9, 3};
  rows[2].coords = {2, 3, 1};
  rows[3].coords = {0, 0, 7};
  for (size_t i = 0; i < rows.size(); ++i) {
    rows[i].sum = 1.5 * static_cast<double>(i) - 2.0;
    rows[i].count = i + 1;
    rows[i].min_v = -static_cast<double>(i);
    rows[i].max_v = static_cast<double>(i) * 3.0;
  }
  return rows;
}

TEST(AggColumnsTest, RowConversionRoundTrip) {
  const std::vector<AggTuple> rows = SampleRows();
  AggColumns cols = AggColumns::FromRows(rows, 3);
  ASSERT_EQ(cols.size(), rows.size());
  ASSERT_EQ(cols.num_dims(), 3u);
  const std::vector<AggTuple> back = cols.ToRows();
  ASSERT_EQ(back.size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    for (uint32_t d = 0; d < 3; ++d) {
      EXPECT_EQ(back[i].coords[d], rows[i].coords[d]);
    }
    EXPECT_EQ(back[i].sum, rows[i].sum);
    EXPECT_EQ(back[i].count, rows[i].count);
    EXPECT_EQ(back[i].min_v, rows[i].min_v);
    EXPECT_EQ(back[i].max_v, rows[i].max_v);
  }
}

TEST(AggColumnsTest, SerializationRoundTripAndCorruption) {
  AggColumns cols = AggColumns::FromRows(SampleRows(), 3);
  std::vector<uint8_t> bytes;
  cols.SerializeTo(&bytes);
  auto restored = AggColumns::Deserialize(bytes.data(), bytes.size());
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(*restored == cols);

  // Truncation must be detected, not crash.
  auto truncated = AggColumns::Deserialize(bytes.data(), bytes.size() - 9);
  EXPECT_FALSE(truncated.ok());
  auto tiny = AggColumns::Deserialize(bytes.data(), 3);
  EXPECT_FALSE(tiny.ok());

  // Empty container round-trips too.
  AggColumns empty(2);
  bytes.clear();
  empty.SerializeTo(&bytes);
  auto restored_empty = AggColumns::Deserialize(bytes.data(), bytes.size());
  ASSERT_TRUE(restored_empty.ok());
  EXPECT_TRUE(*restored_empty == empty);
}

TEST(AggColumnsTest, SortRowMajorMatchesSortRows) {
  std::vector<AggTuple> rows = SampleRows();
  AggColumns cols = AggColumns::FromRows(rows, 3);

  cols.SortRowMajor();
  SortRows(&rows, 3);
  EXPECT_TRUE(cols == AggColumns::FromRows(rows, 3));
}

// ------------------------- Deserialize hardening ----------------------------
// Snapshot records hold AggColumns::SerializeTo bytes, so Deserialize parses
// bytes read back from disk.

AggColumns MakeAgg(uint32_t num_dims, size_t rows, uint32_t seed = 11) {
  std::mt19937 rng(seed);
  AggColumns cols(num_dims);
  cols.Reserve(rows);
  std::array<uint32_t, storage::kMaxDims> c{};
  for (size_t i = 0; i < rows; ++i) {
    for (uint32_t d = 0; d < num_dims; ++d) c[d] = rng() % 32;
    const double sum = static_cast<double>(rng() % 100000) / 4.0;
    cols.PushCell(c.data(), sum, 1 + rng() % 8, sum - 1, sum + 1);
  }
  return cols;
}

TEST(DeserializeHardening, HugeRowCountRejectedBeforeAllocation) {
  // A corrupt header claiming ~2^61 rows must be rejected by comparing the
  // claim against the bytes actually present — not by attempting a
  // multi-exabyte resize.
  AggColumns cols = MakeAgg(3, 64);
  std::vector<uint8_t> buf;
  cols.SerializeTo(&buf);
  uint64_t huge = uint64_t(1) << 61;
  std::memcpy(buf.data() + 8, &huge, 8);  // header[1] = row count
  auto res = AggColumns::Deserialize(buf.data(), buf.size());
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kCorruption);
}

TEST(DeserializeHardening, TruncatedPrefixesReturnStatus) {
  AggColumns cols = MakeAgg(5, 200);
  std::vector<uint8_t> buf;
  cols.SerializeTo(&buf);
  for (size_t len = 0; len < buf.size(); ++len) {
    auto res = AggColumns::Deserialize(buf.data(), len);
    EXPECT_FALSE(res.ok()) << "prefix of " << len << " bytes decoded";
  }
  auto full = AggColumns::Deserialize(buf.data(), buf.size());
  ASSERT_TRUE(full.ok());
  EXPECT_TRUE(*full == cols);
  // Bytes past the declared columns, one byte or a whole row's worth,
  // are damage too.
  for (size_t extra : {size_t{1}, size_t{5 * 4 + 32}}) {
    std::vector<uint8_t> longer = buf;
    longer.resize(buf.size() + extra, 0);
    auto res = AggColumns::Deserialize(longer.data(), longer.size());
    ASSERT_FALSE(res.ok()) << extra << " trailing bytes decoded";
    EXPECT_EQ(res.status().code(), StatusCode::kCorruption);
  }
}

TEST(DeserializeHardening, RandomBitFlipsNeverCrash) {
  // The flat format has no checksum, so some flips decode "successfully"
  // into different values — that is fine; what must never happen is a
  // crash, an over-read, or a giant allocation (ASAN in CI sees all
  // three).
  AggColumns cols = MakeAgg(4, 300);
  std::vector<uint8_t> buf;
  cols.SerializeTo(&buf);
  std::mt19937 rng(77);
  for (int iter = 0; iter < 4000; ++iter) {
    std::vector<uint8_t> bad = buf;
    const int flips = 1 + rng() % 8;
    for (int f = 0; f < flips; ++f) {
      bad[rng() % bad.size()] ^= uint8_t(1u << (rng() % 8));
    }
    auto res = AggColumns::Deserialize(bad.data(), bad.size());
    if (res.ok()) {
      // Whatever decoded must at least be self-consistent.
      EXPECT_LE(res->num_dims(), storage::kMaxDims);
    }
  }
}

TEST(DeserializeHardening, RandomGarbageNeverCrashes) {
  std::mt19937 rng(88);
  for (int iter = 0; iter < 4000; ++iter) {
    std::vector<uint8_t> junk(rng() % 256);
    for (auto& b : junk) b = uint8_t(rng());
    (void)AggColumns::Deserialize(junk.data(), junk.size());
  }
}

// ---------------------- dense == hash property testing ----------------------

/// Feeds the same tuples to a dense-forced and a hash-forced kernel for the
/// same chunk; results must match bit for bit (identical fold order =>
/// identical FP operation sequences).
void ExpectKernelsBitIdentical(const ChunkingScheme* scheme,
                               const GroupBySpec& target, uint64_t chunk_num,
                               const std::vector<Tuple>& chunk_tuples) {
  ChunkAggregator dense(scheme, target, chunk_num,
                        /*dense_cell_limit=*/~0ull, nullptr);
  ChunkAggregator hash(scheme, target, chunk_num, /*dense_cell_limit=*/0,
                       nullptr);
  ASSERT_TRUE(dense.dense());
  ASSERT_FALSE(hash.dense());
  for (const Tuple& t : chunk_tuples) {
    dense.AddBase(t);
    hash.AddBase(t);
  }
  // Batch (columnar) feed must also match the row-at-a-time feed.
  ChunkAggregator dense_batch(scheme, target, chunk_num, ~0ull, nullptr);
  TupleColumns batch;
  batch.num_dims = scheme->num_dims();
  for (const Tuple& t : chunk_tuples) batch.PushTuple(t);
  dense_batch.AddBaseColumns(batch, nullptr, nullptr);

  const AggColumns a = dense.TakeColumns();
  const AggColumns b = hash.TakeColumns();
  const AggColumns c = dense_batch.TakeColumns();
  EXPECT_TRUE(a == b) << "dense and hash kernels disagree on chunk "
                      << chunk_num;
  EXPECT_TRUE(a == c) << "batch and row-at-a-time dense feeds disagree on "
                      << "chunk " << chunk_num;
}

TEST(DenseHashProperty, BitIdenticalAcrossRandomSchemas) {
  Random rng(20260806);
  for (int trial = 0; trial < 6; ++trial) {
    // Random 2-3 dimension schema with random hierarchy shapes. Odd
    // cardinalities exercise boundary chunks whose extents are smaller
    // than interior ones (the Section 5.2.3 "extra tuples" shapes).
    const uint32_t num_dims = 2 + static_cast<uint32_t>(rng.Uniform(2));
    std::vector<schema::Dimension> dims;
    for (uint32_t d = 0; d < num_dims; ++d) {
      std::vector<uint32_t> cards;
      uint32_t card = 3 + static_cast<uint32_t>(rng.Uniform(5));
      const uint32_t depth = 1 + static_cast<uint32_t>(rng.Uniform(2));
      for (uint32_t l = 0; l < depth; ++l) {
        cards.push_back(card);
        card *= 2 + static_cast<uint32_t>(rng.Uniform(3));
      }
      auto dim = schema::BuildSyntheticDimension(
          "D" + std::to_string(trial) + "_" + std::to_string(d), cards);
      ASSERT_TRUE(dim.ok());
      dims.push_back(std::move(dim).value());
    }
    schema::StarSchema schema("fact", std::move(dims), "m");

    ChunkingOptions copts;
    copts.range_fraction = 0.3;
    auto scheme_or = ChunkingScheme::Build(&schema, copts, 4000);
    ASSERT_TRUE(scheme_or.ok());
    const ChunkingScheme scheme = std::move(scheme_or).value();

    schema::FactGenOptions gen;
    gen.num_tuples = 4000;
    gen.seed = 1000 + trial;
    const std::vector<Tuple> tuples = schema::GenerateFactTuples(schema, gen);

    // Every group-by level combination on every dimension.
    std::vector<GroupBySpec> specs;
    GroupBySpec spec{};
    spec.num_dims = num_dims;
    std::function<void(uint32_t)> enumerate = [&](uint32_t d) {
      if (d == num_dims) {
        specs.push_back(spec);
        return;
      }
      const uint32_t depth = schema.dimension(d).hierarchy.depth();
      for (uint32_t l = 0; l <= depth; ++l) {
        spec.levels[d] = l;
        enumerate(d + 1);
      }
    };
    enumerate(0);

    for (const GroupBySpec& gb : specs) {
      // Route tuples to chunks of this group-by.
      std::map<uint64_t, std::vector<Tuple>> per_chunk;
      for (const Tuple& t : tuples) {
        ChunkCoords coords{};
        for (uint32_t d = 0; d < num_dims; ++d) {
          const auto& h = schema.dimension(d).hierarchy;
          coords[d] = h.AncestorAt(h.depth(), t.keys[d], gb.levels[d]);
        }
        per_chunk[scheme.ChunkOfCell(gb, coords)].push_back(t);
      }
      // Check the first, a middle, and the last non-empty chunk (the last
      // chunk in row-major order is a boundary chunk on every dimension).
      if (per_chunk.empty()) continue;
      std::vector<uint64_t> picks{per_chunk.begin()->first,
                                  std::next(per_chunk.begin(),
                                            per_chunk.size() / 2)
                                      ->first,
                                  per_chunk.rbegin()->first};
      for (uint64_t chunk_num : picks) {
        ExpectKernelsBitIdentical(&scheme, gb, chunk_num,
                                  per_chunk.at(chunk_num));
      }
    }
  }
}

TEST(DenseHashProperty, AggInputsBitIdentical) {
  // Dense and hash must also agree when folding already-aggregated rows
  // (the closure path: coarse chunk from finer materialized rows).
  auto s = schema::BuildPaperSchema();
  ASSERT_TRUE(s.ok());
  ChunkingOptions copts;
  copts.range_fraction = 0.2;
  auto scheme_or = ChunkingScheme::Build(&*s, copts, 20000);
  ASSERT_TRUE(scheme_or.ok());
  const ChunkingScheme& scheme = *scheme_or;

  schema::FactGenOptions gen;
  gen.num_tuples = 20000;
  gen.seed = 99;
  const std::vector<Tuple> tuples = schema::GenerateFactTuples(*s, gen);

  const GroupBySpec fine{{2, 1, 2, 1}, 4};
  const GroupBySpec coarse{{1, 1, 1, 1}, 4};
  HashAggregator to_fine(&scheme, fine);
  for (const Tuple& t : tuples) to_fine.AddBase(t);
  AggColumns fine_cols = to_fine.TakeColumns();
  fine_cols.SortRowMajor();

  // Route fine rows to coarse chunks, then compare kernels per chunk.
  std::map<uint64_t, std::vector<size_t>> per_chunk;
  for (size_t i = 0; i < fine_cols.size(); ++i) {
    ChunkCoords coords{};
    for (uint32_t d = 0; d < 4; ++d) {
      const auto& h = s->dimension(d).hierarchy;
      coords[d] = h.AncestorAt(fine.levels[d], fine_cols.coords(d)[i],
                               coarse.levels[d]);
    }
    per_chunk[scheme.ChunkOfCell(coarse, coords)].push_back(i);
  }
  for (const auto& [chunk_num, idxs] : per_chunk) {
    ChunkAggregator dense(&scheme, coarse, chunk_num, ~0ull, nullptr);
    ChunkAggregator hash(&scheme, coarse, chunk_num, 0, nullptr);
    for (size_t i : idxs) {
      const AggTuple row = fine_cols.RowAt(i);
      dense.AddAgg(row, fine);
      hash.AddAgg(row, fine);
    }
    EXPECT_TRUE(dense.TakeColumns() == hash.TakeColumns())
        << "chunk " << chunk_num;
  }
}

// ---------------------- scalar == AVX2 dispatch property --------------------

/// Bit-level column comparison: NaN != NaN under operator==, so the
/// double columns are compared as raw bytes.
void ExpectColsBitIdentical(const AggColumns& a, const AggColumns& b) {
  ASSERT_EQ(a.num_dims(), b.num_dims());
  ASSERT_EQ(a.size(), b.size());
  for (uint32_t d = 0; d < a.num_dims(); ++d) {
    EXPECT_EQ(a.coords(d), b.coords(d));
  }
  EXPECT_EQ(a.counts(), b.counts());
  const size_t n = a.size();
  if (n == 0) return;
  EXPECT_EQ(std::memcmp(a.sums().data(), b.sums().data(), n * 8), 0);
  EXPECT_EQ(std::memcmp(a.mins().data(), b.mins().data(), n * 8), 0);
  EXPECT_EQ(std::memcmp(a.maxs().data(), b.maxs().data(), n * 8), 0);
}

/// Measures drawn to stress FP edge semantics: NaN propagation through
/// min/max, +/-inf sentinel interactions, denormals, signed zeros.
double EdgeMeasure(Random* rng) {
  switch (rng->Uniform(10)) {
    case 0:
      return std::numeric_limits<double>::quiet_NaN();
    case 1:
      return std::numeric_limits<double>::infinity();
    case 2:
      return -std::numeric_limits<double>::infinity();
    case 3:
      return std::numeric_limits<double>::denorm_min();
    case 4:
      return -std::numeric_limits<double>::denorm_min();
    case 5:
      return -0.0;
    default:
      return rng->NextDouble() * 2000.0 - 1000.0;
  }
}

TEST(SimdDispatchProperty, DenseFoldBitIdenticalScalarVsAvx2) {
  if (simd::DetectedLevel() != simd::IsaLevel::kAvx2) {
    GTEST_SKIP() << "no AVX2 on this host";
  }
  Random rng(20260809);
  for (int trial = 0; trial < 4; ++trial) {
    const uint32_t num_dims = 1 + static_cast<uint32_t>(rng.Uniform(4));
    std::vector<schema::Dimension> dims;
    for (uint32_t d = 0; d < num_dims; ++d) {
      std::vector<uint32_t> cards;
      uint32_t card = 3 + static_cast<uint32_t>(rng.Uniform(5));
      const uint32_t depth = 1 + static_cast<uint32_t>(rng.Uniform(2));
      for (uint32_t l = 0; l < depth; ++l) {
        cards.push_back(card);
        card *= 2 + static_cast<uint32_t>(rng.Uniform(3));
      }
      auto dim = schema::BuildSyntheticDimension(
          "S" + std::to_string(trial) + "_" + std::to_string(d), cards);
      ASSERT_TRUE(dim.ok());
      dims.push_back(std::move(dim).value());
    }
    schema::StarSchema schema("fact", std::move(dims), "m");
    ChunkingOptions copts;
    copts.range_fraction = 0.3;
    auto scheme_or = ChunkingScheme::Build(&schema, copts, 3000);
    ASSERT_TRUE(scheme_or.ok());
    const ChunkingScheme scheme = std::move(scheme_or).value();

    schema::FactGenOptions gen;
    gen.num_tuples = 3000;
    gen.seed = 555 + trial;
    std::vector<Tuple> tuples = schema::GenerateFactTuples(schema, gen);
    for (Tuple& t : tuples) t.measure = EdgeMeasure(&rng);

    // Finest and coarsest-but-one group-bys give small and large LUTs.
    std::vector<GroupBySpec> specs;
    GroupBySpec finest{};
    finest.num_dims = num_dims;
    GroupBySpec coarse{};
    coarse.num_dims = num_dims;
    for (uint32_t d = 0; d < num_dims; ++d) {
      finest.levels[d] = schema.dimension(d).hierarchy.depth();
      coarse.levels[d] = 1;
    }
    specs.push_back(finest);
    if (!(coarse == finest)) specs.push_back(coarse);

    for (const GroupBySpec& gb : specs) {
      std::map<uint64_t, std::vector<Tuple>> per_chunk;
      for (const Tuple& t : tuples) {
        ChunkCoords coords{};
        for (uint32_t d = 0; d < num_dims; ++d) {
          const auto& h = schema.dimension(d).hierarchy;
          coords[d] = h.AncestorAt(h.depth(), t.keys[d], gb.levels[d]);
        }
        per_chunk[scheme.ChunkOfCell(gb, coords)].push_back(t);
      }
      if (per_chunk.empty()) continue;
      const uint64_t chunk_num = per_chunk.rbegin()->first;  // boundary chunk
      const std::vector<Tuple>& chunk_tuples = per_chunk.at(chunk_num);

      // Feed in odd-length sub-batches so the 4-wide kernel's tails and
      // head/tail transitions all fire; also one empty batch.
      const auto fold = [&](simd::IsaLevel level) {
        simd::ScopedLevel pin(level);
        ChunkAggregator agg(&scheme, gb, chunk_num, ~0ull, nullptr);
        TupleColumns empty;
        empty.num_dims = scheme.num_dims();
        agg.AddBaseColumns(empty, nullptr, nullptr);  // empty batch is a no-op
        size_t i = 0;
        size_t step = 1;
        while (i < chunk_tuples.size()) {
          TupleColumns batch;
          batch.num_dims = scheme.num_dims();
          const size_t hi = std::min(chunk_tuples.size(), i + step);
          for (; i < hi; ++i) batch.PushTuple(chunk_tuples[i]);
          agg.AddBaseColumns(batch, nullptr, nullptr);
          step = step * 2 + 1;  // 1, 3, 7, 15, ... odd lengths
        }
        return agg.TakeColumns();
      };
      const AggColumns scalar_cols = fold(simd::IsaLevel::kScalar);
      const AggColumns avx2_cols = fold(simd::IsaLevel::kAvx2);
      ExpectColsBitIdentical(scalar_cols, avx2_cols);
    }
  }
}

TEST(SimdDispatchProperty, EmptyCellBoxAndSingleRow) {
  if (simd::DetectedLevel() != simd::IsaLevel::kAvx2) {
    GTEST_SKIP() << "no AVX2 on this host";
  }
  auto s = schema::BuildPaperSchema();
  ASSERT_TRUE(s.ok());
  ChunkingOptions copts;
  copts.range_fraction = 0.2;
  auto scheme_or = ChunkingScheme::Build(&*s, copts, 1000);
  ASSERT_TRUE(scheme_or.ok());
  const ChunkingScheme& scheme = *scheme_or;
  const GroupBySpec gb{{1, 1, 1, 1}, 4};

  for (simd::IsaLevel level :
       {simd::IsaLevel::kScalar, simd::IsaLevel::kAvx2}) {
    simd::ScopedLevel pin(level);
    // No rows folded: the box stays empty and extraction yields no cells.
    ChunkAggregator agg(&scheme, gb, 0, ~0ull, nullptr);
    EXPECT_EQ(agg.TakeColumns().size(), 0u);
  }

  // A single row (pure tail path) must also match across dispatch levels.
  schema::FactGenOptions gen;
  gen.num_tuples = 1;
  gen.seed = 3;
  const std::vector<Tuple> one = schema::GenerateFactTuples(*s, gen);
  ChunkCoords coords{};
  for (uint32_t d = 0; d < 4; ++d) {
    const auto& h = s->dimension(d).hierarchy;
    coords[d] = h.AncestorAt(h.depth(), one[0].keys[d], gb.levels[d]);
  }
  const uint64_t chunk_num = scheme.ChunkOfCell(gb, coords);
  const auto fold = [&](simd::IsaLevel level) {
    simd::ScopedLevel pin(level);
    ChunkAggregator agg(&scheme, gb, chunk_num, ~0ull, nullptr);
    TupleColumns batch;
    batch.num_dims = scheme.num_dims();
    batch.PushTuple(one[0]);
    agg.AddBaseColumns(batch, nullptr, nullptr);
    return agg.TakeColumns();
  };
  ExpectColsBitIdentical(fold(simd::IsaLevel::kScalar),
                         fold(simd::IsaLevel::kAvx2));
}

// --------------------------- columnar file layout ---------------------------

TEST(AggFileColumnsTest, AppendColumnsMatchesRowAppend) {
  InMemoryDiskManager disk;
  BufferPool pool(&disk, 256);
  // Two files, same logical rows: one loaded row-wise, one column-wise.
  auto by_row = AggFile::Create(&pool, 3);
  auto by_col = AggFile::Create(&pool, 3);
  ASSERT_TRUE(by_row.ok());
  ASSERT_TRUE(by_col.ok());

  Random rng(7);
  AggColumns cols(3);
  // Enough rows to cross several page boundaries mid-batch.
  const uint32_t n = by_row->rows_per_page() * 3 + 17;
  for (uint32_t i = 0; i < n; ++i) {
    AggTuple row;
    row.coords = {i, i * 2, static_cast<uint32_t>(rng.Uniform(1000))};
    row.sum = rng.NextDouble() * 100.0;
    row.count = 1 + rng.Uniform(50);
    row.min_v = -row.sum;
    row.max_v = row.sum * 2;
    ASSERT_TRUE(by_row->Append(row).ok());
    cols.PushRow(row);
  }
  auto first = by_col->AppendColumns(cols);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, 0u);
  EXPECT_EQ(by_col->num_rows(), by_row->num_rows());

  // Point reads and row scans agree across the two load paths.
  for (uint64_t rid : {uint64_t{0}, uint64_t{n / 2}, uint64_t{n - 1}}) {
    AggTuple a, b;
    ASSERT_TRUE(by_row->Get(rid, &a).ok());
    ASSERT_TRUE(by_col->Get(rid, &b).ok());
    EXPECT_EQ(a.coords, b.coords);
    EXPECT_EQ(a.sum, b.sum);
    EXPECT_EQ(a.count, b.count);
  }

  // Columnar range scan returns exactly the slice that was appended.
  AggColumns slice(3);
  ASSERT_TRUE(by_col->ScanRangeColumns(10, n - 25, &slice).ok());
  ASSERT_EQ(slice.size(), static_cast<size_t>(n - 25));
  for (size_t i = 0; i < slice.size(); ++i) {
    EXPECT_EQ(slice.coords(0)[i], cols.coords(0)[i + 10]);
    EXPECT_EQ(slice.sums()[i], cols.sums()[i + 10]);
    EXPECT_EQ(slice.counts()[i], cols.counts()[i + 10]);
    EXPECT_EQ(slice.mins()[i], cols.mins()[i + 10]);
    EXPECT_EQ(slice.maxs()[i], cols.maxs()[i + 10]);
  }
  // Appending into a non-empty output accumulates (coalesced-run usage).
  ASSERT_TRUE(by_col->ScanRangeColumns(0, 5, &slice).ok());
  EXPECT_EQ(slice.size(), static_cast<size_t>(n - 25 + 5));

  // Mixed loads: row appends after a columnar batch stay consistent.
  AggTuple extra;
  extra.coords = {9999, 1, 2};
  extra.sum = 3.25;
  ASSERT_TRUE(by_col->Append(extra).ok());
  AggTuple got;
  ASSERT_TRUE(by_col->Get(n, &got).ok());
  EXPECT_EQ(got.coords[0], 9999u);
  EXPECT_EQ(got.sum, 3.25);
}

TEST(AggFileColumnsTest, ReopenPreservesColumnarPages) {
  InMemoryDiskManager disk;
  BufferPool pool(&disk, 64);
  uint32_t file_id;
  AggColumns cols(2);
  for (uint32_t i = 0; i < 300; ++i) {
    const uint32_t coords[2] = {i, 300 - i};
    cols.PushCell(coords, i * 0.5, i, -1.0 * i, 2.0 * i);
  }
  {
    auto file = AggFile::Create(&pool, 2);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(file->AppendColumns(cols).ok());
    ASSERT_TRUE(file->SyncHeader().ok());
    file_id = file->file_id();
  }
  auto file = AggFile::Open(&pool, file_id);
  ASSERT_TRUE(file.ok());
  EXPECT_EQ(file->num_rows(), 300u);
  AggColumns back(2);
  ASSERT_TRUE(file->ScanRangeColumns(0, 300, &back).ok());
  EXPECT_TRUE(back == cols);
}

TEST(FactFileColumnsTest, ScanRangeColumnsMatchesRowScan) {
  InMemoryDiskManager disk;
  BufferPool pool(&disk, 256);
  auto file = storage::FactFile::Create(&pool, storage::TupleDesc{3});
  ASSERT_TRUE(file.ok());
  Random rng(11);
  const uint32_t n = file->tuples_per_page() * 2 + 31;
  for (uint32_t i = 0; i < n; ++i) {
    Tuple t;
    t.keys[0] = i;
    t.keys[1] = static_cast<uint32_t>(rng.Uniform(100));
    t.keys[2] = i % 7;
    t.measure = rng.NextDouble();
    ASSERT_TRUE(file->Append(t).ok());
  }
  TupleColumns cols;
  ASSERT_TRUE(file->ScanRangeColumns(5, n - 9, &cols).ok());
  ASSERT_EQ(cols.size(), static_cast<size_t>(n - 9));
  size_t i = 0;
  ASSERT_TRUE(file->ScanRange(5, n - 9,
                              [&](storage::RowId, const Tuple& t) {
                                EXPECT_EQ(cols.keys[0][i], t.keys[0]);
                                EXPECT_EQ(cols.keys[1][i], t.keys[1]);
                                EXPECT_EQ(cols.keys[2][i], t.keys[2]);
                                EXPECT_EQ(cols.measure[i], t.measure);
                                ++i;
                                return true;
                              })
                  .ok());
  EXPECT_EQ(i, cols.size());
}

// ----------------------- engine-level determinism tests ----------------------

class KernelEngineFixture : public ::testing::Test {
 protected:
  static constexpr uint64_t kTuples = 20000;

  void SetUp() override {
    auto s = schema::BuildPaperSchema();
    ASSERT_TRUE(s.ok());
    schema_ = std::make_unique<schema::StarSchema>(std::move(s).value());
    ChunkingOptions opts;
    opts.range_fraction = 0.2;
    auto scheme = ChunkingScheme::Build(schema_.get(), opts, kTuples);
    ASSERT_TRUE(scheme.ok());
    scheme_ = std::make_unique<ChunkingScheme>(std::move(scheme).value());

    schema::FactGenOptions gen;
    gen.num_tuples = kTuples;
    gen.seed = 17;
    tuples_ = schema::GenerateFactTuples(*schema_, gen);

    pool_ = std::make_unique<BufferPool>(&disk_, 4096);
    auto file = ChunkedFile::BulkLoad(pool_.get(), scheme_.get(), tuples_);
    ASSERT_TRUE(file.ok());
    file_ = std::make_unique<ChunkedFile>(std::move(file).value());
  }

  std::vector<uint64_t> AllChunks(const GroupBySpec& gb) const {
    const auto& grid = scheme_->GridFor(gb);
    std::vector<uint64_t> nums(grid.num_chunks());
    for (uint64_t i = 0; i < nums.size(); ++i) nums[i] = i;
    return nums;
  }

  static void ExpectIdentical(const std::vector<ChunkData>& a,
                              const std::vector<ChunkData>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].chunk_num, b[i].chunk_num) << "slot " << i;
      EXPECT_TRUE(a[i].cols == b[i].cols) << "chunk " << a[i].chunk_num;
    }
  }

  InMemoryDiskManager disk_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<schema::StarSchema> schema_;
  std::unique_ptr<ChunkingScheme> scheme_;
  std::vector<Tuple> tuples_;
  std::unique_ptr<ChunkedFile> file_;
};

TEST_F(KernelEngineFixture, CoalescedEqualsPerRunIO) {
  // ALL on the last (fastest-varying) dimension makes each target chunk's
  // source box span that dimension completely, so adjacent source chunks
  // are contiguous in the clustered file and runs actually merge.
  const GroupBySpec gb{{1, 1, 1, 0}, 4};
  const std::vector<uint64_t> nums = AllChunks(gb);

  BackendEngine e1(pool_.get(), file_.get(), scheme_.get());
  WorkCounters w1;
  auto d1 = e1.ComputeChunks(gb, nums, {}, &w1);
  ASSERT_TRUE(d1.ok());

  // A one-row cap never merges two runs: one read per source chunk.
  BackendOptions per_run;
  per_run.max_merged_run_rows = 1;
  BackendEngine e2(pool_.get(), file_.get(), scheme_.get(), per_run);
  WorkCounters w2;
  auto d2 = e2.ComputeChunks(gb, nums, {}, &w2);
  ASSERT_TRUE(d2.ok());

  ExpectIdentical(*d1, *d2);
  EXPECT_EQ(w1.tuples_processed, w2.tuples_processed);

  // At this aggregation level each target chunk covers several adjacent
  // base chunks, so coalescing must actually merge runs.
  const AggKernelStats s1 = e1.kernel_stats();
  EXPECT_GT(s1.coalesced_reads, 0u);
  EXPECT_GE(s1.runs_merged, 2 * s1.coalesced_reads);
  EXPECT_EQ(e2.kernel_stats().coalesced_reads, 0u);
}

TEST_F(KernelEngineFixture, DenseEqualsHashEndToEnd) {
  for (const GroupBySpec gb :
       {GroupBySpec{{1, 1, 1, 1}, 4}, GroupBySpec{{2, 1, 2, 1}, 4},
        GroupBySpec{{1, 0, 0, 1}, 4}}) {
    const std::vector<uint64_t> nums = AllChunks(gb);

    BackendOptions dense_opts;  // default limit: everything dense here
    BackendEngine dense_engine(pool_.get(), file_.get(), scheme_.get(),
                               dense_opts);
    WorkCounters w1;
    auto dense_data = dense_engine.ComputeChunks(gb, nums, {}, &w1);
    ASSERT_TRUE(dense_data.ok());

    BackendOptions hash_opts;
    hash_opts.dense_cell_limit = 0;  // force the hash fallback everywhere
    BackendEngine hash_engine(pool_.get(), file_.get(), scheme_.get(),
                              hash_opts);
    WorkCounters w2;
    auto hash_data = hash_engine.ComputeChunks(gb, nums, {}, &w2);
    ASSERT_TRUE(hash_data.ok());

    ExpectIdentical(*dense_data, *hash_data);
    EXPECT_EQ(dense_engine.kernel_stats().hash_kernels, 0u);
    EXPECT_EQ(hash_engine.kernel_stats().dense_kernels, 0u);
    EXPECT_EQ(dense_engine.kernel_stats().rows_folded_dense,
              hash_engine.kernel_stats().rows_folded_hash);
  }
}

TEST_F(KernelEngineFixture, DenseEqualsHashWithNonGroupByFilter) {
  const GroupBySpec gb{{1, 0, 0, 0}, 4};
  const std::vector<uint64_t> nums = AllChunks(gb);
  std::vector<NonGroupByPredicate> preds;
  preds.push_back(NonGroupByPredicate{2, 2, OrdinalRange{0, 7}});

  BackendEngine dense_engine(pool_.get(), file_.get(), scheme_.get());
  BackendOptions hash_opts;
  hash_opts.dense_cell_limit = 0;
  BackendEngine hash_engine(pool_.get(), file_.get(), scheme_.get(),
                            hash_opts);
  WorkCounters w1, w2;
  auto d1 = dense_engine.ComputeChunks(gb, nums, preds, &w1);
  auto d2 = hash_engine.ComputeChunks(gb, nums, preds, &w2);
  ASSERT_TRUE(d1.ok());
  ASSERT_TRUE(d2.ok());
  ExpectIdentical(*d1, *d2);
}

TEST_F(KernelEngineFixture, HashReserveDoesNotChangeResults) {
  // PackKey folding with reserved capacity must not affect contents.
  const GroupBySpec gb{{2, 1, 2, 1}, 4};
  HashAggregator plain(scheme_.get(), gb);
  HashAggregator reserved(scheme_.get(), gb, /*reserve_cells=*/1u << 14);
  for (const Tuple& t : tuples_) {
    plain.AddBase(t);
    reserved.AddBase(t);
  }
  AggColumns a = plain.TakeColumns();
  AggColumns b = reserved.TakeColumns();
  a.SortRowMajor();
  b.SortRowMajor();
  EXPECT_TRUE(a == b);
}

}  // namespace
}  // namespace chunkcache::backend
