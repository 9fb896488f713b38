// Compression subsystem tests that cut across layers: AggColumns::
// Deserialize hardening against corrupt input, and the end-to-end ablation
// — enable_compression on == off must be bit-identical while every entry
// kept as a blob is charged less than its payload would be — plus scalar
// == AVX2 dispatch through the whole tier.

#include <cstring>
#include <memory>
#include <random>
#include <vector>

#include "backend/chunked_file.h"
#include "backend/engine.h"
#include "common/simd.h"
#include "core/chunk_cache_manager.h"
#include "gtest/gtest.h"
#include "schema/synthetic.h"
#include "storage/agg_columns.h"
#include "storage/buffer_pool.h"
#include "storage/codec.h"
#include "storage/disk_manager.h"
#include "workload/query_generator.h"

namespace chunkcache {
namespace {

using backend::ResultRow;
using backend::StarJoinQuery;
using core::ChunkCacheManager;
using core::ChunkManagerOptions;
using core::QueryStats;
using storage::AggColumns;
using storage::Tuple;

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

// ------------------------- Deserialize hardening ----------------------------

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

// --------------------------- End-to-end ablation ----------------------------

bool RowsEqual(const std::vector<ResultRow>& a,
               const std::vector<ResultRow>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].coords != b[i].coords || a[i].sum != b[i].sum ||
        a[i].count != b[i].count || a[i].min_v != b[i].min_v ||
        a[i].max_v != b[i].max_v) {
      return false;
    }
  }
  return true;
}

class CompressionTierFixture : public ::testing::Test {
 protected:
  static constexpr uint64_t kTuples = 20000;

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
    gen.seed = 41;
    tuples_ = schema::GenerateFactTuples(*schema_, gen);
    pool_ = std::make_unique<storage::BufferPool>(&disk_, 4096);
    auto file =
        backend::ChunkedFile::BulkLoad(pool_.get(), scheme_.get(), tuples_);
    ASSERT_TRUE(file.ok());
    file_ = std::make_unique<backend::ChunkedFile>(std::move(file).value());
    engine_ = std::make_unique<backend::BackendEngine>(pool_.get(),
                                                       file_.get(),
                                                       scheme_.get());
    ASSERT_TRUE(engine_->BuildBitmapIndexes().ok());
  }

  storage::InMemoryDiskManager disk_;
  std::unique_ptr<schema::StarSchema> schema_;
  std::unique_ptr<chunks::ChunkingScheme> scheme_;
  std::vector<Tuple> tuples_;
  std::unique_ptr<storage::BufferPool> pool_;
  std::unique_ptr<backend::ChunkedFile> file_;
  std::unique_ptr<backend::BackendEngine> engine_;
};

// The blob form of an entry, decoded back into its payload form.
storage::ChunkPayload PayloadOf(const storage::ChunkPayload& blob) {
  auto cols =
      storage::codec::DecodeAggColumns(blob.blob_data(), blob.blob_size());
  EXPECT_TRUE(cols.ok());
  return cols.ok() ? storage::ChunkPayload(*cols) : storage::ChunkPayload();
}

// Against payloads with singleton rows the blob wins on a few entries of
// this small table, so the stream runs until some have been kept.
TEST_F(CompressionTierFixture, OnEqualsOffBitIdentical) {
  workload::WorkloadOptions wopts;
  wopts.seed = 19;
  workload::QueryGenerator gen(schema_.get(), wopts);
  ChunkManagerOptions on_opts;
  on_opts.enable_compression = true;
  ChunkManagerOptions off_opts;
  off_opts.enable_compression = false;
  ChunkCacheManager on_mgr(engine_.get(), on_opts);
  ChunkCacheManager off_mgr(engine_.get(), off_opts);

  for (int i = 0; i < 120; ++i) {
    const StarJoinQuery q = gen.Next();
    QueryStats on_st, off_st;
    auto on_rows = on_mgr.Execute(q, &on_st);
    auto off_rows = off_mgr.Execute(q, &off_st);
    ASSERT_TRUE(on_rows.ok());
    ASSERT_TRUE(off_rows.ok());
    EXPECT_TRUE(RowsEqual(*on_rows, *off_rows)) << "query " << i;
    EXPECT_EQ(on_st.chunks_needed, off_st.chunks_needed);
    EXPECT_EQ(on_st.chunks_from_cache, off_st.chunks_from_cache);
    EXPECT_EQ(on_st.chunks_from_backend, off_st.chunks_from_backend);
  }
  const auto on_stats = on_mgr.StatsSnapshot();
  const auto off_stats = off_mgr.StatsSnapshot();
  ASSERT_GT(on_stats.compressed_chunks, 0u);
  EXPECT_GT(on_stats.compression_skipped, 0u);
  EXPECT_GT(on_stats.codec_raw_bytes, on_stats.codec_encoded_bytes);
  EXPECT_EQ(off_stats.compressed_chunks, 0u);
  EXPECT_EQ(off_stats.decode_calls, 0u);
  // Nothing was evicted, so the codec counters sum exactly the blobs the
  // tier kept and the payloads they replaced: the twin's entries.
  uint64_t blobs = 0;
  uint64_t blob_bytes = 0;
  uint64_t replaced_bytes = 0;
  on_mgr.chunk_cache().ForEachEntry([&](const cache::ChunkHandle& h) {
    if (!h->compressed()) return;
    ++blobs;
    blob_bytes += h->payload.capacity_bytes();
    const cache::ChunkHandle twin = off_mgr.chunk_cache().Lookup(
        h->group_by_id, h->chunk_num, h->filter_hash);
    ASSERT_NE(twin, nullptr);
    replaced_bytes += twin->payload.capacity_bytes();
  });
  EXPECT_EQ(blobs, on_stats.compressed_chunks);
  EXPECT_EQ(on_stats.codec_raw_bytes, replaced_bytes);
  EXPECT_EQ(on_stats.codec_encoded_bytes, blob_bytes);
  // Same chunk population, charged at encoded bytes: the compressed tier
  // must sit well under the raw tier's footprint.
  ASSERT_EQ(on_mgr.chunk_cache().num_chunks(),
            off_mgr.chunk_cache().num_chunks());
  EXPECT_LT(on_mgr.chunk_cache().bytes_used(),
            off_mgr.chunk_cache().bytes_used());
}

// The capacity half of the compression trade, per entry: at a budget
// below the working set, every entry the tier keeps as a blob is charged
// less than its payload form would be, and the answers are bit-identical
// with compression on and off.
TEST_F(CompressionTierFixture, BlobEntriesAreChargedLessThanTheirPayload) {
  auto run = [&](bool compression, std::vector<std::vector<ResultRow>>* rows,
                 uint64_t* blobs) {
    ChunkManagerOptions opts;
    opts.cache_bytes = 128u << 10;
    opts.enable_compression = compression;
    ChunkCacheManager mgr(engine_.get(), opts);
    workload::WorkloadOptions wopts;
    wopts.seed = 19;
    workload::QueryGenerator gen(schema_.get(), wopts);
    for (int i = 0; i < 300; ++i) {
      QueryStats st;
      auto r = mgr.Execute(gen.Next(), &st);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      rows->push_back(std::move(r).value());
    }
    EXPECT_GT(mgr.chunk_cache().stats().evictions, 0u);
    mgr.chunk_cache().ForEachEntry([&](const cache::ChunkHandle& h) {
      if (!h->compressed()) return;
      ++*blobs;
      const storage::ChunkPayload payload = PayloadOf(h->payload);
      EXPECT_EQ(payload.size(), h->rows());
      EXPECT_LT(h->payload.capacity_bytes(), payload.capacity_bytes());
      EXPECT_LT(h->ByteSize(), cache::kChunkEntryBytes +
                                   payload.capacity_bytes());
    });
  };
  std::vector<std::vector<ResultRow>> on_rows;
  std::vector<std::vector<ResultRow>> off_rows;
  uint64_t on_blobs = 0;
  uint64_t off_blobs = 0;
  run(true, &on_rows, &on_blobs);
  run(false, &off_rows, &off_blobs);
  EXPECT_GT(on_blobs, 0u);
  EXPECT_EQ(off_blobs, 0u);
  ASSERT_EQ(on_rows.size(), off_rows.size());
  for (size_t i = 0; i < on_rows.size(); ++i) {
    EXPECT_TRUE(RowsEqual(on_rows[i], off_rows[i])) << "query " << i;
  }
}

// Scalar and AVX2 dispatch answer a whole stream bit for bit, SUM
// included, through the tier's SIMD users: the dense fold on a miss,
// codec decode on a compressed hit, and in-cache aggregation.
TEST_F(CompressionTierFixture, ScalarEqualsAvx2ThroughTheTier) {
  if (simd::DetectedLevel() != simd::IsaLevel::kAvx2) {
    GTEST_SKIP() << "no AVX2 on this host";
  }
  auto run = [&](simd::IsaLevel level) {
    simd::ScopedLevel pin(level);
    ChunkManagerOptions opts;
    opts.enable_compression = true;
    opts.decoded_cache_bytes = 0;  // every compressed hit decodes
    opts.enable_in_cache_aggregation = true;
    ChunkCacheManager mgr(engine_.get(), opts);
    workload::WorkloadOptions wopts;
    wopts.seed = 23;
    workload::QueryGenerator gen(schema_.get(), wopts);
    std::vector<std::vector<ResultRow>> rows;
    for (int i = 0; i < 300; ++i) {
      QueryStats st;
      auto r = mgr.Execute(gen.Next(), &st);
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      rows.push_back(r.ok() ? std::move(r).value() : std::vector<ResultRow>{});
    }
    return rows;
  };
  const auto scalar = run(simd::IsaLevel::kScalar);
  const auto avx2 = run(simd::IsaLevel::kAvx2);
  for (size_t i = 0; i < scalar.size(); ++i) {
    EXPECT_TRUE(RowsEqual(scalar[i], avx2[i])) << "query " << i;
  }
}

TEST_F(CompressionTierFixture, DecodedFrontServesRepeatHits) {
  workload::WorkloadOptions wopts;
  wopts.seed = 29;
  workload::QueryGenerator gen(schema_.get(), wopts);
  ChunkManagerOptions opts;
  opts.enable_compression = true;
  ChunkCacheManager mgr(engine_.get(), opts);
  // The first query of the stream that leaves a blob in the cache.
  StarJoinQuery q;
  QueryStats st;
  for (int i = 0; i < 100 && mgr.StatsSnapshot().compressed_chunks == 0;
       ++i) {
    q = gen.Next();
    ASSERT_TRUE(mgr.Execute(q, &st).ok());
  }
  const auto first = mgr.StatsSnapshot();
  ASSERT_GT(first.compressed_chunks, 0u);
  // Re-running the same query hits compressed entries; the decoded front
  // (seeded at encode time) serves them without fresh decode work.
  ASSERT_TRUE(mgr.Execute(q, &st).ok());
  EXPECT_EQ(st.full_cache_hit, true);
  const auto second = mgr.StatsSnapshot();
  EXPECT_GT(second.decoded_lru_hits, first.decoded_lru_hits);
}

TEST_F(CompressionTierFixture, TinyDecodedFrontFallsBackToDecode) {
  workload::WorkloadOptions wopts;
  wopts.seed = 37;
  workload::QueryGenerator gen(schema_.get(), wopts);
  ChunkManagerOptions opts;
  opts.enable_compression = true;
  opts.decoded_cache_bytes = 0;  // no front: every compressed hit decodes
  ChunkCacheManager mgr(engine_.get(), opts);
  // The first query of the stream that leaves a blob in the cache.
  StarJoinQuery q;
  QueryStats st;
  for (int i = 0; i < 100 && mgr.StatsSnapshot().compressed_chunks == 0;
       ++i) {
    q = gen.Next();
    ASSERT_TRUE(mgr.Execute(q, &st).ok());
  }
  ASSERT_GT(mgr.StatsSnapshot().compressed_chunks, 0u);
  ASSERT_TRUE(mgr.Execute(q, &st).ok());
  const auto stats = mgr.StatsSnapshot();
  EXPECT_GT(stats.decode_calls, 0u);
  EXPECT_EQ(stats.decoded_lru_hits, 0u);
}

}  // namespace
}  // namespace chunkcache
