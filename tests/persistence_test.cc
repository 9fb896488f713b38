// Crash-safe persistent cache tests (DESIGN.md §14), three layers deep:
//
//  1. CachePersistence unit tests on raw temp directories — WAL round
//     trip, torn-tail truncation at EVERY byte offset of the final
//     record, snapshot rotation/GC, skip-and-quarantine of corrupt
//     snapshot records, and the retired record type 3.
//  2. End-to-end warm restart through ChunkCacheManager — a restarted
//     manager must answer bit-identically to a cold one (compression on
//     and off) while doing strictly less backend work.
//  3. Crash-point fuzz — arm each persistence fault site in turn, kill
//     the process mid-traffic (SimulateCrash), restart, and require a
//     recovered cache that still answers bit-identically. CrashStorm is
//     the tier2 variant: many randomized kill/restart cycles reusing one
//     directory.

#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "backend/chunked_file.h"
#include "backend/engine.h"
#include "common/crc32c.h"
#include "common/fault_injector.h"
#include "core/chunk_cache_manager.h"
#include "gtest/gtest.h"
#include "schema/synthetic.h"
#include "storage/buffer_pool.h"
#include "storage/cache_persist.h"
#include "storage/disk_manager.h"
#include "workload/query_generator.h"

namespace chunkcache {
namespace {

namespace fs = std::filesystem;

using backend::ResultRow;
using backend::StarJoinQuery;
using core::ChunkCacheManager;
using core::ChunkManagerOptions;
using core::QueryStats;
using storage::CachePersistence;
using storage::PersistedChunk;
using storage::PersistOptions;
using storage::RecoveryStats;
using storage::Tuple;

// ------------------------------ helpers -------------------------------------

/// Unique scratch directory, recursively removed on scope exit.
struct ScratchDir {
  ScratchDir() {
    char tmpl[] = "/tmp/chunkcache_persist_XXXXXX";
    const char* p = ::mkdtemp(tmpl);
    EXPECT_NE(p, nullptr);
    path = p;
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string path;
};

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::vector<uint8_t>& b) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(b.data()),
            static_cast<std::streamsize>(b.size()));
  ASSERT_TRUE(out.good()) << path;
}

/// The only file in `dir` whose name starts with `prefix` ("wal-",
/// "snapshot-"); fails the test if there is not exactly one.
std::string OnlyFileWithPrefix(const std::string& dir,
                               const std::string& prefix) {
  std::string found;
  int n = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    if (name.rfind(prefix, 0) == 0) {
      found = e.path().string();
      ++n;
    }
  }
  EXPECT_EQ(n, 1) << prefix << "* in " << dir;
  return found;
}

struct Frame {
  size_t offset;  ///< File offset of the 8-byte record header.
  uint32_t len;   ///< Bytes of type|payload that follow the header.
  uint8_t type;
};

/// Walks the record stream of a WAL/snapshot image using the public frame
/// layout (u32 crc | u32 len | u8 type | payload).
std::vector<Frame> ParseFrames(const std::vector<uint8_t>& bytes) {
  std::vector<Frame> out;
  size_t pos = CachePersistence::kFileHeaderBytes;
  while (pos + CachePersistence::kRecordHeaderBytes <= bytes.size()) {
    uint32_t len = 0;
    std::memcpy(&len, bytes.data() + pos + 4, sizeof(len));
    if (pos + CachePersistence::kRecordHeaderBytes + len > bytes.size()) break;
    out.push_back(Frame{pos, len,
                        bytes[pos + CachePersistence::kRecordHeaderBytes]});
    pos += CachePersistence::kRecordHeaderBytes + len;
  }
  return out;
}

/// A valid-CRC frame of record type 3, retired from the format. It carried
/// a per-group-by benefit value: u32 group_by_id | f64 value.
std::vector<uint8_t> RetiredType3Frame() {
  const uint32_t len = 1 + 4 + 8;
  std::vector<uint8_t> frame(CachePersistence::kRecordHeaderBytes + len);
  uint8_t* body = frame.data() + CachePersistence::kRecordHeaderBytes;
  body[0] = 3;
  const uint32_t group_by_id = 2;
  const double value = 0.625;
  std::memcpy(body + 1, &group_by_id, 4);
  std::memcpy(body + 5, &value, 8);
  const uint32_t crc = Crc32c(body, len);
  std::memcpy(frame.data(), &crc, 4);
  std::memcpy(frame.data() + 4, &len, 4);
  return frame;
}

/// Rewrites `path` with `frame` inserted at byte offset `at`.
void SpliceFrame(const std::string& path, size_t at,
                 const std::vector<uint8_t>& frame) {
  std::vector<uint8_t> image = ReadFileBytes(path);
  image.insert(image.begin() + static_cast<std::ptrdiff_t>(at), frame.begin(),
               frame.end());
  WriteFileBytes(path, image);
}

std::unique_ptr<CachePersistence> OpenOrDie(const std::string& dir,
                                            uint64_t fsync_every = 1) {
  PersistOptions opts;
  opts.dir = dir;
  opts.wal_fsync_every = fsync_every;
  auto r = CachePersistence::Open(opts);
  EXPECT_TRUE(r.ok()) << r.status().message();
  return std::move(r).value();
}

PersistedChunk MakeChunk(uint32_t gb, uint64_t num, uint8_t fill) {
  PersistedChunk c;
  c.group_by_id = gb;
  c.chunk_num = num;
  c.filter_hash = 0x9E3779B97F4A7C15ull * (num + 1);
  c.benefit = 0.5 + static_cast<double>(fill);
  c.raw_bytes = 64 + fill;
  c.rows = 4 + gb;
  c.blob.assign(8 + fill % 5, fill);
  return c;
}

bool SameChunk(const PersistedChunk& a, const PersistedChunk& b) {
  return a.group_by_id == b.group_by_id && a.chunk_num == b.chunk_num &&
         a.filter_hash == b.filter_hash && a.benefit == b.benefit &&
         a.raw_bytes == b.raw_bytes && a.rows == b.rows && a.blob == b.blob;
}

int StormIters(int fallback) {
  const char* s = std::getenv("CHUNKCACHE_STORM_ITERS");
  if (s == nullptr) return fallback;
  const int n = std::atoi(s);
  return n > 0 ? n : fallback;
}

// ----------------------------- WAL round trip -------------------------------

TEST(PersistWal, AdmitEvictBenefitRoundTrip) {
  ScratchDir dir;
  const PersistedChunk a = MakeChunk(1, 10, 3);
  const PersistedChunk b = MakeChunk(1, 11, 4);
  const PersistedChunk c = MakeChunk(2, 12, 5);
  {
    auto p = OpenOrDie(dir.path);
    p->LogAdmit(a);
    p->LogAdmit(b);
    p->LogAdmit(c);
    p->LogEvict(b.group_by_id, b.chunk_num, b.filter_hash);
    EXPECT_EQ(p->wal_records_since_snapshot(), 4u);
  }
  auto p = OpenOrDie(dir.path);
  RecoveryStats rec = p->TakeRecovery();
  EXPECT_EQ(rec.wal_records, 4u);
  EXPECT_EQ(rec.wal_truncated_bytes, 0u);
  EXPECT_EQ(rec.quarantined, 0u);
  ASSERT_EQ(rec.entries.size(), 2u);
  EXPECT_TRUE(SameChunk(rec.entries[0], a));
  EXPECT_TRUE(SameChunk(rec.entries[1], c));
}

TEST(PersistWal, ReAdmitSameKeyUpserts) {
  ScratchDir dir;
  PersistedChunk a = MakeChunk(3, 7, 1);
  {
    auto p = OpenOrDie(dir.path);
    p->LogAdmit(a);
    a.benefit = 9.0;
    a.blob.assign(6, 0xEE);
    p->LogAdmit(a);  // replacement: replay must keep the newer payload
  }
  auto p = OpenOrDie(dir.path);
  RecoveryStats rec = p->TakeRecovery();
  ASSERT_EQ(rec.entries.size(), 1u);
  EXPECT_TRUE(SameChunk(rec.entries[0], a));
}

TEST(PersistWal, CrashDropsSubsequentAppends) {
  ScratchDir dir;
  {
    auto p = OpenOrDie(dir.path);
    p->LogAdmit(MakeChunk(1, 1, 1));
    p->SimulateCrash();
    p->LogAdmit(MakeChunk(1, 2, 2));  // after the "kill": must not land
  }
  auto p = OpenOrDie(dir.path);
  RecoveryStats rec = p->TakeRecovery();
  ASSERT_EQ(rec.entries.size(), 1u);
  EXPECT_EQ(rec.entries[0].chunk_num, 1u);
}

// Torn tail: truncate the WAL at every byte offset inside the final
// record. Every cut must recover cleanly to exactly the prefix records,
// counting the torn bytes.
TEST(PersistWal, TornTailTruncatedAtEveryByteOffset) {
  ScratchDir master;
  std::vector<PersistedChunk> chunks;
  for (uint8_t i = 0; i < 4; ++i) chunks.push_back(MakeChunk(1, i, i));
  {
    auto p = OpenOrDie(master.path);
    for (const auto& c : chunks) p->LogAdmit(c);
  }
  const std::string wal = OnlyFileWithPrefix(master.path, "wal-");
  const std::vector<uint8_t> image = ReadFileBytes(wal);
  const std::vector<Frame> frames = ParseFrames(image);
  ASSERT_EQ(frames.size(), 4u);
  const size_t last_start = frames.back().offset;
  ASSERT_EQ(last_start + CachePersistence::kRecordHeaderBytes +
                frames.back().len,
            image.size());

  for (size_t cut = last_start; cut < image.size(); ++cut) {
    ScratchDir torn;
    std::vector<uint8_t> img(image.begin(), image.begin() + cut);
    WriteFileBytes(torn.path + "/" + fs::path(wal).filename().string(), img);
    auto p = OpenOrDie(torn.path);
    RecoveryStats rec = p->TakeRecovery();
    ASSERT_EQ(rec.entries.size(), 3u) << "cut at byte " << cut;
    for (size_t i = 0; i < 3; ++i) {
      EXPECT_TRUE(SameChunk(rec.entries[i], chunks[i])) << "cut " << cut;
    }
    EXPECT_EQ(rec.wal_records, 3u) << "cut " << cut;
    EXPECT_EQ(rec.wal_truncated_bytes, cut - last_start) << "cut " << cut;
    EXPECT_EQ(rec.quarantined, 0u);
    // The torn tail was truncated away: appends to the recovered WAL line
    // up on a record boundary again.
    p->LogAdmit(chunks[3]);
    p.reset();
    auto p2 = OpenOrDie(torn.path);
    RecoveryStats rec2 = p2->TakeRecovery();
    ASSERT_EQ(rec2.entries.size(), 4u) << "cut " << cut;
    EXPECT_TRUE(SameChunk(rec2.entries[3], chunks[3]));
  }
}

// A corrupted (bit-flipped) record in the middle of the WAL ends replay at
// that point: the suffix cannot be trusted once framing is broken.
TEST(PersistWal, CorruptMiddleRecordStopsReplayAtTear) {
  ScratchDir dir;
  std::vector<PersistedChunk> chunks;
  for (uint8_t i = 0; i < 3; ++i) chunks.push_back(MakeChunk(2, i, i));
  {
    auto p = OpenOrDie(dir.path);
    for (const auto& c : chunks) p->LogAdmit(c);
  }
  const std::string wal = OnlyFileWithPrefix(dir.path, "wal-");
  std::vector<uint8_t> image = ReadFileBytes(wal);
  const std::vector<Frame> frames = ParseFrames(image);
  ASSERT_EQ(frames.size(), 3u);
  // Flip one payload byte of the middle record.
  image[frames[1].offset + CachePersistence::kRecordHeaderBytes + 9] ^= 0x40;
  WriteFileBytes(wal, image);

  auto p = OpenOrDie(dir.path);
  RecoveryStats rec = p->TakeRecovery();
  ASSERT_EQ(rec.entries.size(), 1u);
  EXPECT_TRUE(SameChunk(rec.entries[0], chunks[0]));
  EXPECT_GT(rec.wal_truncated_bytes, 0u);
}

// ------------------------------- snapshots ----------------------------------

TEST(PersistSnapshot, RotateRecoverAndGc) {
  ScratchDir dir;
  const PersistedChunk a = MakeChunk(1, 100, 1);
  const PersistedChunk b = MakeChunk(1, 101, 2);
  const PersistedChunk c = MakeChunk(2, 102, 3);
  {
    auto p = OpenOrDie(dir.path);
    p->LogAdmit(a);
    p->LogAdmit(b);
    Status s = p->WriteSnapshot([&](std::vector<PersistedChunk>* out) {
      out->push_back(a);
      out->push_back(b);
    });
    ASSERT_TRUE(s.ok()) << s.message();
    EXPECT_EQ(p->wal_records_since_snapshot(), 0u);
    p->LogAdmit(c);  // lands in the rotated WAL, replayed over the snapshot
  }
  // A fresh directory opens at generation 1; the snapshot bumped it to 2
  // and garbage collected the generation-1 WAL once durable.
  EXPECT_FALSE(fs::exists(dir.path + "/wal-1"));
  EXPECT_TRUE(fs::exists(dir.path + "/snapshot-2"));
  EXPECT_TRUE(fs::exists(dir.path + "/wal-2"));

  auto p = OpenOrDie(dir.path);
  RecoveryStats rec = p->TakeRecovery();
  EXPECT_EQ(rec.generation, 2u);
  EXPECT_EQ(rec.snapshot_entries, 2u);
  EXPECT_EQ(rec.wal_records, 1u);
  ASSERT_EQ(rec.entries.size(), 3u);
  EXPECT_TRUE(SameChunk(rec.entries[0], a));
  EXPECT_TRUE(SameChunk(rec.entries[1], b));
  EXPECT_TRUE(SameChunk(rec.entries[2], c));
}

// Corrupt snapshot record: skipped and quarantined; neighbors survive.
TEST(PersistSnapshot, CorruptRecordQuarantinedNeighborsSurvive) {
  ScratchDir dir;
  std::vector<PersistedChunk> chunks;
  for (uint8_t i = 0; i < 3; ++i) chunks.push_back(MakeChunk(4, i, i));
  {
    auto p = OpenOrDie(dir.path);
    Status s = p->WriteSnapshot(
        [&](std::vector<PersistedChunk>* out) { *out = chunks; });
    ASSERT_TRUE(s.ok()) << s.message();
    p->SimulateCrash();  // keep the shutdown path from appending anything
  }
  const std::string snap = OnlyFileWithPrefix(dir.path, "snapshot-");
  std::vector<uint8_t> image = ReadFileBytes(snap);
  const std::vector<Frame> frames = ParseFrames(image);
  // 3 admits + footer.
  ASSERT_EQ(frames.size(), 4u);
  ASSERT_EQ(frames[1].type, CachePersistence::kAdmit);
  image[frames[1].offset + CachePersistence::kRecordHeaderBytes + 6] ^= 0x01;
  WriteFileBytes(snap, image);

  auto p = OpenOrDie(dir.path);
  RecoveryStats rec = p->TakeRecovery();
  EXPECT_EQ(rec.quarantined, 1u);
  ASSERT_EQ(rec.entries.size(), 2u);
  EXPECT_TRUE(SameChunk(rec.entries[0], chunks[0]));
  EXPECT_TRUE(SameChunk(rec.entries[1], chunks[2]));
}

// An unreadable snapshot (bad magic) falls back to cold, never an error.
TEST(PersistSnapshot, BadMagicFallsBackCold) {
  ScratchDir dir;
  {
    auto p = OpenOrDie(dir.path);
    Status s = p->WriteSnapshot([&](std::vector<PersistedChunk>* out) {
      out->push_back(MakeChunk(1, 1, 1));
    });
    ASSERT_TRUE(s.ok());
    p->SimulateCrash();
  }
  const std::string snap = OnlyFileWithPrefix(dir.path, "snapshot-");
  std::vector<uint8_t> image = ReadFileBytes(snap);
  image[0] ^= 0xFF;
  WriteFileBytes(snap, image);

  auto p = OpenOrDie(dir.path);
  RecoveryStats rec = p->TakeRecovery();
  EXPECT_EQ(rec.snapshot_entries, 0u);
  EXPECT_TRUE(rec.entries.empty());
}

// A stray .tmp (crash between shadow write and rename) is ignored and
// cleaned up; the previous generation stays authoritative.
TEST(PersistSnapshot, StrayTmpIgnoredAndUnlinked) {
  ScratchDir dir;
  const PersistedChunk a = MakeChunk(9, 5, 2);
  {
    auto p = OpenOrDie(dir.path);
    p->LogAdmit(a);
  }
  WriteFileBytes(dir.path + "/snapshot-7.tmp", {1, 2, 3, 4});
  auto p = OpenOrDie(dir.path);
  RecoveryStats rec = p->TakeRecovery();
  ASSERT_EQ(rec.entries.size(), 1u);
  EXPECT_TRUE(SameChunk(rec.entries[0], a));
  EXPECT_FALSE(fs::exists(dir.path + "/snapshot-7.tmp"));
}

// --------------------------- end-to-end fixture -----------------------------

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

class PersistenceFixture : public ::testing::Test {
 protected:
  static constexpr uint64_t kTuples = 16000;

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
    gen.seed = 47;
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

  void TearDown() override { FaultInjector::Global().DisarmAll(); }

  std::vector<StarJoinQuery> MakeQueries(int n, uint64_t seed) {
    workload::WorkloadOptions wopts;
    wopts.seed = seed;
    workload::QueryGenerator gen(schema_.get(), wopts);
    std::vector<StarJoinQuery> out;
    out.reserve(n);
    for (int i = 0; i < n; ++i) out.push_back(gen.Next());
    return out;
  }

  /// Reference answers from a persistence-free manager (cache warmth never
  /// changes answers, so this is THE ground truth for every restart mode).
  std::vector<std::vector<ResultRow>> ReferenceRows(
      const std::vector<StarJoinQuery>& queries, bool compression = false) {
    ChunkManagerOptions opts;
    opts.enable_compression = compression;
    ChunkCacheManager mgr(engine_.get(), opts);
    std::vector<std::vector<ResultRow>> rows;
    for (const auto& q : queries) {
      QueryStats st;
      auto r = mgr.Execute(q, &st);
      EXPECT_TRUE(r.ok()) << r.status().message();
      rows.push_back(std::move(r).value());
    }
    return rows;
  }

  ChunkManagerOptions PersistOpts(const std::string& dir,
                                  bool compression = false) {
    ChunkManagerOptions opts;
    opts.persist_dir = dir;
    opts.persist_snapshot_every = 64;
    opts.persist_wal_fsync_every = 8;
    opts.enable_compression = compression;
    return opts;
  }

  storage::InMemoryDiskManager disk_;
  std::unique_ptr<schema::StarSchema> schema_;
  std::unique_ptr<chunks::ChunkingScheme> scheme_;
  std::vector<Tuple> tuples_;
  std::unique_ptr<storage::BufferPool> pool_;
  std::unique_ptr<backend::ChunkedFile> file_;
  std::unique_ptr<backend::BackendEngine> engine_;
};

void RunWarmRestart(backend::BackendEngine* engine,
                    const std::vector<StarJoinQuery>& queries,
                    const std::vector<std::vector<ResultRow>>& reference,
                    ChunkManagerOptions opts) {
  uint64_t cold_backend = 0;
  {
    ChunkCacheManager cold(engine, opts);
    EXPECT_EQ(cold.StatsSnapshot().persist_recovered_entries, 0u);
    for (size_t i = 0; i < queries.size(); ++i) {
      QueryStats st;
      auto r = cold.Execute(queries[i], &st);
      ASSERT_TRUE(r.ok()) << r.status().message();
      EXPECT_TRUE(RowsEqual(*r, reference[i])) << "cold query " << i;
      cold_backend += st.chunks_from_backend;
    }
  }  // clean shutdown: final snapshot written

  ChunkCacheManager warm(engine, opts);
  const auto& rec = warm.recovery_stats();
  EXPECT_GT(rec.snapshot_entries + rec.wal_records, 0u);
  EXPECT_EQ(rec.quarantined, 0u);
  const auto warm_stats = warm.StatsSnapshot();
  EXPECT_GT(warm_stats.persist_recovered_entries, 0u);
  EXPECT_EQ(warm_stats.persist_quarantined, 0u);

  uint64_t warm_backend = 0, warm_hits = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    QueryStats st;
    auto r = warm.Execute(queries[i], &st);
    ASSERT_TRUE(r.ok()) << r.status().message();
    EXPECT_TRUE(RowsEqual(*r, reference[i])) << "warm query " << i;
    warm_backend += st.chunks_from_backend;
    warm_hits += st.chunks_from_cache;
  }
  // The restart actually warmed the cache: strictly fewer backend chunk
  // computations than the cold pass over the identical query sequence.
  EXPECT_LT(warm_backend, cold_backend);
  EXPECT_GT(warm_hits, 0u);
}

TEST_F(PersistenceFixture, WarmRestartBitIdenticalRaw) {
  const auto queries = MakeQueries(30, 23);
  const auto reference = ReferenceRows(queries);
  ScratchDir dir;
  RunWarmRestart(engine_.get(), queries, reference,
                 PersistOpts(dir.path, /*compression=*/false));
}

TEST_F(PersistenceFixture, WarmRestartBitIdenticalCompressed) {
  const auto queries = MakeQueries(30, 23);
  const auto reference = ReferenceRows(queries, /*compression=*/true);
  ScratchDir dir;
  RunWarmRestart(engine_.get(), queries, reference,
                 PersistOpts(dir.path, /*compression=*/true));
}

// A compressed-tier run can be recovered by a raw-tier manager and vice
// versa: the durable blob is the self-contained codec format either way.
TEST_F(PersistenceFixture, CrossTierRestartBitIdentical) {
  const auto queries = MakeQueries(20, 31);
  const auto reference = ReferenceRows(queries);
  ScratchDir dir;
  {
    ChunkCacheManager mgr(engine_.get(),
                          PersistOpts(dir.path, /*compression=*/true));
    for (size_t i = 0; i < queries.size(); ++i) {
      QueryStats st;
      auto r = mgr.Execute(queries[i], &st);
      ASSERT_TRUE(r.ok());
      EXPECT_TRUE(RowsEqual(*r, reference[i]));
    }
  }
  ChunkCacheManager warm(engine_.get(),
                         PersistOpts(dir.path, /*compression=*/false));
  EXPECT_GT(warm.StatsSnapshot().persist_recovered_entries, 0u);
  for (size_t i = 0; i < queries.size(); ++i) {
    QueryStats st;
    auto r = warm.Execute(queries[i], &st);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(RowsEqual(*r, reference[i])) << "query " << i;
  }
}

// ------------------------- retired record type 3 ---------------------------

// Directories written while record type 3 existed may still hold one. A
// WAL stops replay at it and counts the rest as torn; a snapshot skips it
// and keeps its neighbours. Either way the warm cache answers exactly
// like a cold one: a retired record costs warmth, never correctness.
TEST_F(PersistenceFixture, RetiredType3RecordCostsWarmthNotCorrectness) {
  const auto queries = MakeQueries(12, 59);
  const auto reference = ReferenceRows(queries);
  ScratchDir wal_dir, snap_dir;
  for (const std::string* dir : {&wal_dir.path, &snap_dir.path}) {
    ChunkManagerOptions opts;
    opts.persist_dir = *dir;
    opts.persist_snapshot_every = 0;
    ChunkCacheManager mgr(engine_.get(), opts);
    for (const auto& q : queries) {
      QueryStats st;
      ASSERT_TRUE(mgr.Execute(q, &st).ok());
    }
    if (dir == &snap_dir.path) {
      ASSERT_TRUE(mgr.PersistSnapshot().ok());
    }
    mgr.persistence()->SimulateCrash();  // no shutdown snapshot
  }

  // WAL: admit, type 3, admit, ... recovers only the first admit.
  const std::string wal = OnlyFileWithPrefix(wal_dir.path, "wal-");
  const std::vector<Frame> wal_frames = ParseFrames(ReadFileBytes(wal));
  ASSERT_GE(wal_frames.size(), 2u);
  ASSERT_EQ(wal_frames[0].type, CachePersistence::kAdmit);
  SpliceFrame(wal, wal_frames[1].offset, RetiredType3Frame());
  {
    auto p = OpenOrDie(wal_dir.path);
    RecoveryStats rec = p->TakeRecovery();
    EXPECT_EQ(rec.wal_records, 1u);
    EXPECT_EQ(rec.entries.size(), 1u);
    EXPECT_EQ(rec.wal_truncated_bytes,
              ReadFileBytes(wal).size() - wal_frames[1].offset);
    EXPECT_EQ(rec.quarantined, 0u);
  }

  // Snapshot: admit, type 3, admit, ..., footer keeps every admit.
  const std::string snap = OnlyFileWithPrefix(snap_dir.path, "snapshot-");
  const std::vector<Frame> snap_frames = ParseFrames(ReadFileBytes(snap));
  ASSERT_GE(snap_frames.size(), 3u);
  ASSERT_EQ(snap_frames.back().type, CachePersistence::kFooter);
  const size_t admits = snap_frames.size() - 1;
  SpliceFrame(snap, snap_frames[1].offset, RetiredType3Frame());
  {
    auto p = OpenOrDie(snap_dir.path);
    RecoveryStats rec = p->TakeRecovery();
    EXPECT_EQ(rec.snapshot_entries, admits);
    EXPECT_EQ(rec.entries.size(), admits);
    EXPECT_EQ(rec.quarantined, 0u);
  }

  for (const std::string* dir : {&wal_dir.path, &snap_dir.path}) {
    ChunkManagerOptions opts;
    opts.persist_dir = *dir;
    ChunkCacheManager warm(engine_.get(), opts);
    EXPECT_GT(warm.StatsSnapshot().persist_recovered_entries, 0u);
    for (size_t i = 0; i < queries.size(); ++i) {
      QueryStats st;
      auto r = warm.Execute(queries[i], &st);
      ASSERT_TRUE(r.ok()) << *dir;
      EXPECT_TRUE(RowsEqual(*r, reference[i])) << *dir << " query " << i;
    }
  }
}

// ----------------------------- crash-point fuzz -----------------------------

/// One kill/restart cycle: run traffic with `site` armed to fault the
/// k-th persistence operation, kill the process at the end (SimulateCrash
/// so the shutdown snapshot is suppressed, exactly like a SIGKILL), then
/// restart on the same directory and require bit-identical answers.
void CrashCycle(backend::BackendEngine* engine,
                const std::vector<StarJoinQuery>& queries,
                const std::vector<std::vector<ResultRow>>& reference,
                const std::string& dir, FaultSite site, uint64_t skip) {
  FaultInjector& fi = FaultInjector::Global();
  fi.Seed(0xC0FFEE00 + skip);
  fi.ResetCounters();
  {
    ChunkManagerOptions opts;
    opts.persist_dir = dir;
    opts.persist_snapshot_every = 16;  // exercise the snapshot path often
    ChunkCacheManager mgr(engine, opts);
    fi.Arm(site, /*probability=*/1.0, StatusCode::kIoError,
           /*max_faults=*/1, /*skip_ops=*/skip);
    for (size_t i = 0; i < queries.size(); ++i) {
      QueryStats st;
      auto r = mgr.Execute(queries[i], &st);
      // Persistence is best-effort on the write side: faults there must
      // never surface into query execution.
      ASSERT_TRUE(r.ok()) << FaultSiteName(site) << " skip " << skip;
      EXPECT_TRUE(RowsEqual(*r, reference[i]));
    }
    fi.DisarmAll();
    ASSERT_NE(mgr.persistence(), nullptr);
    mgr.persistence()->SimulateCrash();
  }  // "killed": destructor writes nothing

  ChunkManagerOptions opts;
  opts.persist_dir = dir;
  ChunkCacheManager warm(engine, opts);
  for (size_t i = 0; i < queries.size(); ++i) {
    QueryStats st;
    auto r = warm.Execute(queries[i], &st);
    ASSERT_TRUE(r.ok()) << FaultSiteName(site) << " skip " << skip;
    EXPECT_TRUE(RowsEqual(*r, reference[i]))
        << FaultSiteName(site) << " skip " << skip << " query " << i;
  }
}

TEST_F(PersistenceFixture, CrashPointFuzzEveryFaultSite) {
  const auto queries = MakeQueries(12, 29);
  const auto reference = ReferenceRows(queries);
  const FaultSite sites[] = {FaultSite::kWalAppend, FaultSite::kWalFsync,
                             FaultSite::kSnapshotWrite,
                             FaultSite::kSnapshotRename};
  for (FaultSite site : sites) {
    for (uint64_t skip : {0ull, 2ull, 9ull}) {
      ScratchDir dir;
      CrashCycle(engine_.get(), queries, reference, dir.path, site, skip);
    }
  }
}

// Recovery-side faults: every snapshot/WAL read can fail and construction
// must still succeed (worst case a cold cache) with correct answers.
TEST_F(PersistenceFixture, RecoveryReadFaultFallsBackGracefully) {
  const auto queries = MakeQueries(12, 37);
  const auto reference = ReferenceRows(queries);
  ScratchDir dir;
  {
    ChunkManagerOptions opts;
    opts.persist_dir = dir.path;
    ChunkCacheManager mgr(engine_.get(), opts);
    for (size_t i = 0; i < queries.size(); ++i) {
      QueryStats st;
      auto r = mgr.Execute(queries[i], &st);
      ASSERT_TRUE(r.ok());
    }
  }
  FaultInjector& fi = FaultInjector::Global();
  for (uint64_t skip : {0ull, 1ull}) {
    fi.Seed(0xDEAD0000 + skip);
    fi.ResetCounters();
    fi.Arm(FaultSite::kRecoveryRead, /*probability=*/1.0,
           StatusCode::kIoError, FaultInjector::kUnlimited, skip);
    ChunkManagerOptions opts;
    opts.persist_dir = dir.path;
    ChunkCacheManager warm(engine_.get(), opts);
    fi.DisarmAll();
    for (size_t i = 0; i < queries.size(); ++i) {
      QueryStats st;
      auto r = warm.Execute(queries[i], &st);
      ASSERT_TRUE(r.ok()) << "skip " << skip;
      EXPECT_TRUE(RowsEqual(*r, reference[i])) << "skip " << skip;
    }
    // Keep the dir as the first run left it: no shutdown snapshot.
    warm.persistence()->SimulateCrash();
  }
}

// Concurrent traffic while the WAL sink and explicit snapshots run: the
// event sink fires outside shard locks from many workers while the main
// thread forces full snapshot rotations (this is the interleaving TSAN
// needs to see). The restarted cache must still answer bit-identically.
TEST_F(PersistenceFixture, ConcurrentTrafficWithSnapshots) {
  const auto reference_queries = MakeQueries(10, 53);
  const auto reference = ReferenceRows(reference_queries);
  ScratchDir dir;
  {
    ChunkManagerOptions opts = PersistOpts(dir.path);
    opts.num_workers = 4;
    opts.cache_shards = 4;
    opts.persist_snapshot_every = 0;  // only the explicit + shutdown ones
    ChunkCacheManager mgr(engine_.get(), opts);
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([this, &mgr, t] {
        workload::WorkloadOptions wopts;
        wopts.seed = 100 + t;
        workload::QueryGenerator gen(schema_.get(), wopts);
        for (int i = 0; i < 15; ++i) {
          QueryStats st;
          auto r = mgr.Execute(gen.Next(), &st);
          EXPECT_TRUE(r.ok());
        }
      });
    }
    for (int i = 0; i < 5; ++i) {
      EXPECT_TRUE(mgr.PersistSnapshot().ok());
    }
    for (auto& th : threads) th.join();
  }
  ChunkCacheManager warm(engine_.get(), PersistOpts(dir.path));
  EXPECT_GT(warm.StatsSnapshot().persist_recovered_entries, 0u);
  for (size_t i = 0; i < reference_queries.size(); ++i) {
    QueryStats st;
    auto r = warm.Execute(reference_queries[i], &st);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(RowsEqual(*r, reference[i])) << "query " << i;
  }
}

// ------------------------------ tier2 storm ---------------------------------

/// Randomized kill/restart storm reusing ONE persistence directory: every
/// cycle arms all five persistence sites at low probability, runs traffic,
/// flips a coin between clean shutdown and SIGKILL, then the next cycle
/// recovers on top of whatever survived. Answers must stay bit-identical
/// throughout. Iterations scale with CHUNKCACHE_STORM_ITERS (tier2 CI
/// sets 10; the default smoke pass runs 2).
TEST_F(PersistenceFixture, CrashStormKillRestartCycles) {
  const int iters = StormIters(2);
  const auto queries = MakeQueries(10, 41);
  const auto reference = ReferenceRows(queries);
  const FaultSite sites[] = {FaultSite::kWalAppend, FaultSite::kWalFsync,
                             FaultSite::kSnapshotWrite,
                             FaultSite::kSnapshotRename,
                             FaultSite::kRecoveryRead};
  ScratchDir dir;
  std::mt19937_64 rng(0x57012);
  FaultInjector& fi = FaultInjector::Global();
  for (int cycle = 0; cycle < iters; ++cycle) {
    fi.Seed(rng());
    fi.ResetCounters();
    // Recovery runs under fire too (kRecoveryRead armed at 5%).
    for (FaultSite s : sites) {
      fi.Arm(s, /*probability=*/0.05, StatusCode::kIoError);
    }
    ChunkManagerOptions opts;
    opts.persist_dir = dir.path;
    opts.persist_snapshot_every = 16;
    ChunkCacheManager mgr(engine_.get(), opts);
    for (size_t i = 0; i < queries.size(); ++i) {
      QueryStats st;
      auto r = mgr.Execute(queries[i], &st);
      ASSERT_TRUE(r.ok()) << "cycle " << cycle;
      EXPECT_TRUE(RowsEqual(*r, reference[i]))
          << "cycle " << cycle << " query " << i;
    }
    fi.DisarmAll();
    if (rng() & 1) mgr.persistence()->SimulateCrash();
  }
  // Final verification pass, faults off, after the last restart.
  ChunkManagerOptions opts;
  opts.persist_dir = dir.path;
  ChunkCacheManager mgr(engine_.get(), opts);
  EXPECT_EQ(mgr.recovery_stats().quarantined, 0u);
  for (size_t i = 0; i < queries.size(); ++i) {
    QueryStats st;
    auto r = mgr.Execute(queries[i], &st);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(RowsEqual(*r, reference[i])) << "final pass query " << i;
  }
}

}  // namespace
}  // namespace chunkcache
