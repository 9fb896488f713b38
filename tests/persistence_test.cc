// Crash-safe persistent cache tests (DESIGN.md §14), three layers deep:
//
//  1. CachePersistence unit tests on raw temp directories — snapshot
//     rotation/GC, skip-and-quarantine of corrupt snapshot records, the
//     retired record type 3, snapshots of another data fingerprint, and a
//     simulated kill in the middle of a snapshot.
//  2. End-to-end warm restart through ChunkCacheManager — a restarted
//     manager must answer bit-identically to a cold one while doing
//     strictly less backend work, whether it restarts from the shutdown
//     snapshot or from a background snapshot after a crash; a directory
//     in an older format, or one written against other data or another
//     chunking, restarts cold with the same answers.
//  3. Crash-point fuzz — arm each persistence fault site in turn, kill
//     the process mid-traffic (SimulateCrash), restart, and require a
//     recovered cache that still answers bit-identically. CrashStorm is
//     the tier2 variant: many randomized kill/restart cycles reusing one
//     directory.

#include <unistd.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
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
using storage::AggColumns;
using storage::CachePersistence;
using storage::PersistedChunk;
using storage::RecoveryStats;
using storage::SnapshotWriter;

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

/// The only file in `dir` whose name starts with `prefix` ("snapshot-");
/// fails the test if there is not exactly one.
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

/// Walks the record stream of a snapshot image using the public frame
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

template <typename T>
void Put(std::vector<uint8_t>* b, T v) {
  const size_t n = b->size();
  b->resize(n + sizeof(T));
  std::memcpy(b->data() + n, &v, sizeof(T));
}

/// A valid-CRC frame of record `type` around `payload`, framed by hand
/// from the public layout.
std::vector<uint8_t> HandFrame(uint8_t type,
                               const std::vector<uint8_t>& payload) {
  const uint32_t len = static_cast<uint32_t>(1 + payload.size());
  std::vector<uint8_t> frame(CachePersistence::kRecordHeaderBytes + len);
  uint8_t* body = frame.data() + CachePersistence::kRecordHeaderBytes;
  body[0] = type;
  if (!payload.empty()) std::memcpy(body + 1, payload.data(), payload.size());
  const uint32_t crc = Crc32c(body, len);
  std::memcpy(frame.data(), &crc, 4);
  std::memcpy(frame.data() + 4, &len, 4);
  return frame;
}

/// Payload of an admit record (type 1): key and benefit, then the
/// columns' SerializeTo bytes.
std::vector<uint8_t> AdmitPayload(const PersistedChunk& c) {
  std::vector<uint8_t> b;
  Put(&b, c.group_by_id);
  Put(&b, c.chunk_num);
  Put(&b, c.filter_hash);
  Put(&b, c.benefit);
  c.cols.SerializeTo(&b);
  return b;
}

/// Bytes of an admit record's key and benefit, before its columns.
constexpr size_t kAdmitKeyBytes = 4 + 8 + 8 + 8;

/// A valid-CRC frame of record type 3, retired from the format. It carried
/// a per-group-by benefit value: u32 group_by_id | f64 value.
std::vector<uint8_t> RetiredType3Frame() {
  std::vector<uint8_t> payload;
  Put(&payload, uint32_t{2});
  Put(&payload, 0.625);
  return HandFrame(3, payload);
}

/// Rewrites `path` with `frame` inserted at byte offset `at`.
void SpliceFrame(const std::string& path, size_t at,
                 const std::vector<uint8_t>& frame) {
  std::vector<uint8_t> image = ReadFileBytes(path);
  image.insert(image.begin() + static_cast<std::ptrdiff_t>(at), frame.begin(),
               frame.end());
  WriteFileBytes(path, image);
}

/// The data fingerprint the unit tests' snapshots are taken against.
constexpr uint64_t kFingerprint = 0x5EED'0000'0000'0001ull;

std::unique_ptr<CachePersistence> OpenOrDie(
    const std::string& dir, uint64_t fingerprint = kFingerprint) {
  auto r = CachePersistence::Open(dir, fingerprint);
  EXPECT_TRUE(r.ok()) << r.status().message();
  return std::move(r).value();
}

/// Streams `chunks` through the SnapshotWriter as one snapshot.
Status WriteChunks(CachePersistence* p,
                   const std::vector<PersistedChunk>& chunks) {
  return p->WriteSnapshot([&chunks](SnapshotWriter* w) {
    for (const PersistedChunk& c : chunks) w->Add(c);
  });
}

PersistedChunk MakeChunk(uint32_t gb, uint64_t num, uint8_t fill) {
  PersistedChunk c;
  c.group_by_id = gb;
  c.chunk_num = num;
  c.filter_hash = 0x9E3779B97F4A7C15ull * (num + 1);
  c.benefit = 0.5 + static_cast<double>(fill);
  c.cols = AggColumns(2);
  for (uint32_t r = 0; r < 4u + gb; ++r) {
    const uint32_t coords[2] = {r, fill};
    c.cols.PushCell(coords, 1.5 * r + fill, r + 1, 0.5 * r, 2.0 * r + fill);
  }
  return c;
}

std::vector<uint8_t> Serialized(const AggColumns& cols) {
  std::vector<uint8_t> b;
  cols.SerializeTo(&b);
  return b;
}

bool SameChunk(const PersistedChunk& a, const PersistedChunk& b) {
  return a.group_by_id == b.group_by_id && a.chunk_num == b.chunk_num &&
         a.filter_hash == b.filter_hash && a.benefit == b.benefit &&
         Serialized(a.cols) == Serialized(b.cols);
}

int StormIters(int fallback) {
  const char* s = std::getenv("CHUNKCACHE_STORM_ITERS");
  if (s == nullptr) return fallback;
  const int n = std::atoi(s);
  return n > 0 ? n : fallback;
}

// ------------------------------- snapshots ----------------------------------

TEST(PersistSnapshot, RotateRecoverAndGc) {
  ScratchDir dir;
  const PersistedChunk a = MakeChunk(1, 100, 1);
  const PersistedChunk b = MakeChunk(1, 101, 2);
  const PersistedChunk c = MakeChunk(2, 102, 3);
  {
    auto p = OpenOrDie(dir.path);
    ASSERT_TRUE(WriteChunks(p.get(), {a}).ok());
    EXPECT_EQ(p->generation(), 1u);
    Status s = WriteChunks(p.get(), {a, b, c});
    ASSERT_TRUE(s.ok()) << s.message();
    EXPECT_EQ(p->generation(), 2u);
  }
  // A fresh directory's first snapshot is generation 1; the second one
  // garbage collected it once durable.
  EXPECT_FALSE(fs::exists(dir.path + "/snapshot-1"));
  EXPECT_TRUE(fs::exists(dir.path + "/snapshot-2"));

  auto p = OpenOrDie(dir.path);
  EXPECT_EQ(p->generation(), 2u);
  RecoveryStats rec = p->TakeRecovery();
  EXPECT_EQ(rec.generation, 2u);
  EXPECT_EQ(rec.snapshot_entries, 3u);
  ASSERT_EQ(rec.entries.size(), 3u);
  EXPECT_TRUE(SameChunk(rec.entries[0], a));
  EXPECT_TRUE(SameChunk(rec.entries[1], b));
  EXPECT_TRUE(SameChunk(rec.entries[2], c));
  // The next snapshot continues above every generation on disk.
  ASSERT_TRUE(WriteChunks(p.get(), {c}).ok());
  EXPECT_EQ(p->generation(), 3u);
}

// Corrupt snapshot record: skipped and quarantined; neighbors survive.
TEST(PersistSnapshot, CorruptRecordQuarantinedNeighborsSurvive) {
  ScratchDir dir;
  std::vector<PersistedChunk> chunks;
  for (uint8_t i = 0; i < 3; ++i) chunks.push_back(MakeChunk(4, i, i));
  {
    auto p = OpenOrDie(dir.path);
    Status s = WriteChunks(p.get(), chunks);
    ASSERT_TRUE(s.ok()) << s.message();
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

// A record whose frame CRC holds but whose columns do not parse (here,
// one byte past them) is quarantined like a rotted one.
TEST(PersistSnapshot, ValidFrameWithBadColumnsQuarantined) {
  ScratchDir dir;
  const PersistedChunk a = MakeChunk(1, 1, 1);
  const PersistedChunk b = MakeChunk(1, 2, 2);
  {
    auto p = OpenOrDie(dir.path);
    ASSERT_TRUE(WriteChunks(p.get(), {a, b}).ok());
  }
  const std::string snap = OnlyFileWithPrefix(dir.path, "snapshot-");
  const std::vector<Frame> frames = ParseFrames(ReadFileBytes(snap));
  ASSERT_EQ(frames.size(), 3u);
  std::vector<uint8_t> bad = AdmitPayload(MakeChunk(3, 3, 3));
  bad.push_back(0);
  SpliceFrame(snap, frames[1].offset,
              HandFrame(CachePersistence::kAdmit, bad));

  auto p = OpenOrDie(dir.path);
  RecoveryStats rec = p->TakeRecovery();
  EXPECT_EQ(rec.quarantined, 1u);
  ASSERT_EQ(rec.entries.size(), 2u);
  EXPECT_TRUE(SameChunk(rec.entries[0], a));
  EXPECT_TRUE(SameChunk(rec.entries[1], b));
}

// A snapshot taken against another data fingerprint is never read: the
// cache starts cold, and the next snapshot supersedes it.
TEST(PersistSnapshot, OtherFingerprintRecoversCold) {
  ScratchDir dir;
  const PersistedChunk a = MakeChunk(1, 1, 1);
  {
    auto p = OpenOrDie(dir.path);
    ASSERT_TRUE(WriteChunks(p.get(), {a}).ok());
  }
  {
    auto p = OpenOrDie(dir.path, kFingerprint + 1);
    RecoveryStats rec = p->TakeRecovery();
    EXPECT_EQ(rec.generation, 0u);
    EXPECT_EQ(rec.snapshot_entries, 0u);
    EXPECT_EQ(rec.quarantined, 0u);
    EXPECT_TRUE(rec.entries.empty());
    // Generations continue above every file on disk.
    ASSERT_TRUE(WriteChunks(p.get(), {a}).ok());
    EXPECT_EQ(p->generation(), 2u);
  }
  EXPECT_FALSE(fs::exists(dir.path + "/snapshot-1"));
  auto p = OpenOrDie(dir.path);
  EXPECT_TRUE(p->TakeRecovery().entries.empty());
}

// An unreadable snapshot (bad magic) falls back to cold, never an error.
TEST(PersistSnapshot, BadMagicFallsBackCold) {
  ScratchDir dir;
  {
    auto p = OpenOrDie(dir.path);
    ASSERT_TRUE(WriteChunks(p.get(), {MakeChunk(1, 1, 1)}).ok());
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
    ASSERT_TRUE(WriteChunks(p.get(), {a}).ok());
  }
  WriteFileBytes(dir.path + "/snapshot-7.tmp", {1, 2, 3, 4});
  auto p = OpenOrDie(dir.path);
  RecoveryStats rec = p->TakeRecovery();
  ASSERT_EQ(rec.entries.size(), 1u);
  EXPECT_TRUE(SameChunk(rec.entries[0], a));
  EXPECT_FALSE(fs::exists(dir.path + "/snapshot-7.tmp"));
}

// A kill in the middle of a snapshot abandons it before its rename: the
// previous generation stays authoritative, and no later snapshot (the
// shutdown one included) commits.
TEST(PersistSnapshot, CrashMidSnapshotKeepsPreviousGeneration) {
  ScratchDir dir;
  const PersistedChunk a = MakeChunk(1, 1, 1);
  const PersistedChunk b = MakeChunk(1, 2, 2);
  {
    auto p = OpenOrDie(dir.path);
    ASSERT_TRUE(WriteChunks(p.get(), {a}).ok());
    Status s = p->WriteSnapshot([&](SnapshotWriter* w) {
      w->Add(b);
      p->SimulateCrash();
      w->Add(a);
    });
    EXPECT_TRUE(s.ok()) << s.message();
    EXPECT_EQ(p->generation(), 1u);
    ASSERT_TRUE(WriteChunks(p.get(), {b}).ok());
    EXPECT_EQ(p->generation(), 1u);
  }
  EXPECT_FALSE(fs::exists(dir.path + "/snapshot-2"));
  EXPECT_TRUE(fs::exists(dir.path + "/snapshot-2.tmp"));

  auto p = OpenOrDie(dir.path);
  RecoveryStats rec = p->TakeRecovery();
  EXPECT_EQ(rec.generation, 1u);
  ASSERT_EQ(rec.entries.size(), 1u);
  EXPECT_TRUE(SameChunk(rec.entries[0], a));
  EXPECT_FALSE(fs::exists(dir.path + "/snapshot-2.tmp"));
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

/// A backend over `num_tuples` facts of the paper schema.
struct Backend {
  storage::InMemoryDiskManager disk;
  std::unique_ptr<chunks::ChunkingScheme> scheme;
  std::unique_ptr<storage::BufferPool> pool;
  std::unique_ptr<backend::ChunkedFile> file;
  std::unique_ptr<backend::BackendEngine> engine;
};

class PersistenceFixture : public ::testing::Test {
 protected:
  static constexpr uint64_t kTuples = 16000;

  void SetUp() override {
    auto s = schema::BuildPaperSchema();
    ASSERT_TRUE(s.ok());
    schema_ = std::make_unique<schema::StarSchema>(std::move(s).value());
    main_ = MakeBackend(/*seed=*/47, /*range_fraction=*/0.2);
    engine_ = main_->engine.get();
    scheme_ = main_->scheme.get();
  }

  void TearDown() override { FaultInjector::Global().DisarmAll(); }

  /// kTuples facts generated with `seed`, chunked at `range_fraction`.
  std::unique_ptr<Backend> MakeBackend(uint64_t seed, double range_fraction) {
    auto b = std::make_unique<Backend>();
    chunks::ChunkingOptions copts;
    copts.range_fraction = range_fraction;
    auto scheme = chunks::ChunkingScheme::Build(schema_.get(), copts, kTuples);
    EXPECT_TRUE(scheme.ok());
    b->scheme =
        std::make_unique<chunks::ChunkingScheme>(std::move(scheme).value());
    schema::FactGenOptions gen;
    gen.num_tuples = kTuples;
    gen.seed = seed;
    b->pool = std::make_unique<storage::BufferPool>(&b->disk, 4096);
    auto file = backend::ChunkedFile::BulkLoad(
        b->pool.get(), b->scheme.get(),
        schema::GenerateFactTuples(*schema_, gen));
    EXPECT_TRUE(file.ok());
    b->file = std::make_unique<backend::ChunkedFile>(std::move(file).value());
    b->engine = std::make_unique<backend::BackendEngine>(
        b->pool.get(), b->file.get(), b->scheme.get());
    EXPECT_TRUE(b->engine->BuildBitmapIndexes().ok());
    return b;
  }

  std::vector<StarJoinQuery> MakeQueries(int n, uint64_t seed) {
    workload::WorkloadOptions wopts;
    wopts.seed = seed;
    workload::QueryGenerator gen(schema_.get(), wopts);
    std::vector<StarJoinQuery> out;
    out.reserve(n);
    for (int i = 0; i < n; ++i) out.push_back(gen.Next());
    return out;
  }

  /// Reference answers from a persistence-free manager over `engine`
  /// (the fixture's by default). Cache warmth never changes answers, so
  /// this is THE ground truth for every restart mode.
  std::vector<std::vector<ResultRow>> ReferenceRows(
      const std::vector<StarJoinQuery>& queries,
      backend::BackendEngine* engine = nullptr) {
    ChunkCacheManager mgr(engine != nullptr ? engine : engine_,
                          ChunkManagerOptions{});
    std::vector<std::vector<ResultRow>> rows;
    for (const auto& q : queries) {
      QueryStats st;
      auto r = mgr.Execute(q, &st);
      EXPECT_TRUE(r.ok()) << r.status().message();
      rows.push_back(std::move(r).value());
    }
    return rows;
  }

  ChunkManagerOptions PersistOpts(const std::string& dir) {
    ChunkManagerOptions opts;
    opts.persist_dir = dir;
    opts.persist_snapshot_every = 64;
    return opts;
  }

  std::unique_ptr<schema::StarSchema> schema_;
  std::unique_ptr<Backend> main_;
  backend::BackendEngine* engine_ = nullptr;
  const chunks::ChunkingScheme* scheme_ = nullptr;
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
  EXPECT_GT(rec.snapshot_entries, 0u);
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
  RunWarmRestart(engine_, queries, reference, PersistOpts(dir.path));
}

// A snapshot holds, per entry, the SerializeTo bytes of the very columns
// the backend computed and the cache admitted, under a header that
// records this data's fingerprint.
TEST_F(PersistenceFixture, SnapshotRecordIsSerializeOfAdmittedColumns) {
  const auto queries = MakeQueries(16, 37);
  // The columns each chunk was admitted from, recomputed by the backend
  // (deterministic), keyed like the cache.
  std::map<std::tuple<uint32_t, uint64_t, uint64_t>, AggColumns> admitted;
  for (const StarJoinQuery& q : queries) {
    std::vector<uint64_t> nums;
    scheme_->BoxForSelection(q.group_by, q.selection)
        .ForEach(scheme_->GridFor(q.group_by),
                 [&](uint64_t n, const chunks::ChunkCoords&) {
                   nums.push_back(n);
                 });
    WorkCounters work;
    auto data =
        engine_->ComputeChunks(q.group_by, nums, q.non_group_by, &work);
    ASSERT_TRUE(data.ok());
    for (backend::ChunkData& c : *data) {
      admitted[{scheme_->GroupById(q.group_by), c.chunk_num,
                ChunkCacheManager::FilterHash(q.non_group_by)}] =
          std::move(c.cols);
    }
  }
  ScratchDir dir;
  {
    ChunkCacheManager mgr(engine_, PersistOpts(dir.path));
    for (const auto& q : queries) {
      QueryStats st;
      ASSERT_TRUE(mgr.Execute(q, &st).ok());
    }
    EXPECT_EQ(mgr.chunk_cache().num_chunks(), admitted.size());
  }  // clean shutdown: final snapshot written
  const std::vector<uint8_t> image =
      ReadFileBytes(OnlyFileWithPrefix(dir.path, "snapshot-"));
  ASSERT_GE(image.size(), CachePersistence::kFileHeaderBytes);
  uint64_t magic = 0;
  uint64_t fingerprint = 0;
  std::memcpy(&magic, image.data(), 8);
  std::memcpy(&fingerprint, image.data() + 16, 8);
  EXPECT_EQ(magic, CachePersistence::kSnapMagic);
  EXPECT_EQ(fingerprint, main_->file->fingerprint());
  size_t records = 0;
  for (const Frame& f : ParseFrames(image)) {
    if (f.type != CachePersistence::kAdmit) continue;
    ++records;
    const uint8_t* body =
        image.data() + f.offset + CachePersistence::kRecordHeaderBytes + 1;
    uint32_t gb = 0;
    uint64_t num = 0;
    uint64_t filter = 0;
    std::memcpy(&gb, body, 4);
    std::memcpy(&num, body + 4, 8);
    std::memcpy(&filter, body + 12, 8);
    const auto it = admitted.find({gb, num, filter});
    ASSERT_NE(it, admitted.end()) << "chunk " << num;
    const std::vector<uint8_t> columns(body + kAdmitKeyBytes,
                                       body + f.len - 1);
    EXPECT_EQ(columns, Serialized(it->second)) << "chunk " << num;
  }
  EXPECT_EQ(records, admitted.size());
}

// A snapshot is never recovered against other data: the same number of
// facts from another seed, or the same facts chunked at another range
// fraction, restart cold and answer like a persistence-free manager over
// that data.
TEST_F(PersistenceFixture, SnapshotOfOtherDataRecoversCold) {
  const auto queries = MakeQueries(20, 31);
  ScratchDir dir;
  {
    ChunkCacheManager mgr(engine_, PersistOpts(dir.path));
    for (const auto& q : queries) {
      QueryStats st;
      ASSERT_TRUE(mgr.Execute(q, &st).ok());
    }
  }  // clean shutdown: final snapshot written
  const std::unique_ptr<Backend> reseeded =
      MakeBackend(/*seed=*/48, /*range_fraction=*/0.2);
  const std::unique_ptr<Backend> rechunked =
      MakeBackend(/*seed=*/47, /*range_fraction=*/0.25);
  ASSERT_NE(reseeded->file->fingerprint(), main_->file->fingerprint());
  ASSERT_NE(rechunked->file->fingerprint(), main_->file->fingerprint());
  for (Backend* other : {reseeded.get(), rechunked.get()}) {
    const auto reference = ReferenceRows(queries, other->engine.get());
    ChunkManagerOptions opts = PersistOpts(dir.path);
    opts.persist_snapshot_every = 0;
    ChunkCacheManager warm(other->engine.get(), opts);
    EXPECT_EQ(warm.recovery_stats().snapshot_entries, 0u);
    EXPECT_EQ(warm.StatsSnapshot().persist_recovered_entries, 0u);
    EXPECT_EQ(warm.chunk_cache().num_chunks(), 0u);
    for (size_t i = 0; i < queries.size(); ++i) {
      QueryStats st;
      auto r = warm.Execute(queries[i], &st);
      ASSERT_TRUE(r.ok());
      EXPECT_TRUE(RowsEqual(*r, reference[i])) << "query " << i;
    }
    // No snapshot of this data, so the directory still holds the
    // fixture's for the next one.
    warm.persistence()->SimulateCrash();
  }
  // The fixture's own data still recovers it.
  ChunkCacheManager warm(engine_, PersistOpts(dir.path));
  EXPECT_GT(warm.StatsSnapshot().persist_recovered_entries, 0u);
}

// One kind per metric name: an exposition that declares a name under two
// kinds is rejected by a Prometheus scraper. A warm restart registers the
// persistence metrics, and StatsSnapshot folds in every gauge.
TEST_F(PersistenceFixture, WarmRestartMetricsHaveOneKindPerName) {
  const auto queries = MakeQueries(12, 23);
  ScratchDir dir;
  {
    ChunkCacheManager cold(engine_, PersistOpts(dir.path));
    for (const auto& q : queries) {
      QueryStats st;
      ASSERT_TRUE(cold.Execute(q, &st).ok());
    }
  }
  ChunkCacheManager warm(engine_, PersistOpts(dir.path));
  const auto stats = warm.StatsSnapshot();
  ASSERT_GT(stats.persist_recovered_entries, 0u);
  EXPECT_EQ(stats.persist_recovery_ns, warm.recovery_stats().recovery_ns);

  const auto snap = warm.metrics().TakeSnapshot();
  std::map<std::string, int> kinds;
  for (const auto& [name, v] : snap.counters) ++kinds[name];
  for (const auto& [name, v] : snap.gauges) ++kinds[name];
  for (const auto& [name, h] : snap.histograms) ++kinds[name];
  for (const auto& [name, n] : kinds) EXPECT_EQ(n, 1) << name;

  std::set<std::string> declared;  // "# TYPE <name>", kind stripped
  std::istringstream prom(warm.metrics().ExportPrometheus());
  for (std::string line; std::getline(prom, line);) {
    if (line.rfind("# TYPE ", 0) != 0) continue;
    EXPECT_TRUE(declared.insert(line.substr(0, line.rfind(' '))).second)
        << line;
  }
}

// ------------------------- retired record type 3 ---------------------------

// Directories written while record type 3 existed may still hold one. A
// snapshot skips it and keeps its neighbours, and the warm cache answers
// exactly like a cold one: a retired record costs warmth, never
// correctness.
TEST_F(PersistenceFixture, RetiredType3RecordCostsWarmthNotCorrectness) {
  const auto queries = MakeQueries(12, 59);
  const auto reference = ReferenceRows(queries);
  ScratchDir dir;
  {
    ChunkManagerOptions opts;
    opts.persist_dir = dir.path;
    opts.persist_snapshot_every = 0;
    ChunkCacheManager mgr(engine_, opts);
    for (const auto& q : queries) {
      QueryStats st;
      ASSERT_TRUE(mgr.Execute(q, &st).ok());
    }
    ASSERT_TRUE(mgr.PersistSnapshot().ok());
    mgr.persistence()->SimulateCrash();  // no shutdown snapshot
  }

  // Snapshot: admit, type 3, admit, ..., footer keeps every admit.
  const std::string snap = OnlyFileWithPrefix(dir.path, "snapshot-");
  const std::vector<Frame> snap_frames = ParseFrames(ReadFileBytes(snap));
  ASSERT_GE(snap_frames.size(), 3u);
  ASSERT_EQ(snap_frames.back().type, CachePersistence::kFooter);
  const size_t admits = snap_frames.size() - 1;
  SpliceFrame(snap, snap_frames[1].offset, RetiredType3Frame());
  {
    auto p = OpenOrDie(dir.path, main_->file->fingerprint());
    RecoveryStats rec = p->TakeRecovery();
    EXPECT_EQ(rec.snapshot_entries, admits);
    EXPECT_EQ(rec.entries.size(), admits);
    EXPECT_EQ(rec.quarantined, 0u);
  }

  ChunkManagerOptions opts;
  opts.persist_dir = dir.path;
  ChunkCacheManager warm(engine_, opts);
  EXPECT_GT(warm.StatsSnapshot().persist_recovered_entries, 0u);
  for (size_t i = 0; i < queries.size(); ++i) {
    QueryStats st;
    auto r = warm.Execute(queries[i], &st);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(RowsEqual(*r, reference[i])) << "query " << i;
  }
}

// ------------------------- records the scheme rejects -----------------------

// A record whose frame and columns are well formed, under this data's
// fingerprint, must still name a chunk of this scheme and hold rows of
// its width. One that does not is quarantined: served, a two-dimension
// record under a real key would answer for that chunk.
TEST_F(PersistenceFixture, RecordsNamingNoChunkOfTheSchemeAreQuarantined) {
  const auto queries = MakeQueries(12, 67);
  const auto reference = ReferenceRows(queries);
  ScratchDir dir;
  ChunkManagerOptions opts = PersistOpts(dir.path);
  opts.persist_snapshot_every = 0;
  uint64_t entries = 0;
  PersistedChunk real;
  {
    ChunkCacheManager mgr(engine_, opts);
    for (const auto& q : queries) {
      QueryStats st;
      ASSERT_TRUE(mgr.Execute(q, &st).ok());
    }
    entries = mgr.chunk_cache().num_chunks();
    mgr.chunk_cache().ForEachEntry([&real](const cache::ChunkHandle& h) {
      real = PersistedChunk{h->group_by_id, h->chunk_num, h->filter_hash,
                            h->benefit, h->payload.ToColumns()};
    });
  }  // clean shutdown: final snapshot written
  ASSERT_GT(real.cols.size(), 0u);
  PersistedChunk no_group_by = real;
  no_group_by.group_by_id = scheme_->NumGroupByIds();
  PersistedChunk no_chunk = real;
  no_chunk.chunk_num =
      scheme_->GridFor(scheme_->SpecOfId(real.group_by_id)).num_chunks();
  // The real chunk's key, with its rows cut to two dimensions.
  PersistedChunk narrow = real;
  narrow.cols = AggColumns(2);
  for (size_t i = 0; i < real.cols.size(); ++i) {
    const uint32_t coords[2] = {real.cols.coords(0)[i],
                                real.cols.coords(1)[i]};
    narrow.cols.PushCell(coords, 1.0, 1, 1.0, 1.0);
  }
  // Spliced before the footer, so they come after every real record.
  const std::string snap = OnlyFileWithPrefix(dir.path, "snapshot-");
  for (const PersistedChunk* bad : {&no_group_by, &no_chunk, &narrow}) {
    const std::vector<Frame> frames = ParseFrames(ReadFileBytes(snap));
    ASSERT_EQ(frames.back().type, CachePersistence::kFooter);
    SpliceFrame(snap, frames.back().offset,
                HandFrame(CachePersistence::kAdmit, AdmitPayload(*bad)));
  }

  ChunkCacheManager warm(engine_, opts);
  EXPECT_EQ(warm.recovery_stats().quarantined, 3u);
  EXPECT_EQ(warm.StatsSnapshot().persist_quarantined, 3u);
  EXPECT_EQ(warm.chunk_cache().num_chunks(), entries);
  for (size_t i = 0; i < queries.size(); ++i) {
    QueryStats st;
    auto r = warm.Execute(queries[i], &st);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(RowsEqual(*r, reference[i])) << "query " << i;
  }
  warm.persistence()->SimulateCrash();
}

// ------------------------- background persister ----------------------------

// No explicit snapshot call: the background persister alone must leave a
// snapshot that warms a restart after a kill.
TEST_F(PersistenceFixture, BackgroundSnapshotWarmsACrashRestart) {
  const auto queries = MakeQueries(30, 23);
  const auto reference = ReferenceRows(queries);
  ScratchDir dir;
  ChunkManagerOptions opts;
  opts.persist_dir = dir.path;
  opts.persist_snapshot_every = 16;
  uint64_t cold_backend = 0;
  {
    ChunkCacheManager cold(engine_, opts);
    for (size_t i = 0; i < queries.size(); ++i) {
      QueryStats st;
      auto r = cold.Execute(queries[i], &st);
      ASSERT_TRUE(r.ok()) << r.status().message();
      EXPECT_TRUE(RowsEqual(*r, reference[i])) << "cold query " << i;
      cold_backend += st.chunks_from_backend;
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (cold.StatsSnapshot().persist_snapshots < 1 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_GE(cold.StatsSnapshot().persist_snapshots, 1u);
    cold.persistence()->SimulateCrash();  // no shutdown snapshot
  }

  ChunkCacheManager warm(engine_, opts);
  EXPECT_GT(warm.recovery_stats().snapshot_entries, 0u);
  EXPECT_GT(warm.StatsSnapshot().persist_recovered_entries, 0u);
  EXPECT_EQ(warm.StatsSnapshot().persist_quarantined, 0u);
  uint64_t warm_backend = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    QueryStats st;
    auto r = warm.Execute(queries[i], &st);
    ASSERT_TRUE(r.ok()) << r.status().message();
    EXPECT_TRUE(RowsEqual(*r, reference[i])) << "warm query " << i;
    warm_backend += st.chunks_from_backend;
  }
  EXPECT_LT(warm_backend, cold_backend);
}

// ----------------------- older directory formats ---------------------------

// A directory in the codec-blob format holds snapshots under the magic
// "CHCCSNAP": a 16-byte header (magic, generation) and admit records of
// key, benefit, raw_bytes, rows and a codec blob. Older directories also
// hold write-ahead logs (wal-<G>) of admit and evict records. Recovery
// reads neither: it unlinks the log unread and skips the snapshot by its
// magic before any record, so the blobs here are opaque bytes. The cache
// starts cold and answers bit-identically, and its first snapshot
// supersedes the old one.
TEST_F(PersistenceFixture, ParentFormatDirectoryRecoversCold) {
  const auto queries = MakeQueries(12, 61);
  const auto reference = ReferenceRows(queries);
  std::vector<PersistedChunk> chunks;
  {
    ChunkCacheManager mgr(engine_, ChunkManagerOptions{});
    for (const auto& q : queries) {
      QueryStats st;
      ASSERT_TRUE(mgr.Execute(q, &st).ok());
    }
    mgr.chunk_cache().ForEachEntry([&chunks](const cache::ChunkHandle& h) {
      chunks.push_back(PersistedChunk{h->group_by_id, h->chunk_num,
                                      h->filter_hash, h->benefit,
                                      h->payload.ToColumns()});
    });
  }
  ASSERT_GE(chunks.size(), 4u);
  const size_t half = chunks.size() / 2;
  // A codec-format admit record: key, benefit, raw_bytes, rows, blob.
  const auto codec_admit = [](const PersistedChunk& c) {
    std::vector<uint8_t> b;
    Put(&b, c.group_by_id);
    Put(&b, c.chunk_num);
    Put(&b, c.filter_hash);
    Put(&b, c.benefit);
    Put(&b, static_cast<uint64_t>(48 * c.cols.size()));
    Put(&b, static_cast<uint32_t>(c.cols.size()));
    const std::vector<uint8_t> blob(16 + c.cols.size(), 0xA5);
    Put(&b, static_cast<uint32_t>(blob.size()));
    b.insert(b.end(), blob.begin(), blob.end());
    return HandFrame(CachePersistence::kAdmit, b);
  };
  const auto old_header = [](uint64_t magic) {
    std::vector<uint8_t> b;
    Put(&b, magic);
    Put(&b, uint64_t{2});
    return b;
  };

  ScratchDir dir;
  constexpr uint64_t kCodecSnapMagic = 0x50414E53'43434843ull;  // CHCCSNAP
  std::vector<uint8_t> snap = old_header(kCodecSnapMagic);
  for (size_t i = 0; i < half; ++i) {
    const auto f = codec_admit(chunks[i]);
    snap.insert(snap.end(), f.begin(), f.end());
  }
  std::vector<uint8_t> footer;
  Put(&footer, static_cast<uint64_t>(half));
  const auto ff = HandFrame(CachePersistence::kFooter, footer);
  snap.insert(snap.end(), ff.begin(), ff.end());
  WriteFileBytes(dir.path + "/snapshot-2", snap);

  // The log: admits of the other chunks, then an evict (type 2: key
  // only) of the first snapshot entry.
  constexpr uint64_t kOldLogMagic = 0x314C4157'43434843ull;
  std::vector<uint8_t> log = old_header(kOldLogMagic);
  for (size_t i = half; i < chunks.size(); ++i) {
    const auto f = codec_admit(chunks[i]);
    log.insert(log.end(), f.begin(), f.end());
  }
  std::vector<uint8_t> evict;
  Put(&evict, chunks[0].group_by_id);
  Put(&evict, chunks[0].chunk_num);
  Put(&evict, chunks[0].filter_hash);
  const auto ef = HandFrame(2, evict);
  log.insert(log.end(), ef.begin(), ef.end());
  const std::string log_path = dir.path + "/wal-2";
  WriteFileBytes(log_path, log);

  {
    ChunkManagerOptions opts;
    opts.persist_dir = dir.path;
    ChunkCacheManager cold(engine_, opts);
    EXPECT_FALSE(fs::exists(log_path));
    EXPECT_EQ(cold.recovery_stats().generation, 0u);
    EXPECT_EQ(cold.recovery_stats().snapshot_entries, 0u);
    const auto stats = cold.StatsSnapshot();
    EXPECT_EQ(stats.persist_recovered_entries, 0u);
    EXPECT_EQ(stats.persist_quarantined, 0u);
    EXPECT_EQ(cold.chunk_cache().num_chunks(), 0u);
    for (size_t i = 0; i < queries.size(); ++i) {
      QueryStats st;
      auto r = cold.Execute(queries[i], &st);
      ASSERT_TRUE(r.ok());
      EXPECT_TRUE(RowsEqual(*r, reference[i])) << "query " << i;
    }
  }  // clean shutdown: the first snapshot in this format
  EXPECT_FALSE(fs::exists(dir.path + "/snapshot-2"));
  EXPECT_TRUE(fs::exists(dir.path + "/snapshot-3"));
  ChunkManagerOptions opts;
  opts.persist_dir = dir.path;
  ChunkCacheManager warm(engine_, opts);
  EXPECT_EQ(warm.recovery_stats().generation, 3u);
  EXPECT_GT(warm.StatsSnapshot().persist_recovered_entries, 0u);
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
  const FaultSite sites[] = {FaultSite::kSnapshotWrite,
                             FaultSite::kSnapshotRename};
  for (FaultSite site : sites) {
    for (uint64_t skip : {0ull, 2ull, 9ull}) {
      ScratchDir dir;
      CrashCycle(engine_, queries, reference, dir.path, site, skip);
    }
  }
}

// Recovery-side faults: every snapshot read can fail and construction
// must still succeed (worst case a cold cache) with correct answers.
TEST_F(PersistenceFixture, RecoveryReadFaultFallsBackGracefully) {
  const auto queries = MakeQueries(12, 37);
  const auto reference = ReferenceRows(queries);
  ScratchDir dir;
  {
    ChunkManagerOptions opts;
    opts.persist_dir = dir.path;
    ChunkCacheManager mgr(engine_, opts);
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
    ChunkCacheManager warm(engine_, opts);
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

// Concurrent traffic while background and explicit snapshots run: the
// event sink fires outside shard locks from many workers and wakes the
// persister every 16 events, while the main thread forces snapshots of
// its own (this is the interleaving TSAN needs to see). The restarted
// cache must still answer bit-identically.
TEST_F(PersistenceFixture, ConcurrentTrafficWithSnapshots) {
  const auto reference_queries = MakeQueries(10, 53);
  const auto reference = ReferenceRows(reference_queries);
  ScratchDir dir;
  {
    ChunkManagerOptions opts = PersistOpts(dir.path);
    opts.num_workers = 4;
    opts.cache_shards = 4;
    opts.persist_snapshot_every = 16;  // background persister live too
    ChunkCacheManager mgr(engine_, opts);
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
  ChunkCacheManager warm(engine_, PersistOpts(dir.path));
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
/// cycle arms all three persistence sites at low probability, runs traffic,
/// flips a coin between clean shutdown and SIGKILL, then the next cycle
/// recovers on top of whatever survived. Answers must stay bit-identical
/// throughout. Iterations scale with CHUNKCACHE_STORM_ITERS (tier2 CI
/// sets 10; the default smoke pass runs 2).
TEST_F(PersistenceFixture, CrashStormKillRestartCycles) {
  const int iters = StormIters(2);
  const auto queries = MakeQueries(10, 41);
  const auto reference = ReferenceRows(queries);
  const FaultSite sites[] = {FaultSite::kSnapshotWrite,
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
    ChunkCacheManager mgr(engine_, opts);
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
  ChunkCacheManager mgr(engine_, opts);
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
