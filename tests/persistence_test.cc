// Crash-safe persistent cache tests (DESIGN.md §14), three layers deep:
//
//  1. CachePersistence unit tests on raw temp directories — snapshot
//     rotation/GC, skip-and-quarantine of corrupt snapshot records, the
//     retired record types 3 and 4, snapshots of another data
//     fingerprint, and a simulated kill in the middle of a snapshot.
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
using chunks::GroupBySpec;
using core::ChunkCacheManager;
using core::ChunkManagerOptions;
using core::QueryStats;
using storage::AggColumns;
using storage::AggTuple;
using storage::CachePersistence;
using storage::ChunkPayload;
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

/// A chunk as the tests persist it: its key and benefit, and the rows
/// its payload is built from.
struct TestChunk {
  PersistedChunk key;
  AggColumns cols;
};

/// The bytes of `p`'s one allocation.
std::vector<uint8_t> PayloadBytes(const ChunkPayload& p) {
  return std::vector<uint8_t>(p.data(), p.data() + p.capacity_bytes());
}

/// Payload of an admit record (type 1): key and benefit, then the bytes
/// of the payload built from the columns.
std::vector<uint8_t> AdmitPayload(const TestChunk& c) {
  std::vector<uint8_t> b;
  Put(&b, c.key.group_by_id);
  Put(&b, c.key.chunk_num);
  Put(&b, c.key.filter_hash);
  Put(&b, c.key.benefit);
  const std::vector<uint8_t> payload = PayloadBytes(ChunkPayload(c.cols));
  b.insert(b.end(), payload.begin(), payload.end());
  return b;
}

/// Bytes of an admit record's key and benefit, before its payload.
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

/// Rewrites `path` with `frame` appended.
void AppendFrame(const std::string& path, const std::vector<uint8_t>& frame) {
  SpliceFrame(path, fs::file_size(path), frame);
}

/// The data fingerprint the unit tests' snapshots are taken against.
constexpr uint64_t kFingerprint = 0x5EED'0000'0000'0001ull;

/// An entry recovery offered: its key and benefit, and its payload bytes.
struct RecoveredChunk {
  PersistedChunk key;
  std::vector<uint8_t> payload;
};

/// Opens `dir`, admitting every entry recovery offers into `recovered`
/// (when given).
std::unique_ptr<CachePersistence> OpenOrDie(
    const std::string& dir, uint64_t fingerprint = kFingerprint,
    std::vector<RecoveredChunk>* recovered = nullptr) {
  auto r = CachePersistence::Open(
      dir, fingerprint,
      [recovered](const PersistedChunk& key, ChunkPayload payload) {
        if (recovered != nullptr) {
          recovered->push_back({key, PayloadBytes(payload)});
        }
        return true;
      });
  EXPECT_TRUE(r.ok()) << r.status().message();
  return std::move(r).value();
}

/// Streams `chunks` through the SnapshotWriter as one snapshot.
Status WriteChunks(CachePersistence* p, const std::vector<TestChunk>& chunks) {
  return p->WriteSnapshot([&chunks](SnapshotWriter* w) {
    for (const TestChunk& c : chunks) w->Add(c.key, ChunkPayload(c.cols));
  });
}

TestChunk MakeChunk(uint32_t gb, uint64_t num, uint8_t fill) {
  TestChunk c;
  c.key.group_by_id = gb;
  c.key.chunk_num = num;
  c.key.filter_hash = 0x9E3779B97F4A7C15ull * (num + 1);
  c.key.benefit = 0.5 + static_cast<double>(fill);
  c.cols = AggColumns(2);
  for (uint32_t r = 0; r < 4u + gb; ++r) {
    const uint32_t coords[2] = {r, fill};
    c.cols.PushCell(coords, 1.5 * r + fill, r + 1, 0.5 * r, 2.0 * r + fill);
  }
  return c;
}

bool SameChunk(const RecoveredChunk& got, const TestChunk& want) {
  return got.key.group_by_id == want.key.group_by_id &&
         got.key.chunk_num == want.key.chunk_num &&
         got.key.filter_hash == want.key.filter_hash &&
         got.key.benefit == want.key.benefit &&
         got.payload == PayloadBytes(ChunkPayload(want.cols));
}

/// The entry `h` holds, as the tests persist it.
TestChunk ChunkOf(const cache::ChunkHandle& h) {
  return TestChunk{{h->group_by_id, h->chunk_num, h->filter_hash, h->benefit},
                   h->payload.ToColumns()};
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
  const TestChunk a = MakeChunk(1, 100, 1);
  const TestChunk b = MakeChunk(1, 101, 2);
  const TestChunk c = MakeChunk(2, 102, 3);
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

  std::vector<RecoveredChunk> entries;
  auto p = OpenOrDie(dir.path, kFingerprint, &entries);
  EXPECT_EQ(p->generation(), 2u);
  const RecoveryStats& rec = p->recovery();
  EXPECT_EQ(rec.generation, 2u);
  EXPECT_EQ(rec.snapshot_entries, 3u);
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_TRUE(SameChunk(entries[0], a));
  EXPECT_TRUE(SameChunk(entries[1], b));
  EXPECT_TRUE(SameChunk(entries[2], c));
  // The next snapshot continues above every generation on disk.
  ASSERT_TRUE(WriteChunks(p.get(), {c}).ok());
  EXPECT_EQ(p->generation(), 3u);
}

// Corrupt snapshot record: skipped and quarantined; neighbors survive.
TEST(PersistSnapshot, CorruptRecordQuarantinedNeighborsSurvive) {
  ScratchDir dir;
  std::vector<TestChunk> chunks;
  for (uint8_t i = 0; i < 3; ++i) chunks.push_back(MakeChunk(4, i, i));
  {
    auto p = OpenOrDie(dir.path);
    Status s = WriteChunks(p.get(), chunks);
    ASSERT_TRUE(s.ok()) << s.message();
  }
  const std::string snap = OnlyFileWithPrefix(dir.path, "snapshot-");
  std::vector<uint8_t> image = ReadFileBytes(snap);
  const std::vector<Frame> frames = ParseFrames(image);
  // 3 admits and nothing after them: no footer.
  ASSERT_EQ(frames.size(), 3u);
  ASSERT_EQ(frames[1].type, CachePersistence::kAdmit);
  image[frames[1].offset + CachePersistence::kRecordHeaderBytes + 6] ^= 0x01;
  WriteFileBytes(snap, image);

  std::vector<RecoveredChunk> entries;
  auto p = OpenOrDie(dir.path, kFingerprint, &entries);
  EXPECT_EQ(p->recovery().quarantined, 1u);
  EXPECT_EQ(p->recovery().snapshot_entries, 2u);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_TRUE(SameChunk(entries[0], chunks[0]));
  EXPECT_TRUE(SameChunk(entries[1], chunks[2]));
}

// A corrupt length desyncs the frame walk: that record is quarantined and
// everything after it is dropped; the records before it survive.
TEST(PersistSnapshot, CorruptLengthDropsTheRestOfTheSnapshot) {
  ScratchDir dir;
  std::vector<TestChunk> chunks;
  for (uint8_t i = 0; i < 3; ++i) chunks.push_back(MakeChunk(4, i, i));
  {
    auto p = OpenOrDie(dir.path);
    ASSERT_TRUE(WriteChunks(p.get(), chunks).ok());
  }
  const std::string snap = OnlyFileWithPrefix(dir.path, "snapshot-");
  std::vector<uint8_t> image = ReadFileBytes(snap);
  const std::vector<Frame> frames = ParseFrames(image);
  ASSERT_EQ(frames.size(), 3u);
  const uint32_t past_the_end = static_cast<uint32_t>(image.size());
  std::memcpy(image.data() + frames[1].offset + 4, &past_the_end, 4);
  WriteFileBytes(snap, image);

  std::vector<RecoveredChunk> entries;
  auto p = OpenOrDie(dir.path, kFingerprint, &entries);
  EXPECT_EQ(p->recovery().quarantined, 1u);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_TRUE(SameChunk(entries[0], chunks[0]));
}

// A record whose frame CRC holds but whose payload does not parse (here,
// one byte past it, or a COUNT of 0) is quarantined like a rotted one, and
// so is a record too short to hold its key.
TEST(PersistSnapshot, ValidFrameWithBadPayloadQuarantined) {
  ScratchDir dir;
  const TestChunk a = MakeChunk(1, 1, 1);
  const TestChunk b = MakeChunk(1, 2, 2);
  {
    auto p = OpenOrDie(dir.path);
    ASSERT_TRUE(WriteChunks(p.get(), {a, b}).ok());
  }
  const std::string snap = OnlyFileWithPrefix(dir.path, "snapshot-");
  const std::vector<Frame> frames = ParseFrames(ReadFileBytes(snap));
  ASSERT_EQ(frames.size(), 2u);
  std::vector<uint8_t> trailing = AdmitPayload(MakeChunk(3, 3, 3));
  trailing.push_back(0);
  TestChunk zero_count = MakeChunk(3, 4, 3);
  const uint32_t cell[2] = {9, 9};
  zero_count.cols.PushCell(cell, 1.0, 0, 1.0, 1.0);
  std::vector<uint8_t> short_key = AdmitPayload(MakeChunk(3, 5, 3));
  short_key.resize(kAdmitKeyBytes - 1);
  for (const auto& bad : {trailing, AdmitPayload(zero_count), short_key}) {
    SpliceFrame(snap, frames[1].offset,
                HandFrame(CachePersistence::kAdmit, bad));
  }

  std::vector<RecoveredChunk> entries;
  auto p = OpenOrDie(dir.path, kFingerprint, &entries);
  EXPECT_EQ(p->recovery().quarantined, 3u);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_TRUE(SameChunk(entries[0], a));
  EXPECT_TRUE(SameChunk(entries[1], b));
}

// Recovery hands each record to the admit callback as it reads it; a
// record the callback refuses counts as quarantined, not recovered.
TEST(PersistSnapshot, RefusedEntriesCountAsQuarantined) {
  ScratchDir dir;
  std::vector<TestChunk> chunks;
  for (uint8_t i = 0; i < 4; ++i) chunks.push_back(MakeChunk(2, i, i));
  {
    auto p = OpenOrDie(dir.path);
    ASSERT_TRUE(WriteChunks(p.get(), chunks).ok());
  }
  MetricsRegistry metrics;
  std::vector<uint64_t> offered;
  auto r = CachePersistence::Open(
      dir.path, kFingerprint,
      [&offered](const PersistedChunk& key, ChunkPayload) {
        offered.push_back(key.chunk_num);
        return key.chunk_num % 2 == 0;
      },
      &metrics);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(offered, (std::vector<uint64_t>{0, 1, 2, 3}));
  EXPECT_EQ((*r)->recovery().snapshot_entries, 2u);
  EXPECT_EQ((*r)->recovery().quarantined, 2u);
  const auto snap = metrics.TakeSnapshot();
  EXPECT_EQ(snap.counter("persist.recovered_entries"), 2u);
  EXPECT_EQ(snap.counter("persist.quarantined"), 2u);
}

// A snapshot taken against another data fingerprint is never read: the
// cache starts cold, and the next snapshot supersedes it.
TEST(PersistSnapshot, OtherFingerprintRecoversCold) {
  ScratchDir dir;
  const TestChunk a = MakeChunk(1, 1, 1);
  {
    auto p = OpenOrDie(dir.path);
    ASSERT_TRUE(WriteChunks(p.get(), {a}).ok());
  }
  {
    std::vector<RecoveredChunk> entries;
    auto p = OpenOrDie(dir.path, kFingerprint + 1, &entries);
    const RecoveryStats& rec = p->recovery();
    EXPECT_EQ(rec.generation, 0u);
    EXPECT_EQ(rec.snapshot_entries, 0u);
    EXPECT_EQ(rec.quarantined, 0u);
    EXPECT_TRUE(entries.empty());
    // Generations continue above every file on disk.
    ASSERT_TRUE(WriteChunks(p.get(), {a}).ok());
    EXPECT_EQ(p->generation(), 2u);
  }
  EXPECT_FALSE(fs::exists(dir.path + "/snapshot-1"));
  std::vector<RecoveredChunk> entries;
  auto p = OpenOrDie(dir.path, kFingerprint, &entries);
  EXPECT_TRUE(entries.empty());
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

  std::vector<RecoveredChunk> entries;
  auto p = OpenOrDie(dir.path, kFingerprint, &entries);
  EXPECT_EQ(p->recovery().snapshot_entries, 0u);
  EXPECT_TRUE(entries.empty());
}

// A stray .tmp (crash between shadow write and rename) is ignored and
// cleaned up; the previous generation stays authoritative.
TEST(PersistSnapshot, StrayTmpIgnoredAndUnlinked) {
  ScratchDir dir;
  const TestChunk a = MakeChunk(9, 5, 2);
  {
    auto p = OpenOrDie(dir.path);
    ASSERT_TRUE(WriteChunks(p.get(), {a}).ok());
  }
  WriteFileBytes(dir.path + "/snapshot-7.tmp", {1, 2, 3, 4});
  std::vector<RecoveredChunk> entries;
  auto p = OpenOrDie(dir.path, kFingerprint, &entries);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_TRUE(SameChunk(entries[0], a));
  EXPECT_FALSE(fs::exists(dir.path + "/snapshot-7.tmp"));
}

// A kill in the middle of a snapshot abandons it before its rename: the
// previous generation stays authoritative, and no later snapshot (the
// shutdown one included) commits.
TEST(PersistSnapshot, CrashMidSnapshotKeepsPreviousGeneration) {
  ScratchDir dir;
  const TestChunk a = MakeChunk(1, 1, 1);
  const TestChunk b = MakeChunk(1, 2, 2);
  {
    auto p = OpenOrDie(dir.path);
    ASSERT_TRUE(WriteChunks(p.get(), {a}).ok());
    Status s = p->WriteSnapshot([&](SnapshotWriter* w) {
      w->Add(b.key, ChunkPayload(b.cols));
      p->SimulateCrash();
      w->Add(a.key, ChunkPayload(a.cols));
    });
    EXPECT_TRUE(s.ok()) << s.message();
    EXPECT_EQ(p->generation(), 1u);
    ASSERT_TRUE(WriteChunks(p.get(), {b}).ok());
    EXPECT_EQ(p->generation(), 1u);
  }
  EXPECT_FALSE(fs::exists(dir.path + "/snapshot-2"));
  EXPECT_TRUE(fs::exists(dir.path + "/snapshot-2.tmp"));

  std::vector<RecoveredChunk> entries;
  auto p = OpenOrDie(dir.path, kFingerprint, &entries);
  EXPECT_EQ(p->recovery().generation, 1u);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_TRUE(SameChunk(entries[0], a));
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

// A snapshot holds, per entry, the key, the benefit and the admitted
// entry's payload allocation byte for byte (the payload built from the
// very columns the backend computed), under a header that records this
// data's fingerprint, and nothing else: no footer follows the records.
TEST_F(PersistenceFixture, SnapshotRecordIsTheAdmittedPayload) {
  const auto queries = MakeQueries(16, 37);
  // The columns each chunk was admitted from, recomputed by the backend
  // (deterministic), keyed like the cache.
  using Key = std::tuple<uint32_t, uint64_t, uint64_t>;
  std::map<Key, AggColumns> computed;
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
      computed[{scheme_->GroupById(q.group_by), c.chunk_num,
                ChunkCacheManager::FilterHash(q.non_group_by)}] =
          std::move(c.cols);
    }
  }
  ScratchDir dir;
  // Each cached entry's benefit and payload bytes, read from the cache.
  std::map<Key, std::pair<double, std::vector<uint8_t>>> admitted;
  {
    ChunkCacheManager mgr(engine_, PersistOpts(dir.path));
    for (const auto& q : queries) {
      QueryStats st;
      ASSERT_TRUE(mgr.Execute(q, &st).ok());
    }
    mgr.chunk_cache().ForEachEntry([&admitted](const cache::ChunkHandle& h) {
      admitted[{h->group_by_id, h->chunk_num, h->filter_hash}] = {
          h->benefit, PayloadBytes(h->payload)};
    });
    EXPECT_EQ(admitted.size(), computed.size());
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
  size_t end = CachePersistence::kFileHeaderBytes;
  for (const Frame& f : ParseFrames(image)) {
    ASSERT_EQ(f.type, CachePersistence::kAdmit);
    ++records;
    end = f.offset + CachePersistence::kRecordHeaderBytes + f.len;
    const uint8_t* body =
        image.data() + f.offset + CachePersistence::kRecordHeaderBytes + 1;
    uint32_t gb = 0;
    uint64_t num = 0;
    uint64_t filter = 0;
    double benefit = 0;
    std::memcpy(&gb, body, 4);
    std::memcpy(&num, body + 4, 8);
    std::memcpy(&filter, body + 12, 8);
    std::memcpy(&benefit, body + 20, 8);
    const auto it = admitted.find({gb, num, filter});
    ASSERT_NE(it, admitted.end()) << "chunk " << num;
    EXPECT_EQ(benefit, it->second.first) << "chunk " << num;
    const std::vector<uint8_t> payload(body + kAdmitKeyBytes,
                                       body + f.len - 1);
    EXPECT_EQ(payload, it->second.second) << "chunk " << num;
    EXPECT_EQ(payload, PayloadBytes(ChunkPayload(computed.at({gb, num,
                                                              filter}))))
        << "chunk " << num;
  }
  EXPECT_EQ(records, admitted.size());
  EXPECT_EQ(end, image.size());
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

// ------------------------- retired record types ----------------------------

// Record types 3 (a learned per-group-by benefit) and 4 (the snapshot
// footer: an entry count) are retired. A snapshot that holds one skips it
// and keeps its neighbours, and the warm cache answers exactly like a
// cold one: a retired record costs warmth, never correctness.
TEST_F(PersistenceFixture, RetiredRecordTypesCostWarmthNotCorrectness) {
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
  ASSERT_GE(snap_frames.size(), 2u);
  const size_t admits = snap_frames.size();
  SpliceFrame(snap, snap_frames[1].offset, RetiredType3Frame());
  std::vector<uint8_t> footer;
  Put(&footer, static_cast<uint64_t>(admits));
  AppendFrame(snap, HandFrame(4, footer));
  {
    std::vector<RecoveredChunk> entries;
    auto p = OpenOrDie(dir.path, main_->file->fingerprint(), &entries);
    EXPECT_EQ(p->recovery().snapshot_entries, admits);
    EXPECT_EQ(entries.size(), admits);
    EXPECT_EQ(p->recovery().quarantined, 0u);
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

// A record whose frame and payload are well formed, under this data's
// fingerprint, must still name a chunk of this scheme and hold rows of
// its width. One that does not is quarantined, and counts as quarantined
// only, not as recovered: served, a two-dimension record under a real key
// would answer for that chunk.
TEST_F(PersistenceFixture, RecordsNamingNoChunkOfTheSchemeAreQuarantined) {
  const auto queries = MakeQueries(12, 67);
  const auto reference = ReferenceRows(queries);
  ScratchDir dir;
  ChunkManagerOptions opts = PersistOpts(dir.path);
  opts.persist_snapshot_every = 0;
  uint64_t entries = 0;
  TestChunk real;
  {
    ChunkCacheManager mgr(engine_, opts);
    for (const auto& q : queries) {
      QueryStats st;
      ASSERT_TRUE(mgr.Execute(q, &st).ok());
    }
    entries = mgr.chunk_cache().num_chunks();
    mgr.chunk_cache().ForEachEntry(
        [&real](const cache::ChunkHandle& h) { real = ChunkOf(h); });
  }  // clean shutdown: final snapshot written
  ASSERT_GT(real.cols.size(), 0u);
  TestChunk no_group_by = real;
  no_group_by.key.group_by_id = scheme_->NumGroupByIds();
  TestChunk no_chunk = real;
  no_chunk.key.chunk_num =
      scheme_->GridFor(scheme_->SpecOfId(real.key.group_by_id)).num_chunks();
  // The real chunk's key, with its rows cut to two dimensions.
  TestChunk narrow = real;
  narrow.cols = AggColumns(2);
  for (size_t i = 0; i < real.cols.size(); ++i) {
    const uint32_t coords[2] = {real.cols.coords(0)[i],
                                real.cols.coords(1)[i]};
    narrow.cols.PushCell(coords, 1.0, 1, 1.0, 1.0);
  }
  // Appended, so they come after every real record.
  const std::string snap = OnlyFileWithPrefix(dir.path, "snapshot-");
  for (const TestChunk* bad : {&no_group_by, &no_chunk, &narrow}) {
    AppendFrame(snap, HandFrame(CachePersistence::kAdmit, AdmitPayload(*bad)));
  }

  ChunkCacheManager warm(engine_, opts);
  EXPECT_EQ(warm.recovery_stats().quarantined, 3u);
  EXPECT_EQ(warm.recovery_stats().snapshot_entries, entries);
  EXPECT_EQ(warm.StatsSnapshot().persist_quarantined, 3u);
  EXPECT_EQ(warm.StatsSnapshot().persist_recovered_entries, entries);
  EXPECT_EQ(warm.chunk_cache().num_chunks(), entries);
  for (size_t i = 0; i < queries.size(); ++i) {
    QueryStats st;
    auto r = warm.Execute(queries[i], &st);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(RowsEqual(*r, reference[i])) << "query " << i;
  }
  warm.persistence()->SimulateCrash();
}

// A record that names a real chunk must also hold only rows a computation
// of that chunk yields. One row past the chunk's edge along a grouped
// dimension would, served, add a cell to every answer over that level;
// a repeated cell (which the payload keeps in sparse form) or a COUNT of
// 0 is no computed chunk either. Each is quarantined, and the warm
// manager answers like a cold one.
TEST_F(PersistenceFixture, RecordsWithRowsOutsideTheirChunkAreQuarantined) {
  const auto queries = MakeQueries(12, 67);
  TestChunk real;
  uint32_t along = 0;
  {
    ChunkCacheManager mgr(engine_, ChunkManagerOptions{});
    for (const auto& q : queries) {
      QueryStats st;
      ASSERT_TRUE(mgr.Execute(q, &st).ok());
    }
    // An unfiltered chunk with a next chunk along some grouped dimension.
    mgr.chunk_cache().ForEachEntry([&](const cache::ChunkHandle& h) {
      if (real.cols.size() > 0 || h->filter_hash != 0) return;
      const GroupBySpec spec = scheme_->SpecOfId(h->group_by_id);
      const auto extent = scheme_->ChunkExtent(spec, h->chunk_num);
      for (uint32_t d = 0; d < spec.num_dims; ++d) {
        const auto& hier = schema_->dimension(d).hierarchy;
        if (spec.levels[d] > 0 &&
            extent[d].end + 1 < hier.LevelCardinality(spec.levels[d])) {
          real = ChunkOf(h);
          along = d;
          return;
        }
      }
    });
  }
  ASSERT_GT(real.cols.size(), 0u);
  const GroupBySpec spec = scheme_->SpecOfId(real.key.group_by_id);
  const uint32_t nd = real.cols.num_dims();
  const AggTuple last = real.cols.RowAt(real.cols.size() - 1);
  // The chunk's rows plus one in the next chunk along `along`: still
  // strictly row-major, and one past the chunk's edge.
  TestChunk outside = real;
  AggTuple next = last;
  next.coords[along] =
      scheme_->ChunkExtent(spec, real.key.chunk_num)[along].end + 1;
  outside.cols.PushRow(next);
  // The last row twice.
  TestChunk repeated = real;
  repeated.cols.PushRow(last);
  // The rows as computed, the last with COUNT 0.
  TestChunk zero_count = real;
  zero_count.cols = AggColumns(nd);
  for (size_t i = 0; i + 1 < real.cols.size(); ++i) {
    zero_count.cols.PushRow(real.cols.RowAt(i));
  }
  AggTuple empty = last;
  empty.count = 0;
  zero_count.cols.PushRow(empty);

  ScratchDir dir;
  for (const TestChunk* bad : {&outside, &repeated, &zero_count}) {
    {
      auto p = OpenOrDie(dir.path, main_->file->fingerprint());
      ASSERT_TRUE(WriteChunks(p.get(), {*bad}).ok());
    }
    ChunkManagerOptions opts = PersistOpts(dir.path);
    opts.persist_snapshot_every = 0;
    ChunkCacheManager warm(engine_, opts);
    EXPECT_EQ(warm.recovery_stats().quarantined, 1u);
    EXPECT_EQ(warm.chunk_cache().num_chunks(), 0u);
    // The whole level of the record's group-by.
    StarJoinQuery whole;
    whole.group_by = spec;
    for (uint32_t d = 0; d < nd; ++d) {
      const auto& hier = schema_->dimension(d).hierarchy;
      whole.selection[d] = {0, spec.levels[d] == 0
                                   ? 0
                                   : hier.LevelCardinality(spec.levels[d]) - 1};
    }
    QueryStats st;
    auto got = warm.Execute(whole, &st);
    ASSERT_TRUE(got.ok());
    EXPECT_TRUE(RowsEqual(*got, ReferenceRows({whole})[0]));
    warm.persistence()->SimulateCrash();
  }
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

// A directory of the parent format holds snapshots under the magic
// "CHCCSNP2", with this data's fingerprint, whose admit records hold the
// key, the benefit and the rows as flat columns (u64 num_dims, u64 rows,
// each coordinate column, then the SUM, COUNT, MIN and MAX columns),
// followed by a footer record (type 4) with the entry count. Older
// directories hold snapshots of the codec-blob format ("CHCCSNAP": a
// 16-byte header, admit records of key, benefit, raw_bytes, rows and a
// codec blob) and write-ahead logs (wal-<G>) of admit and evict records.
// Recovery reads none of them: it unlinks the log unread and skips each
// snapshot by its magic before any record. The cache starts cold and
// answers bit-identically, and its first snapshot supersedes them.
TEST_F(PersistenceFixture, ParentFormatDirectoryRecoversCold) {
  const auto queries = MakeQueries(12, 61);
  const auto reference = ReferenceRows(queries);
  std::vector<TestChunk> chunks;
  {
    ChunkCacheManager mgr(engine_, ChunkManagerOptions{});
    for (const auto& q : queries) {
      QueryStats st;
      ASSERT_TRUE(mgr.Execute(q, &st).ok());
    }
    mgr.chunk_cache().ForEachEntry(
        [&chunks](const cache::ChunkHandle& h) { chunks.push_back(ChunkOf(h)); });
  }
  ASSERT_GE(chunks.size(), 4u);
  const size_t half = chunks.size() / 2;
  const auto key = [](const TestChunk& c) {
    std::vector<uint8_t> b;
    Put(&b, c.key.group_by_id);
    Put(&b, c.key.chunk_num);
    Put(&b, c.key.filter_hash);
    Put(&b, c.key.benefit);
    return b;
  };
  // A parent-format admit record: key, benefit, flat columns.
  const auto columns_admit = [&key](const TestChunk& c) {
    std::vector<uint8_t> b = key(c);
    Put(&b, uint64_t{c.cols.num_dims()});
    Put(&b, static_cast<uint64_t>(c.cols.size()));
    for (uint32_t d = 0; d < c.cols.num_dims(); ++d) {
      for (uint32_t v : c.cols.coords(d)) Put(&b, v);
    }
    for (double v : c.cols.sums()) Put(&b, v);
    for (uint64_t v : c.cols.counts()) Put(&b, v);
    for (double v : c.cols.mins()) Put(&b, v);
    for (double v : c.cols.maxs()) Put(&b, v);
    return HandFrame(CachePersistence::kAdmit, b);
  };
  // A codec-format admit record: key, benefit, raw_bytes, rows, blob.
  const auto codec_admit = [&key](const TestChunk& c) {
    std::vector<uint8_t> b = key(c);
    Put(&b, static_cast<uint64_t>(48 * c.cols.size()));
    Put(&b, static_cast<uint32_t>(c.cols.size()));
    const std::vector<uint8_t> blob(16 + c.cols.size(), 0xA5);
    Put(&b, static_cast<uint32_t>(blob.size()));
    b.insert(b.end(), blob.begin(), blob.end());
    return HandFrame(CachePersistence::kAdmit, b);
  };
  const auto footer = [](uint64_t entries) {
    std::vector<uint8_t> b;
    Put(&b, entries);
    return HandFrame(4, b);
  };
  const auto append = [](std::vector<uint8_t>* to,
                         const std::vector<uint8_t>& bytes) {
    to->insert(to->end(), bytes.begin(), bytes.end());
  };

  ScratchDir dir;
  constexpr uint64_t kParentSnapMagic = 0x32504E53'43434843ull;  // CHCCSNP2
  std::vector<uint8_t> parent;
  Put(&parent, kParentSnapMagic);
  Put(&parent, uint64_t{2});
  Put(&parent, main_->file->fingerprint());
  for (const TestChunk& c : chunks) append(&parent, columns_admit(c));
  append(&parent, footer(chunks.size()));
  WriteFileBytes(dir.path + "/snapshot-2", parent);

  constexpr uint64_t kCodecSnapMagic = 0x50414E53'43434843ull;  // CHCCSNAP
  std::vector<uint8_t> codec;
  Put(&codec, kCodecSnapMagic);
  Put(&codec, uint64_t{1});
  for (size_t i = 0; i < half; ++i) append(&codec, codec_admit(chunks[i]));
  append(&codec, footer(half));
  WriteFileBytes(dir.path + "/snapshot-1", codec);

  // The log: admits of the other chunks, then an evict (type 2: key
  // only) of the first snapshot entry.
  constexpr uint64_t kOldLogMagic = 0x314C4157'43434843ull;
  std::vector<uint8_t> log;
  Put(&log, kOldLogMagic);
  Put(&log, uint64_t{1});
  for (size_t i = half; i < chunks.size(); ++i) {
    append(&log, codec_admit(chunks[i]));
  }
  std::vector<uint8_t> evict = key(chunks[0]);
  evict.resize(4 + 8 + 8);
  append(&log, HandFrame(2, evict));
  const std::string log_path = dir.path + "/wal-1";
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
  EXPECT_FALSE(fs::exists(dir.path + "/snapshot-1"));
  EXPECT_FALSE(fs::exists(dir.path + "/snapshot-2"));
  EXPECT_TRUE(fs::exists(dir.path + "/snapshot-3"));
  ChunkManagerOptions opts;
  opts.persist_dir = dir.path;
  ChunkCacheManager warm(engine_, opts);
  EXPECT_EQ(warm.recovery_stats().generation, 3u);
  EXPECT_GT(warm.StatsSnapshot().persist_recovered_entries, 0u);
  EXPECT_EQ(warm.StatsSnapshot().persist_quarantined, 0u);
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
