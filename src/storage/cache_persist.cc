#include "storage/cache_persist.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <unordered_map>

#include "common/crc32c.h"
#include "common/fault_injector.h"

namespace chunkcache::storage {

namespace {

/// Upper bound on a single record frame; anything larger during replay is
/// treated as a desynced length field, not a real record.
constexpr uint64_t kMaxRecordBytes = 256ull << 20;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void PutU32(std::vector<uint8_t>* b, uint32_t v) {
  const size_t n = b->size();
  b->resize(n + 4);
  std::memcpy(b->data() + n, &v, 4);
}

void PutU64(std::vector<uint8_t>* b, uint64_t v) {
  const size_t n = b->size();
  b->resize(n + 8);
  std::memcpy(b->data() + n, &v, 8);
}

void PutF64(std::vector<uint8_t>* b, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, 8);
  PutU64(b, bits);
}

/// Bounds-checked sequential reader over one record payload. Every Get
/// clears `ok` on underrun instead of reading past the end, so a damaged
/// payload surfaces as ok == false, never as garbage values.
struct Cursor {
  const uint8_t* p;
  const uint8_t* end;
  bool ok = true;

  bool Get(void* out, size_t n) {
    if (!ok || static_cast<size_t>(end - p) < n) {
      ok = false;
      return false;
    }
    std::memcpy(out, p, n);
    p += n;
    return true;
  }
  uint32_t U32() {
    uint32_t v = 0;
    Get(&v, 4);
    return v;
  }
  uint64_t U64() {
    uint64_t v = 0;
    Get(&v, 8);
    return v;
  }
  double F64() {
    uint64_t bits = U64();
    double v;
    std::memcpy(&v, &bits, 8);
    return v;
  }
};

/// write(2) until done; false on error or short write (disk full).
bool WriteAll(int fd, const uint8_t* data, size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, data, n);
    if (w <= 0) {
      if (w < 0 && errno == EINTR) continue;
      return false;
    }
    data += w;
    n -= static_cast<size_t>(w);
  }
  return true;
}

/// Creates every missing component of `path` (mkdir -p).
bool MkDirs(const std::string& path) {
  std::string partial;
  for (size_t i = 0; i <= path.size(); ++i) {
    if (i < path.size() && path[i] != '/') continue;
    partial = path.substr(0, i == path.size() ? i : i + 1);
    if (partial.empty() || partial == "/") continue;
    if (::mkdir(partial.c_str(), 0755) != 0 && errno != EEXIST) return false;
  }
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

bool FsyncDir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

/// Reads the whole file, honoring the recovery-read fault site: an
/// injected fault makes the file look unreadable, exactly like a media
/// error mid-recovery.
bool ReadFileFully(const std::string& path, std::vector<uint8_t>* out) {
  FaultInjector& fi = FaultInjector::Global();
  if (fi.armed() && fi.ShouldInject(FaultSite::kRecoveryRead)) return false;
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return false;
  struct stat st;
  if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
    ::close(fd);
    return false;
  }
  out->resize(static_cast<size_t>(st.st_size));
  size_t off = 0;
  while (off < out->size()) {
    const ssize_t r =
        ::read(fd, out->data() + off, out->size() - off);
    if (r <= 0) {
      if (r < 0 && errno == EINTR) continue;
      ::close(fd);
      return false;
    }
    off += static_cast<size_t>(r);
  }
  ::close(fd);
  return true;
}

std::string SnapshotPath(const std::string& dir, uint64_t gen) {
  return dir + "/snapshot-" + std::to_string(gen);
}

std::string WalPath(const std::string& dir, uint64_t gen) {
  return dir + "/wal-" + std::to_string(gen);
}

/// Parses "<prefix>-<number>" names; returns false for anything else
/// (including .tmp strays).
bool ParseGeneration(const std::string& name, const char* prefix,
                     uint64_t* gen) {
  const size_t plen = std::strlen(prefix);
  if (name.size() <= plen + 1 || name.compare(0, plen, prefix) != 0 ||
      name[plen] != '-') {
    return false;
  }
  uint64_t value = 0;
  for (size_t i = plen + 1; i < name.size(); ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *gen = value;
  return true;
}

void EncodeAdmitPayload(const PersistedChunk& chunk,
                        std::vector<uint8_t>* payload) {
  PutU32(payload, chunk.group_by_id);
  PutU64(payload, chunk.chunk_num);
  PutU64(payload, chunk.filter_hash);
  PutF64(payload, chunk.benefit);
  PutU64(payload, chunk.raw_bytes);
  PutU32(payload, chunk.rows);
  PutU32(payload, static_cast<uint32_t>(chunk.blob.size()));
  payload->insert(payload->end(), chunk.blob.begin(), chunk.blob.end());
}

bool DecodeAdmitPayload(const uint8_t* p, size_t len, PersistedChunk* out) {
  Cursor c{p, p + len};
  out->group_by_id = c.U32();
  out->chunk_num = c.U64();
  out->filter_hash = c.U64();
  out->benefit = c.F64();
  out->raw_bytes = c.U64();
  out->rows = c.U32();
  const uint32_t blob_len = c.U32();
  if (!c.ok || static_cast<size_t>(c.end - c.p) != blob_len) return false;
  out->blob.assign(c.p, c.p + blob_len);
  return true;
}

std::vector<uint8_t> FrameRecord(uint8_t type,
                                 const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> frame;
  frame.reserve(CachePersistence::kRecordHeaderBytes + 1 + payload.size());
  frame.resize(CachePersistence::kRecordHeaderBytes);
  frame.push_back(type);
  frame.insert(frame.end(), payload.begin(), payload.end());
  const uint32_t len = static_cast<uint32_t>(1 + payload.size());
  const uint32_t crc =
      Crc32c(frame.data() + CachePersistence::kRecordHeaderBytes, len);
  std::memcpy(frame.data(), &crc, 4);
  std::memcpy(frame.data() + 4, &len, 4);
  return frame;
}

struct ReplayKey {
  uint32_t group_by_id;
  uint64_t chunk_num;
  uint64_t filter_hash;

  bool operator==(const ReplayKey& o) const {
    return group_by_id == o.group_by_id && chunk_num == o.chunk_num &&
           filter_hash == o.filter_hash;
  }
};

struct ReplayKeyHash {
  size_t operator()(const ReplayKey& k) const {
    uint64_t h = k.chunk_num * 0x9E3779B97F4A7C15ull;
    h ^= (static_cast<uint64_t>(k.group_by_id) + 0x517CC1B727220A95ull) +
         (h << 6) + (h >> 2);
    h ^= k.filter_hash + 0x2545F4914F6CDD1Dull + (h << 6) + (h >> 2);
    return static_cast<size_t>(h);
  }
};

}  // namespace

/// Replay working state: insertion-ordered entries + key index, so the
/// recovered entry order (and therefore warm-cache admission order) is
/// deterministic for a given on-disk state.
struct CachePersistence::ReplayState {
  std::vector<PersistedChunk> entries;
  std::vector<bool> live;
  std::unordered_map<ReplayKey, size_t, ReplayKeyHash> index;

  void Admit(PersistedChunk&& chunk) {
    const ReplayKey key{chunk.group_by_id, chunk.chunk_num,
                        chunk.filter_hash};
    auto it = index.find(key);
    if (it != index.end()) {
      entries[it->second] = std::move(chunk);
      live[it->second] = true;
      return;
    }
    index.emplace(key, entries.size());
    entries.push_back(std::move(chunk));
    live.push_back(true);
  }

  void Evict(uint32_t gb, uint64_t chunk_num, uint64_t filter_hash) {
    auto it = index.find(ReplayKey{gb, chunk_num, filter_hash});
    if (it != index.end()) live[it->second] = false;
  }
};

Result<std::unique_ptr<CachePersistence>> CachePersistence::Open(
    PersistOptions opts, MetricsRegistry* metrics) {
  std::unique_ptr<CachePersistence> p(
      new CachePersistence(std::move(opts), metrics));
  if (!MkDirs(p->opts_.dir)) {
    return Status::IoError("cache persist: cannot create directory " +
                           p->opts_.dir);
  }
  const uint64_t start = NowNs();
  p->Recover();
  p->recovery_.recovery_ns = NowNs() - start;
  p->recovery_ns_->Record(p->recovery_.recovery_ns);
  Status s = p->OpenWal(p->generation_.load(std::memory_order_relaxed));
  if (!s.ok()) return s;
  return p;
}

CachePersistence::CachePersistence(PersistOptions opts,
                                   MetricsRegistry* metrics)
    : opts_(std::move(opts)) {
  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<MetricsRegistry>();
    metrics = owned_metrics_.get();
  }
  metrics_ = metrics;
  wal_records_ = metrics_->GetCounter("persist.wal_records");
  wal_bytes_ = metrics_->GetCounter("persist.wal_bytes");
  wal_fsyncs_ = metrics_->GetCounter("persist.wal_fsyncs");
  wal_errors_ = metrics_->GetCounter("persist.wal_errors");
  snapshots_ = metrics_->GetCounter("persist.snapshots");
  snapshot_bytes_ = metrics_->GetCounter("persist.snapshot_bytes");
  snapshot_errors_ = metrics_->GetCounter("persist.snapshot_errors");
  recovered_entries_ = metrics_->GetCounter("persist.recovered_entries");
  replayed_records_ = metrics_->GetCounter("persist.replayed_records");
  truncated_bytes_ = metrics_->GetCounter("persist.truncated_bytes");
  quarantined_ = metrics_->GetCounter("persist.quarantined");
  snapshot_ns_ = metrics_->GetHistogram("persist.snapshot_ns");
  recovery_ns_ = metrics_->GetHistogram("persist.recovery_ns");
}

CachePersistence::~CachePersistence() {
  std::lock_guard<std::mutex> lock(wal_mu_);
  if (wal_fd_ >= 0) {
    if (!crashed() && opts_.wal_fsync_every > 0 && wal_unsynced_ > 0) {
      ::fsync(wal_fd_);
    }
    ::close(wal_fd_);
    wal_fd_ = -1;
  }
}

RecoveryStats CachePersistence::TakeRecovery() {
  return std::move(recovery_);
}

// -- Recovery --------------------------------------------------------------

void CachePersistence::Recover() {
  // Inventory the directory: generation-numbered snapshots and WALs, plus
  // .tmp strays from a crash mid-snapshot (deleted — never authoritative).
  std::vector<uint64_t> snapshot_gens;
  std::vector<uint64_t> wal_gens;
  uint64_t max_gen = 0;
  if (DIR* d = ::opendir(opts_.dir.c_str())) {
    while (struct dirent* e = ::readdir(d)) {
      const std::string name = e->d_name;
      uint64_t gen = 0;
      if (ParseGeneration(name, "snapshot", &gen)) {
        snapshot_gens.push_back(gen);
        if (gen > max_gen) max_gen = gen;
      } else if (ParseGeneration(name, "wal", &gen)) {
        wal_gens.push_back(gen);
        if (gen > max_gen) max_gen = gen;
      } else if (name.size() > 4 &&
                 name.compare(name.size() - 4, 4, ".tmp") == 0) {
        ::unlink((opts_.dir + "/" + name).c_str());
      }
    }
    ::closedir(d);
  }
  std::sort(snapshot_gens.rbegin(), snapshot_gens.rend());
  std::sort(wal_gens.begin(), wal_gens.end());

  // Newest readable snapshot wins; an unreadable or bad-magic file falls
  // back to the previous generation (its WALs are still on disk until a
  // *successful* newer snapshot GCs them).
  ReplayState state;
  replay_ = &state;
  uint64_t snapshot_gen = 0;
  std::vector<PersistedChunk> snap_entries;
  for (uint64_t gen : snapshot_gens) {
    snap_entries.clear();
    if (ReadSnapshot(gen, &snap_entries)) {
      snapshot_gen = gen;
      break;
    }
  }
  recovery_.generation = snapshot_gen;
  recovery_.snapshot_entries = snap_entries.size();
  for (PersistedChunk& chunk : snap_entries) state.Admit(std::move(chunk));

  // Replay every WAL at or above the snapshot generation, oldest first.
  // Replay is idempotent (admit = upsert, evict of a missing key = no-op),
  // which is what lets the snapshot protocol rotate the WAL before
  // gathering: events racing the snapshot appear in both.
  for (uint64_t gen : wal_gens) {
    if (gen < snapshot_gen) continue;
    ReplayWal(gen);
  }

  recovery_.entries.reserve(state.entries.size());
  for (size_t i = 0; i < state.entries.size(); ++i) {
    if (state.live[i]) recovery_.entries.push_back(std::move(state.entries[i]));
  }
  replay_ = nullptr;

  recovered_entries_->Add(recovery_.entries.size());
  replayed_records_->Add(recovery_.wal_records);
  truncated_bytes_->Add(recovery_.wal_truncated_bytes);
  quarantined_->Add(recovery_.quarantined);

  generation_.store(max_gen + 1, std::memory_order_relaxed);
}

bool CachePersistence::ReadSnapshot(uint64_t generation,
                                    std::vector<PersistedChunk>* entries) {
  std::vector<uint8_t> data;
  if (!ReadFileFully(SnapshotPath(opts_.dir, generation), &data)) return false;
  if (data.size() < kFileHeaderBytes) return false;
  uint64_t magic = 0;
  std::memcpy(&magic, data.data(), 8);
  if (magic != kSnapMagic) return false;

  // Snapshot records are individually CRC-framed, so one rotted entry is
  // quarantined (skipped + counted) without sacrificing its neighbors. A
  // corrupt *length* desyncs the frame walk; everything after it is
  // unparseable and dropped.
  size_t off = kFileHeaderBytes;
  while (off + kRecordHeaderBytes <= data.size()) {
    uint32_t crc = 0, len = 0;
    std::memcpy(&crc, data.data() + off, 4);
    std::memcpy(&len, data.data() + off + 4, 4);
    const size_t remaining = data.size() - off - kRecordHeaderBytes;
    if (len < 1 || len > remaining || len > kMaxRecordBytes) {
      recovery_.quarantined++;
      break;
    }
    const uint8_t* body = data.data() + off + kRecordHeaderBytes;
    off += kRecordHeaderBytes + len;
    if (Crc32c(body, len) != crc) {
      recovery_.quarantined++;
      continue;
    }
    if (body[0] == kAdmit) {
      PersistedChunk chunk;
      if (DecodeAdmitPayload(body + 1, len - 1, &chunk)) {
        entries->push_back(std::move(chunk));
      } else {
        recovery_.quarantined++;
      }
    }
    // kFooter and unknown types (the retired type 3 among them) carry no
    // recoverable state; the snapshot is usable either way (partial
    // warmth beats a cold start).
  }
  return true;
}

void CachePersistence::ReplayWal(uint64_t generation) {
  std::vector<uint8_t> data;
  if (!ReadFileFully(WalPath(opts_.dir, generation), &data)) return;
  if (data.size() < kFileHeaderBytes) {
    recovery_.wal_truncated_bytes += data.size();
    return;
  }
  uint64_t magic = 0;
  std::memcpy(&magic, data.data(), 8);
  if (magic != kWalMagic) {
    recovery_.wal_truncated_bytes += data.size();
    return;
  }

  // WAL records were appended sequentially and fsynced in order, so the
  // first frame that fails to parse marks the torn tail: everything from
  // that offset on is truncated, never trusted.
  size_t off = kFileHeaderBytes;
  while (off + kRecordHeaderBytes <= data.size()) {
    uint32_t crc = 0, len = 0;
    std::memcpy(&crc, data.data() + off, 4);
    std::memcpy(&len, data.data() + off + 4, 4);
    const size_t remaining = data.size() - off - kRecordHeaderBytes;
    if (len < 1 || len > remaining || len > kMaxRecordBytes) break;
    const uint8_t* body = data.data() + off + kRecordHeaderBytes;
    if (Crc32c(body, len) != crc) break;
    const uint8_t type = body[0];
    const uint8_t* payload = body + 1;
    const size_t payload_len = len - 1;
    bool applied = false;
    if (type == kAdmit) {
      PersistedChunk chunk;
      if (DecodeAdmitPayload(payload, payload_len, &chunk)) {
        replay_->Admit(std::move(chunk));
        applied = true;
      }
    } else if (type == kEvict) {
      Cursor c{payload, payload + payload_len};
      const uint32_t gb = c.U32();
      const uint64_t chunk_num = c.U64();
      const uint64_t filter_hash = c.U64();
      if (c.ok) {
        replay_->Evict(gb, chunk_num, filter_hash);
        applied = true;
      }
    }
    // CRC passed but the payload is malformed or of an unknown type (the
    // retired type 3 among them): stop trusting the rest.
    if (!applied) break;
    off += kRecordHeaderBytes + len;
    recovery_.wal_records++;
  }
  recovery_.wal_truncated_bytes += data.size() - off;
}

// -- WAL appends -----------------------------------------------------------

Status CachePersistence::OpenWal(uint64_t generation) {
  const std::string path = WalPath(opts_.dir, generation);
  const int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_APPEND, 0644);
  if (fd < 0) {
    return Status::IoError("cache persist: cannot open " + path);
  }
  struct stat st;
  if (::fstat(fd, &st) == 0 && st.st_size == 0) {
    std::vector<uint8_t> header;
    PutU64(&header, kWalMagic);
    PutU64(&header, generation);
    if (!WriteAll(fd, header.data(), header.size())) {
      ::close(fd);
      return Status::IoError("cache persist: cannot write WAL header");
    }
  }
  if (wal_fd_ >= 0) ::close(wal_fd_);
  wal_fd_ = fd;
  wal_unsynced_ = 0;
  return Status::OK();
}

void CachePersistence::AppendRecord(uint8_t type,
                                    const std::vector<uint8_t>& payload) {
  if (crashed()) return;
  const std::vector<uint8_t> frame = FrameRecord(type, payload);
  std::lock_guard<std::mutex> lock(wal_mu_);
  if (wal_fd_ < 0) {
    wal_errors_->Increment();
    return;
  }
  FaultInjector& fi = FaultInjector::Global();
  if (fi.armed() && fi.ShouldInject(FaultSite::kWalAppend)) {
    wal_errors_->Increment();
    return;
  }
  struct stat st;
  const bool have_start = ::fstat(wal_fd_, &st) == 0;
  if (!WriteAll(wal_fd_, frame.data(), frame.size())) {
    wal_errors_->Increment();
    // A short write leaves a torn frame that would end replay early; cut
    // the file back to the last whole record so later appends stay live.
    if (have_start) (void)::ftruncate(wal_fd_, st.st_size);
    return;
  }
  wal_records_->Increment();
  wal_bytes_->Add(frame.size());
  records_since_snapshot_.fetch_add(1, std::memory_order_relaxed);
  wal_unsynced_++;
  MaybeFsyncWal();
}

void CachePersistence::MaybeFsyncWal() {
  if (opts_.wal_fsync_every == 0 || wal_unsynced_ < opts_.wal_fsync_every) {
    return;
  }
  FaultInjector& fi = FaultInjector::Global();
  if (fi.armed() && fi.ShouldInject(FaultSite::kWalFsync)) {
    wal_errors_->Increment();
    return;  // unsynced stays > 0; the next append retries the fsync
  }
  if (::fsync(wal_fd_) != 0) {
    wal_errors_->Increment();
    return;
  }
  wal_fsyncs_->Increment();
  wal_unsynced_ = 0;
}

void CachePersistence::LogAdmit(const PersistedChunk& chunk) {
  std::vector<uint8_t> payload;
  payload.reserve(44 + chunk.blob.size());
  EncodeAdmitPayload(chunk, &payload);
  AppendRecord(kAdmit, payload);
}

void CachePersistence::LogEvict(uint32_t group_by_id, uint64_t chunk_num,
                                uint64_t filter_hash) {
  std::vector<uint8_t> payload;
  payload.reserve(20);
  PutU32(&payload, group_by_id);
  PutU64(&payload, chunk_num);
  PutU64(&payload, filter_hash);
  AppendRecord(kEvict, payload);
}

// -- Snapshots -------------------------------------------------------------

Status CachePersistence::WriteSnapshot(
    const std::function<void(std::vector<PersistedChunk>*)>& gather_entries,
    bool only_if_idle) {
  if (crashed()) return Status::OK();  // simulated kill: nothing runs
  std::unique_lock<std::mutex> snap_lock(snapshot_mu_, std::defer_lock);
  if (only_if_idle) {
    if (!snap_lock.try_lock()) return Status::OK();
  } else {
    snap_lock.lock();
  }
  const uint64_t start = NowNs();
  FaultInjector& fi = FaultInjector::Global();

  // Rotate the WAL before gathering: events that race the snapshot land
  // in the new WAL, where idempotent replay absorbs any duplicate with
  // the snapshot; events already in the old WAL are visible to the
  // gather (their cache mutation happened before the rotation).
  uint64_t gen;
  {
    std::lock_guard<std::mutex> wal_lock(wal_mu_);
    gen = generation_.load(std::memory_order_relaxed) + 1;
    if (wal_fd_ >= 0 && wal_unsynced_ > 0) (void)::fsync(wal_fd_);
    Status s = OpenWal(gen);
    if (!s.ok()) {
      snapshot_errors_->Increment();
      return s;
    }
    generation_.store(gen, std::memory_order_relaxed);
    records_since_snapshot_.store(0, std::memory_order_relaxed);
  }

  std::vector<PersistedChunk> entries;
  gather_entries(&entries);

  const std::string final_path = SnapshotPath(opts_.dir, gen);
  const std::string tmp_path = final_path + ".tmp";
  const int fd = ::open(tmp_path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) {
    snapshot_errors_->Increment();
    return Status::IoError("cache persist: cannot create " + tmp_path);
  }
  auto fail_write = [&]() {
    ::close(fd);
    ::unlink(tmp_path.c_str());
    snapshot_errors_->Increment();
    return Status::IoError("cache persist: snapshot write failed");
  };
  auto checked_write = [&](const std::vector<uint8_t>& buf) {
    if (fi.armed() && fi.ShouldInject(FaultSite::kSnapshotWrite)) return false;
    return WriteAll(fd, buf.data(), buf.size());
  };

  uint64_t total_bytes = 0;
  {
    std::vector<uint8_t> header;
    PutU64(&header, kSnapMagic);
    PutU64(&header, gen);
    if (!checked_write(header)) return fail_write();
    total_bytes += header.size();
  }
  for (const PersistedChunk& chunk : entries) {
    std::vector<uint8_t> payload;
    payload.reserve(44 + chunk.blob.size());
    EncodeAdmitPayload(chunk, &payload);
    const std::vector<uint8_t> frame = FrameRecord(kAdmit, payload);
    if (!checked_write(frame)) return fail_write();
    total_bytes += frame.size();
  }
  {
    std::vector<uint8_t> payload;
    PutU64(&payload, entries.size());
    const std::vector<uint8_t> frame = FrameRecord(kFooter, payload);
    if (!checked_write(frame)) return fail_write();
    total_bytes += frame.size();
  }
  if ((fi.armed() && fi.ShouldInject(FaultSite::kSnapshotWrite)) ||
      ::fsync(fd) != 0) {
    return fail_write();
  }
  ::close(fd);

  if (fi.armed() && fi.ShouldInject(FaultSite::kSnapshotRename)) {
    ::unlink(tmp_path.c_str());
    snapshot_errors_->Increment();
    return Status::IoError("injected fault at snapshot-rename");
  }
  if (::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    ::unlink(tmp_path.c_str());
    snapshot_errors_->Increment();
    return Status::IoError("cache persist: rename failed for " + final_path);
  }
  if (!FsyncDir(opts_.dir)) snapshot_errors_->Increment();

  // The new generation is durable; superseded snapshots and WALs go.
  if (DIR* d = ::opendir(opts_.dir.c_str())) {
    while (struct dirent* e = ::readdir(d)) {
      const std::string name = e->d_name;
      uint64_t old_gen = 0;
      if ((ParseGeneration(name, "snapshot", &old_gen) && old_gen < gen) ||
          (ParseGeneration(name, "wal", &old_gen) && old_gen < gen)) {
        ::unlink((opts_.dir + "/" + name).c_str());
      }
    }
    ::closedir(d);
  }

  snapshots_->Increment();
  snapshot_bytes_->Add(total_bytes);
  snapshot_ns_->Record(NowNs() - start);
  return Status::OK();
}

}  // namespace chunkcache::storage
