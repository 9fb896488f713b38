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

#include "common/crc32c.h"
#include "common/fault_injector.h"

namespace chunkcache::storage {

namespace {

/// Upper bound on a single record frame; anything larger during recovery
/// is treated as a desynced length field, not a real record.
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

/// Starts a record of `type` in `frame`, leaving room for its header.
void BeginFrame(std::vector<uint8_t>* frame, uint8_t type) {
  frame->resize(CachePersistence::kRecordHeaderBytes);
  frame->push_back(type);
}

/// Fills in the header of the record `frame` holds: crc32c and length of
/// type|payload.
void SealFrame(std::vector<uint8_t>* frame) {
  constexpr size_t kHeader = CachePersistence::kRecordHeaderBytes;
  const uint32_t len = static_cast<uint32_t>(frame->size() - kHeader);
  const uint32_t crc = Crc32c(frame->data() + kHeader, len);
  std::memcpy(frame->data(), &crc, 4);
  std::memcpy(frame->data() + 4, &len, 4);
}

}  // namespace

// -- SnapshotWriter --------------------------------------------------------

void SnapshotWriter::Add(
    const PersistedChunk& chunk,
    const std::function<void(std::vector<uint8_t>*)>& append_blob) {
  if (!ok_) return;
  BeginFrame(&frame_, CachePersistence::kAdmit);
  PutU32(&frame_, chunk.group_by_id);
  PutU64(&frame_, chunk.chunk_num);
  PutU64(&frame_, chunk.filter_hash);
  PutF64(&frame_, chunk.benefit);
  PutU64(&frame_, chunk.raw_bytes);
  PutU32(&frame_, chunk.rows);
  PutU32(&frame_, 0);  // blob length, patched once the blob is in
  const size_t blob_at = frame_.size();
  append_blob(&frame_);
  const uint32_t blob_len = static_cast<uint32_t>(frame_.size() - blob_at);
  std::memcpy(frame_.data() + blob_at - 4, &blob_len, 4);
  SealFrame(&frame_);
  Flush();
  if (ok_) entries_++;
}

void SnapshotWriter::Flush() {
  FaultInjector& fi = FaultInjector::Global();
  if (crashed_->load(std::memory_order_acquire) ||
      (fi.armed() && fi.ShouldInject(FaultSite::kSnapshotWrite)) ||
      !WriteAll(fd_, frame_.data(), frame_.size())) {
    ok_ = false;
    return;
  }
  bytes_ += frame_.size();
}

// -- CachePersistence ------------------------------------------------------

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
  snapshots_ = metrics_->GetCounter("persist.snapshots");
  snapshot_bytes_ = metrics_->GetCounter("persist.snapshot_bytes");
  snapshot_errors_ = metrics_->GetCounter("persist.snapshot_errors");
  recovered_entries_ = metrics_->GetCounter("persist.recovered_entries");
  quarantined_ = metrics_->GetCounter("persist.quarantined");
  snapshot_ns_ = metrics_->GetHistogram("persist.snapshot_ns");
  recovery_ns_ = metrics_->GetHistogram("persist.recovery_ns");
}

RecoveryStats CachePersistence::TakeRecovery() {
  return std::move(recovery_);
}

void CachePersistence::SimulateCrash() {
  std::lock_guard<std::mutex> lock(commit_mu_);
  crashed_.store(true, std::memory_order_release);
}

// -- Recovery --------------------------------------------------------------

void CachePersistence::Recover() {
  // Inventory the directory: generation-numbered snapshots, plus strays
  // that are deleted. A .tmp is a snapshot a crash interrupted, never
  // authoritative. A wal-<G> is a write-ahead log from the older directory
  // format, unlinked unread: the snapshot alone is a correct cache, so
  // dropping the log costs only the warmth it held.
  std::vector<uint64_t> snapshot_gens;
  uint64_t max_gen = 0;
  if (DIR* d = ::opendir(opts_.dir.c_str())) {
    while (struct dirent* e = ::readdir(d)) {
      const std::string name = e->d_name;
      uint64_t gen = 0;
      const bool tmp =
          name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0;
      if (ParseGeneration(name, "snapshot", &gen)) {
        snapshot_gens.push_back(gen);
        if (gen > max_gen) max_gen = gen;
      } else if (tmp || ParseGeneration(name, "wal", &gen)) {
        ::unlink((opts_.dir + "/" + name).c_str());
      }
    }
    ::closedir(d);
  }
  std::sort(snapshot_gens.rbegin(), snapshot_gens.rend());

  // Newest readable snapshot wins; an unreadable or bad-magic file falls
  // back to the previous generation (still on disk until a *successful*
  // newer snapshot GCs it), and with none left the cache starts cold.
  for (uint64_t gen : snapshot_gens) {
    recovery_.entries.clear();
    if (ReadSnapshot(gen, &recovery_.entries)) {
      recovery_.generation = gen;
      break;
    }
  }
  recovery_.snapshot_entries = recovery_.entries.size();

  recovered_entries_->Add(recovery_.entries.size());
  quarantined_->Add(recovery_.quarantined);
  generation_.store(recovery_.generation, std::memory_order_relaxed);
  next_generation_ = max_gen + 1;
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
    // kFooter and unknown types (the retired types 2 and 3 among them)
    // carry no recoverable state; the snapshot is usable either way
    // (partial warmth beats a cold start).
  }
  return true;
}

// -- Snapshots -------------------------------------------------------------

Status CachePersistence::WriteSnapshot(
    const std::function<void(SnapshotWriter*)>& produce) {
  std::lock_guard<std::mutex> snap_lock(snapshot_mu_);
  if (crashed()) return Status::OK();  // simulated kill: nothing runs
  const uint64_t start = NowNs();
  const uint64_t gen = next_generation_++;
  const std::string final_path = SnapshotPath(opts_.dir, gen);
  const std::string tmp_path = final_path + ".tmp";
  const int fd = ::open(tmp_path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) {
    snapshot_errors_->Increment();
    return Status::IoError("cache persist: cannot create " + tmp_path);
  }

  SnapshotWriter w(fd, &crashed_);
  PutU64(&w.frame_, kSnapMagic);
  PutU64(&w.frame_, gen);
  w.Flush();
  produce(&w);
  if (w.ok_) {
    BeginFrame(&w.frame_, kFooter);
    PutU64(&w.frame_, w.entries_);
    SealFrame(&w.frame_);
    w.Flush();
  }
  FaultInjector& fi = FaultInjector::Global();
  const bool written = w.ok_ &&
                       !(fi.armed() &&
                         fi.ShouldInject(FaultSite::kSnapshotWrite)) &&
                       ::fsync(fd) == 0;
  ::close(fd);
  // Killed mid-snapshot: the shadow file stays behind, as after a real
  // kill, and the next recovery unlinks it.
  if (crashed()) return Status::OK();
  if (!written) {
    ::unlink(tmp_path.c_str());
    snapshot_errors_->Increment();
    return Status::IoError("cache persist: snapshot write failed");
  }

  {
    std::lock_guard<std::mutex> commit(commit_mu_);
    if (crashed()) return Status::OK();
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

    // The new generation is durable; superseded snapshots go.
    if (DIR* d = ::opendir(opts_.dir.c_str())) {
      while (struct dirent* e = ::readdir(d)) {
        const std::string name = e->d_name;
        uint64_t old_gen = 0;
        if (ParseGeneration(name, "snapshot", &old_gen) && old_gen < gen) {
          ::unlink((opts_.dir + "/" + name).c_str());
        }
      }
      ::closedir(d);
    }
  }

  generation_.store(gen, std::memory_order_relaxed);
  snapshots_->Increment();
  snapshot_bytes_->Add(w.bytes_);
  snapshot_ns_->Record(NowNs() - start);
  return Status::OK();
}

}  // namespace chunkcache::storage
