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

/// Bytes of an admit record's key and benefit, before the payload.
constexpr size_t kAdmitKeyBytes = 4 + 8 + 8 + 8;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Appends `v`'s little-endian bytes.
template <typename T>
void Put(std::vector<uint8_t>* b, T v) {
  const size_t n = b->size();
  b->resize(n + sizeof(T));
  std::memcpy(b->data() + n, &v, sizeof(T));
}

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

struct FileCloser {
  void operator()(std::FILE* f) const { std::fclose(f); }
};

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

}  // namespace

// -- SnapshotWriter --------------------------------------------------------

void SnapshotWriter::Add(const PersistedChunk& chunk,
                         const ChunkPayload& payload) {
  if (!ok_) return;
  // The record header (crc32c and length of type|payload) goes in last.
  constexpr size_t kHeader = CachePersistence::kRecordHeaderBytes;
  frame_.resize(kHeader);
  frame_.push_back(CachePersistence::kAdmit);
  Put(&frame_, chunk.group_by_id);
  Put(&frame_, chunk.chunk_num);
  Put(&frame_, chunk.filter_hash);
  Put(&frame_, chunk.benefit);
  const size_t at = frame_.size();
  const size_t n = static_cast<size_t>(payload.capacity_bytes());
  frame_.resize(at + n);
  if (n != 0) std::memcpy(frame_.data() + at, payload.data(), n);
  const uint32_t len = static_cast<uint32_t>(frame_.size() - kHeader);
  const uint32_t crc = Crc32c(frame_.data() + kHeader, len);
  std::memcpy(frame_.data(), &crc, 4);
  std::memcpy(frame_.data() + 4, &len, 4);
  Flush();
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
    std::string dir, uint64_t fingerprint, const AdmitFn& admit,
    MetricsRegistry* metrics) {
  std::unique_ptr<CachePersistence> p(
      new CachePersistence(std::move(dir), fingerprint, metrics));
  if (!MkDirs(p->dir_)) {
    return Status::IoError("cache persist: cannot create directory " +
                           p->dir_);
  }
  const uint64_t start = NowNs();
  p->Recover(admit);
  p->recovery_ns_->Record(NowNs() - start);
  return p;
}

CachePersistence::CachePersistence(std::string dir, uint64_t fingerprint,
                                   MetricsRegistry* metrics)
    : dir_(std::move(dir)), fingerprint_(fingerprint) {
  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<MetricsRegistry>();
    metrics = owned_metrics_.get();
  }
  snapshots_ = metrics->GetCounter("persist.snapshots");
  snapshot_bytes_ = metrics->GetCounter("persist.snapshot_bytes");
  snapshot_errors_ = metrics->GetCounter("persist.snapshot_errors");
  recovered_entries_ = metrics->GetCounter("persist.recovered_entries");
  quarantined_ = metrics->GetCounter("persist.quarantined");
  snapshot_ns_ = metrics->GetHistogram("persist.snapshot_ns");
  recovery_ns_ = metrics->GetHistogram("persist.recovery_ns");
}

void CachePersistence::SimulateCrash() {
  std::lock_guard<std::mutex> lock(commit_mu_);
  crashed_.store(true, std::memory_order_release);
}

// -- Recovery --------------------------------------------------------------

void CachePersistence::Recover(const AdmitFn& admit) {
  // Inventory the directory: generation-numbered snapshots, plus strays
  // that are deleted. A .tmp is a snapshot a crash interrupted, never
  // authoritative. A wal-<G> is a write-ahead log from the older directory
  // format, unlinked unread: the snapshot alone is a correct cache, so
  // dropping the log costs only the warmth it held.
  std::vector<uint64_t> snapshot_gens;
  uint64_t max_gen = 0;
  if (DIR* d = ::opendir(dir_.c_str())) {
    while (struct dirent* e = ::readdir(d)) {
      const std::string name = e->d_name;
      uint64_t gen = 0;
      const bool tmp =
          name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0;
      if (ParseGeneration(name, "snapshot", &gen)) {
        snapshot_gens.push_back(gen);
        if (gen > max_gen) max_gen = gen;
      } else if (tmp || ParseGeneration(name, "wal", &gen)) {
        ::unlink((dir_ + "/" + name).c_str());
      }
    }
    ::closedir(d);
  }
  std::sort(snapshot_gens.rbegin(), snapshot_gens.rend());

  // Newest readable snapshot wins; an unreadable file, or one of another
  // format or fingerprint, falls back to the previous generation (still on
  // disk until a *successful* newer snapshot GCs it), and with none left
  // the cache starts cold.
  for (uint64_t gen : snapshot_gens) {
    if (ReadSnapshot(gen, admit)) {
      generation_.store(gen, std::memory_order_relaxed);
      break;
    }
  }
  next_generation_ = max_gen + 1;
}

bool CachePersistence::ReadSnapshot(uint64_t generation,
                                    const AdmitFn& admit) {
  // An injected recovery-read fault makes the file look unreadable,
  // exactly like a media error mid-recovery.
  FaultInjector& fi = FaultInjector::Global();
  if (fi.armed() && fi.ShouldInject(FaultSite::kRecoveryRead)) return false;
  const std::unique_ptr<std::FILE, FileCloser> file(
      std::fopen(SnapshotPath(dir_, generation).c_str(), "rb"));
  if (file == nullptr) return false;
  struct stat st;
  if (::fstat(::fileno(file.get()), &st) != 0 || !S_ISREG(st.st_mode)) {
    return false;
  }
  const size_t size = static_cast<size_t>(st.st_size);
  uint8_t header[kFileHeaderBytes] = {};
  if (std::fread(header, 1, kFileHeaderBytes, file.get()) !=
      kFileHeaderBytes) {
    return false;
  }
  uint64_t magic = 0;
  uint64_t fingerprint = 0;
  std::memcpy(&magic, header, 8);
  std::memcpy(&fingerprint, header + 16, 8);
  // Entries computed from other data would be served as this data's.
  if (magic != kSnapMagic || fingerprint != fingerprint_) return false;

  // This file is the snapshot now, and each record is offered to `admit`
  // as it is read. Records are individually CRC-framed, so one rotted
  // entry is quarantined (skipped + counted) without sacrificing its
  // neighbors. A corrupt *length* desyncs the frame walk, and a failed
  // read ends it; everything after either is dropped, and the entries
  // admitted before it are a subset, which is a correct cache.
  std::vector<uint8_t> body;
  size_t off = kFileHeaderBytes;
  while (off + kRecordHeaderBytes <= size) {
    uint32_t crc_len[2] = {};  // the record header: crc32c, then length
    if (std::fread(crc_len, 1, kRecordHeaderBytes, file.get()) !=
        kRecordHeaderBytes) {
      break;
    }
    const uint32_t crc = crc_len[0];
    const uint32_t len = crc_len[1];
    const size_t remaining = size - off - kRecordHeaderBytes;
    if (len < 1 || len > remaining || len > kMaxRecordBytes) {
      quarantined_->Increment();
      break;
    }
    body.resize(len);
    if (std::fread(body.data(), 1, len, file.get()) != len) break;
    off += kRecordHeaderBytes + len;
    if (Crc32c(body.data(), len) != crc) {
      quarantined_->Increment();
      continue;
    }
    // Unknown types (the retired types 2, 3 and 4 among them) carry no
    // recoverable state; the snapshot is usable either way (partial
    // warmth beats a cold start).
    if (body[0] != kAdmit) continue;
    if (len < 1 + kAdmitKeyBytes) {
      quarantined_->Increment();
      continue;
    }
    const uint8_t* key = body.data() + 1;
    PersistedChunk chunk;
    std::memcpy(&chunk.group_by_id, key, 4);
    std::memcpy(&chunk.chunk_num, key + 4, 8);
    std::memcpy(&chunk.filter_hash, key + 12, 8);
    std::memcpy(&chunk.benefit, key + 20, 8);
    Result<ChunkPayload> payload = ChunkPayload::FromBytes(
        key + kAdmitKeyBytes, len - 1 - kAdmitKeyBytes);
    if (payload.ok() && admit(chunk, std::move(payload).value())) {
      recovered_entries_->Increment();
    } else {
      quarantined_->Increment();
    }
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
  const std::string final_path = SnapshotPath(dir_, gen);
  const std::string tmp_path = final_path + ".tmp";
  const int fd = ::open(tmp_path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) {
    snapshot_errors_->Increment();
    return Status::IoError("cache persist: cannot create " + tmp_path);
  }

  SnapshotWriter w(fd, &crashed_);
  Put(&w.frame_, kSnapMagic);
  Put(&w.frame_, gen);
  Put(&w.frame_, fingerprint_);
  w.Flush();
  produce(&w);
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
    if (!FsyncDir(dir_)) snapshot_errors_->Increment();

    // The new generation is durable; superseded snapshots go.
    if (DIR* d = ::opendir(dir_.c_str())) {
      while (struct dirent* e = ::readdir(d)) {
        const std::string name = e->d_name;
        uint64_t old_gen = 0;
        if (ParseGeneration(name, "snapshot", &old_gen) && old_gen < gen) {
          ::unlink((dir_ + "/" + name).c_str());
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
