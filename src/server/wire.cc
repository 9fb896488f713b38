#include "server/wire.h"

#include <bit>
#include <cstring>

#include "server/frame.h"

namespace chunkcache::server::wire {

// Rows cross the wire as little-endian fields copied straight from and into
// ResultRow with memcpy, so the host must be little-endian too.
static_assert(std::endian::native == std::endian::little,
              "row batches copy host-order fields as the little-endian wire");

namespace {

/// Bounded reader over a payload: every Get checks the remaining length, so
/// a lying header can never drive an over-read.
class Cursor {
 public:
  Cursor(const uint8_t* data, size_t len) : p_(data), left_(len) {}

  bool GetU8(uint8_t* v) { return Take(1, [&](const uint8_t* p) { *v = *p; }); }
  bool GetU32(uint32_t* v) {
    return Take(4, [&](const uint8_t* p) { *v = server::GetU32(p); });
  }
  bool GetU64(uint64_t* v) {
    return Take(8, [&](const uint8_t* p) { *v = server::GetU64(p); });
  }
  bool GetF64(double* v) {
    return Take(8, [&](const uint8_t* p) { *v = server::GetF64(p); });
  }
  size_t left() const { return left_; }

 private:
  template <typename Fn>
  bool Take(size_t n, Fn&& fn) {
    if (left_ < n) return false;
    fn(p_);
    p_ += n;
    left_ -= n;
    return true;
  }

  const uint8_t* p_;
  size_t left_;
};

Status Truncated(const char* what) {
  return Status::Corruption(std::string("wire: truncated ") + what);
}

}  // namespace

void EncodeQuery(const backend::StarJoinQuery& q, std::vector<uint8_t>* out) {
  PutU32(out, q.group_by.num_dims);
  for (uint32_t d = 0; d < q.group_by.num_dims; ++d) {
    out->push_back(q.group_by.levels[d]);
  }
  for (uint32_t d = 0; d < q.group_by.num_dims; ++d) {
    PutU32(out, q.selection[d].begin);
    PutU32(out, q.selection[d].end);
  }
  PutU32(out, static_cast<uint32_t>(q.non_group_by.size()));
  for (const auto& pred : q.non_group_by) {
    PutU32(out, pred.dim);
    PutU32(out, pred.level);
    PutU32(out, pred.range.begin);
    PutU32(out, pred.range.end);
  }
}

Result<backend::StarJoinQuery> DecodeQuery(const uint8_t* data, size_t len) {
  Cursor c(data, len);
  backend::StarJoinQuery q;
  uint32_t num_dims = 0;
  if (!c.GetU32(&num_dims)) return Truncated("query header");
  if (num_dims == 0 || num_dims > storage::kMaxDims) {
    return Status::Corruption("wire: query num_dims " +
                              std::to_string(num_dims) + " out of range");
  }
  q.group_by.num_dims = num_dims;
  for (uint32_t d = 0; d < num_dims; ++d) {
    if (!c.GetU8(&q.group_by.levels[d])) return Truncated("group-by levels");
  }
  for (uint32_t d = 0; d < num_dims; ++d) {
    if (!c.GetU32(&q.selection[d].begin) || !c.GetU32(&q.selection[d].end)) {
      return Truncated("selection");
    }
    if (q.selection[d].begin > q.selection[d].end) {
      return Status::Corruption("wire: inverted selection range");
    }
  }
  uint32_t num_preds = 0;
  if (!c.GetU32(&num_preds)) return Truncated("predicate count");
  // 16 bytes per predicate must fit in what is left — checked before the
  // reserve so a lying count cannot force a giant allocation.
  if (static_cast<uint64_t>(num_preds) * 16 > c.left()) {
    return Status::Corruption("wire: predicate count exceeds payload");
  }
  q.non_group_by.reserve(num_preds);
  for (uint32_t i = 0; i < num_preds; ++i) {
    backend::NonGroupByPredicate pred;
    if (!c.GetU32(&pred.dim) || !c.GetU32(&pred.level) ||
        !c.GetU32(&pred.range.begin) || !c.GetU32(&pred.range.end)) {
      return Truncated("predicate");
    }
    if (pred.dim >= num_dims) {
      return Status::Corruption("wire: predicate names dimension " +
                                std::to_string(pred.dim));
    }
    if (pred.range.begin > pred.range.end) {
      return Status::Corruption("wire: inverted predicate range");
    }
    q.non_group_by.push_back(pred);
  }
  if (c.left() != 0) return Status::Corruption("wire: trailing query bytes");
  return q;
}

void EncodeRowBatch(const std::vector<backend::ResultRow>& rows, size_t first,
                    size_t count, std::vector<uint8_t>* out) {
  PutU32(out, static_cast<uint32_t>(count));
  const size_t at = out->size();
  out->resize(at + count * kRowBytes);
  uint8_t* p = out->data() + at;
  for (size_t i = first; i < first + count; ++i) {
    const backend::ResultRow& r = rows[i];
    std::memcpy(p, r.coords.data(), 4 * storage::kMaxDims);
    p += 4 * storage::kMaxDims;
    std::memcpy(p, &r.sum, 8);
    std::memcpy(p + 8, &r.count, 8);
    std::memcpy(p + 16, &r.min_v, 8);
    std::memcpy(p + 24, &r.max_v, 8);
    p += 32;
  }
}

Status DecodeRowBatch(const uint8_t* data, size_t len,
                      std::vector<backend::ResultRow>* rows) {
  Cursor c(data, len);
  uint32_t count = 0;
  if (!c.GetU32(&count)) return Truncated("row batch header");
  // Every row is present once the count matches the bytes left.
  if (static_cast<uint64_t>(count) * kRowBytes != c.left()) {
    return Status::Corruption("wire: row count does not match payload size");
  }
  const uint8_t* p = data + 4;
  const size_t base = rows->size();
  rows->resize(base + count);
  for (uint32_t i = 0; i < count; ++i) {
    backend::ResultRow& r = (*rows)[base + i];
    std::memcpy(r.coords.data(), p, 4 * storage::kMaxDims);
    p += 4 * storage::kMaxDims;
    std::memcpy(&r.sum, p, 8);
    std::memcpy(&r.count, p + 8, 8);
    std::memcpy(&r.min_v, p + 16, 8);
    std::memcpy(&r.max_v, p + 24, 8);
    p += 32;
  }
  return Status::OK();
}

uint64_t HashRows(const std::vector<backend::ResultRow>& rows) {
  uint64_t acc = 0xcbf29ce484222325ULL;
  auto mix = [&acc](uint64_t v) { acc = (acc ^ v) * 0x100000001b3ULL; };
  for (const backend::ResultRow& r : rows) {
    for (uint32_t d = 0; d < storage::kMaxDims; ++d) mix(r.coords[d]);
    uint64_t bits;
    std::memcpy(&bits, &r.sum, 8);
    mix(bits);
    mix(r.count);
    std::memcpy(&bits, &r.min_v, 8);
    mix(bits);
    std::memcpy(&bits, &r.max_v, 8);
    mix(bits);
  }
  return acc;
}

void EncodeDone(const DoneSummary& s, std::vector<uint8_t>* out) {
  PutU64(out, s.total_rows);
  PutU64(out, s.row_hash);
  PutU64(out, s.chunks_needed);
  PutU64(out, s.chunks_from_cache);
  PutU64(out, s.chunks_from_aggregation);
  PutU64(out, s.chunks_from_backend);
  PutU64(out, s.coalesced_waits);
  PutU64(out, s.degraded_answers);
  PutU64(out, s.deadline_expired);
  out->push_back(s.full_cache_hit);
}

Result<DoneSummary> DecodeDone(const uint8_t* data, size_t len) {
  Cursor c(data, len);
  DoneSummary s;
  if (!c.GetU64(&s.total_rows) || !c.GetU64(&s.row_hash) ||
      !c.GetU64(&s.chunks_needed) || !c.GetU64(&s.chunks_from_cache) ||
      !c.GetU64(&s.chunks_from_aggregation) ||
      !c.GetU64(&s.chunks_from_backend) || !c.GetU64(&s.coalesced_waits) ||
      !c.GetU64(&s.degraded_answers) || !c.GetU64(&s.deadline_expired) ||
      !c.GetU8(&s.full_cache_hit)) {
    return Truncated("done summary");
  }
  if (c.left() != 0) return Status::Corruption("wire: trailing done bytes");
  return s;
}

void EncodeError(const Status& status, std::vector<uint8_t>* out) {
  PutU32(out, static_cast<uint32_t>(status.code()));
  PutU32(out, static_cast<uint32_t>(status.message().size()));
  out->insert(out->end(), status.message().begin(), status.message().end());
}

Status DecodeError(const uint8_t* data, size_t len, Status* remote) {
  Cursor c(data, len);
  uint32_t code = 0, msg_len = 0;
  if (!c.GetU32(&code) || !c.GetU32(&msg_len)) return Truncated("error frame");
  if (msg_len != c.left()) {
    return Status::Corruption("wire: error message length mismatch");
  }
  if (code == 0 || code > static_cast<uint32_t>(StatusCode::kCancelled)) {
    return Status::Corruption("wire: unknown status code " +
                              std::to_string(code));
  }
  *remote =
      Status(static_cast<StatusCode>(code),
             std::string(reinterpret_cast<const char*>(data) + 8, msg_len));
  return Status::OK();
}

DoneSummary SummaryOf(const std::vector<backend::ResultRow>& rows,
                      const core::QueryStats& stats) {
  DoneSummary s;
  s.total_rows = rows.size();
  s.row_hash = HashRows(rows);
  s.chunks_needed = stats.chunks_needed;
  s.chunks_from_cache = stats.chunks_from_cache;
  s.chunks_from_aggregation = stats.chunks_from_aggregation;
  s.chunks_from_backend = stats.chunks_from_backend;
  s.coalesced_waits = stats.coalesced_waits;
  s.degraded_answers = stats.degraded_answers;
  s.deadline_expired = stats.deadline_expired;
  s.full_cache_hit = stats.full_cache_hit ? 1 : 0;
  return s;
}

}  // namespace chunkcache::server::wire
