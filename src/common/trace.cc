#include "common/trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace chunkcache {

// ---------------------------------------------------------------------------
// TraceRecorder
// ---------------------------------------------------------------------------

TraceRecorder::TraceRecorder(size_t capacity)
    : capacity_(std::max<size_t>(1, capacity)) {}

void TraceRecorder::Record(QueryTrace trace) {
  std::lock_guard<std::mutex> lock(mu_);
  trace.id = next_id_++;
  if (ring_.size() == capacity_) ring_.pop_front();
  ring_.push_back(std::move(trace));
}

std::vector<QueryTrace> TraceRecorder::Latest(size_t n) const {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t take = std::min(n, ring_.size());
  return std::vector<QueryTrace>(ring_.end() - static_cast<long>(take),
                                 ring_.end());
}

uint64_t TraceRecorder::recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_ - 1;
}

namespace {

void AppendJsonEscaped(std::string* out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
}

}  // namespace

std::string TraceRecorder::ExportJsonl(size_t n) const {
  std::string out;
  char buf[96];
  for (const QueryTrace& t : Latest(n)) {
    std::snprintf(buf, sizeof(buf), "{\"trace\": %" PRIu64 ", \"spans\": [",
                  t.id);
    out += buf;
    for (size_t i = 0; i < t.spans.size(); ++i) {
      const TraceSpan& s = t.spans[i];
      if (i != 0) out += ", ";
      out += "{\"name\": \"";
      AppendJsonEscaped(&out, s.name);
      std::snprintf(buf, sizeof(buf),
                    "\", \"parent\": %lld, \"start_ns\": %" PRIu64
                    ", \"duration_ns\": %" PRIu64 ", \"tags\": {",
                    s.parent == kNoParentSpan
                        ? -1ll
                        : static_cast<long long>(s.parent),
                    s.start_ns, s.duration_ns);
      out += buf;
      for (size_t k = 0; k < s.tags.size(); ++k) {
        if (k != 0) out += ", ";
        out += '"';
        AppendJsonEscaped(&out, s.tags[k].first);
        out += "\": \"";
        AppendJsonEscaped(&out, s.tags[k].second);
        out += '"';
      }
      out += "}}";
    }
    out += "]}\n";
  }
  return out;
}

// ---------------------------------------------------------------------------
// TraceBuilder
// ---------------------------------------------------------------------------

TraceBuilder::TraceBuilder(TraceRecorder* recorder, const char* root_name)
    : recorder_(recorder) {
  if (!armed()) return;
  t0_ = NowNs();
  TraceSpan root;
  root.parent = kNoParentSpan;
  root.name = root_name;
  root.start_ns = 0;
  root.duration_ns = kOpen;
  trace_.spans.push_back(std::move(root));
}

TraceBuilder::~TraceBuilder() { Finish(); }

uint32_t TraceBuilder::BeginSpan(const char* name, uint32_t parent) {
  if (!armed()) return kNoSpan;
  TraceSpan span;
  span.parent = parent == kNoSpan ? 0 : parent;
  span.name = name;
  span.start_ns = NowNs() - t0_;
  span.duration_ns = kOpen;
  trace_.spans.push_back(std::move(span));
  return static_cast<uint32_t>(trace_.spans.size() - 1);
}

void TraceBuilder::EndSpan(uint32_t span) {
  if (!armed() || span == kNoSpan) return;
  TraceSpan& s = trace_.spans[span];
  if (s.duration_ns == kOpen) s.duration_ns = NowNs() - t0_ - s.start_ns;
}

void TraceBuilder::Tag(uint32_t span, const char* key, std::string value) {
  if (!armed() || span == kNoSpan) return;
  trace_.spans[span].tags.emplace_back(key, std::move(value));
}

void TraceBuilder::Tag(uint32_t span, const char* key, uint64_t value) {
  if (!armed() || span == kNoSpan) return;
  trace_.spans[span].tags.emplace_back(key, std::to_string(value));
}

void TraceBuilder::Finish() {
  if (!armed() || finished_) return;
  finished_ = true;
  const uint64_t now = NowNs() - t0_;
  for (TraceSpan& s : trace_.spans) {
    if (s.duration_ns == kOpen) {
      s.duration_ns = now > s.start_ns ? now - s.start_ns : 0;
    }
  }
  recorder_->Record(std::move(trace_));
}

}  // namespace chunkcache
