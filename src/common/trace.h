#ifndef CHUNKCACHE_COMMON_TRACE_H_
#define CHUNKCACHE_COMMON_TRACE_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace chunkcache {

/// One node of a per-query span tree. Spans are stored flat in the order
/// they were opened (pre-order: a child is always opened after its parent),
/// with `parent` indexing into QueryTrace::spans; the root has
/// parent == kNoParentSpan. Start times are monotonic-clock nanoseconds
/// relative to the root span's start, so a trace is self-contained.
inline constexpr uint32_t kNoParentSpan = ~uint32_t{0};

struct TraceSpan {
  uint32_t parent = kNoParentSpan;
  std::string name;
  uint64_t start_ns = 0;
  uint64_t duration_ns = 0;
  /// Tags in append order. Values are pre-rendered strings so a trace is
  /// cheap to export and bit-stable to compare (durations excluded).
  std::vector<std::pair<std::string, std::string>> tags;
};

/// A completed query's span tree. `id` is assigned by the recorder in
/// admission order (1-based, monotonically increasing).
struct QueryTrace {
  uint64_t id = 0;
  std::vector<TraceSpan> spans;
};

/// Bounded retention of completed traces: a mutex-guarded ring buffer
/// touched once per query (at Finish), never on the span hot path. When
/// full, the oldest trace is dropped.
class TraceRecorder {
 public:
  explicit TraceRecorder(size_t capacity);

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Admits `trace` (assigning its id). Drops the oldest when full.
  void Record(QueryTrace trace);

  /// The most recent min(n, retained) traces, oldest first.
  std::vector<QueryTrace> Latest(size_t n) const;

  /// The most recent min(n, retained) traces as JSON Lines — one
  /// self-contained JSON object per trace:
  ///   {"trace": id, "spans": [{"name": ..., "parent": -1|idx,
  ///    "start_ns": ..., "duration_ns": ..., "tags": {...}}, ...]}
  std::string ExportJsonl(size_t n) const;

  size_t capacity() const { return capacity_; }
  uint64_t recorded() const;

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  uint64_t next_id_ = 1;
  std::deque<QueryTrace> ring_;
};

/// Builds one query's span tree on the caller's stack. Single-threaded by
/// design: every span the middle tier emits is opened and closed on the
/// query's own thread (background work is attributed via tags, not spans).
///
/// Disarmed (null recorder) every method is an immediate branch-and-return
/// — no clock reads, no allocation — so the hooks can stay compiled into
/// the hot path (bench_micro measures both modes).
class TraceBuilder {
 public:
  static constexpr uint32_t kNoSpan = ~uint32_t{0};

  /// `recorder == nullptr` disarms the builder.
  TraceBuilder(TraceRecorder* recorder, const char* root_name);

  /// Finishes (closing open spans) and records, unless Finish already ran.
  ~TraceBuilder();

  TraceBuilder(const TraceBuilder&) = delete;
  TraceBuilder& operator=(const TraceBuilder&) = delete;

  bool armed() const { return recorder_ != nullptr; }

  /// Root span index (kNoSpan when disarmed — valid to pass as `parent`).
  uint32_t root() const { return armed() ? 0 : kNoSpan; }

  /// Opens a child of `parent`; returns its index (kNoSpan when disarmed).
  uint32_t BeginSpan(const char* name, uint32_t parent);

  /// Closes `span` (no-op on kNoSpan). Spans still open at Finish are
  /// closed then — error paths may simply return.
  void EndSpan(uint32_t span);

  void Tag(uint32_t span, const char* key, std::string value);
  void Tag(uint32_t span, const char* key, uint64_t value);

  /// Closes every open span (root included) and hands the trace to the
  /// recorder. Idempotent; the destructor calls it as a safety net.
  void Finish();

 private:
  uint64_t NowNs() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  static constexpr uint64_t kOpen = ~uint64_t{0};

  TraceRecorder* recorder_;
  uint64_t t0_ = 0;
  QueryTrace trace_;
  bool finished_ = false;
};

/// RAII span: closes on scope exit. Safe to construct disarmed.
class ScopedSpan {
 public:
  ScopedSpan(TraceBuilder* b, const char* name, uint32_t parent)
      : b_(b), span_(b->BeginSpan(name, parent)) {}
  ~ScopedSpan() { b_->EndSpan(span_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint32_t id() const { return span_; }

 private:
  TraceBuilder* b_;
  uint32_t span_;
};

}  // namespace chunkcache

#endif  // CHUNKCACHE_COMMON_TRACE_H_
