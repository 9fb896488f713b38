#ifndef CHUNKCACHE_SERVER_SERVER_H_
#define CHUNKCACHE_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "core/middle_tier.h"
#include "server/admission.h"
#include "server/frame.h"

namespace chunkcache::server {

struct ServerOptions {
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (read it back via port()).
  uint16_t port = 0;
  /// Workers executing admitted queries (the serving thread pool). Each
  /// runs its query's backend scan on its own thread, so this also bounds
  /// the tier's concurrent scans.
  uint32_t num_workers = 4;
  /// Hard cap on any received frame's payload; a frame declaring more is
  /// rejected before buffering (ResourceExhausted, connection closed).
  uint32_t max_payload_bytes = 1u << 20;
  /// Streaming bound: result rows are sent in frames of at most this many
  /// payload bytes, so a huge result never materializes one giant frame.
  uint32_t result_batch_bytes = 256u << 10;
  /// Cap applied to client-requested deadlines; queries arriving with no
  /// deadline get exactly this one. 0 = deadlines pass through unaltered.
  uint64_t max_deadline_ms = 0;
  AdmissionOptions admission;
  /// Registry the server homes its statistics on. Pass the tier's registry
  /// for one process-wide export (what the shell and bench do); nullptr
  /// gives the server a private registry.
  MetricsRegistry* metrics = nullptr;
};

/// Binary-framed TCP front end over a MiddleTier (DESIGN.md §15).
///
/// One I/O thread owns accept + all socket reads: it parses frames,
/// answers pings and metrics dumps inline, runs admission on query frames
/// (shedding with an explicit RESOURCE_EXHAUSTED error frame — never a
/// silent drop), and submits admitted queries to a worker pool. Workers
/// call MiddleTier::Execute with an ExecControl carrying the frame
/// header's deadline and the connection's cancellation token, then stream
/// the result back in bounded frames terminated by a kDone summary
/// carrying the row-stream hash.
///
/// Accounting invariant (checked by the overload tests): every well-formed
/// query frame terminates in exactly one of ok / shed / error, so
///   server.queries.offered == server.queries.ok + server.queries.shed
///                             + server.queries.errors
/// holds exactly once traffic drains — including queries whose client
/// vanished mid-execution (their connection's cancellation fails them into
/// `errors`; the response write is skipped, the outcome still counts).
class ChunkServer {
 public:
  ChunkServer(core::MiddleTier* tier, ServerOptions options);
  ~ChunkServer();

  ChunkServer(const ChunkServer&) = delete;
  ChunkServer& operator=(const ChunkServer&) = delete;

  /// Binds, listens and starts the I/O thread + worker pool.
  Status Start();

  /// Stops accepting, cancels in-flight queries, drains workers, joins.
  /// Idempotent; the destructor calls it.
  void Stop();

  /// Bound port (after Start); useful with options.port == 0.
  uint16_t port() const { return port_; }

  MetricsRegistry& metrics() const { return *metrics_; }
  AdmissionController& admission() { return *admission_; }
  const ServerOptions& options() const { return options_; }

 private:
  struct Connection;

  void IoLoop();
  void AcceptConnections();
  void ReadConnection(const std::shared_ptr<Connection>& conn);
  void HandleFrame(const std::shared_ptr<Connection>& conn, Frame frame);
  void ExecuteQuery(const std::shared_ptr<Connection>& conn, FrameHeader req,
                    const backend::StarJoinQuery& query, uint64_t admit_ns,
                    const AdmissionController::TenantCounters& tenant);
  /// Sends a kError frame echoing `req`'s request/tenant ids.
  void SendError(const std::shared_ptr<Connection>& conn,
                 const FrameHeader& req, const Status& status,
                 uint16_t extra_flags);
  /// Serializes and writes one frame under the connection's write lock;
  /// false when the connection is gone (the caller just stops streaming).
  bool WriteFrame(const std::shared_ptr<Connection>& conn, FrameHeader header,
                  const std::vector<uint8_t>& payload);
  void CloseConnection(const std::shared_ptr<Connection>& conn);

  core::MiddleTier* tier_;
  ServerOptions options_;
  std::unique_ptr<MetricsRegistry> owned_metrics_;
  MetricsRegistry* metrics_;
  std::unique_ptr<AdmissionController> admission_;

  // Registry-backed counters (names under "server.*").
  Counter* connections_opened_;
  Counter* connections_closed_;
  Gauge* connections_open_;
  Counter* frames_received_;
  Counter* frames_bad_;
  Counter* bytes_read_;
  Counter* bytes_written_;
  Counter* queries_offered_;
  Counter* queries_ok_;
  Counter* queries_shed_;
  Counter* queries_error_;
  Counter* queries_deadline_;
  Counter* result_frames_;
  Counter* result_rows_;
  Counter* send_failures_;
  Histogram* query_latency_ns_;  // admitted queries, admission -> outcome

  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  /// Live connections; touched only by the I/O thread.
  std::unordered_map<int, std::shared_ptr<Connection>> conns_;

  std::thread io_thread_;
  WaitGroup inflight_;
  /// Declared last: queries in flight capture `this` and their connection;
  /// Stop() joins the I/O thread, waits out inflight_, then destroys the
  /// pool while every other member is still alive.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace chunkcache::server

#endif  // CHUNKCACHE_SERVER_SERVER_H_
