#include "server/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "server/wire.h"

namespace chunkcache::server {

namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// How long a worker keeps retrying a full socket buffer before giving the
/// client up for dead. Streaming responses block the worker, never the I/O
/// thread, so a stalled reader costs one worker slot for at most this long.
constexpr int kWriteStallBudgetMs = 5000;

}  // namespace

struct ChunkServer::Connection {
  Connection(int fd_in, uint32_t max_payload)
      : fd(fd_in), reader(max_payload) {}
  ~Connection() {
    if (fd >= 0) ::close(fd);
  }

  const int fd;
  FrameReader reader;  ///< I/O thread only.
  std::mutex write_mu;
  std::atomic<bool> closed{false};
  CancellationSource cancel;
};

ChunkServer::ChunkServer(core::MiddleTier* tier, ServerOptions options)
    : tier_(tier), options_(std::move(options)) {
  if (options_.metrics != nullptr) {
    metrics_ = options_.metrics;
  } else {
    owned_metrics_ = std::make_unique<MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  admission_ =
      std::make_unique<AdmissionController>(options_.admission, metrics_);
  connections_opened_ = metrics_->GetCounter("server.connections.opened");
  connections_closed_ = metrics_->GetCounter("server.connections.closed");
  connections_open_ = metrics_->GetGauge("server.connections.open");
  frames_received_ = metrics_->GetCounter("server.frames.received");
  frames_bad_ = metrics_->GetCounter("server.frames.bad");
  bytes_read_ = metrics_->GetCounter("server.bytes.read");
  bytes_written_ = metrics_->GetCounter("server.bytes.written");
  queries_offered_ = metrics_->GetCounter("server.queries.offered");
  queries_ok_ = metrics_->GetCounter("server.queries.ok");
  queries_shed_ = metrics_->GetCounter("server.queries.shed");
  queries_error_ = metrics_->GetCounter("server.queries.errors");
  queries_deadline_ = metrics_->GetCounter("server.queries.deadline_exceeded");
  result_frames_ = metrics_->GetCounter("server.result.frames");
  result_rows_ = metrics_->GetCounter("server.result.rows");
  send_failures_ = metrics_->GetCounter("server.send_failures");
  query_latency_ns_ = metrics_->GetHistogram("server.query.latency_ns");
}

ChunkServer::~ChunkServer() { Stop(); }

Status ChunkServer::Start() {
  if (running_.load()) return Status::AlreadyExists("server already running");
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad bind address " + options_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const Status st =
        Status::IoError(std::string("bind: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  if (::listen(listen_fd_, 128) < 0) {
    const Status st =
        Status::IoError(std::string("listen: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  socklen_t addr_len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  port_ = ntohs(addr.sin_port);
  if (::pipe2(wake_pipe_, O_NONBLOCK | O_CLOEXEC) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IoError(std::string("pipe2: ") + std::strerror(errno));
  }
  pool_ = std::make_unique<ThreadPool>(
      options_.num_workers == 0 ? 1 : options_.num_workers);
  stopping_.store(false);
  running_.store(true);
  io_thread_ = std::thread([this] { IoLoop(); });
  return Status::OK();
}

void ChunkServer::Stop() {
  bool expected = true;
  if (!running_.compare_exchange_strong(expected, false)) return;
  stopping_.store(true);
  // Wake the poll loop; the pipe is non-blocking, a full pipe is fine.
  const char b = 'x';
  (void)!::write(wake_pipe_[1], &b, 1);
  io_thread_.join();
  // Every admitted query either already finished or sees its connection's
  // cancellation (IoLoop cancelled them all on the way out).
  inflight_.Wait();
  pool_.reset();
  ::close(listen_fd_);
  listen_fd_ = -1;
  ::close(wake_pipe_[0]);
  ::close(wake_pipe_[1]);
  wake_pipe_[0] = wake_pipe_[1] = -1;
}

void ChunkServer::IoLoop() {
  std::vector<pollfd> pfds;
  std::vector<std::shared_ptr<Connection>> order;
  while (!stopping_.load(std::memory_order_acquire)) {
    pfds.clear();
    order.clear();
    pfds.push_back(pollfd{wake_pipe_[0], POLLIN, 0});
    pfds.push_back(pollfd{listen_fd_, POLLIN, 0});
    for (auto& [fd, conn] : conns_) {
      pfds.push_back(pollfd{fd, POLLIN, 0});
      order.push_back(conn);
    }
    const int rc = ::poll(pfds.data(), pfds.size(), /*timeout_ms=*/200);
    if (stopping_.load(std::memory_order_acquire)) break;
    if (rc <= 0) continue;
    if (pfds[0].revents != 0) {
      char buf[64];
      while (::read(wake_pipe_[0], buf, sizeof(buf)) > 0) {
      }
    }
    if (pfds[1].revents & POLLIN) AcceptConnections();
    for (size_t i = 0; i < order.size(); ++i) {
      const short ev = pfds[i + 2].revents;
      if (ev & (POLLIN | POLLHUP | POLLERR)) ReadConnection(order[i]);
    }
  }
  // Shutdown: cancel and close every connection so workers fail fast.
  for (auto& [fd, conn] : conns_) {
    conn->cancel.Cancel();
    conn->closed.store(true, std::memory_order_release);
    ::shutdown(fd, SHUT_RDWR);
    connections_closed_->Increment();
  }
  conns_.clear();
  connections_open_->Set(0);
}

void ChunkServer::AcceptConnections() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
      return;  // transient accept failure; the poll loop will retry
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    conns_.emplace(fd,
                   std::make_shared<Connection>(fd, options_.max_payload_bytes));
    connections_opened_->Increment();
    connections_open_->Set(static_cast<int64_t>(conns_.size()));
  }
}

void ChunkServer::ReadConnection(const std::shared_ptr<Connection>& conn) {
  uint8_t buf[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      bytes_read_->Add(static_cast<uint64_t>(n));
      conn->reader.Append(buf, static_cast<size_t>(n));
      for (;;) {
        auto next = conn->reader.Next();
        if (!next.ok()) {
          // Malformed stream: answer with one best-effort error frame,
          // then close — frame boundaries are untrustworthy from here on.
          frames_bad_->Increment();
          SendError(conn, FrameHeader{}, next.status(), 0);
          CloseConnection(conn);
          return;
        }
        if (!next->has_value()) break;
        frames_received_->Increment();
        HandleFrame(conn, std::move(**next));
        if (conn->closed.load(std::memory_order_acquire)) return;
      }
      if (static_cast<size_t>(n) < sizeof(buf)) return;  // drained
      continue;
    }
    if (n == 0) {  // orderly EOF
      CloseConnection(conn);
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    CloseConnection(conn);
    return;
  }
}

void ChunkServer::HandleFrame(const std::shared_ptr<Connection>& conn,
                              Frame frame) {
  const FrameHeader& h = frame.header;
  switch (h.type) {
    case FrameType::kPing: {
      FrameHeader pong = h;
      pong.type = FrameType::kPong;
      pong.flags = kFlagLast;
      WriteFrame(conn, pong, {});
      return;
    }
    case FrameType::kMetricsRequest: {
      tier_->RefreshMetrics();
      const std::string json = metrics_->ExportJson();
      FrameHeader dump = h;
      dump.type = FrameType::kMetricsDump;
      dump.flags = kFlagLast;
      std::vector<uint8_t> payload(json.begin(), json.end());
      WriteFrame(conn, dump, payload);
      return;
    }
    case FrameType::kQuery: {
      const AdmissionController::TenantCounters& tenant =
          admission_->Counters(h.tenant_id);
      queries_offered_->Increment();
      tenant.offered->Increment();
      auto query = wire::DecodeQuery(frame.payload.data(),
                                     frame.payload.size());
      if (!query.ok()) {
        queries_error_->Increment();
        tenant.errors->Increment();
        SendError(conn, h, query.status(), 0);
        return;
      }
      const uint64_t now = NowNs();
      const AdmitDecision decision = admission_->TryAdmit(h.tenant_id, now);
      if (decision != AdmitDecision::kAdmitted) {
        queries_shed_->Increment();
        SendError(conn, h,
                  Status::ResourceExhausted(std::string("query shed: ") +
                                            AdmitDecisionName(decision)),
                  kFlagShed);
        return;
      }
      inflight_.Add();
      pool_->Submit([this, conn, h, q = std::move(*query), now, &tenant]() {
        ExecuteQuery(conn, h, q, now, tenant);
        inflight_.Done();
      });
      return;
    }
    default:
      // Well-formed frame of a type the server does not consume: report
      // and keep the connection (the client may just be confused).
      SendError(conn, h,
                Status::InvalidArgument(
                    "unexpected frame type " +
                    std::to_string(static_cast<int>(h.type))),
                0);
      return;
  }
}

void ChunkServer::ExecuteQuery(const std::shared_ptr<Connection>& conn,
                               FrameHeader req,
                               const backend::StarJoinQuery& query,
                               uint64_t admit_ns,
                               const AdmissionController::TenantCounters&
                                   tenant) {
  core::QueryStats stats;
  ExecControl ctrl;
  uint64_t deadline_ms = req.deadline_ms;
  if (options_.max_deadline_ms != 0 &&
      (deadline_ms == 0 || deadline_ms > options_.max_deadline_ms)) {
    deadline_ms = options_.max_deadline_ms;
  }
  if (deadline_ms != 0) ctrl.deadline = Deadline::AfterMs(deadline_ms);
  ctrl.cancel = conn->cancel.token();

  auto rows = tier_->Execute(query, &stats, ctrl);

  admission_->Release(req.tenant_id);
  query_latency_ns_->Record(NowNs() - admit_ns);
  if (!rows.ok()) {
    queries_error_->Increment();
    tenant.errors->Increment();
    if (rows.status().code() == StatusCode::kDeadlineExceeded) {
      queries_deadline_->Increment();
    }
    SendError(conn, req, rows.status(), 0);
    return;
  }
  queries_ok_->Increment();
  tenant.ok->Increment();

  const size_t rows_per_frame =
      std::max<size_t>(1, options_.result_batch_bytes / wire::kRowBytes);
  FrameHeader batch;
  batch.type = FrameType::kResultBatch;
  batch.tenant_id = req.tenant_id;
  batch.request_id = req.request_id;
  std::vector<uint8_t> payload;
  for (size_t off = 0; off < rows->size(); off += rows_per_frame) {
    const size_t count = std::min(rows_per_frame, rows->size() - off);
    payload.clear();
    wire::EncodeRowBatch(*rows, off, count, &payload);
    if (!WriteFrame(conn, batch, payload)) return;  // client gone
    result_frames_->Increment();
    result_rows_->Add(count);
  }
  FrameHeader done;
  done.type = FrameType::kDone;
  done.flags = kFlagLast;
  done.tenant_id = req.tenant_id;
  done.request_id = req.request_id;
  payload.clear();
  wire::EncodeDone(wire::SummaryOf(*rows, stats), &payload);
  WriteFrame(conn, done, payload);
}

void ChunkServer::SendError(const std::shared_ptr<Connection>& conn,
                            const FrameHeader& req, const Status& status,
                            uint16_t extra_flags) {
  FrameHeader h;
  h.type = FrameType::kError;
  h.flags = static_cast<uint16_t>(kFlagLast | extra_flags);
  h.tenant_id = req.tenant_id;
  h.request_id = req.request_id;
  std::vector<uint8_t> payload;
  wire::EncodeError(status, &payload);
  WriteFrame(conn, h, payload);
}

bool ChunkServer::WriteFrame(const std::shared_ptr<Connection>& conn,
                             FrameHeader header,
                             const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> bytes;
  EncodeFrame(header, payload.data(), payload.size(), &bytes);
  std::lock_guard<std::mutex> lock(conn->write_mu);
  if (conn->closed.load(std::memory_order_acquire)) return false;
  size_t off = 0;
  int stalled_ms = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(conn->fd, bytes.data() + off, bytes.size() - off,
                             MSG_NOSIGNAL);
    if (n >= 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      // Socket buffer full: the client is slow. Wait for writability with
      // a bounded budget, then declare the client dead.
      if (stalled_ms >= kWriteStallBudgetMs ||
          conn->closed.load(std::memory_order_acquire)) {
        send_failures_->Increment();
        return false;
      }
      pollfd p{conn->fd, POLLOUT, 0};
      (void)::poll(&p, 1, 100);
      stalled_ms += 100;
      continue;
    }
    send_failures_->Increment();
    return false;
  }
  bytes_written_->Add(bytes.size());
  return true;
}

void ChunkServer::CloseConnection(const std::shared_ptr<Connection>& conn) {
  if (conn->closed.exchange(true, std::memory_order_acq_rel)) return;
  conn->cancel.Cancel();
  ::shutdown(conn->fd, SHUT_RDWR);
  conns_.erase(conn->fd);
  connections_closed_->Increment();
  connections_open_->Set(static_cast<int64_t>(conns_.size()));
}

}  // namespace chunkcache::server
