#include "bench/e2e/e2e.h"

#include <stdlib.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <thread>
#include <map>
#include <mutex>

#include "bench/common/experiment.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "core/chunk_cache_manager.h"
#include "core/query_cache_manager.h"
#include "schema/synthetic.h"
#include "server/client.h"
#include "server/server.h"
#include "workload/query_generator.h"
#include "workload/session_generator.h"

namespace chunkcache::bench::e2e {
namespace {

using backend::ResultRow;
using backend::StarJoinQuery;

constexpr uint64_t kHashSeed = 0xcbf29ce484222325ULL;

double Seconds(uint64_t ns) { return static_cast<double>(ns) / 1e9; }

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// VmHWM of this process in MiB (0 when /proc is unavailable).
double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

/// A fresh directory under $TMPDIR (else /tmp), removed with its contents
/// when this object dies, so no WAL or snapshot outlives the process that
/// wrote it and warms a later run.
class TempDir {
 public:
  TempDir() = default;
  ~TempDir() {
    if (!path_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(path_, ec);
    }
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  Status Create() {
    const char* base = std::getenv("TMPDIR");
    std::string tmpl = std::string(base != nullptr && *base != '\0' ? base
                                                                    : "/tmp") +
                       "/chunkcache_e2e.XXXXXX";
    if (::mkdtemp(tmpl.data()) == nullptr) {
      return Status::IoError("mkdtemp failed under " + tmpl);
    }
    path_ = tmpl;
    return Status::OK();
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// ---------------------------------------------------------------------------
// Query streams.

struct Streams {
  std::vector<StarJoinQuery> warmup;
  std::vector<StarJoinQuery> open;
  std::vector<StarJoinQuery> closed;
};

std::function<StarJoinQuery()> MakeSource(const schema::StarSchema* schema,
                                          const WorkloadSpec& spec,
                                          uint64_t seed) {
  switch (spec.stream) {
    case StreamKind::kSessionCycle: {
      workload::SessionOptions o;
      o.seed = seed;
      workload::SessionGenerator gen(schema, o);
      auto cycle = std::make_shared<std::vector<StarJoinQuery>>();
      for (uint32_t i = 0; i < std::max<uint32_t>(1, spec.distinct_queries);
           ++i) {
        cycle->push_back(gen.Next());
      }
      auto pos = std::make_shared<uint64_t>(0);
      return [cycle, pos] { return (*cycle)[(*pos)++ % cycle->size()]; };
    }
    case StreamKind::kSessionFresh: {
      workload::SessionOptions o;
      o.seed = seed;
      auto gen = std::make_shared<workload::SessionGenerator>(schema, o);
      return [gen] { return gen->Next(); };
    }
    case StreamKind::kRandom:
    case StreamKind::kZipfian: {
      auto gen = std::make_shared<workload::QueryGenerator>(
          schema, spec.stream == StreamKind::kRandom
                      ? workload::RandomStream(seed)
                      : workload::ZipfianStream(seed));
      return [gen] { return gen->Next(); };
    }
  }
  return nullptr;
}

/// One source feeds the phases in order, so the closed loop continues where
/// the open loop stopped.
Streams MakeStreams(const schema::StarSchema* schema, const WorkloadSpec& spec,
                    uint64_t seed) {
  auto next = MakeSource(schema, spec, seed);
  Streams s;
  for (uint64_t i = 0; i < spec.warmup_queries; ++i) s.warmup.push_back(next());
  for (uint64_t i = 0; i < spec.open_queries; ++i) s.open.push_back(next());
  for (uint64_t i = 0; i < spec.closed_queries; ++i) s.closed.push_back(next());
  return s;
}

uint64_t ChainHash(const std::vector<StarJoinQuery>& qs) {
  uint64_t h = kHashSeed;
  for (const StarJoinQuery& q : qs) h = workload::HashQuery(q, h);
  return h;
}

// ---------------------------------------------------------------------------
// Deployment: data, tier and server, torn down in reverse order.

/// Client-side tally of responses; one per thread, merged afterwards.
struct Tally {
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t transport = 0;
  uint64_t verify = 0;
  // The paper's CSR: per served query, the chunks the backend did not have
  // to compute, weighted by the per-chunk benefit of the query's group-by.
  double csr_saved = 0;
  double csr_total = 0;

  void Merge(const Tally& o) {
    sent += o.sent;
    ok += o.ok;
    transport += o.transport;
    verify += o.verify;
    csr_saved += o.csr_saved;
    csr_total += o.csr_total;
  }
};

/// Counts one response; `benefit` is ChunkBenefit of its query's group-by.
Outcome Classify(const Result<server::QueryResponse>& resp, double benefit,
                 Tally* tally) {
  if (!resp.ok()) {
    ++tally->transport;
    return Outcome::kTransport;
  }
  if (resp->status.ok()) {
    const server::wire::DoneSummary& s = resp->summary;
    ++tally->ok;
    tally->csr_total += benefit * static_cast<double>(s.chunks_needed);
    tally->csr_saved +=
        benefit * static_cast<double>(s.chunks_needed - s.chunks_from_backend);
    return Outcome::kOk;
  }
  // The client re-hashes every served row stream; Corruption here means the
  // rows it received differ from the ones the server computed.
  if (resp->status.code() == StatusCode::kCorruption) ++tally->verify;
  return Outcome::kFailed;
}

struct Deployment {
  std::unique_ptr<System> system;
  MetricsRegistry registry;
  TempDir persist_dir;  // outlives the tier, which snapshots into it on exit
  std::unique_ptr<core::ChunkCacheManager> tier;
  std::unique_ptr<server::ChunkServer> server;

  // The warm-up pass: its responses, start, and the backend counters at its
  // start (the modeled cost covers every served query).
  Tally warmup;
  uint64_t warmup_start_ns = 0;
  backend::AggKernelStats kernels_at_warmup;
  uint64_t disk_reads_at_warmup = 0;

  ~Deployment() {
    if (server != nullptr) server->Stop();
  }

  double Benefit(const StarJoinQuery& q) const {
    return system->scheme().ChunkBenefit(q.group_by);
  }
};

Result<std::unique_ptr<server::ChunkClient>> Connect(const Deployment& d) {
  server::ClientOptions copts;
  copts.port = d.server->port();
  return server::ChunkClient::Connect(copts);
}

/// Builds the data, starts tier and server, and runs the warm-up pass
/// serially over one connection.
Result<std::unique_ptr<Deployment>> SetUp(const RunOptions& opt,
                                          const Streams& streams) {
  auto d = std::make_unique<Deployment>();
  ExperimentConfig config;
  config.num_tuples = opt.num_tuples;
  config.data_seed = kDataSeed;
  CHUNKCACHE_ASSIGN_OR_RETURN(d->system, System::Build(config));

  core::ChunkManagerOptions mopts;
  mopts.cache_bytes = opt.spec.cache_mb << 20;
  mopts.policy = kPolicy;
  mopts.enable_in_cache_aggregation = true;
  mopts.num_workers = kTierWorkers;
  mopts.cache_shards = kCacheShards;
  mopts.enable_compression = opt.spec.compression;
  if (opt.spec.persist) {
    CHUNKCACHE_RETURN_IF_ERROR(d->persist_dir.Create());
    mopts.persist_dir = d->persist_dir.path();
  }
  // Traced: the ring holds exactly the open-loop phase's span trees once
  // that phase ends (warm-up trees are pushed out by then).
  mopts.trace_capacity =
      opt.trace_dir.empty() ? 0 : static_cast<uint32_t>(opt.spec.open_queries);
  mopts.metrics = &d->registry;
  server::ServerOptions sopts;
  sopts.num_workers = kServerWorkers;
  sopts.metrics = &d->registry;
  d->tier = std::make_unique<core::ChunkCacheManager>(&d->system->engine(),
                                                      mopts);
  d->server = std::make_unique<server::ChunkServer>(d->tier.get(), sopts);
  CHUNKCACHE_RETURN_IF_ERROR(d->server->Start());

  d->warmup_start_ns = SteadyNowNs();
  d->kernels_at_warmup = d->system->engine().kernel_stats();
  d->disk_reads_at_warmup = d->system->disk().stats().reads;
  CHUNKCACHE_ASSIGN_OR_RETURN(auto client, Connect(*d));
  for (const StarJoinQuery& q : streams.warmup) {
    ++d->warmup.sent;
    if (Classify(client->Execute(q), d->Benefit(q), &d->warmup) ==
        Outcome::kTransport) {
      return Status::IoError("warm-up connection failed");
    }
  }
  return d;
}

// ---------------------------------------------------------------------------
// Open and closed loops.

/// Sampled open-loop responses with one (query, row hash) key: a replayed
/// query answered bit-identically keeps one copy of its rows, so the
/// harness's own memory stays out of the measured peak RSS.
struct Sample {
  size_t query_index = 0;  ///< First open-loop index with this key.
  uint64_t responses = 0;
  std::vector<ResultRow> rows;
};
using SampleKey = std::pair<uint64_t, uint64_t>;  // query hash, row hash

struct OpenLoopRun {
  std::vector<RequestTiming> timings;
  std::vector<uint64_t> request_ids;  ///< Client request id per request.
  std::map<SampleKey, Sample> samples;  ///< Every kReferenceStride-th.
  uint64_t start_ns = 0;
  bool realtime = false;
  Tally tally;
};

Result<OpenLoopRun> RunOpenPhase(const Deployment& d,
                                 const std::vector<StarJoinQuery>& queries,
                                 double rate_qps) {
  OpenLoopRun run;
  run.request_ids.resize(queries.size());
  std::mutex samples_mu;
  std::vector<std::unique_ptr<server::ChunkClient>> clients;
  std::vector<Tally> tallies(kConnections);
  std::vector<OpenLoopConnection> conns;
  for (uint32_t c = 0; c < kConnections; ++c) {
    CHUNKCACHE_ASSIGN_OR_RETURN(auto client, Connect(d));
    clients.push_back(std::move(client));
  }
  for (uint32_t c = 0; c < kConnections; ++c) {
    server::ChunkClient* client = clients[c].get();
    Tally* tally = &tallies[c];
    OpenLoopConnection conn;
    conn.send = [client, tally, &queries, &run](uint64_t i) -> Status {
      ++tally->sent;
      auto id = client->SendQuery(queries[i]);
      if (!id.ok()) return id.status();
      run.request_ids[i] = *id;
      return Status::OK();
    };
    conn.receive = [client, tally, &d, &queries, &run,
                    &samples_mu](uint64_t i) {
      auto resp = client->WaitResponse(run.request_ids[i]);
      const Outcome out = Classify(resp, d.Benefit(queries[i]), tally);
      if (out == Outcome::kOk && i % kReferenceStride == 0) {
        const SampleKey key{workload::HashQuery(queries[i], kHashSeed),
                            resp->summary.row_hash};
        std::lock_guard<std::mutex> lock(samples_mu);
        Sample& sample = run.samples[key];
        if (sample.responses++ == 0) {
          sample.query_index = i;
          sample.rows = std::move(resp->rows);
        }
      }
      return out;
    };
    conns.push_back(std::move(conn));
  }
  OpenLoopOptions oopts;
  oopts.rate_qps = rate_qps;
  oopts.requests = queries.size();
  OpenLoopResult result = RunOpenLoop(oopts, conns);
  run.timings = std::move(result.timings);
  run.start_ns = result.start_ns;
  run.realtime = result.realtime;
  for (const Tally& t : tallies) run.tally.Merge(t);
  return run;
}

struct ClosedLoopRun {
  uint64_t elapsed_ns = 0;
  Tally tally;
};

Result<ClosedLoopRun> RunClosedPhase(
    const Deployment& d, const std::vector<StarJoinQuery>& queries) {
  ClosedLoopRun run;
  std::vector<std::unique_ptr<server::ChunkClient>> clients;
  for (uint32_t c = 0; c < kConnections; ++c) {
    CHUNKCACHE_ASSIGN_OR_RETURN(auto client, Connect(d));
    clients.push_back(std::move(client));
  }
  std::vector<Tally> tallies(kConnections);
  std::atomic<uint64_t> next{0};
  const uint64_t t0 = SteadyNowNs();
  std::vector<std::thread> threads;
  for (uint32_t c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      for (;;) {
        const uint64_t i = next.fetch_add(1);
        if (i >= queries.size()) return;
        ++tallies[c].sent;
        if (Classify(clients[c]->Execute(queries[i]), d.Benefit(queries[i]),
                     &tallies[c]) == Outcome::kTransport) {
          return;
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  run.elapsed_ns = SteadyNowNs() - t0;
  for (const Tally& t : tallies) run.tally.Merge(t);
  return run;
}

// ---------------------------------------------------------------------------
// Reference check.

bool SameSum(double a, double b) {
  return a == b ||
         std::fabs(a - b) <= 1e-9 * std::max(std::fabs(a), std::fabs(b));
}

/// Exact on group keys, counts, min and max; sums to 1e-9 relative (the
/// cache's roll-ups associate additions differently from a direct scan).
std::string CompareRows(const std::vector<ResultRow>& got,
                        const std::vector<ResultRow>& want, uint32_t dims) {
  if (got.size() != want.size()) {
    return "row count " + std::to_string(got.size()) + " vs reference " +
           std::to_string(want.size());
  }
  for (size_t r = 0; r < got.size(); ++r) {
    const ResultRow& a = got[r];
    const ResultRow& b = want[r];
    for (uint32_t dim = 0; dim < dims; ++dim) {
      if (a.coords[dim] != b.coords[dim]) {
        return "group key differs at row " + std::to_string(r);
      }
    }
    if (a.count != b.count || a.min_v != b.min_v || a.max_v != b.max_v) {
      return "count/min/max differ at row " + std::to_string(r);
    }
    if (!SameSum(a.sum, b.sum)) {
      return "sum differs at row " + std::to_string(r);
    }
  }
  return "";
}

// ---------------------------------------------------------------------------
// Per-layer attribution.

struct RegistryDelta {
  const MetricsRegistry::Snapshot& before;
  const MetricsRegistry::Snapshot& after;

  double Count(const std::string& name) const {
    return static_cast<double>(after.counter(name) - before.counter(name));
  }
  HistogramSnapshot Hist(const std::string& name) const {
    HistogramSnapshot h;
    auto a = after.histograms.find(name);
    if (a == after.histograms.end()) return h;
    h = a->second;
    auto b = before.histograms.find(name);
    if (b != before.histograms.end()) {
      h.count -= b->second.count;
      h.sum -= b->second.sum;
    }
    return h;
  }
  double MeanUs(const std::string& name) const {
    const HistogramSnapshot h = Hist(name);
    return Ratio(static_cast<double>(h.sum), static_cast<double>(h.count)) /
           1e3;
  }
  double SumUs(const std::string& name) const {
    return static_cast<double>(Hist(name).sum) / 1e3;
  }
};

/// Self time (duration minus direct children) per span name, summed.
struct SpanTotals {
  std::map<std::string, double> self_ns;
  double in_cache_built = 0;
  double in_cache_attempted = 0;
};

uint64_t TagValue(const TraceSpan& s, const char* key) {
  for (const auto& [k, v] : s.tags) {
    if (k == key) return std::strtoull(v.c_str(), nullptr, 10);
  }
  return 0;
}

SpanTotals SumSpans(const std::vector<QueryTrace>& traces) {
  SpanTotals t;
  for (const QueryTrace& qt : traces) {
    std::vector<uint64_t> child_ns(qt.spans.size(), 0);
    for (const TraceSpan& s : qt.spans) {
      if (s.parent != kNoParentSpan && s.parent < child_ns.size()) {
        child_ns[s.parent] += s.duration_ns;
      }
    }
    for (size_t i = 0; i < qt.spans.size(); ++i) {
      const TraceSpan& s = qt.spans[i];
      const uint64_t self =
          s.duration_ns > child_ns[i] ? s.duration_ns - child_ns[i] : 0;
      t.self_ns[s.name] += static_cast<double>(self);
      if (s.name == "cache_probe") {
        t.in_cache_attempted += static_cast<double>(TagValue(s, "owned"));
      } else if (s.name == "aggregate_in_cache") {
        t.in_cache_built += static_cast<double>(TagValue(s, "chunks"));
      }
    }
  }
  return t;
}

struct PhaseCounters {
  MetricsRegistry::Snapshot registry;
  backend::AggKernelStats kernels;
  uint64_t disk_reads = 0;
};

PhaseCounters TakeCounters(const Deployment& d) {
  return PhaseCounters{d.registry.TakeSnapshot(),
                       d.system->engine().kernel_stats(),
                       d.system->disk().stats().reads};
}

uint64_t RowsFolded(const backend::AggKernelStats& k) {
  return k.rows_folded_dense + k.rows_folded_hash;
}

void ComputeLayers(const PhaseCounters& before, const PhaseCounters& after,
                   const OpenLoopRun& open, const SpanTotals* spans,
                   RunReport* report) {
  const RegistryDelta r{before.registry, after.registry};
  const double n =
      std::max<double>(1, static_cast<double>(open.timings.size()));
  auto& L = report->layers;

  double send_ns = 0;
  for (const RequestTiming& t : open.timings) {
    send_ns += static_cast<double>(t.send_end_ns - t.send_begin_ns);
  }
  const double server_us = r.MeanUs("server.query.latency_ns");
  const double exec_us = r.MeanUs("query.latency_ns");
  L["server.rtt_gap_us"] = report->open_latency.mean * 1e3 - server_us;
  L["server.queue_write_us"] = server_us - exec_us;
  L["server.send_us"] = send_ns / n / 1e3;
  L["server.bytes_out_per_q"] = r.Count("server.bytes.written") / n;
  L["server.frames_out_per_q"] = r.Count("server.result.frames") / n;
  L["server.shed"] = r.Count("server.queries.shed");
  L["server.errors"] = r.Count("server.queries.errors");

  L["core.exec_us"] = exec_us;
  L["core.coalesced_per_q"] = r.Count("chunks.coalesced_waits") / n;

  L["cache.hit_ratio"] =
      Ratio(r.Count("chunks.from_cache"), r.Count("chunks.requested"));
  L["cache.insertions_per_q"] = r.Count("cache.insertions") / n;
  L["cache.evictions_per_q"] = r.Count("cache.evictions") / n;
  L["cache.lock_wait_us"] = r.SumUs("cache.lock_wait_ns") / n;
  const double lru_hits = r.Count("cache.decoded_lru_hits");
  L["cache.decoded_lru_hit_ratio"] =
      Ratio(lru_hits, lru_hits + r.Count("cache.decode_calls"));
  L["cache.codec_ratio"] = Ratio(r.Count("cache.codec_encoded_bytes"),
                                 r.Count("cache.codec_raw_bytes"));

  const double dense = static_cast<double>(after.kernels.dense_kernels -
                                           before.kernels.dense_kernels);
  const double hash = static_cast<double>(after.kernels.hash_kernels -
                                          before.kernels.hash_kernels);
  L["backend.chunks_per_q"] = r.Count("chunks.from_backend") / n;
  L["backend.pages_per_q"] =
      static_cast<double>(after.disk_reads - before.disk_reads) / n;
  L["backend.rows_folded_per_q"] =
      static_cast<double>(RowsFolded(after.kernels) -
                          RowsFolded(before.kernels)) /
      n;
  L["backend.dense_frac"] = Ratio(dense, dense + hash);
  L["backend.scan_merge_ratio"] = Ratio(r.Count("scheduler.merged_requests"),
                                        r.Count("scheduler.requests"));
  L["backend.retries"] = r.Count("backend.retries");

  L["storage.encode_us"] = r.SumUs("codec.encode_ns") / n;
  L["storage.decode_us"] = r.SumUs("codec.decode_ns") / n;
  L["storage.disk_read_us"] = r.SumUs("disk.read_ns") / n;
  L["storage.wal_records_per_q"] = r.Count("persist.wal_records") / n;
  L["storage.wal_bytes_per_q"] = r.Count("persist.wal_bytes") / n;
  L["storage.wal_fsyncs_per_q"] = r.Count("persist.wal_fsyncs") / n;
  L["storage.snapshots"] = r.Count("persist.snapshots");
  const HistogramSnapshot snaps = r.Hist("persist.snapshot_ns");
  L["storage.snapshot_ms_max"] =
      snaps.count == 0 ? 0 : static_cast<double>(snaps.max) / 1e6;

  if (spans != nullptr) {
    for (const auto& [name, ns] : spans->self_ns) {
      report->span_self_us[name] = ns / n / 1e3;
    }
    auto self_us = [&](const char* name) {
      auto it = report->span_self_us.find(name);
      return it == report->span_self_us.end() ? 0.0 : it->second;
    };
    L["core.decompose_us"] = self_us("decompose");
    L["core.probe_us"] = self_us("cache_probe");
    L["core.assemble_us"] = self_us("execute");
    L["core.rollup_us"] = self_us("rollup");
    L["core.in_cache_agg_us"] = self_us("aggregate_in_cache");
    L["core.in_cache_agg_yield"] =
        Ratio(spans->in_cache_built, spans->in_cache_attempted);
    L["core.miss_pipeline_us"] = self_us("miss_pipeline");
    L["core.wait_coalesced_us"] = self_us("wait_coalesced");
    L["backend.scan_us"] = self_us("scan_aggregate");
  }
}

// ---------------------------------------------------------------------------
// Trace output.

struct PhaseSpan {
  std::string name;
  uint64_t start_ns = 0;
  uint64_t duration_ns = 0;
};

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonObject(const std::map<std::string, double>& m) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    if (out.size() > 1) out += ", ";
    out += JsonString(k) + ": " + JsonNumber(v);
  }
  return out + "}";
}

Status WriteFile(const std::string& path, const std::string& body) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << body;
  out.close();
  if (!out) return Status::IoError("cannot write " + path);
  return Status::OK();
}

/// <workload>.trace.jsonl: one line per phase span, one per open-loop
/// request (the bench's send / wait / rtt spans, keyed by connection and
/// client request id), then the tier's own execute span trees.
/// Times are nanoseconds since the run began; `open_start` is the open
/// loop's schedule origin on that clock.
Status WriteTrace(const RunReport& report, const std::vector<PhaseSpan>& phases,
                  const OpenLoopRun& open, uint64_t open_start,
                  const std::string& tier_jsonl) {
  std::string body;
  for (const PhaseSpan& p : phases) {
    body += "{\"phase\": " + JsonString(p.name) +
            ", \"start_ns\": " + std::to_string(p.start_ns) +
            ", \"duration_ns\": " + std::to_string(p.duration_ns) + "}\n";
  }
  for (size_t i = 0; i < open.timings.size(); ++i) {
    const RequestTiming& t = open.timings[i];
    auto span = [&](const char* name, uint64_t b, uint64_t e) {
      return std::string("{\"name\": \"") + name + "\", \"start_ns\": " +
             std::to_string(open_start + b) +
             ", \"duration_ns\": " + std::to_string(e > b ? e - b : 0) + "}";
    };
    body += "{\"request\": " + std::to_string(i) +
            ", \"connection\": " + std::to_string(t.connection) +
            ", \"request_id\": " + std::to_string(open.request_ids[i]) +
            ", \"ok\": " + (t.outcome == Outcome::kOk ? "true" : "false") +
            ", \"spans\": [" + span("send", t.send_begin_ns, t.send_end_ns) +
            ", " + span("wait", t.wait_begin_ns, t.done_ns) + ", " +
            span("rtt", t.due_ns, t.done_ns) + "]}\n";
  }
  body += tier_jsonl;
  const std::string dir = report.options.trace_dir;
  const std::string name = report.options.spec.name;
  CHUNKCACHE_RETURN_IF_ERROR(
      WriteFile(dir + "/" + name + ".trace.jsonl", body));
  const std::string layers =
      "{\"workload\": " + JsonString(name) +
      ", \"seed\": " + std::to_string(report.options.seed) +
      ", \"open_loop_queries\": " + std::to_string(open.timings.size()) +
      ",\n \"spans_self_us_per_query\": " + JsonObject(report.span_self_us) +
      ",\n \"layers\": " + JsonObject(report.layers) + "}\n";
  return WriteFile(dir + "/" + name + ".layers.json", layers);
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      // The working set fits the cache, so after warm-up every chunk hits:
      // time goes to framing, socket, probe, hit assembly and filter+sort,
      // and the backend and cache writes idle.
      {.name = "hot-session",
       .stream = StreamKind::kSessionCycle,
       .distinct_queries = 600,
       .cache_mb = 30,
       .warmup_queries = 600,
       .open_rate_qps = 2000,
       .open_queries = 24000,
       .closed_queries = 30000},
      // The cache's write side: fresh sessions miss some chunks, and every
      // admit or evict appends and fsyncs a WAL record; snapshots run on the
      // query thread, so background work shows as tail spikes.
      {.name = "session-persist",
       .stream = StreamKind::kSessionFresh,
       .cache_mb = 30,
       .persist = true,
       .warmup_queries = 300,
       .open_rate_qps = 100,
       .open_queries = 1200,
       .closed_queries = 3000},
      // A cache far below the working set: most chunks miss, so time goes to
      // backend scans, in-cache aggregation attempts and insert/evict churn.
      {.name = "random-cold",
       .stream = StreamKind::kRandom,
       .cache_mb = 4,
       .warmup_queries = 300,
       .open_rate_qps = 140,
       .open_queries = 1680,
       .closed_queries = 2000},
      // The only workload with the codec on (encode on admit, decode on hit,
      // the decoded-LRU front); with few hits, replacement quality decides
      // the cost saving.
      {.name = "zipf-compressed",
       .stream = StreamKind::kZipfian,
       .cache_mb = 8,
       .compression = true,
       .warmup_queries = 300,
       .open_rate_qps = 100,
       .open_queries = 1200,
       .closed_queries = 1500},
  };
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Result<RunReport> RunWorkload(const RunOptions& options) {
  RunReport report;
  report.options = options;
  const WorkloadSpec& spec = options.spec;
  const uint64_t t0 = SteadyNowNs();

  CHUNKCACHE_ASSIGN_OR_RETURN(schema::StarSchema schema,
                              schema::BuildPaperSchema());
  const Streams streams = MakeStreams(&schema, spec, options.seed);
  report.stream_hash["warmup"] = Hex(ChainHash(streams.warmup));
  report.stream_hash["open"] = Hex(ChainHash(streams.open));
  report.stream_hash["closed"] = Hex(ChainHash(streams.closed));

  // Set-up: data build, tier and server start, warm-up. Repeating it for a
  // median is the runner's job (fresh processes, so no pass inherits
  // another's allocator state or peak RSS).
  const uint64_t setup_start = SteadyNowNs();
  CHUNKCACHE_ASSIGN_OR_RETURN(std::unique_ptr<Deployment> d,
                              SetUp(options, streams));
  const uint64_t warmup_end = SteadyNowNs();
  report.metrics["setup_s"] = Seconds(warmup_end - setup_start);
  if (options.setup_only) return report;
  // Its max is cumulative: reset it so the open loop's max is its own.
  d->registry.GetHistogram("persist.snapshot_ns")->Reset();
  const PhaseCounters before_open = TakeCounters(*d);

  CHUNKCACHE_ASSIGN_OR_RETURN(
      OpenLoopRun open, RunOpenPhase(*d, streams.open, spec.open_rate_qps));
  const uint64_t open_end = SteadyNowNs();
  report.generator_realtime = open.realtime;
  const PhaseCounters after_open = TakeCounters(*d);

  std::string tier_jsonl;
  SpanTotals spans;
  const bool traced = !options.trace_dir.empty();
  if (traced) {
    TraceRecorder* rec = d->tier->trace_recorder();
    spans = SumSpans(rec->Latest(streams.open.size()));
    tier_jsonl = rec->ExportJsonl(streams.open.size());
  }

  CHUNKCACHE_ASSIGN_OR_RETURN(ClosedLoopRun closed,
                              RunClosedPhase(*d, streams.closed));
  const uint64_t closed_end = SteadyNowNs();
  d->server->Stop();  // every outcome is counted once traffic has drained
  const PhaseCounters at_end = TakeCounters(*d);

  // Latency, lag and capacity.
  std::vector<double> lat;
  std::vector<double> lag;
  for (const RequestTiming& t : open.timings) {
    lat.push_back(t.LatencyMs());
    lag.push_back(t.LagMs());
  }
  report.open_latency = SummarizeLatency(std::move(lat));
  report.generator_lag = SummarizeLatency(std::move(lag));
  report.closed_ok = closed.tally.ok;
  report.closed_seconds = Seconds(closed.elapsed_ns);

  // Accounting over every phase. A scheduled query never sent (its
  // connection broke first) is a failure too.
  Tally all = d->warmup;
  all.Merge(open.tally);
  all.Merge(closed.tally);
  report.attempted =
      streams.warmup.size() + streams.open.size() + streams.closed.size();
  report.sent = all.sent;
  report.ok = all.ok;
  report.failed = report.attempted - all.ok;
  report.transport_failures = all.transport;
  report.verify_failures = all.verify;
  report.server_offered = at_end.registry.counter("server.queries.offered");
  report.server_ok = at_end.registry.counter("server.queries.ok");
  report.server_shed = at_end.registry.counter("server.queries.shed");
  report.server_errors = at_end.registry.counter("server.queries.errors");

  // The paper's stream metrics cover every query the run served, warm-up
  // included: on hot-session the timed phases alone never reach the
  // backend, and a longer stream narrows the seed-to-seed spread.
  auto& M = report.metrics;
  M["ok_frac"] = Ratio(static_cast<double>(all.ok),
                       static_cast<double>(report.attempted));
  M["csr"] = Ratio(all.csr_saved, all.csr_total);
  M["modeled_ms"] =
      CostModel().Cost(at_end.disk_reads - d->disk_reads_at_warmup, 0,
                       RowsFolded(at_end.kernels) -
                           RowsFolded(d->kernels_at_warmup)) /
      std::max(1.0, static_cast<double>(report.attempted));

  auto& L = report.layers;
  L["client.p50_ms"] = report.open_latency.p50;
  L["client.p99_ms"] = report.open_latency.p99;
  L["client.capacity_qps"] =
      Ratio(static_cast<double>(closed.tally.ok), report.closed_seconds);

  ComputeLayers(before_open, after_open, open, traced ? &spans : nullptr,
                &report);

  // Reference check: recompute the sampled responses through the no-cache
  // tier on the same engine (once per distinct query).
  core::NoCacheManager reference(&d->system->engine());
  std::map<uint64_t, std::vector<ResultRow>> ref_rows;
  for (const auto& [key, sample] : open.samples) {
    const StarJoinQuery& q = streams.open[sample.query_index];
    auto it = ref_rows.find(key.first);
    if (it == ref_rows.end()) {
      core::QueryStats stats;
      CHUNKCACHE_ASSIGN_OR_RETURN(std::vector<ResultRow> rows,
                                  reference.Execute(q, &stats));
      it = ref_rows.emplace(key.first, std::move(rows)).first;
    }
    report.reference_checked += sample.responses;
    const std::string diff =
        CompareRows(sample.rows, it->second, q.group_by.num_dims);
    if (!diff.empty()) {
      if (report.reference_mismatches == 0) {
        report.problems.push_back("reference mismatch on open-loop query " +
                                  std::to_string(sample.query_index) + ": " +
                                  diff);
      }
      report.reference_mismatches += sample.responses;
    }
  }
  report.reference_distinct = ref_rows.size();
  M["peak_rss_mb"] = PeakRssMb();

  // Output checks.
  if (report.verify_failures != 0) {
    report.problems.push_back(std::to_string(report.verify_failures) +
                              " responses failed row-hash verification");
  }
  if (report.server_offered !=
      report.server_ok + report.server_shed + report.server_errors) {
    report.problems.push_back("server accounting: offered != ok+shed+errors");
  }
  if (report.server_offered != report.sent ||
      report.server_ok != report.ok + report.verify_failures) {
    report.problems.push_back("client and server accounting disagree");
  }

  if (traced) {
    const uint64_t end = SteadyNowNs();
    auto phase = [t0](const char* name, uint64_t begin, uint64_t finish) {
      return PhaseSpan{name, begin - t0, finish - begin};
    };
    const std::vector<PhaseSpan> phases = {
        phase("streams", t0, setup_start),
        phase("build_and_start", setup_start, d->warmup_start_ns),
        phase("warmup", d->warmup_start_ns, warmup_end),
        phase("open_loop", open.start_ns, open_end),
        phase("closed_loop", open_end, closed_end),
        phase("reference", closed_end, end),
    };
    CHUNKCACHE_RETURN_IF_ERROR(
        WriteTrace(report, phases, open, open.start_ns - t0, tier_jsonl));
  }
  return report;
}

std::string ReportJson(const RunReport& r) {
  const WorkloadSpec& w = r.options.spec;
  auto num = [](double v) { return JsonNumber(v); };
  auto u64 = [](uint64_t v) { return std::to_string(v); };
  std::string problems = "[";
  for (const std::string& p : r.problems) {
    if (problems.size() > 1) problems += ", ";
    problems += JsonString(p);
  }
  problems += "]";
  std::string hashes = "{";
  for (const auto& [phase, h] : r.stream_hash) {
    if (hashes.size() > 1) hashes += ", ";
    hashes += JsonString(phase) + ": " + JsonString(h);
  }
  hashes += "}";
  const LatencySummary& l = r.open_latency;
  std::string out;
  out += "{\"bench\": \"e2e\", \"workload\": " + JsonString(w.name) +
         ", \"seed\": " + u64(r.options.seed) +
         ", \"traced\": " + (r.options.trace_dir.empty() ? "false" : "true") +
         ",\n \"valid\": " + (r.Valid() ? "true" : "false") +
         ", \"problems\": " + problems + ",\n";
  out += " \"config\": {\"num_tuples\": " + u64(r.options.num_tuples) +
         ", \"data_seed\": " + u64(kDataSeed) +
         ", \"pool_frames\": " + u64(ExperimentConfig().pool_frames) +
         ", \"cache_mb\": " + u64(w.cache_mb) +
         ", \"compression\": " + (w.compression ? "true" : "false") +
         ", \"persist\": " + (w.persist ? "true" : "false") +
         ", \"policy\": " + JsonString(kPolicy) +
         ", \"in_cache_aggregation\": true, \"cache_shards\": " +
         u64(kCacheShards) + ", \"tier_workers\": " + u64(kTierWorkers) +
         ", \"server_workers\": " + u64(kServerWorkers) +
         ", \"connections\": " + u64(kConnections) +
         ", \"distinct_queries\": " + u64(w.distinct_queries) +
         ", \"warmup_queries\": " + u64(w.warmup_queries) +
         ", \"open_rate_qps\": " + num(w.open_rate_qps) +
         ", \"open_queries\": " + u64(w.open_queries) +
         ", \"closed_queries\": " + u64(w.closed_queries) +
         ", \"setup_only\": " + (r.options.setup_only ? "true" : "false") +
         ", \"generator_realtime\": " +
         (r.generator_realtime ? "true" : "false") + "},\n";
  out += " \"stream_hash\": " + hashes + ",\n";
  out += " \"metrics\": " + JsonObject(r.metrics) + ",\n";
  out += " \"layers\": " + JsonObject(r.layers) + ",\n";
  out += " \"spans_self_us\": " + JsonObject(r.span_self_us) + ",\n";
  out += " \"open_loop\": {\"samples\": " + u64(l.samples) +
         ", \"failures\": " + u64(l.failures) + ", \"p50_ms\": " + num(l.p50) +
         ", \"p99_ms\": " + num(l.p99) + ", \"tail_q\": " + num(l.tail_q) +
         ", \"tail_ms\": " + num(l.tail) + ", \"mean_ms\": " + num(l.mean) +
         "},\n";
  out += " \"generator_lag_ms\": {\"p50\": " + num(r.generator_lag.p50) +
         ", \"p99\": " + num(r.generator_lag.p99) +
         ", \"max_allowed\": " + num(kMaxGeneratorLagMs) + "},\n";
  out += " \"closed_loop\": {\"ok\": " + u64(r.closed_ok) +
         ", \"seconds\": " + num(r.closed_seconds) + "},\n";
  out += " \"accounting\": {\"attempted\": " + u64(r.attempted) +
         ", \"sent\": " + u64(r.sent) + ", \"ok\": " + u64(r.ok) +
         ", \"failed\": " + u64(r.failed) +
         ", \"transport_failures\": " + u64(r.transport_failures) +
         ", \"verify_failures\": " + u64(r.verify_failures) +
         ", \"server_offered\": " + u64(r.server_offered) +
         ", \"server_ok\": " + u64(r.server_ok) +
         ", \"server_shed\": " + u64(r.server_shed) +
         ", \"server_errors\": " + u64(r.server_errors) + "},\n";
  out += " \"reference\": {\"checked\": " + u64(r.reference_checked) +
         ", \"distinct\": " + u64(r.reference_distinct) +
         ", \"mismatches\": " + u64(r.reference_mismatches) + "}}\n";
  return out;
}

}  // namespace chunkcache::bench::e2e
