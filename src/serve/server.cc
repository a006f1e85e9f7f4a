#include "serve/server.h"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <fstream>
#include <utility>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "data/dataset.h"
#include "obs/build_info.h"
#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/observability.h"
#include "obs/perf/alloc.h"
#include "obs/process_stats.h"
#include "obs/profile/heap.h"
#include "obs/profile/profiler.h"
#include "obs/prometheus.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "serve/api.h"
#include "util/logging.h"
#include "util/string_utils.h"

namespace p3gm {
namespace serve {

namespace {

// Latency buckets from 100us to 3s; the histogram powers the /v1/metrics
// p50/p99 readout and bench_serve's latency report.
const std::vector<double> kLatencyBounds = {1e-4, 3e-4, 1e-3, 3e-3, 1e-2,
                                            3e-2, 0.1,  0.3,  1.0,  3.0};

int SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0) return -1;
  return fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

int StatusToHttp(const util::Status& status) {
  switch (status.code()) {
    case util::StatusCode::kInvalidArgument:
    case util::StatusCode::kOutOfRange:
      return 400;
    case util::StatusCode::kNotFound:
      return 404;
    default:
      return 500;
  }
}

HttpResponse JsonResponse(int status, std::string body) {
  HttpResponse response;
  response.status = status;
  response.body = std::move(body);
  return response;
}

std::string ModelsJson(const ModelRegistry& registry) {
  std::string out = "{\"generation\": " +
                    std::to_string(registry.generation()) +
                    ", \"models\": [";
  bool first = true;
  for (const ModelInfo& info : registry.List()) {
    if (!first) out += ", ";
    first = false;
    out += "{\"name\": \"" + obs::json::Escape(info.name) + "\"";
    out += ", \"latent_dim\": " + std::to_string(info.latent_dim);
    out += ", \"feature_dim\": " + std::to_string(info.feature_dim);
    out += ", \"num_classes\": " + std::to_string(info.num_classes);
    out += ", \"decoder\": \"" + info.decoder + "\"}";
  }
  out += "]}";
  return out;
}

// The one process-wide signal target. Handlers only touch atomics and a
// pipe write, both async-signal-safe.
std::atomic<Server*> g_signal_server{nullptr};

void HandleStopSignal(int) {
  if (Server* server = g_signal_server.load(std::memory_order_acquire)) {
    server->RequestStop();
  }
}

void HandleReloadSignal(int) {
  if (Server* server = g_signal_server.load(std::memory_order_acquire)) {
    server->RequestReload();
  }
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      quality_(options_.quality),
      cache_(options_.cache_entries) {
  BatcherOptions batch_options;
  batch_options.max_batch_requests = std::max<std::size_t>(1,
                                                           options_.max_batch);
  batch_options.max_batch_rows = options_.max_batch_rows;
  batch_options.queue_limit = options_.queue_limit;
  batch_options.server_seed = options_.seed;
  if (quality_.enabled()) {
    batch_options.decode_observer = [this](const std::string& model,
                                           const linalg::Matrix& outputs) {
      quality_.ObserveDecoded(model, outputs);
    };
  }
  batcher_ = std::make_unique<Batcher>(
      batch_options, &cache_,
      [this](std::uint64_t ticket, util::Result<data::Dataset> result) {
        Complete(ticket, [result = std::move(result)](const Connection& conn) {
          if (!result.ok()) {
            return JsonResponse(StatusToHttp(result.status()),
                                ErrorJson(result.status().message()));
          }
          return JsonResponse(200, SampleResponseJson(conn.model,
                                                      conn.generation,
                                                      /*cached=*/false,
                                                      *result));
        });
      });
}

Server::~Server() {
  Stop();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_read_fd_ >= 0) ::close(wake_read_fd_);
  if (wake_write_fd_ >= 0) ::close(wake_write_fd_);
}

util::Status Server::Init(const std::vector<std::string>& package_paths) {
  if (initialized_) {
    return util::Status::FailedPrecondition("Server: Init called twice");
  }
  // An empty package set is a valid cold start (mid-rollout, models
  // arrive via reload): /healthz reports zero models and the scrape
  // endpoints answer 503 + Retry-After until something loads.
  if (!package_paths.empty()) {
    P3GM_RETURN_NOT_OK(registry_.LoadPaths(package_paths));
  }
  quality_.Rebuild(registry_);

  int fds[2];
  if (::pipe(fds) != 0) {
    return util::Status::IoError("Server: pipe() failed");
  }
  wake_read_fd_ = fds[0];
  wake_write_fd_ = fds[1];
  SetNonBlocking(wake_read_fd_);
  SetNonBlocking(wake_write_fd_);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return util::Status::IoError("Server: socket() failed");
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof addr);
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return util::Status::InvalidArgument("Server: bad host \"" +
                                         options_.host + "\"");
  }
  if (::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof addr) != 0) {
    return util::Status::IoError("Server: bind(" + options_.host + ":" +
                                 std::to_string(options_.port) +
                                 ") failed: " + std::strerror(errno));
  }
  if (::listen(listen_fd_, 128) != 0) {
    return util::Status::IoError("Server: listen() failed");
  }
  SetNonBlocking(listen_fd_);
  struct sockaddr_in bound;
  socklen_t bound_len = sizeof bound;
  if (::getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&bound),
                    &bound_len) == 0) {
    bound_port_ = ntohs(bound.sin_port);
  }
  initialized_ = true;
  return util::Status::OK();
}

util::Status Server::Start() {
  std::lock_guard<std::mutex> lock(lifecycle_mutex_);
  if (!initialized_) {
    return util::Status::FailedPrecondition("Server: Start before Init");
  }
  if (running_.load(std::memory_order_acquire)) {
    return util::Status::FailedPrecondition("Server: already running");
  }
  stop_requested_.store(false, std::memory_order_release);
  poller_ = std::make_unique<Poller>();
  if (!poller_->ok()) {
    return util::Status::IoError(
        std::string("Server: epoll_create1() failed: ") +
        std::strerror(errno));
  }
  poller_->Add(listen_fd_, /*want_read=*/true, /*want_write=*/false);
  poller_->Add(wake_read_fd_, /*want_read=*/true, /*want_write=*/false);
  batcher_->Start();
  running_.store(true, std::memory_order_release);
  loop_thread_ = std::thread([this] { LoopThread(); });
  P3GM_LOG(Info) << "p3gm serve: listening on " << options_.host << ":"
                 << bound_port_;
  // Self-describing startup: the build-info gauge makes every scrape
  // attributable to a binary, and the config line puts the effective
  // options in the incident log up front.
  obs::RegisterBuildInfoGauge();
  const obs::BuildInfo& build = obs::GetBuildInfo();
  P3GM_LOG(Info) << "p3gm serve: config version=" << build.version
                 << " git_sha=" << build.git_sha << " port=" << bound_port_
                 << " max_batch=" << options_.max_batch
                 << " max_batch_rows=" << options_.max_batch_rows
                 << " queue_limit=" << options_.queue_limit
                 << " cache_entries=" << options_.cache_entries
                 << " max_n=" << options_.max_n << " quality="
                 << (quality_.enabled() ? "on" : "off")
                 << " quality_threshold=" << options_.quality.threshold
                 << " models=" << registry_.size();
  // Daemon-lifetime sampled heap profile behind the alloc-tracking
  // hooks: /v1/profile/heap snapshots it on demand. Already-running
  // (e.g. under the `p3gm profile` wrapper) and compiled-out are both
  // fine — the endpoint reports what it finds.
  if (obs::perf::AllocTrackingCompiledIn()) {
    const util::Status heap_status =
        obs::profile::HeapProfiler::Global().Start(
            obs::profile::HeapProfileOptions());
    if (!heap_status.ok() &&
        heap_status.code() != util::StatusCode::kFailedPrecondition) {
      P3GM_LOG(Warning) << "p3gm serve: heap profiler unavailable: "
                        << heap_status;
    }
  }
  return util::Status::OK();
}

void Server::Stop() {
  std::lock_guard<std::mutex> lock(lifecycle_mutex_);
  if (!loop_thread_.joinable()) return;
  RequestStop();
  loop_thread_.join();
  batcher_->Stop();
  // The profile worker watches stop_requested_, so this join is bounded
  // by one 50ms sleep slice plus profiler teardown.
  if (profile_thread_.joinable()) profile_thread_.join();
  running_.store(false, std::memory_order_release);
}

void Server::WaitUntilStopped() {
  // The loop thread clears running_ as it exits; joining happens in
  // Stop() (or the destructor), so this only has to watch the flag.
  while (running_.load(std::memory_order_acquire)) {
    struct timespec ts = {0, 50 * 1000 * 1000};
    ::nanosleep(&ts, nullptr);
  }
}

void Server::RequestStop() {
  stop_requested_.store(true, std::memory_order_release);
  Wake();
}

void Server::RequestReload() {
  reload_requested_.store(true, std::memory_order_release);
  Wake();
}

void Server::InstallSignalHandlers(Server* server) {
  g_signal_server.store(server, std::memory_order_release);
  if (server == nullptr) return;
  struct sigaction sa;
  std::memset(&sa, 0, sizeof sa);
  sa.sa_handler = HandleStopSignal;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  sa.sa_handler = HandleReloadSignal;
  ::sigaction(SIGHUP, &sa, nullptr);
  ::signal(SIGPIPE, SIG_IGN);
}

void Server::Wake() {
  if (wake_write_fd_ < 0) return;
  const char byte = 'w';
  // Non-blocking; a full pipe already guarantees a pending wakeup.
  [[maybe_unused]] ssize_t rc = ::write(wake_write_fd_, &byte, 1);
}

void Server::LoopThread() {
  obs::Registry& registry = obs::Registry::Global();
  obs::Gauge* active = registry.gauge("serve.connections.active");
  std::vector<Poller::Event> events;
  const std::uint64_t drain_deadline_budget_ns =
      static_cast<std::uint64_t>(std::max(0, options_.drain_timeout_ms)) *
      1000000ull;
  std::uint64_t drain_started_ns = 0;
  bool accepting = true;

  for (;;) {
    const bool stopping = stop_requested_.load(std::memory_order_acquire);
    if (stopping && accepting) {
      accepting = false;
      poller_->Remove(listen_fd_);
      drain_started_ns = obs::NowNs();
    }
    if (stopping) {
      bool pending_out = false;
      for (const auto& [fd, conn] : connections_) {
        if (conn->out_offset < conn->out.size() || conn->parked) {
          pending_out = true;
          break;
        }
      }
      const bool pending = pending_out || !ticket_to_fd_.empty();
      const bool deadline_hit =
          obs::NowNs() - drain_started_ns > drain_deadline_budget_ns;
      if (!pending || deadline_hit) break;
    }

    const int n = poller_->Wait(&events, /*timeout_ms=*/50);
    if (n < 0) break;
    for (const Poller::Event& ev : events) {
      if (ev.fd == listen_fd_) {
        if (accepting && ev.readable) AcceptNewConnections();
        continue;
      }
      if (ev.fd == wake_read_fd_) {
        char buf[64];
        while (::read(wake_read_fd_, buf, sizeof buf) > 0) {
        }
        continue;
      }
      const auto it = connections_.find(ev.fd);
      if (it == connections_.end()) continue;
      Connection* conn = it->second.get();
      if (ev.readable) HandleReadable(conn);
      if (connections_.count(ev.fd) == 0) continue;  // Closed above.
      if (ev.writable) HandleWritable(conn);
      if (connections_.count(ev.fd) == 0) continue;
      if (ev.error && !ev.readable) CloseConnection(ev.fd);
    }
    if (reload_requested_.exchange(false, std::memory_order_acq_rel)) {
      HttpResponse ignored = ReloadNow();
      (void)ignored;
    }
    DrainCompletions();
    active->Set(static_cast<double>(connections_.size()));
  }

  // Teardown: force-close whatever is left.
  std::vector<int> fds;
  fds.reserve(connections_.size());
  for (const auto& [fd, conn] : connections_) fds.push_back(fd);
  for (const int fd : fds) CloseConnection(fd);
  ticket_to_fd_.clear();
  active->Set(0.0);
  running_.store(false, std::memory_order_release);
}

void Server::AcceptNewConnections() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN or transient error — try next wakeup.
    SetNonBlocking(fd);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    if (connections_.size() >= options_.max_connections) {
      static obs::Counter* overload =
          obs::Registry::Global().counter("serve.overload");
      overload->Add();
      HttpResponse busy;
      busy.status = 503;
      busy.extra_headers.emplace_back("Retry-After", "1");
      busy.body = ErrorJson("connection limit reached");
      busy.close_connection = true;
      const std::string wire = busy.Serialize();
      ::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL);
      ::close(fd);
      continue;
    }
    auto conn = std::make_unique<Connection>(fd, options_.http);
    poller_->Add(fd, /*want_read=*/true, /*want_write=*/false);
    connections_.emplace(fd, std::move(conn));
  }
}

void Server::HandleReadable(Connection* conn) {
  char buf[8192];
  for (;;) {
    const ssize_t got = ::recv(conn->fd, buf, sizeof buf, 0);
    if (got > 0) {
      conn->parser.Feed(buf, static_cast<std::size_t>(got));
      if (conn->parser.failed()) break;
      if (static_cast<std::size_t>(got) < sizeof buf) break;
      continue;
    }
    if (got == 0) {  // Peer closed.
      CloseConnection(conn->fd);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    CloseConnection(conn->fd);
    return;
  }
  PumpRequests(conn);
}

void Server::PumpRequests(Connection* conn) {
  if (conn->parser.failed()) {
    static obs::Counter* bad =
        obs::Registry::Global().counter("serve.responses.4xx");
    bad->Add();
    HttpResponse response;
    response.status = conn->parser.error_status();
    response.body = ErrorJson(conn->parser.error_message());
    response.close_connection = true;
    Respond(conn, std::move(response));
    return;
  }
  // Serve pipelined requests until the parser runs dry or a request
  // parks the connection. ProcessRequest can close (and free) the
  // connection when a close-marked response flushes inline, so the
  // liveness check must key on the fd captured before the call.
  const int fd = conn->fd;
  while (!conn->parked && conn->parser.done() && !conn->close_after_write) {
    conn->request_start_ns = obs::NowNs();
    ProcessRequest(conn);
    if (connections_.count(fd) == 0) return;  // Closed.
    if (conn->parked) break;
    conn->parser.ResetForNext();
    if (conn->parser.failed()) {
      PumpRequests(conn);  // Report the pipelined parse error.
      return;
    }
  }
  UpdateInterest(conn);
}

// The routing table. A (method, path) pair not listed here is a 404
// when some row has the method, else a 405. The hot endpoint comes
// first: ProcessRequest scans in order.
const Server::Endpoint Server::kEndpoints[] = {
    {"POST", "/v1/sample", &Server::HandleSample},
    {"GET", "/healthz", &Server::HandleHealthz},
    {"GET", "/v1/models", &Server::HandleModels},
    {"GET", "/v1/metrics", &Server::HandleMetrics},
    {"GET", "/v1/quality", &Server::HandleQuality},
    {"GET", "/v1/profile", &Server::HandleProfile},
    {"GET", "/v1/profile/heap", &Server::HandleProfileHeap},
    {"POST", "/v1/reload", &Server::HandleReload},
};

void Server::ProcessRequest(Connection* conn) {
  const HttpRequest& req = conn->parser.request();

  // Trace identity first: ingest a W3C traceparent if the client sent a
  // valid one (joining its trace with a fresh local span), else mint a
  // root context. The scope makes it ambient for every span and log
  // record emitted while this request is on the stack.
  const std::string* traceparent = req.FindHeader("traceparent");
  if (traceparent == nullptr ||
      !obs::ParseTraceparent(*traceparent, &conn->trace)) {
    conn->trace = obs::MakeRootContext();
  }
  obs::RequestScope request_scope(conn->trace);
  obs::FlightRecorder::Global().Record(
      obs::FlightRecorder::EventKind::kRequest, "serve.request.begin",
      conn->trace.span_id, 0);
  P3GM_TRACE_SPAN("serve.request");

  obs::Registry& registry = obs::Registry::Global();
  static obs::Counter* total = registry.counter("serve.requests_total");
  total->Add();

  conn->close_after_write = !req.KeepAlive();

  const Endpoint* route = nullptr;
  bool method_known = false;
  for (const Endpoint& e : kEndpoints) {
    if (req.method != e.method) continue;
    method_known = true;
    if (req.path == e.path) {
      route = &e;
      break;
    }
  }
  if (route == nullptr) {
    if (method_known) {
      Respond(conn, JsonResponse(404, ErrorJson("no such endpoint: " +
                                                req.target)));
      return;
    }
    HttpResponse response;
    response.status = 405;
    response.extra_headers.emplace_back("Allow", "GET, POST");
    response.body = ErrorJson("method not allowed: " + req.method);
    Respond(conn, std::move(response));
    return;
  }
  conn->endpoint = route->path;
  if (Reply reply = (this->*route->handler)(conn, req)) {
    Respond(conn, std::move(*reply));
  }
}

namespace {

/// Scrape endpoints with zero loaded models answer 503 + Retry-After
/// (the overload semantics from the queue-full path): an empty registry
/// mid-rollout means "not ready, come back", not "healthy with no
/// data", and an empty-but-200 scrape would mask the outage.
HttpResponse NoModelsResponse() {
  HttpResponse response;
  response.status = 503;
  response.extra_headers.emplace_back("Retry-After", "1");
  response.body = ErrorJson("no models loaded");
  return response;
}

}  // namespace

std::vector<QualityModelReport> Server::ScrapeQuality() {
  std::vector<QualityModelReport> reports = quality_.Scrape();
  for (const QualityModelReport& r : reports) {
    if (!r.warn) continue;
    P3GM_LOG(Warning) << "p3gm serve: quality drift on model \"" << r.model
                      << "\": drift " << r.report.drift() << " > threshold "
                      << quality_.options().threshold << " for "
                      << r.breach_streak
                      << " consecutive scrape(s) (worst feature "
                      << r.report.worst_feature << ", ks "
                      << r.report.worst_ks << ", label_tv "
                      << r.report.label_tv << ", rows "
                      << r.report.rows_observed << ")";
  }
  return reports;
}

Server::Reply Server::HandleHealthz(Connection*, const HttpRequest&) {
  return JsonResponse(200, "{\"status\": \"ok\", \"models\": " +
                               std::to_string(registry_.size()) +
                               ", \"generation\": " +
                               std::to_string(registry_.generation()) + "}");
}

Server::Reply Server::HandleModels(Connection*, const HttpRequest&) {
  return JsonResponse(200, ModelsJson(registry_));
}

Server::Reply Server::HandleQuality(Connection*, const HttpRequest&) {
  if (registry_.size() == 0) return NoModelsResponse();
  return JsonResponse(200,
                      QualityReportJson(ScrapeQuality(), quality_.options(),
                                        registry_.generation()));
}

Server::Reply Server::HandleMetrics(Connection*, const HttpRequest& req) {
  if (registry_.size() == 0) return NoModelsResponse();
  // A metrics scrape also refreshes the quality gauges, so Prometheus
  // sees drift without anyone polling /v1/quality.
  ScrapeQuality();
  obs::Registry& registry = obs::Registry::Global();
  // Surface silent-loss counts right before the snapshot so a scrape
  // always sees current values.
  registry.gauge("obs.trace.dropped_events")
      ->Set(static_cast<double>(obs::TraceRecorder::Global().DroppedCount()));
  obs::FlightRecorder& flight = obs::FlightRecorder::Global();
  registry.gauge("obs.flight.recorded_events")
      ->Set(static_cast<double>(flight.RecordedCount()));
  registry.gauge("obs.flight.overwritten_events")
      ->Set(static_cast<double>(flight.OverwrittenCount()));
  // p3gm_process_* (always) and p3gm_alloc_* (when the operator-new
  // hooks are compiled in) refresh on every scrape.
  obs::PublishProcessGauges();

  const obs::Snapshot snapshot = registry.TakeSnapshot();
  const std::string* format = req.QueryParam("format");
  if (format != nullptr && *format == "prometheus") {
    HttpResponse response;
    response.content_type = obs::PrometheusContentType();
    response.body = obs::ToPrometheusText(snapshot);
    return response;
  }
  if (format != nullptr && *format != "json") {
    return JsonResponse(
        400, ErrorJson("unknown metrics format \"" + *format +
                       "\" (want json or prometheus)"));
  }
  return JsonResponse(200, snapshot.ToJson());
}

Server::Reply Server::HandleSample(Connection* conn, const HttpRequest& req) {
  obs::Registry& registry = obs::Registry::Global();
  static obs::Counter* samples = registry.counter("serve.sample.requests");
  samples->Add();

  auto parsed = ParseSampleRequest(req.body, options_.max_n);
  if (!parsed.ok()) {
    return JsonResponse(StatusToHttp(parsed.status()),
                        ErrorJson(parsed.status().message()));
  }
  const SampleRequest& sample = *parsed;
  std::shared_ptr<const core::ReleasePackage> package =
      registry_.Find(sample.model);
  if (package == nullptr) {
    return JsonResponse(404,
                        ErrorJson("unknown model \"" + sample.model + "\""));
  }
  const std::uint64_t generation = registry_.generation();

  // Cache fast path: unseeded, cache-eligible requests may be answered
  // without touching the batcher at all.
  const bool cacheable = cache_.enabled() && !sample.has_seed &&
                         !sample.fresh;
  if (cacheable) {
    data::Dataset rows;
    if (cache_.Lookup(sample.model, generation, sample.n, &rows)) {
      static obs::Counter* hits = registry.counter("serve.cache.hits");
      hits->Add();
      conn->cache_hit = true;
      return JsonResponse(200, SampleResponseJson(sample.model, generation,
                                                  /*cached=*/true, rows));
    }
    static obs::Counter* misses = registry.counter("serve.cache.misses");
    misses->Add();
  }

  SampleJob job;
  job.ticket = next_ticket_++;
  job.model = sample.model;
  job.generation = generation;
  job.package = std::move(package);
  job.n = sample.n;
  job.has_seed = sample.has_seed;
  job.seed = sample.seed;
  job.stream_index = next_stream_index_++;
  job.fill_cache = cacheable;
  job.trace = conn->trace;
  const std::uint64_t ticket = job.ticket;
  if (!batcher_->Enqueue(std::move(job))) {
    static obs::Counter* overload = registry.counter("serve.overload");
    overload->Add();
    HttpResponse response;
    response.status = 503;
    response.extra_headers.emplace_back("Retry-After", "1");
    response.body = ErrorJson("sample queue full, retry later");
    return response;
  }
  Park(conn, ticket);
  conn->model = sample.model;
  conn->generation = generation;
  return std::nullopt;
}

util::Status Server::StartProfile(
    int hz, std::uint64_t seconds,
    std::function<void(util::Result<obs::profile::CpuProfile>)> done) {
  // exchange(true) claims the slot or reports it taken.
  if (profile_busy_.exchange(true, std::memory_order_acq_rel)) {
    return util::Status::AlreadyExists(
        "a profile is already running, retry later");
  }
  obs::profile::CpuProfileOptions profile_options;
  profile_options.hz = hz;
  const util::Status status =
      obs::profile::CpuProfiler::Global().Start(profile_options);
  if (!status.ok()) {
    profile_busy_.store(false, std::memory_order_release);
    return status;
  }
  if (profile_thread_.joinable()) profile_thread_.join();
  profile_thread_ = std::thread([this, seconds, done = std::move(done)] {
    const std::uint64_t deadline_ns =
        obs::NowNs() + seconds * 1000000000ull;
    while (obs::NowNs() < deadline_ns &&
           !stop_requested_.load(std::memory_order_acquire)) {
      struct timespec ts = {0, 50 * 1000 * 1000};
      ::nanosleep(&ts, nullptr);
    }
    util::Result<obs::profile::CpuProfile> profile =
        obs::profile::CpuProfiler::Global().Stop();
    // Free the slot before the hand-off: a client that reads this
    // profile and asks for the next one must find the slot open.
    profile_busy_.store(false, std::memory_order_release);
    done(std::move(profile));
  });
  return util::Status::OK();
}

Server::Reply Server::HandleProfile(Connection* conn, const HttpRequest& req) {
  obs::Registry& registry = obs::Registry::Global();
  static obs::Counter* requests = registry.counter("serve.profile.requests");
  requests->Add();

  std::uint64_t seconds = 1;
  std::uint64_t hz = 99;
  if (const std::string* s = req.QueryParam("seconds")) {
    if (!util::ParseUint64(*s, 1, 60, &seconds)) {
      return JsonResponse(400, ErrorJson("bad seconds \"" + *s +
                                         "\" (want integer in [1, 60])"));
    }
  }
  if (const std::string* s = req.QueryParam("hz")) {
    if (!util::ParseUint64(*s, 1, 1000, &hz)) {
      return JsonResponse(400, ErrorJson("bad hz \"" + *s +
                                         "\" (want integer in [1, 1000])"));
    }
  }

  // Park the connection and collect on the profile worker so the event
  // loop keeps serving; the loop thread's own work still gets sampled —
  // only this endpoint's response assembly happens after Stop,
  // excluding it from its own profile.
  const std::uint64_t ticket = next_ticket_++;
  const util::Status status = StartProfile(
      static_cast<int>(hz), seconds,
      [this, ticket](util::Result<obs::profile::CpuProfile> profile) {
        Complete(ticket, [profile = std::move(profile)](const Connection&) {
          HttpResponse response;
          if (!profile.ok()) {
            response.status = 500;
            response.body = ErrorJson(profile.status().message());
            return response;
          }
          response.content_type = "text/plain; charset=utf-8";
          response.body = profile->ToFoldedText();
          response.extra_headers.emplace_back(
              "X-Profile-Samples", std::to_string(profile->samples));
          response.extra_headers.emplace_back(
              "X-Profile-Dropped", std::to_string(profile->dropped));
          response.extra_headers.emplace_back(
              "X-Profile-Hz", std::to_string(profile->hz));
          return response;
        });
      });
  if (status.ok()) {
    Park(conn, ticket);
    return std::nullopt;
  }
  // Busy (one profile at a time, shared with --profile-on-slow bursts)
  // retries after the running profile's length; a profiler held
  // elsewhere in the process retries after a second.
  HttpResponse response;
  response.body = ErrorJson(status.message());
  if (status.code() == util::StatusCode::kAlreadyExists) {
    response.status = 503;
    response.extra_headers.emplace_back("Retry-After",
                                        std::to_string(seconds));
  } else if (status.code() == util::StatusCode::kFailedPrecondition) {
    response.status = 503;
    response.extra_headers.emplace_back("Retry-After", "1");
  } else {
    response.status = 500;
  }
  return response;
}

Server::Reply Server::HandleProfileHeap(Connection*, const HttpRequest&) {
  obs::profile::HeapProfiler& heap = obs::profile::HeapProfiler::Global();
  if (!obs::perf::AllocTrackingCompiledIn()) {
    HttpResponse response;
    response.status = 501;
    response.body = ErrorJson(
        "heap profiling requires a -DP3GM_ALLOC_TRACKING=ON build");
    return response;
  }
  if (!heap.running()) {
    HttpResponse response;
    response.status = 503;
    response.extra_headers.emplace_back("Retry-After", "1");
    response.body = ErrorJson("heap profiler is not running");
    return response;
  }
  auto snapshot = heap.Snapshot();
  if (!snapshot.ok()) {
    return JsonResponse(500, ErrorJson(snapshot.status().message()));
  }
  HttpResponse response;
  response.content_type = "text/plain; charset=utf-8";
  response.body = snapshot->ToFoldedText();
  response.extra_headers.emplace_back(
      "X-Profile-Samples", std::to_string(snapshot->samples));
  response.extra_headers.emplace_back(
      "X-Profile-Dropped", std::to_string(snapshot->dropped));
  response.extra_headers.emplace_back(
      "X-Profile-Stride-Bytes", std::to_string(snapshot->stride_bytes));
  return response;
}

void Server::MaybeStartSlowProfile() {
  if (options_.profile_on_slow_dir.empty()) return;
  obs::Registry& registry = obs::Registry::Global();
  static obs::Counter* bursts =
      registry.counter("serve.profile.slow_bursts");
  static obs::Counter* skipped =
      registry.counter("serve.profile.slow_skipped");
  const std::string path = options_.profile_on_slow_dir + "/slow-" +
                           obs::TraceIdHex(obs::CurrentContext()) +
                           ".folded";
  const util::Status status = StartProfile(
      obs::profile::CpuProfileOptions().hz,
      static_cast<std::uint64_t>(
          std::max(1, options_.profile_on_slow_seconds)),
      [path](util::Result<obs::profile::CpuProfile> profile) {
        if (!profile.ok()) {
          P3GM_LOG(Warning) << "p3gm serve: slow-request profile burst "
                            << "failed: " << profile.status();
          return;
        }
        std::ofstream out(path, std::ios::trunc);
        out << profile->ToFoldedText();
        out.close();
        if (!out) {
          P3GM_LOG(Warning) << "p3gm serve: slow-request profile burst "
                            << "could not be written to " << path;
          return;
        }
        P3GM_LOG(Info) << "p3gm serve: slow-request profile burst ("
                       << profile->samples << " samples, "
                       << profile->dropped << " dropped) written to "
                       << path;
      });
  if (!status.ok()) {
    skipped->Add();  // Never queue bursts behind a running profile.
    return;
  }
  bursts->Add();
}

void Server::Park(Connection* conn, std::uint64_t ticket) {
  conn->parked = true;
  conn->ticket = ticket;
  ticket_to_fd_[ticket] = conn->fd;
}

void Server::Complete(std::uint64_t ticket,
                      std::function<HttpResponse(const Connection&)> respond) {
  {
    std::lock_guard<std::mutex> lock(completions_mutex_);
    completions_.push_back(Completion{ticket, std::move(respond)});
  }
  Wake();
}

void Server::DrainCompletions() {
  std::vector<Completion> batch;
  {
    std::lock_guard<std::mutex> lock(completions_mutex_);
    batch.swap(completions_);
  }
  for (Completion& done : batch) {
    const auto it = ticket_to_fd_.find(done.ticket);
    if (it == ticket_to_fd_.end()) continue;  // Connection went away.
    const int fd = it->second;
    ticket_to_fd_.erase(it);
    const auto conn_it = connections_.find(fd);
    if (conn_it == connections_.end()) continue;
    Connection* conn = conn_it->second.get();
    if (!conn->parked || conn->ticket != done.ticket) continue;
    conn->parked = false;
    // Re-enter the request's trace scope: the response (headers, slow
    // log, latency attribution) belongs to the span that parked here.
    obs::RequestScope request_scope(conn->trace);
    Respond(conn, done.respond(*conn));
    if (connections_.count(fd) == 0) continue;
    // The parked connection may hold a pipelined follow-up request.
    conn->parser.ResetForNext();
    PumpRequests(conn);
  }
}

Server::Reply Server::HandleReload(Connection*, const HttpRequest&) {
  return ReloadNow();
}

HttpResponse Server::ReloadNow() {
  static obs::Counter* reloads =
      obs::Registry::Global().counter("serve.reloads");
  const util::Status status = registry_.Reload();
  if (!status.ok()) {
    P3GM_LOG(Warning) << "p3gm serve: reload failed: " << status;
    return JsonResponse(500, ErrorJson("reload failed: " +
                                       status.message()));
  }
  reloads->Add();
  // Fresh monitors against the reloaded weights' fingerprints: drift
  // must always be measured relative to what is being served now.
  quality_.Rebuild(registry_);
  P3GM_LOG(Info) << "p3gm serve: reloaded " << registry_.size()
                 << " model(s), generation " << registry_.generation();
  return JsonResponse(
      200, "{\"status\": \"reloaded\", \"generation\": " +
               std::to_string(registry_.generation()) + ", \"models\": " +
               std::to_string(registry_.size()) + "}");
}

void Server::Respond(Connection* conn, HttpResponse response) {
  obs::Registry& registry = obs::Registry::Global();
  static obs::Counter* ok2xx = registry.counter("serve.responses.2xx");
  static obs::Counter* err4xx = registry.counter("serve.responses.4xx");
  static obs::Counter* err5xx = registry.counter("serve.responses.5xx");
  static obs::Histogram* latency = registry.histogram(
      "serve.request.latency_seconds", kLatencyBounds);
  if (response.status < 400) {
    ok2xx->Add();
  } else if (response.status < 500) {
    err4xx->Add();
  } else {
    err5xx->Add();
  }
  // Every response names its request: parse failures and early
  // rejections reach here without ProcessRequest having minted an id,
  // so mint one now. Echoing traceparent lets a propagating client
  // stitch our server span into its own trace.
  if (!conn->trace.valid()) conn->trace = obs::MakeRootContext();
  response.extra_headers.emplace_back("X-Request-Id",
                                      obs::TraceIdHex(conn->trace));
  response.extra_headers.emplace_back("traceparent",
                                      obs::FormatTraceparent(conn->trace));
  if (conn->request_start_ns != 0) {
    const double seconds =
        static_cast<double>(obs::NowNs() - conn->request_start_ns) * 1e-9;
    latency->Observe(seconds);
    registry
        .histogram(obs::LabeledName("serve.request.latency_seconds",
                                    {{"endpoint", conn->endpoint}}),
                   kLatencyBounds)
        ->Observe(seconds);
    if (std::strcmp(conn->endpoint, "/v1/sample") == 0) {
      registry
          .histogram(
              obs::LabeledName("serve.request.latency_seconds",
                               {{"endpoint", conn->endpoint},
                                {"result",
                                 conn->cache_hit ? "hit" : "fresh"}}),
              kLatencyBounds)
          ->Observe(seconds);
    }
    obs::FlightRecorder::Global().Record(
        obs::FlightRecorder::EventKind::kRequest, "serve.respond",
        conn->trace.span_id, static_cast<std::uint64_t>(response.status));
    if (options_.slow_request_ms > 0 &&
        seconds * 1000.0 >= static_cast<double>(options_.slow_request_ms)) {
      obs::RequestScope slow_scope(conn->trace);
      P3GM_LOG(Warning) << "p3gm serve: slow request " << conn->endpoint
                        << " status " << response.status << " took "
                        << static_cast<std::uint64_t>(seconds * 1000.0)
                        << " ms (threshold " << options_.slow_request_ms
                        << " ms)";
      // --profile-on-slow: attach a flamegraph to the incident. The
      // burst file is named by this request's trace id (ambient via
      // slow_scope above).
      MaybeStartSlowProfile();
    }
    conn->request_start_ns = 0;
  }
  conn->endpoint = "other";
  conn->cache_hit = false;
  if (response.close_connection) conn->close_after_write = true;
  response.close_connection = conn->close_after_write;
  conn->out += response.Serialize();
  HandleWritable(conn);
}

void Server::HandleWritable(Connection* conn) {
  while (conn->out_offset < conn->out.size()) {
    const ssize_t sent =
        ::send(conn->fd, conn->out.data() + conn->out_offset,
               conn->out.size() - conn->out_offset, MSG_NOSIGNAL);
    if (sent > 0) {
      conn->out_offset += static_cast<std::size_t>(sent);
      continue;
    }
    if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (sent < 0 && errno == EINTR) continue;
    CloseConnection(conn->fd);
    return;
  }
  if (conn->out_offset >= conn->out.size()) {
    conn->out.clear();
    conn->out_offset = 0;
    if (conn->close_after_write) {
      CloseConnection(conn->fd);
      return;
    }
  }
  UpdateInterest(conn);
}

void Server::UpdateInterest(Connection* conn) {
  const bool want_write = conn->out_offset < conn->out.size();
  // While a request is parked we stop reading: backpressure, and the
  // parked request's response must go out before the next one is read.
  poller_->Update(conn->fd, /*want_read=*/!conn->parked, want_write);
}

void Server::CloseConnection(int fd) {
  const auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  if (it->second->parked) ticket_to_fd_.erase(it->second->ticket);
  poller_->Remove(fd);
  ::close(fd);
  connections_.erase(it);
}

}  // namespace serve
}  // namespace p3gm
