#ifndef P3GM_SERVE_SERVER_H_
#define P3GM_SERVE_SERVER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/profile/profiler.h"
#include "obs/trace_context.h"
#include "serve/batcher.h"
#include "serve/http.h"
#include "serve/model_registry.h"
#include "serve/poller.h"
#include "serve/quality.h"
#include "serve/sample_cache.h"
#include "util/result.h"

namespace p3gm {
namespace serve {

/// Tuning knobs for the daemon. The defaults suit the e2e tests; the
/// CLI maps its --flags onto this struct after strict validation.
struct ServerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  // 0 = ephemeral (query via port()).
  std::size_t max_connections = 256;
  /// Request batching (1 = off) — see BatcherOptions.
  std::size_t max_batch = 8;
  std::size_t max_batch_rows = 8192;
  std::size_t queue_limit = 256;
  /// Sample-cache entries (0 = off).
  std::size_t cache_entries = 0;
  /// Upper bound on "n" per sample request.
  std::size_t max_n = 100000;
  /// Stream family for unseeded requests (Rng::StreamAt(seed, i)).
  std::uint64_t seed = 0x9e3779b97f4a7c15ULL;
  /// How long Stop() waits for in-flight work and unflushed responses
  /// before force-closing stragglers.
  int drain_timeout_ms = 5000;
  /// Requests slower than this log one WARN record with the request's
  /// trace id, endpoint, status and latency. 0 disables the log.
  int slow_request_ms = 0;
  /// --profile-on-slow: directory that receives a short CPU-profile
  /// burst (folded stacks, one file per incident) whenever the
  /// slow-request WARN above fires, so tail-latency incidents arrive
  /// with a flamegraph attached. Empty disables; requires
  /// slow_request_ms > 0 to ever trigger. Bursts are skipped (counted,
  /// never queued) while another profile is running.
  std::string profile_on_slow_dir;
  /// Burst length for --profile-on-slow captures.
  int profile_on_slow_seconds = 1;
  /// Synthesis-quality monitoring (docs/observability.md "Synthesis
  /// quality"): per-model streaming sketches folded from every decoded
  /// batch, scored against the package fingerprint on scrape.
  QualityOptions quality;
  HttpLimits http;
};

/// The `p3gm serve` daemon: a single-threaded epoll event loop (accept,
/// parse, route, write) plus one batching executor thread that runs
/// coalesced decoder passes (which in turn fan out through
/// util::ThreadPool inside the gemm kernels). Requests are routed
/// through one endpoint table. Sample and profile requests park their
/// connection until another thread pushes a completion and wakes the
/// loop through the wakeup pipe; every other endpoint answers inline.
/// See docs/serving.md for the HTTP API and operational semantics.
///
/// Lifecycle: Init (bind + load packages) -> Start (spawn threads) ->
/// Stop (graceful drain; also run by the destructor). Stop() stops
/// accepting, lets queued sample jobs finish, flushes response buffers
/// (bounded by drain_timeout_ms), then joins both threads.
class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the listen socket and loads every package path (serving name
  /// = file basename sans extension). Call once before Start.
  util::Status Init(const std::vector<std::string>& package_paths);

  util::Status Start();
  void Stop();
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Blocks until the event loop exits (Stop() or a signal-requested
  /// stop). For CLI use after InstallSignalHandlers.
  void WaitUntilStopped();

  /// The bound TCP port (after Init).
  int port() const { return bound_port_; }

  ModelRegistry& registry() { return registry_; }

  /// Thread-safe asynchronous requests; both just set a flag and wake
  /// the loop, so they are also async-signal-safe.
  void RequestStop();
  void RequestReload();

  /// Routes SIGTERM/SIGINT to RequestStop and SIGHUP to RequestReload
  /// for `server` (one process-wide slot; pass nullptr to detach).
  static void InstallSignalHandlers(Server* server);

 private:
  struct Connection {
    int fd = -1;
    HttpParser parser;
    std::string out;            // Serialized, not yet written.
    std::size_t out_offset = 0;
    bool close_after_write = false;
    /// Waiting on a completion for `ticket` (a sample or a profile): no
    /// reads until DrainCompletions writes its response.
    bool parked = false;
    std::uint64_t ticket = 0;
    // Context of the in-flight sample request, for response assembly.
    std::string model;
    std::uint64_t generation = 0;
    std::uint64_t request_start_ns = 0;
    // Current request's trace identity (ingested from a traceparent
    // header or freshly minted) plus latency-attribution facets; all
    // reset per request by Respond.
    obs::TraceContext trace;
    const char* endpoint = "other";  // Static strings only.
    bool cache_hit = false;

    Connection(int fd_in, HttpLimits limits)
        : fd(fd_in), parser(limits) {}
  };

  /// A parked request's answer, pushed by the batcher or the profile
  /// worker. `respond` runs on the loop thread when DrainCompletions
  /// pops it, so response encoding stays off the pushing thread.
  struct Completion {
    std::uint64_t ticket = 0;
    std::function<HttpResponse(const Connection&)> respond;
  };

  /// What a route handler returns: the response to send inline, or
  /// nullopt when it parked the connection (see Park).
  using Reply = std::optional<HttpResponse>;
  using Handler = Reply (Server::*)(Connection* conn, const HttpRequest& req);
  struct Endpoint {
    const char* method;
    const char* path;  // Also the `endpoint` latency label.
    Handler handler;
  };
  static const Endpoint kEndpoints[];

  void LoopThread();
  void Wake();
  void AcceptNewConnections();
  void HandleReadable(Connection* conn);
  void HandleWritable(Connection* conn);
  void PumpRequests(Connection* conn);
  void ProcessRequest(Connection* conn);
  Reply HandleSample(Connection* conn, const HttpRequest& req);
  Reply HandleHealthz(Connection* conn, const HttpRequest& req);
  Reply HandleModels(Connection* conn, const HttpRequest& req);
  Reply HandleMetrics(Connection* conn, const HttpRequest& req);
  Reply HandleQuality(Connection* conn, const HttpRequest& req);
  /// GET /v1/profile?seconds=N&hz=M — parks the connection, runs the
  /// sampling CPU profiler on the profile worker, answers with folded
  /// stacks. 503 while any profile is already running.
  Reply HandleProfile(Connection* conn, const HttpRequest& req);
  /// GET /v1/profile/heap — inline snapshot of the sampled heap
  /// profile (running since Start when P3GM_ALLOC_TRACKING is ON).
  Reply HandleProfileHeap(Connection* conn, const HttpRequest& req);
  Reply HandleReload(Connection* conn, const HttpRequest& req);
  /// The one profile worker, shared by /v1/profile and
  /// --profile-on-slow. Claims the single profile slot and starts the
  /// CPU profiler at `hz`; a worker thread then waits `seconds` (cut
  /// short by Stop), stops the profiler, frees the slot and hands the
  /// capture to `done`. AlreadyExists when a profile is running, else
  /// the profiler's Start error; neither failure spawns a thread.
  util::Status StartProfile(
      int hz, std::uint64_t seconds,
      std::function<void(util::Result<obs::profile::CpuProfile>)> done);
  /// Fire-and-forget burst capture for --profile-on-slow; skipped
  /// (counted) when a profile is already running.
  void MaybeStartSlowProfile();
  void Respond(Connection* conn, HttpResponse response);
  void UpdateInterest(Connection* conn);
  void CloseConnection(int fd);
  /// Marks `conn` as waiting for the completion of `ticket`.
  void Park(Connection* conn, std::uint64_t ticket);
  /// Thread-safe: queues the completion of `ticket` and wakes the loop.
  void Complete(std::uint64_t ticket,
                std::function<HttpResponse(const Connection&)> respond);
  void DrainCompletions();
  HttpResponse ReloadNow();
  /// Runs a quality scrape and logs the threshold-breach WARNs. Must be
  /// called inside the scraping request's obs::RequestScope so the WARN
  /// records carry its trace id.
  std::vector<QualityModelReport> ScrapeQuality();

  const ServerOptions options_;
  ModelRegistry registry_;
  QualitySet quality_;
  SampleCache cache_;
  std::unique_ptr<Batcher> batcher_;
  std::unique_ptr<Poller> poller_;

  int listen_fd_ = -1;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  int bound_port_ = 0;

  std::map<int, std::unique_ptr<Connection>> connections_;  // By fd.
  std::map<std::uint64_t, int> ticket_to_fd_;
  std::uint64_t next_ticket_ = 1;
  std::uint64_t next_stream_index_ = 0;

  std::mutex completions_mutex_;
  std::vector<Completion> completions_;

  // One profile at a time, process-wide: profile_busy_ is the admission
  // gate (exchange true = claimed); the single worker-thread slot is
  // joined before reuse and again at Stop.
  std::thread profile_thread_;
  std::atomic<bool> profile_busy_{false};

  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> reload_requested_{false};
  std::atomic<bool> running_{false};
  bool initialized_ = false;
  std::mutex lifecycle_mutex_;  // Serializes Start/Stop.
  std::thread loop_thread_;
};

}  // namespace serve
}  // namespace p3gm

#endif  // P3GM_SERVE_SERVER_H_
