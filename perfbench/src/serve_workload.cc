// Serving workloads: an in-process serve::Server with its defaults (an
// ephemeral port aside), driven over loopback by one load-generator
// thread that multiplexes keep-alive connections in a closed loop.
// Traced runs add a replay of the request through each stage's public
// call and read the server's counters from the obs registry.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/release.h"
#include "obs/observability.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "serve/api.h"
#include "serve/http.h"
#include "serve/server.h"
#include "stats/gmm.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace p3gm {
namespace perfbench {

namespace {

constexpr std::size_t kConnections = 4;
// A request still unanswered this long after the window closes fails.
constexpr double kStragglerTimeoutS = 30.0;

struct ServeConfig {
  std::string model;
  std::size_t latent = 0;
  std::size_t hidden = 0;
  std::size_t features = 0;
  std::size_t classes = 0;
  std::size_t components = 0;
  std::size_t n = 0;  // Rows per request.
  // Client think time between a response and the next request, uniform
  // in [0, max_think_us). It keeps the event loop well below saturation:
  // near it, queueing makes the latency swing far more than the work per
  // request does whenever the host's speed drifts, and with no think time
  // the four clients lock into one batching phase for seconds at a time.
  double max_think_us = 0;
};

// serve_bulk: an MNIST-shaped package, 784 pixels plus a 10-class
// one-hot block, 16 rows per request. A mean think time of 200 ms keeps
// the event loop busy about a sixth of the time.
const ServeConfig kBulk = {"bulk", 10, 100, 784, 10, 5, 16, 400000};

// Fixed pseudo-random decoder and prior, a pure function of the seed.
util::Result<core::ReleasePackage> MakePackage(const ServeConfig& c,
                                               std::uint64_t seed) {
  util::Rng rng(seed ^ 0x5e7e5eedULL);
  const std::size_t out = c.features + c.classes;
  auto gaussian = [&rng](std::size_t rows, std::size_t cols, double scale) {
    linalg::Matrix m(rows, cols);
    for (std::size_t i = 0; i < m.size(); ++i) {
      m.data()[i] = scale * rng.Normal();
    }
    return m;
  };
  linalg::Matrix w1 = gaussian(c.latent, c.hidden,
                               1.0 / std::sqrt(static_cast<double>(c.latent)));
  linalg::Matrix b1 = gaussian(1, c.hidden, 0.1);
  linalg::Matrix w2 = gaussian(c.hidden, out,
                               1.0 / std::sqrt(static_cast<double>(c.hidden)));
  linalg::Matrix b2 = gaussian(1, out, 0.1);
  linalg::Matrix means = gaussian(c.components, c.latent, 1.0);
  linalg::Matrix variances(c.components, c.latent);
  for (std::size_t i = 0; i < variances.size(); ++i) {
    variances.data()[i] = 0.5 + 0.5 * rng.Uniform();
  }
  std::vector<double> weights(c.components,
                              1.0 / static_cast<double>(c.components));
  P3GM_ASSIGN_OR_RETURN(
      stats::GaussianMixture prior,
      stats::GaussianMixture::Create(weights, means, variances));
  return core::ReleasePackage::FromParts(
      c.model, c.classes, core::DecoderType::kBernoulli, std::move(prior),
      std::move(w1), std::move(b1), std::move(w2), std::move(b2));
}

std::string SampleBody(const ServeConfig& c, const std::string& seed_field) {
  return "{\"model\": \"" + c.model + "\", \"n\": " + std::to_string(c.n) +
         seed_field + "}";
}

std::string PostWire(const std::string& body) {
  return "POST /v1/sample HTTP/1.1\r\nHost: 127.0.0.1\r\n"
         "Content-Type: application/json\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

// Splits one complete HTTP response off the front of `in`. Returns
// false while it is incomplete; -1 status on a malformed head.
bool TakeResponse(std::string* in, int* status, std::string* body) {
  const std::size_t head_end = in->find("\r\n\r\n");
  if (head_end == std::string::npos) return false;
  *status = -1;
  if (in->compare(0, 9, "HTTP/1.1 ") == 0 && head_end >= 12) {
    *status = std::atoi(in->c_str() + 9);
  }
  std::size_t length = 0;
  std::size_t pos = in->find("\r\n") + 2;
  while (pos < head_end) {
    const std::size_t eol = in->find("\r\n", pos);
    const std::size_t colon = in->find(':', pos);
    if (colon < eol && strncasecmp(in->c_str() + pos, "content-length",
                                   colon - pos) == 0 &&
        colon - pos == 14) {
      length = std::strtoull(in->c_str() + colon + 1, nullptr, 10);
    }
    pos = eol + 2;
  }
  if (in->size() < head_end + 4 + length) return false;
  body->assign(*in, head_end + 4, length);
  in->erase(0, head_end + 4 + length);
  return true;
}

// One thread, kConnections non-blocking keep-alive connections, each in
// a closed loop: the next request goes out a think time after the
// previous response has fully arrived.
class LoadGenerator {
 public:
  using OnResponse =
      std::function<void(double latency_s, int status, const std::string&)>;

  ~LoadGenerator() { Close(); }

  util::Status Connect(int port) {
    for (std::size_t i = 0; i < kConnections; ++i) {
      const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd < 0) return util::Status::Internal("socket failed");
      conns_.emplace_back();
      conns_.back().fd = fd;
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(static_cast<std::uint16_t>(port));
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0) {
        return util::Status::Internal(std::string("connect: ") +
                                      std::strerror(errno));
      }
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
    }
    return util::Status::OK();
  }

  void Close() {
    for (Conn& c : conns_) ::close(c.fd);
    conns_.clear();
  }

  /// Runs the closed loop on the first `active` connections until
  /// `until_ns` (obs::NowNs), then waits for the requests in flight.
  /// Think times are uniform in [0, max_think_ns), drawn from `rng`;
  /// they also stagger the first sends. Returns the number of requests
  /// that never completed.
  std::size_t Run(const std::string& wire, std::uint64_t until_ns,
                  std::size_t active, std::uint64_t max_think_ns,
                  util::Rng* rng, const OnResponse& on_response,
                  bool traced) {
    auto think = [&] {
      return static_cast<std::uint64_t>(
          rng->Uniform(0.0, static_cast<double>(max_think_ns)));
    };
    const std::uint64_t start_ns = obs::NowNs();
    for (std::size_t i = 0; i < active; ++i) {
      conns_[i].send_at_ns = start_ns + think();
    }
    const std::uint64_t give_up_ns =
        until_ns + static_cast<std::uint64_t>(kStragglerTimeoutS * 1e9);
    std::vector<pollfd> fds(active);
    std::string body;
    char buf[1 << 16];
    std::size_t in_flight = 0;
    while (true) {
      std::uint64_t now = obs::NowNs();
      std::uint64_t next_send_ns = ~0ULL;
      in_flight = 0;
      for (std::size_t i = 0; i < active; ++i) {
        Conn& c = conns_[i];
        if (!c.busy && c.send_at_ns != 0 && c.send_at_ns <= now) {
          Send(&c, wire);
        }
        if (c.busy) ++in_flight;
        if (!c.busy && c.send_at_ns != 0) {
          next_send_ns = std::min(next_send_ns, c.send_at_ns);
        }
        fds[i] = {c.fd, static_cast<short>(c.busy ? POLLIN : 0), 0};
        if (c.busy && c.out_offset < wire.size()) fds[i].events |= POLLOUT;
      }
      if ((in_flight == 0 && next_send_ns == ~0ULL) || now > give_up_ns) {
        break;
      }
      const std::uint64_t wait_ns =
          next_send_ns == ~0ULL ? 1000000000ULL : next_send_ns - now;
      const timespec timeout = {static_cast<time_t>(wait_ns / 1000000000ULL),
                                static_cast<long>(wait_ns % 1000000000ULL)};
      if (::ppoll(fds.data(), fds.size(), &timeout, nullptr) < 0 &&
          errno != EINTR) {
        break;
      }
      for (std::size_t i = 0; i < active; ++i) {
        Conn& c = conns_[i];
        if (fds[i].revents & POLLOUT) Flush(&c, wire);
        if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
        const ssize_t got = ::read(c.fd, buf, sizeof(buf));
        if (got <= 0) {
          if (got < 0 && (errno == EAGAIN || errno == EINTR)) continue;
          return in_flight;  // Peer closed: the rest never completes.
        }
        c.in.append(buf, static_cast<std::size_t>(got));
        int status = 0;
        if (!TakeResponse(&c.in, &status, &body)) continue;
        now = obs::NowNs();
        if (traced) {
          obs::TraceRecorder::Global().Append("bench.client.request",
                                              c.sent_ns, now);
        }
        c.busy = false;
        c.send_at_ns = now < until_ns ? now + think() : 0;
        on_response(static_cast<double>(now - c.sent_ns) * 1e-9, status,
                    body);
      }
    }
    return in_flight;
  }

 private:
  struct Conn {
    int fd = -1;
    std::string in;
    std::size_t out_offset = 0;
    std::uint64_t sent_ns = 0;
    std::uint64_t send_at_ns = 0;  // Next send time; 0 = none planned.
    bool busy = false;
  };

  void Send(Conn* c, const std::string& wire) {
    c->busy = true;
    c->send_at_ns = 0;
    c->out_offset = 0;
    c->sent_ns = obs::NowNs();
    Flush(c, wire);
  }

  void Flush(Conn* c, const std::string& wire) {
    while (c->out_offset < wire.size()) {
      const ssize_t put = ::write(c->fd, wire.data() + c->out_offset,
                                  wire.size() - c->out_offset);
      if (put <= 0) return;  // EAGAIN: POLLOUT resumes it.
      c->out_offset += static_cast<std::size_t>(put);
    }
  }

  std::vector<Conn> conns_;
};

// Strict reader of the one JSON document shape /v1/sample answers
// with (docs/serving.md): keys in the server's order, no escapes in
// strings, numbers in JSON grammar. Far cheaper than a generic parse,
// which keeps the load generator's thread from competing with the
// server for cores on the bulk workload.
class SchemaScanner {
 public:
  explicit SchemaScanner(const std::string& text)
      : p_(text.data()), end_(text.data() + text.size()) {}

  bool Expect(char c) {
    SkipSpace();
    if (p_ == end_ || *p_ != c) return false;
    ++p_;
    return true;
  }
  bool Literal(const char* word) {
    SkipSpace();
    const std::size_t len = std::strlen(word);
    if (static_cast<std::size_t>(end_ - p_) < len ||
        std::memcmp(p_, word, len) != 0) {
      return false;
    }
    p_ += len;
    return true;
  }
  bool String(std::string* out = nullptr) {
    if (!Expect('"')) return false;
    const char* start = p_;
    while (p_ != end_ && *p_ != '"') {
      if (*p_ == '\\' || static_cast<unsigned char>(*p_) < 0x20) return false;
      ++p_;
    }
    if (p_ == end_) return false;
    if (out != nullptr) out->assign(start, p_);
    ++p_;
    return true;
  }
  bool Key(const char* name) {
    std::string key;
    return String(&key) && key == name && Expect(':');
  }
  // JSON number grammar: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
  bool Number(double* out) {
    SkipSpace();
    const char* start = p_;
    if (p_ != end_ && *p_ == '-') ++p_;
    if (p_ == end_ || !IsDigit(*p_)) return false;
    if (*p_ == '0') {
      ++p_;
    } else {
      while (p_ != end_ && IsDigit(*p_)) ++p_;
    }
    if (p_ != end_ && *p_ == '.') {
      ++p_;
      if (p_ == end_ || !IsDigit(*p_)) return false;
      while (p_ != end_ && IsDigit(*p_)) ++p_;
    }
    if (p_ != end_ && (*p_ == 'e' || *p_ == 'E')) {
      ++p_;
      if (p_ != end_ && (*p_ == '+' || *p_ == '-')) ++p_;
      if (p_ == end_ || !IsDigit(*p_)) return false;
      while (p_ != end_ && IsDigit(*p_)) ++p_;
    }
    return std::from_chars(start, p_, *out).ec == std::errc();
  }
  bool AtEnd() {
    SkipSpace();
    return p_ == end_;
  }

 private:
  static bool IsDigit(char c) { return c >= '0' && c <= '9'; }
  void SkipSpace() {
    while (p_ != end_ &&
           (*p_ == ' ' || *p_ == '\n' || *p_ == '\r' || *p_ == '\t')) {
      ++p_;
    }
  }

  const char* p_;
  const char* end_;
};

// A running server plus connected clients: what set-up produces.
struct Deployment {
  core::ReleasePackage package;
  std::unique_ptr<serve::Server> server;
  LoadGenerator clients;
  util::Rng think_rng{0};
  serve::ServerOptions options;
};

util::Result<std::unique_ptr<Deployment>> Deploy(const ServeConfig& c,
                                                 const RunArgs& args) {
  auto d = std::make_unique<Deployment>();
  P3GM_ASSIGN_OR_RETURN(d->package, MakePackage(c, args.seed));
  const std::string path = args.out_dir + "/" + c.model + ".release";
  P3GM_RETURN_NOT_OK(d->package.Save(path));
  d->options.seed = args.seed;  // Stream family of unseeded requests.
  d->think_rng = util::Rng(args.seed ^ 0x7417cULL);
  d->server = std::make_unique<serve::Server>(d->options);
  P3GM_RETURN_NOT_OK(d->server->Init({path}));
  P3GM_RETURN_NOT_OK(d->server->Start());
  P3GM_RETURN_NOT_OK(d->clients.Connect(d->server->port()));
  return d;
}

// The response a seeded request must produce, built offline from the
// package with the same stage calls the batcher makes.
util::Result<std::string> SeededReference(const core::ReleasePackage& pkg,
                                          const ServeConfig& c,
                                          std::uint64_t generation,
                                          std::uint64_t seed) {
  util::Rng rng(seed);
  P3GM_ASSIGN_OR_RETURN(linalg::Matrix decoded,
                        pkg.DecodeLatent(pkg.SampleLatent(c.n, &rng)));
  return serve::SampleResponseJson(c.model, generation, /*cached=*/false,
                                   pkg.AssembleRows(std::move(decoded)));
}

// A seeded answer must be the reference, byte for byte.
bool SeededMatch(int status, const std::string& body,
                 const std::string& reference) {
  return status == 200 && body == reference;
}

// Sends one seeded request and compares its body with the reference.
bool SeededProbeOk(Deployment* d, const ServeConfig& c, std::uint64_t seed) {
  auto reference = SeededReference(d->package, c,
                                   d->server->registry().generation(), seed);
  if (!reference.ok()) return false;
  const std::string wire =
      PostWire(SampleBody(c, ", \"seed\": " + std::to_string(seed)));
  int status = 0;
  std::string body;
  const std::size_t lost = d->clients.Run(
      wire, /*until_ns=*/obs::NowNs(), /*active=*/1, /*max_think_ns=*/0,
      &d->think_rng, [&](double, int s, const std::string& b) {
        status = s;
        body = b;
      },
      /*traced=*/false);
  return lost == 0 && SeededMatch(status, body, *reference);
}

// Latencies, failures and CPU of one closed-loop window.
struct Window {
  std::vector<double> latency_s;
  std::size_t ok = 0;
  std::size_t overload = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

Window RunWindow(Deployment* d, const ServeConfig& c, double seconds,
                 RunResult* result, bool traced) {
  const ResponseShape shape{c.n, c.features, c.classes};
  const std::string wire = PostWire(SampleBody(c, ""));
  Window w;
  const double cpu0 = ProcessCpuSeconds();
  const double t0 = NowSeconds();
  const std::size_t lost = d->clients.Run(
      wire, obs::NowNs() + static_cast<std::uint64_t>(seconds * 1e9),
      kConnections, static_cast<std::uint64_t>(c.max_think_us * 1e3),
      &d->think_rng, [&](double latency, int status, const std::string& body) {
        if (status == 503) ++w.overload;
        const bool ok = ValidSampleResponse(status, body, shape);
        result->Operation(ok);
        if (!ok) return;
        ++w.ok;
        w.latency_s.push_back(latency);
      },
      traced);
  w.wall_s = NowSeconds() - t0;
  w.cpu_s = ProcessCpuSeconds() - cpu0;
  for (std::size_t i = 0; i < lost; ++i) result->Operation(false);
  return w;
}

// Stage timings of one request replayed through the public calls the
// server chain makes: parse, validate, sample, decode, assemble, encode,
// serialize. Medians in microseconds.
struct StageReplay {
  std::vector<std::pair<const char*, double>> stage_us;
  double response_bytes = 0.0;
  double total_us = 0.0;
};

StageReplay ReplayStages(Deployment* d, const ServeConfig& c,
                         RunResult* result) {
  static const char* const kStages[] = {
      "bench.http.parse",   "bench.api.request",     "bench.release.latent",
      "bench.infer.decode", "bench.release.assemble", "bench.api.encode",
      "bench.http.serialize"};
  const core::ReleasePackage& pkg = d->package;
  const std::string wire = PostWire(SampleBody(c, ""));
  const std::uint64_t generation = d->server->registry().generation();
  linalg::Matrix decoded;
  StageReplay out;
  const double start = NowSeconds();
  std::size_t reps = 0;
  bool ok = true;
  while (ok && (reps < 50 || NowSeconds() - start < 1.0) && reps < 5000) {
    obs::TraceSpan request_span("bench.replay.request");
    serve::HttpParser parser;
    {
      obs::TraceSpan span("bench.http.parse");
      parser.Feed(wire);
    }
    ok = parser.done();
    util::Result<serve::SampleRequest> req =
        util::Status::Internal("unparsed");
    {
      obs::TraceSpan span("bench.api.request");
      req = serve::ParseSampleRequest(parser.request().body,
                                      d->options.max_n);
    }
    ok = ok && req.ok() && req->n == c.n;
    util::Rng rng = util::Rng::StreamAt(d->options.seed, reps);
    linalg::Matrix z;
    {
      obs::TraceSpan span("bench.release.latent");
      z = pkg.SampleLatent(c.n, &rng);
    }
    {
      obs::TraceSpan span("bench.infer.decode");
      ok = ok && pkg.DecodeLatentInto(z, &decoded).ok();
    }
    data::Dataset rows;
    {
      obs::TraceSpan span("bench.release.assemble");
      rows = pkg.AssembleRows(decoded);
    }
    std::string body;
    {
      obs::TraceSpan span("bench.api.encode");
      body = serve::SampleResponseJson(c.model, generation, false, rows);
    }
    std::string response_wire;
    {
      obs::TraceSpan span("bench.http.serialize");
      serve::HttpResponse response;
      response.body = std::move(body);
      // The server stamps every response with these two ids.
      response.extra_headers = {
          {"X-Request-Id", "0123456789abcdef0123456789abcdef"},
          {"traceparent",
           "00-0123456789abcdef0123456789abcdef-0123456789abcdef-01"}};
      response_wire = response.Serialize();
    }
    out.response_bytes = static_cast<double>(response_wire.size());
    ++reps;
  }
  if (!ok) result->Fail("stage replay failed to reproduce a request");
  const std::vector<obs::TraceRecorder::Event> events =
      obs::TraceRecorder::Global().Events();
  for (const char* stage : kStages) {
    const double us = Median(SpanSeconds(events, stage)) * 1e6;
    out.stage_us.emplace_back(stage, us);
    out.total_us += us;
  }
  return out;
}

double Counter(const obs::Snapshot& snapshot, const std::string& name) {
  for (const obs::CounterSample& s : snapshot.counters) {
    if (s.name == name) return static_cast<double>(s.value);
  }
  return 0.0;
}

void TracedRun(const RunArgs& args, const ServeConfig& c, Deployment* d,
               RunResult* result) {
  const double half = std::max(0.5, args.seconds / 2.0);
  RunWindow(d, c, std::min(1.0, 0.1 * args.seconds), result, false);
  const Window plain = RunWindow(d, c, half, result, false);

  obs::Registry::Global().Reset();
  obs::TraceRecorder::Global().Clear();
  obs::SetEnabled(true);
  const Window traced = RunWindow(d, c, half, result, true);
  const obs::Snapshot snapshot = obs::Registry::Global().TakeSnapshot();
  const StageReplay replay = ReplayStages(d, c, result);
  obs::SetEnabled(false);

  const double plain_p50_us = Median(plain.latency_s) * 1e6;
  for (const auto& [stage, us] : replay.stage_us) {
    result->Add(std::string(stage + 6) + "_us", us);  // Drops "bench.".
  }
  result->Add("api.response_bytes", replay.response_bytes);
  const double batches = Counter(snapshot, "serve.batches");
  result->Add("batcher.reqs_per_pass",
              batches > 0 ? Counter(snapshot, "serve.sample.requests") / batches
                          : 0.0);
  result->Add("serve.stages_us", replay.total_us);
  result->Add("serve.residual_us", plain_p50_us - replay.total_us);
  result->Add("serve.overload",
              static_cast<double>(plain.overload + traced.overload));
  result->Add("serve.cpu_us_per_req",
              plain.cpu_s / std::max<std::size_t>(1, plain.ok) * 1e6);
  result->Add("serve.p50_ms", plain_p50_us * 1e-3);
  result->Add("serve.p99_ms", Quantile(plain.latency_s, 0.99) * 1e3);
  result->Add("trace.overhead_ms",
              (Mean(traced.latency_s) - Mean(plain.latency_s)) * 1e3);
  std::fprintf(stderr,
               "perfbench: %s p50 %.1f us untraced, %.1f us traced; "
               "replayed stages %.1f us\n",
               args.workload.c_str(), plain_p50_us,
               Median(traced.latency_s) * 1e6, replay.total_us);
  obs::TraceRecorder::Global().WriteChromeJson(args.out_dir + "/" +
                                               args.workload + ".trace.json");
}

}  // namespace

bool IsServeWorkload(const std::string& name) {
  return name == "serve_bulk";
}

bool ValidSampleResponse(int status, const std::string& body,
                         const ResponseShape& shape) {
  if (status != 200) return false;
  SchemaScanner s(body);
  double n = 0, dim = 0, classes = 0, generation = 0;
  bool ok = s.Expect('{') && s.Key("model") && s.String() &&
            s.Expect(',') && s.Key("generation") && s.Number(&generation) &&
            s.Expect(',') && s.Key("n") && s.Number(&n) && s.Expect(',') &&
            s.Key("dim") && s.Number(&dim) && s.Expect(',') &&
            s.Key("num_classes") && s.Number(&classes) && s.Expect(',') &&
            s.Key("cached") && (s.Literal("false") || s.Literal("true")) &&
            s.Expect(',') && s.Key("rows") && s.Expect('[');
  ok = ok && n == static_cast<double>(shape.n) &&
       dim == static_cast<double>(shape.feature_dim) &&
       classes == static_cast<double>(shape.num_classes);
  for (std::size_t i = 0; ok && i < shape.n; ++i) {
    ok = (i == 0 || s.Expect(',')) && s.Expect('[');
    for (std::size_t j = 0; ok && j < shape.feature_dim; ++j) {
      double x = -1;
      ok = (j == 0 || s.Expect(',')) && s.Number(&x) && x >= 0.0 && x <= 1.0;
    }
    ok = ok && s.Expect(']');
  }
  ok = ok && s.Expect(']') && s.Expect(',') && s.Key("labels") &&
       s.Expect('[');
  for (std::size_t i = 0; ok && i < shape.n; ++i) {
    double label = -1;
    ok = (i == 0 || s.Expect(',')) && s.Number(&label) &&
         label == std::floor(label) && label >= 0 &&
         label < static_cast<double>(shape.num_classes);
  }
  return ok && s.Expect(']') && s.Expect('}') && s.AtEnd();
}

int ServeNegativeControls() {
  int missed = 0;
  const ServeConfig& c = kBulk;
  auto pkg = MakePackage(c, 7);
  if (!pkg.ok()) return 2;
  auto reference = SeededReference(*pkg, c, 1, 99);
  if (!reference.ok()) return 2;
  const ResponseShape shape{c.n, c.features, c.classes};
  // The reference itself is the positive control.
  if (!ValidSampleResponse(200, *reference, shape)) ++missed;
  // Wrong shape: the same answer checked against one more row.
  ResponseShape wrong = shape;
  ++wrong.n;
  RunResult counted;
  counted.Operation(ValidSampleResponse(200, *reference, wrong));
  // Corrupted seeded body: one digit changed must break byte equality.
  std::string corrupted = *reference;
  const std::size_t digit = corrupted.find_first_of("123456789",
                                                    corrupted.find("rows"));
  corrupted[digit] = corrupted[digit] == '9' ? '8' : '9';
  counted.Operation(SeededMatch(200, corrupted, *reference));
  // Both must have been counted as failed operations.
  if (counted.failed() != 2 || counted.correct()) ++missed;
  return missed;
}

void RunServeWorkload(const RunArgs& args, RunResult* result) {
  const ServeConfig& c = kBulk;
  util::SetNumThreads(2);

  // Set-up is package build and save, Init, Start and connecting; the
  // last deployment serves.
  std::vector<double> setup_s;
  std::unique_ptr<Deployment> d;
  const double setup_start = NowSeconds();
  while (WantAnotherSetup(setup_s.size(), NowSeconds() - setup_start,
                          args.trace)) {
    d.reset();
    const double t0 = NowSeconds();
    auto deployed = Deploy(c, args);
    setup_s.push_back(NowSeconds() - t0);
    if (!deployed.ok()) {
      result->Fail("set-up: " + deployed.status().ToString());
      result->Operation(false);
      return;
    }
    d = std::move(deployed).ValueOrDie();
  }

  result->Operation(SeededProbeOk(d.get(), c, args.seed * 31 + 7));

  if (args.trace) {
    TracedRun(args, c, d.get(), result);
  } else {
    // Warm-up (decoder arenas, sample buffers, connection state), then
    // the measured window.
    RunWindow(d.get(), c, std::min(1.0, 0.1 * args.seconds), result,
              false);
    const Window w = RunWindow(d.get(), c, args.seconds, result, false);
    std::fprintf(stderr, "perfbench: %s %zu requests measured, p50 %.3f ms\n",
                 args.workload.c_str(), w.ok, Median(w.latency_s) * 1e3);
    result->Add("setup_s", Median(setup_s));
    result->Add("mean_ms", Mean(w.latency_s) * 1e3);
    result->Add("p90_ms", Quantile(w.latency_s, 0.9) * 1e3);
    result->Add("ops_per_s", static_cast<double>(w.ok) / w.wall_s);
    result->Add("cpu_ms_per_op",
                w.cpu_s / std::max<std::size_t>(1, w.ok) * 1e3);
    result->Add("peak_rss_mb", PeakRssMb());
  }
  d->clients.Close();
  d->server->Stop();
}

}  // namespace perfbench
}  // namespace p3gm
