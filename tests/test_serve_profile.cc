// End-to-end tests for the serving-path profiling surface: GET
// /v1/profile under concurrent sample load (the acceptance scenario —
// folded stacks with identifiable decoder/serve frames), the 503
// single-profiler admission gate, parameter validation, GET
// /v1/profile/heap, the p3gm_process_* gauges on /v1/metrics, and the
// --profile-on-slow bursts. The `threads` label runs this suite under
// TSan, which is the signal-handler-vs-event-loop race audit.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <dirent.h>
#include <unistd.h>

#include "gtest/gtest.h"
#include "obs/observability.h"
#include "obs/perf/alloc.h"
#include "obs/registry.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve_test_util.h"
#include "util/logging.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define P3GM_UNDER_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define P3GM_UNDER_SANITIZER 1
#endif
#endif
#ifndef P3GM_UNDER_SANITIZER
#define P3GM_UNDER_SANITIZER 0
#endif

namespace p3gm {
namespace serve {
namespace {

using serve_test::MakePackage;
using serve_test::TempDir;

// Starts a server over one freshly written package and returns it
// ready to accept connections.
class ServeProfileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::SetEnabled(true);
    obs::Registry::Global().Reset();
    path_ = dir_.WritePackage(MakePackage("alpha"), "alpha");
    ServerOptions options;
    options.port = 0;
    options.max_batch = 8;
    server_ = std::make_unique<Server>(options);
    ASSERT_TRUE(server_->Init({path_}).ok());
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override {
    if (server_) server_->Stop();
  }

  TempDir dir_;
  std::string path_;
  std::unique_ptr<Server> server_;
};

// Checks that `text` parses as folded-stack lines ("a;b;c 12\n"),
// returning the number of lines.
int CountFoldedLines(const std::string& text) {
  std::istringstream lines(text);
  std::string line;
  int parsed = 0;
  while (std::getline(lines, line)) {
    EXPECT_FALSE(line.empty());
    const std::size_t space = line.rfind(' ');
    EXPECT_NE(space, std::string::npos) << line;
    if (space == std::string::npos) continue;
    for (const char c : line.substr(space + 1)) {
      EXPECT_TRUE(c >= '0' && c <= '9') << line;
    }
    ++parsed;
  }
  return parsed;
}

TEST_F(ServeProfileTest, ProfileUnderLoadCapturesServePath) {
  // 8 clients hammer /v1/sample for the whole profiling window so the
  // event loop / batcher / decoder are what SIGPROF lands on.
  std::atomic<bool> stop{false};
  std::atomic<int> ok_responses{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 8; ++c) {
    clients.emplace_back([&, c] {
      HttpClient client;
      if (!client.Connect("127.0.0.1", server_->port()).ok()) return;
      int r = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const int n = 1 + (c + r++) % 16;
        auto response = client.Post(
            "/v1/sample",
            "{\"model\": \"alpha\", \"n\": " + std::to_string(n) +
                ", \"fresh\": true}");
        if (!response.ok()) {
          if (!client.Connect("127.0.0.1", server_->port()).ok()) return;
          continue;
        }
        if (response->status == 200) ok_responses.fetch_add(1);
      }
    });
  }

  HttpClient profiler_client;
  ASSERT_TRUE(
      profiler_client.Connect("127.0.0.1", server_->port()).ok());
  auto response =
      profiler_client.Get("/v1/profile?seconds=1&hz=499");
  stop.store(true);
  for (std::thread& t : clients) t.join();

  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_EQ(response->status, 200) << response->body;
  const std::string* content_type = response->FindHeader("Content-Type");
  ASSERT_NE(content_type, nullptr);
  EXPECT_NE(content_type->find("text/plain"), std::string::npos);
  const std::string* samples = response->FindHeader("X-Profile-Samples");
  ASSERT_NE(samples, nullptr);
  EXPECT_GT(std::stoull(*samples), 0u);
  ASSERT_NE(response->FindHeader("X-Profile-Hz"), nullptr);
  EXPECT_EQ(*response->FindHeader("X-Profile-Hz"), "499");
  EXPECT_GT(CountFoldedLines(response->body), 0);
  EXPECT_GT(ok_responses.load(), 0);

#if !P3GM_UNDER_SANITIZER
  // The acceptance criterion: serving-path frames are identifiable by
  // name in the folded output. With one second of saturated decode
  // traffic, decoder execution and the serve dispatch path dominate.
  const bool has_serve_frame =
      response->body.find("p3gm::serve::") != std::string::npos ||
      response->body.find("p3gm::infer::") != std::string::npos ||
      response->body.find("p3gm::nn::") != std::string::npos ||
      response->body.find("p3gm::linalg::") != std::string::npos;
  EXPECT_TRUE(has_serve_frame) << response->body;
#endif
}

TEST_F(ServeProfileTest, ConcurrentProfileIsRejectedBusy) {
  HttpClient first;
  ASSERT_TRUE(first.Connect("127.0.0.1", server_->port()).ok());
  std::thread long_profile([&] {
    auto response = first.Get("/v1/profile?seconds=2&hz=99");
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->status, 200) << response->body;
  });
  // Give the first request time to reach the admission gate.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  HttpClient second;
  ASSERT_TRUE(second.Connect("127.0.0.1", server_->port()).ok());
  auto busy = second.Get("/v1/profile?seconds=1");
  ASSERT_TRUE(busy.ok());
  EXPECT_EQ(busy->status, 503) << busy->body;
  ASSERT_NE(busy->FindHeader("Retry-After"), nullptr);

  long_profile.join();
}

TEST_F(ServeProfileTest, RejectsBadParameters) {
  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  for (const char* target :
       {"/v1/profile?seconds=0", "/v1/profile?seconds=61",
        "/v1/profile?seconds=abc", "/v1/profile?hz=0",
        "/v1/profile?hz=1001", "/v1/profile?hz=fast"}) {
    auto response = client.Get(target);
    ASSERT_TRUE(response.ok()) << target;
    EXPECT_EQ(response->status, 400) << target << ": " << response->body;
  }
  // Rejections must not leave the admission gate stuck busy.
  auto good = client.Get("/v1/profile?seconds=1&hz=99");
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good->status, 200) << good->body;
}

TEST_F(ServeProfileTest, HeapProfileEndpoint) {
  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  // Allocate through the decoder first so the heap table has entries.
  auto warm = client.Post("/v1/sample",
                          "{\"model\": \"alpha\", \"n\": 16}");
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->status, 200);

  auto response = client.Get("/v1/profile/heap");
  ASSERT_TRUE(response.ok());
  if (!obs::perf::AllocTrackingCompiledIn()) {
    EXPECT_EQ(response->status, 501) << response->body;
    return;
  }
  // Server::Start auto-starts the heap profiler in tracking builds.
  ASSERT_EQ(response->status, 200) << response->body;
  ASSERT_NE(response->FindHeader("X-Profile-Stride-Bytes"), nullptr);
  CountFoldedLines(response->body);
}

TEST_F(ServeProfileTest, MetricsExposeProcessGauges) {
  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  auto response = client.Get("/v1/metrics?format=prometheus");
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->status, 200);
  for (const char* name :
       {"p3gm_process_resident_memory_bytes",
        "p3gm_process_virtual_memory_bytes", "p3gm_process_open_fds",
        "p3gm_process_cpu_seconds_total",
        "p3gm_process_start_time_seconds", "p3gm_process_threads"}) {
    EXPECT_NE(response->body.find(name), std::string::npos) << name;
  }
  if (obs::perf::AllocTrackingCompiledIn()) {
    EXPECT_NE(response->body.find("p3gm_alloc_live_bytes"),
              std::string::npos);
    EXPECT_NE(response->body.find("p3gm_alloc_alloc_count"),
              std::string::npos);
  }
}

// Alloc-tracker balance across a sampled window: the CPU profiler's
// handler allocates nothing, so the live-bytes delta over a
// request-quiet sampling window is zero. (Trivially true when tracking
// is compiled out; the tracking CI leg gives it teeth.)
TEST_F(ServeProfileTest, SamplingLeavesAllocCountersBalanced) {
  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  auto first = client.Get("/v1/profile?seconds=1&hz=499");
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->status, 200);

  // Second window with no traffic at all: the server is idle in epoll,
  // only SIGPROF fires. Allocation before/after must balance to zero
  // live delta from the handler itself (response assembly allocates,
  // so measure on the server side via a quiet window and the tracker's
  // own invariant instead of exact equality).
  const obs::perf::AllocStats before = obs::perf::CurrentAllocStats();
  auto second = client.Get("/v1/profile?seconds=1&hz=499");
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(second->status, 200);
  const obs::perf::AllocStats after = obs::perf::CurrentAllocStats();
  // The tracker never goes inconsistent under signal load.
  EXPECT_GE(after.alloc_count, before.alloc_count);
  EXPECT_GE(after.bytes_allocated, before.bytes_allocated);
  EXPECT_LE(after.live_bytes, after.peak_live_bytes);
}

// --profile-on-slow: a server whose every request is "slow" (1 ms),
// writing bursts into `burst_dir`. One large sample request triggers
// exactly one burst; Stop cuts the burst short and joins its worker, so
// the burst's outcome is final once RunSlowRequest returns. Returns the
// request's X-Request-Id.
std::string RunSlowRequest(const std::string& burst_dir) {
  obs::SetEnabled(true);
  obs::Registry::Global().Reset();
  TempDir dir;
  const std::string path = dir.WritePackage(MakePackage("alpha"), "alpha");
  ServerOptions options;
  options.port = 0;
  options.slow_request_ms = 1;
  options.profile_on_slow_dir = burst_dir;
  Server server(options);
  EXPECT_TRUE(server.Init({path}).ok());
  EXPECT_TRUE(server.Start().ok());
  HttpClient client;
  EXPECT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  // 50k fresh rows serialized to JSON take well over a millisecond.
  auto response = client.Post(
      "/v1/sample", "{\"model\": \"alpha\", \"n\": 50000, \"fresh\": true}");
  server.Stop();
  if (!response.ok() || response->status != 200 ||
      response->FindHeader("X-Request-Id") == nullptr) {
    ADD_FAILURE() << "slow request failed";
    return "";
  }
  return *response->FindHeader("X-Request-Id");
}

std::vector<std::string> ListDir(const std::string& path) {
  std::vector<std::string> names;
  if (DIR* d = ::opendir(path.c_str())) {
    while (const struct dirent* e = ::readdir(d)) {
      const std::string name = e->d_name;
      if (name != "." && name != "..") names.push_back(name);
    }
    ::closedir(d);
  }
  return names;
}

TEST(ServeSlowProfileTest, SlowRequestWritesOneBurst) {
  TempDir bursts;
  const std::string id = RunSlowRequest(bursts.path());
  ASSERT_EQ(id.size(), 32u);
  const std::vector<std::string> files = ListDir(bursts.path());
  for (const std::string& f : files) {
    ::unlink((bursts.path() + "/" + f).c_str());
  }
  ASSERT_EQ(files.size(), 1u);
  EXPECT_EQ(files[0], "slow-" + id + ".folded");
#if P3GM_OBSERVABILITY_ENABLED
  EXPECT_EQ(obs::Registry::Global()
                .counter("serve.profile.slow_bursts")
                ->value(),
            1u);
#endif
}

TEST(ServeSlowProfileTest, UnwritableBurstLogsWarning) {
  std::mutex mutex;
  std::vector<std::pair<util::LogLevel, std::string>> records;
  util::SetLogSinkForTest(
      [&](util::LogLevel level, const std::string& record) {
        if (record.find("profile burst") == std::string::npos) return;
        std::lock_guard<std::mutex> lock(mutex);
        records.emplace_back(level, record);
      });
  TempDir bursts;
  const std::string missing = bursts.path() + "/missing";
  RunSlowRequest(missing);
  util::SetLogSinkForTest(nullptr);

  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].first, util::LogLevel::kWarning) << records[0].second;
  EXPECT_NE(records[0].second.find("could not be written"),
            std::string::npos)
      << records[0].second;
  EXPECT_NE(records[0].second.find(missing), std::string::npos)
      << records[0].second;
}

}  // namespace
}  // namespace serve
}  // namespace p3gm
