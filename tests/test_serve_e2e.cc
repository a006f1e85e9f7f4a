// End-to-end tests for the `p3gm serve` daemon: a real Server on an
// ephemeral port exercised through the in-repo blocking HttpClient over
// TCP. Covers the full surface — health, model listing, sample shape,
// caching, hot-reload (including a malformed package on disk), overload,
// error mapping — plus lifecycle hygiene: clean shutdown must not leak a
// single file descriptor, and a poller that cannot be created fails
// Start.

#include <string>
#include <vector>

#include <sys/resource.h>

#include "gtest/gtest.h"
#include "obs/json.h"
#include "obs/observability.h"
#include "obs/registry.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve_test_util.h"

namespace p3gm {
namespace serve {
namespace {

using serve_test::MakePackage;
using serve_test::TempDir;

class ServeE2eTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::SetEnabled(true);
    obs::Registry::Global().Reset();
    pkg_path_ = dir_.WritePackage(MakePackage("alpha"), "alpha");
    beta_path_ = dir_.WritePackage(MakePackage("beta", /*variant=*/1),
                                   "beta");
  }

  // Starts a server on an ephemeral port and connects a client.
  void StartServer(ServerOptions options,
                   std::vector<std::string> packages) {
    options.port = 0;
    server_ = std::make_unique<Server>(options);
    ASSERT_TRUE(server_->Init(packages).ok());
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_GT(server_->port(), 0);
    ASSERT_TRUE(client_.Connect("127.0.0.1", server_->port()).ok());
  }

  // Parses a JSON body or fails the test.
  obs::json::Value ParseJson(const std::string& body) {
    obs::json::Value value;
    std::string error;
    EXPECT_TRUE(obs::json::Parse(body, &value, &error))
        << error << " in: " << body;
    return value;
  }

  TempDir dir_;
  std::string pkg_path_;
  std::string beta_path_;
  std::unique_ptr<Server> server_;
  HttpClient client_;
};

TEST_F(ServeE2eTest, HealthzReportsModels) {
  StartServer(ServerOptions(), {pkg_path_, beta_path_});
  auto response = client_.Get("/healthz");
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->status, 200);
  obs::json::Value body = ParseJson(response->body);
  EXPECT_EQ(body.Find("status")->string_value, "ok");
  EXPECT_EQ(body.Find("models")->number_value, 2.0);
}

TEST_F(ServeE2eTest, ModelsListsLoadedPackages) {
  StartServer(ServerOptions(), {pkg_path_, beta_path_});
  auto response = client_.Get("/v1/models");
  ASSERT_TRUE(response.ok()) << response.status();
  ASSERT_EQ(response->status, 200);
  obs::json::Value body = ParseJson(response->body);
  const obs::json::Value* models = body.Find("models");
  ASSERT_NE(models, nullptr);
  ASSERT_EQ(models->items.size(), 2u);
  // Registry order is the map order (sorted by name).
  EXPECT_EQ(models->items[0].Find("name")->string_value, "alpha");
  EXPECT_EQ(models->items[0].Find("latent_dim")->number_value, 3.0);
  EXPECT_EQ(models->items[0].Find("feature_dim")->number_value, 4.0);
  EXPECT_EQ(models->items[0].Find("num_classes")->number_value, 2.0);
  EXPECT_EQ(models->items[1].Find("name")->string_value, "beta");
}

TEST_F(ServeE2eTest, SampleReturnsRequestedShape) {
  StartServer(ServerOptions(), {pkg_path_});
  auto response = client_.Post("/v1/sample",
                               "{\"model\": \"alpha\", \"n\": 7}");
  ASSERT_TRUE(response.ok()) << response.status();
  ASSERT_EQ(response->status, 200);
  obs::json::Value body = ParseJson(response->body);
  EXPECT_EQ(body.Find("model")->string_value, "alpha");
  EXPECT_EQ(body.Find("n")->number_value, 7.0);
  EXPECT_EQ(body.Find("dim")->number_value, 4.0);
  EXPECT_EQ(body.Find("cached")->bool_value, false);
  const obs::json::Value* rows = body.Find("rows");
  ASSERT_NE(rows, nullptr);
  ASSERT_EQ(rows->items.size(), 7u);
  for (const obs::json::Value& row : rows->items) {
    ASSERT_EQ(row.items.size(), 4u);
    for (const obs::json::Value& cell : row.items) {
      // Bernoulli decoder output is a probability.
      EXPECT_GE(cell.number_value, 0.0);
      EXPECT_LE(cell.number_value, 1.0);
    }
  }
  const obs::json::Value* labels = body.Find("labels");
  ASSERT_NE(labels, nullptr);
  ASSERT_EQ(labels->items.size(), 7u);
  for (const obs::json::Value& label : labels->items) {
    EXPECT_TRUE(label.number_value == 0.0 || label.number_value == 1.0);
  }
}

TEST_F(ServeE2eTest, KeepAliveServesSequentialRequests) {
  StartServer(ServerOptions(), {pkg_path_});
  for (int i = 1; i <= 5; ++i) {
    auto response = client_.Post(
        "/v1/sample",
        "{\"model\": \"alpha\", \"n\": " + std::to_string(i) + "}");
    ASSERT_TRUE(response.ok()) << response.status();
    ASSERT_EQ(response->status, 200);
    obs::json::Value body = ParseJson(response->body);
    EXPECT_EQ(body.Find("n")->number_value, static_cast<double>(i));
  }
}

TEST_F(ServeE2eTest, ErrorMapping) {
  StartServer(ServerOptions(), {pkg_path_});
  struct Case {
    std::string method, target, body;
    int want;
  } cases[] = {
      {"POST", "/v1/sample", "{\"model\": \"ghost\", \"n\": 3}", 404},
      {"POST", "/v1/sample", "not json at all", 400},
      {"POST", "/v1/sample", "{\"model\": \"alpha\", \"n\": 0}", 400},
      {"POST", "/v1/sample", "{\"model\": \"alpha\", \"n\": -2}", 400},
      {"POST", "/v1/sample", "{\"model\": \"alpha\"}", 400},
      {"POST", "/v1/sample", "{\"model\": \"alpha\", \"n\": 999999999}",
       400},
      {"GET", "/nope", "", 404},
      {"POST", "/v1/nope", "{}", 404},
      // Routing is by (method, path): a known path under the other
      // known method is an unknown endpoint, not a 405.
      {"GET", "/v1/sample", "", 404},
      {"POST", "/healthz", "", 404},
      {"DELETE", "/v1/sample", "", 405},
      {"PUT", "/nope", "", 405},
  };
  for (const Case& c : cases) {
    auto response = client_.Request(c.method, c.target, c.body);
    ASSERT_TRUE(response.ok())
        << c.method << " " << c.target << ": " << response.status();
    EXPECT_EQ(response->status, c.want) << c.method << " " << c.target;
    if (c.want == 405) {
      const std::string* allow = response->FindHeader("Allow");
      ASSERT_NE(allow, nullptr) << c.method << " " << c.target;
      EXPECT_EQ(*allow, "GET, POST");
    }
    // Every error body is a JSON object with an "error" key.
    if (response->status >= 400) {
      obs::json::Value body = ParseJson(response->body);
      EXPECT_NE(body.Find("error"), nullptr);
    }
  }
}

TEST_F(ServeE2eTest, MalformedHttpGets400AndClose) {
  StartServer(ServerOptions(), {pkg_path_});
  auto response = client_.Raw("GET /  HTTP/1.1\r\n\r\n");
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->status, 400);
  const std::string* connection = response->FindHeader("Connection");
  ASSERT_NE(connection, nullptr);
  EXPECT_EQ(*connection, "close");
}

TEST_F(ServeE2eTest, OverloadAnswers503WithRetryAfter) {
  ServerOptions options;
  options.queue_limit = 0;  // Every sample job overflows immediately.
  StartServer(options, {pkg_path_});
  auto response = client_.Post("/v1/sample",
                               "{\"model\": \"alpha\", \"n\": 2}");
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->status, 503);
  const std::string* retry = response->FindHeader("Retry-After");
  ASSERT_NE(retry, nullptr);
  EXPECT_EQ(*retry, "1");
  // The connection stays usable: overload is per-request, not fatal.
  auto health = client_.Get("/healthz");
  ASSERT_TRUE(health.ok()) << health.status();
  EXPECT_EQ(health->status, 200);
}

TEST_F(ServeE2eTest, CacheServesRepeatRequests) {
  ServerOptions options;
  options.cache_entries = 8;
  StartServer(options, {pkg_path_});
  const std::string body = "{\"model\": \"alpha\", \"n\": 4}";
  auto first = client_.Post("/v1/sample", body);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_EQ(first->status, 200);
  EXPECT_EQ(ParseJson(first->body).Find("cached")->bool_value, false);
  auto second = client_.Post("/v1/sample", body);
  ASSERT_TRUE(second.ok()) << second.status();
  ASSERT_EQ(second->status, 200);
  obs::json::Value parsed = ParseJson(second->body);
  EXPECT_EQ(parsed.Find("cached")->bool_value, true);
  ASSERT_EQ(parsed.Find("rows")->items.size(), 4u);
  // "fresh": true bypasses the cache.
  auto fresh = client_.Post(
      "/v1/sample", "{\"model\": \"alpha\", \"n\": 4, \"fresh\": true}");
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  EXPECT_EQ(ParseJson(fresh->body).Find("cached")->bool_value, false);
  // Seeded requests never come from the cache.
  auto seeded = client_.Post(
      "/v1/sample", "{\"model\": \"alpha\", \"n\": 4, \"seed\": 9}");
  ASSERT_TRUE(seeded.ok()) << seeded.status();
  EXPECT_EQ(ParseJson(seeded->body).Find("cached")->bool_value, false);
}

TEST_F(ServeE2eTest, ReloadBumpsGenerationAndInvalidatesCache) {
  ServerOptions options;
  options.cache_entries = 8;
  StartServer(options, {pkg_path_});
  const std::string body = "{\"model\": \"alpha\", \"n\": 3}";
  ASSERT_TRUE(client_.Post("/v1/sample", body).ok());  // Warm the cache.
  auto warm = client_.Post("/v1/sample", body);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(ParseJson(warm->body).Find("cached")->bool_value, true);

  auto reload = client_.Post("/v1/reload", "");
  ASSERT_TRUE(reload.ok()) << reload.status();
  ASSERT_EQ(reload->status, 200);
  obs::json::Value parsed = ParseJson(reload->body);
  EXPECT_EQ(parsed.Find("generation")->number_value, 2.0);

  // Generation changed -> old cache entries unreachable.
  auto after = client_.Post("/v1/sample", body);
  ASSERT_TRUE(after.ok());
  obs::json::Value after_parsed = ParseJson(after->body);
  EXPECT_EQ(after_parsed.Find("cached")->bool_value, false);
  EXPECT_EQ(after_parsed.Find("generation")->number_value, 2.0);
}

TEST_F(ServeE2eTest, RequestReloadApiMatchesEndpoint) {
  StartServer(ServerOptions(), {pkg_path_});
  EXPECT_EQ(server_->registry().generation(), 1u);
  server_->RequestReload();  // What the SIGHUP handler calls.
  // The loop picks the flag up within its poll timeout; the next
  // response is ordered after the reload only eventually, so poll.
  for (int i = 0; i < 100 && server_->registry().generation() < 2; ++i) {
    auto health = client_.Get("/healthz");
    ASSERT_TRUE(health.ok());
  }
  EXPECT_EQ(server_->registry().generation(), 2u);
}

TEST_F(ServeE2eTest, MetricsEndpointExportsRegistry) {
  StartServer(ServerOptions(), {pkg_path_});
  ASSERT_TRUE(
      client_.Post("/v1/sample", "{\"model\": \"alpha\", \"n\": 2}").ok());
  auto response = client_.Get("/v1/metrics");
  ASSERT_TRUE(response.ok()) << response.status();
  ASSERT_EQ(response->status, 200);
  obs::json::Value body = ParseJson(response->body);
  const obs::json::Value* counters = body.Find("counters");
  ASSERT_NE(counters, nullptr);
#if P3GM_OBSERVABILITY_ENABLED
  const obs::json::Value* requests = counters->Find("serve.requests_total");
  ASSERT_NE(requests, nullptr);
  EXPECT_GE(requests->number_value, 2.0);
  const obs::json::Value* rows = counters->Find("serve.sample.rows");
  ASSERT_NE(rows, nullptr);
  EXPECT_GE(rows->number_value, 2.0);
#else
  // With the layer compiled out the endpoint still answers valid JSON;
  // counter values are not meaningful, so the object's presence is the
  // whole contract.
#endif
}

TEST_F(ServeE2eTest, ReloadOfMalformedPackageKeepsServing) {
  StartServer(ServerOptions(), {pkg_path_});
  // Replace the package on disk with one whose b1 is 1x5 against a
  // hidden width of 3: the reload must fail cleanly, not abort.
  serve_test::WriteHandmadePackage(pkg_path_, /*b1_cols=*/5);
  auto reload = client_.Post("/v1/reload", "");
  ASSERT_TRUE(reload.ok()) << reload.status();
  EXPECT_EQ(reload->status, 500);
  EXPECT_NE(ParseJson(reload->body).Find("error"), nullptr);
  // The previous generation keeps serving.
  auto sample = client_.Post("/v1/sample",
                             "{\"model\": \"alpha\", \"n\": 3}");
  ASSERT_TRUE(sample.ok()) << sample.status();
  ASSERT_EQ(sample->status, 200);
  obs::json::Value body = ParseJson(sample->body);
  EXPECT_EQ(body.Find("generation")->number_value, 1.0);
  EXPECT_EQ(body.Find("rows")->items.size(), 3u);
  EXPECT_EQ(server_->registry().generation(), 1u);
}

TEST_F(ServeE2eTest, StartFailsWhenEpollIsUnavailable) {
  Server server{ServerOptions()};
  ASSERT_TRUE(server.Init({pkg_path_}).ok());
  // With no descriptor left to allocate, epoll_create1 fails; Start must
  // report it instead of running a loop without a poller.
  struct rlimit saved;
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  struct rlimit none = saved;
  none.rlim_cur = 0;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &none), 0);
  const util::Status status = server.Start();
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);
  EXPECT_EQ(status.code(), util::StatusCode::kIoError) << status;
  EXPECT_FALSE(server.running());
}

TEST_F(ServeE2eTest, InitFailsOnMissingPackage) {
  Server server{ServerOptions()};
  const util::Status status =
      server.Init({dir_.path() + "/does_not_exist.release"});
  EXPECT_FALSE(status.ok());
  // The failing path must be identifiable from the message.
  EXPECT_NE(status.message().find("does_not_exist"), std::string::npos);
}

TEST_F(ServeE2eTest, InitFailsOnDuplicateServingName) {
  Server server{ServerOptions()};
  const util::Status status = server.Init({pkg_path_, pkg_path_});
  EXPECT_FALSE(status.ok());
}

TEST_F(ServeE2eTest, CleanShutdownLeaksNoFds) {
  const int before = serve_test::CountOpenFds();
  {
    ServerOptions options;
    options.port = 0;
    Server server(options);
    ASSERT_TRUE(server.Init({pkg_path_}).ok());
    ASSERT_TRUE(server.Start().ok());
    HttpClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
    ASSERT_TRUE(
        client.Post("/v1/sample", "{\"model\": \"alpha\", \"n\": 2}").ok());
    server.Stop();
  }
  const int after = serve_test::CountOpenFds();
  EXPECT_EQ(before, after);
}

TEST_F(ServeE2eTest, StopDrainsInFlightWork) {
  StartServer(ServerOptions(), {pkg_path_});
  // Fire a request and stop immediately; the queued job must still be
  // answered (graceful drain), not dropped.
  ASSERT_TRUE(client_.connected());
  auto response = client_.Post("/v1/sample",
                               "{\"model\": \"alpha\", \"n\": 50}");
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->status, 200);
  server_->Stop();
  EXPECT_FALSE(server_->running());
}

}  // namespace
}  // namespace serve
}  // namespace p3gm
