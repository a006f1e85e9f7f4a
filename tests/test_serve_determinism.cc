// Seed-determinism contract of POST /v1/sample (docs/serving.md):
// a request carrying an explicit "seed" returns rows that are a pure
// function of (package, seed, n) — bit-identical no matter how the
// request was batched, what else was in flight, or which server
// configuration handled it. The batcher achieves this by sampling each
// job's latents from its own Rng before the shared decoder pass, and
// the decoder computes every output row independently of its batch
// neighbours (see ReleasePackage::DecodeLatent).

#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "audit/golden.h"
#include "gtest/gtest.h"
#include "infer/kernels.h"
#include "obs/observability.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve_test_util.h"

namespace p3gm {
namespace serve {
namespace {

using serve_test::MakePackage;
using serve_test::TempDir;

class ServeDeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::SetEnabled(true);
    pkg_path_ = dir_.WritePackage(MakePackage("alpha"), "alpha");
  }

  std::unique_ptr<Server> StartServer(std::size_t max_batch) {
    ServerOptions options;
    options.port = 0;
    options.max_batch = max_batch;
    auto server = std::make_unique<Server>(options);
    P3GM_CHECK(server->Init({pkg_path_}).ok());
    P3GM_CHECK(server->Start().ok());
    return server;
  }

  static std::string SampleBody(std::uint64_t seed, int n) {
    return "{\"model\": \"alpha\", \"n\": " + std::to_string(n) +
           ", \"seed\": " + std::to_string(seed) + "}";
  }

  TempDir dir_;
  std::string pkg_path_;
};

TEST_F(ServeDeterminismTest, RepeatedSeededRequestsAreBitIdentical) {
  auto server = StartServer(/*max_batch=*/8);
  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());
  auto first = client.Post("/v1/sample", SampleBody(42, 10));
  auto second = client.Post("/v1/sample", SampleBody(42, 10));
  ASSERT_TRUE(first.ok() && second.ok());
  ASSERT_EQ(first->status, 200);
  // Byte-for-byte equality of the serialized body (%.17g round-trips
  // doubles exactly, so equal bytes == equal values).
  EXPECT_EQ(first->body, second->body);
}

TEST_F(ServeDeterminismTest, SeededResultIndependentOfBatchingConfig) {
  auto unbatched = StartServer(/*max_batch=*/1);
  auto batched = StartServer(/*max_batch=*/8);
  HttpClient client_a, client_b;
  ASSERT_TRUE(client_a.Connect("127.0.0.1", unbatched->port()).ok());
  ASSERT_TRUE(client_b.Connect("127.0.0.1", batched->port()).ok());
  for (const std::uint64_t seed : {1ull, 7ull, 1234567ull}) {
    auto a = client_a.Post("/v1/sample", SampleBody(seed, 16));
    auto b = client_b.Post("/v1/sample", SampleBody(seed, 16));
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_EQ(a->status, 200);
    ASSERT_EQ(b->status, 200);
    EXPECT_EQ(a->body, b->body) << "seed " << seed;
  }
}

TEST_F(ServeDeterminismTest, SeededResultIndependentOfCoalescing) {
  // Reference answers, taken one at a time (each request is its own
  // batch of one).
  auto server = StartServer(/*max_batch=*/8);
  const int kClients = 8;
  std::vector<std::string> reference(kClients);
  {
    HttpClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());
    for (int i = 0; i < kClients; ++i) {
      auto response =
          client.Post("/v1/sample", SampleBody(1000 + i, 5 + i));
      ASSERT_TRUE(response.ok());
      ASSERT_EQ(response->status, 200);
      reference[i] = response->body;
    }
  }
  // The same requests fired concurrently, so the batcher coalesces an
  // arbitrary subset of them into shared decoder passes.
  for (int round = 0; round < 5; ++round) {
    std::vector<std::string> concurrent(kClients);
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (int i = 0; i < kClients; ++i) {
      threads.emplace_back([&, i] {
        HttpClient client;
        if (!client.Connect("127.0.0.1", server->port()).ok()) return;
        auto response =
            client.Post("/v1/sample", SampleBody(1000 + i, 5 + i));
        if (response.ok() && response->status == 200) {
          concurrent[i] = response->body;
        }
      });
    }
    for (std::thread& t : threads) t.join();
    for (int i = 0; i < kClients; ++i) {
      EXPECT_EQ(concurrent[i], reference[i])
          << "round " << round << " client " << i;
    }
  }
}

TEST_F(ServeDeterminismTest, DistinctSeedsDiffer) {
  auto server = StartServer(/*max_batch=*/8);
  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());
  auto a = client.Post("/v1/sample", SampleBody(1, 10));
  auto b = client.Post("/v1/sample", SampleBody(2, 10));
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(a->body, b->body);
}

TEST_F(ServeDeterminismTest, UnseededRequestsVary) {
  // Without a seed, consecutive requests draw from distinct counter
  // streams and must not repeat.
  auto server = StartServer(/*max_batch=*/8);
  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());
  auto a = client.Post("/v1/sample", "{\"model\": \"alpha\", \"n\": 10}");
  auto b = client.Post("/v1/sample", "{\"model\": \"alpha\", \"n\": 10}");
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->status, 200);
  ASSERT_EQ(b->status, 200);
  EXPECT_NE(a->body, b->body);
}

TEST_F(ServeDeterminismTest, SeededBodyMatchesCheckedInGolden) {
  // The other tests here compare responses of one build with each other;
  // this one pins the wire bytes across commits. The fixture holds the
  // body of this exact request, captured once from the encoder that
  // formatted each value with snprintf("%.17g"), and is never
  // regenerated: a change to digits, notation, separators or field
  // order fails here.
  auto server = StartServer(/*max_batch=*/8);
  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());
  auto response = client.Post("/v1/sample", SampleBody(42, 16));
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->status, 200);
  std::ifstream in(
      std::string(P3GM_GOLDEN_DIR) + "/sample_response_small.json",
      std::ios::binary);
  ASSERT_TRUE(in.good());
  std::stringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(response->body, golden.str());
}

TEST_F(ServeDeterminismTest, GoldenDecodeFixtureMatchesBothRuntimes) {
  // The checked-in fixture pins fixed-seed synthesis bytes; the decoder
  // plan must reproduce it exactly on both kernel tiers — the one this
  // host dispatches to and the forced scalar tier (identical on hosts
  // without AVX2).
  const std::string path =
      std::string(P3GM_GOLDEN_DIR) + "/decode_small.golden";
  const audit::GoldenCompareResult native = audit::CompareGoldenDecode(path);
  EXPECT_TRUE(native.ok) << native.message;

  ::setenv("P3GM_INFER_FORCE_SCALAR", "1", 1);
  EXPECT_EQ(infer::ActiveTier(), infer::KernelTier::kScalar);
  const audit::GoldenCompareResult scalar = audit::CompareGoldenDecode(path);
  ::unsetenv("P3GM_INFER_FORCE_SCALAR");
  EXPECT_TRUE(scalar.ok) << scalar.message;
}

}  // namespace
}  // namespace serve
}  // namespace p3gm
