#include <string>

#include "gtest/gtest.h"
#include "audit/golden.h"
#include "util/thread_pool.h"

namespace p3gm {
namespace audit {
namespace {

#ifndef P3GM_GOLDEN_DIR
#error "P3GM_GOLDEN_DIR must point at the checked-in golden traces"
#endif

TEST(GoldenTraceTest, TraceHasExpectedShape) {
  const std::vector<std::string> lines = GoldenPgmTraceLines();
  // Header + 4 epochs + final + sample.
  ASSERT_EQ(lines.size(), 7u);
  EXPECT_EQ(lines[0], "# p3gm golden trace v1");
  for (std::size_t e = 0; e < 4; ++e) {
    EXPECT_EQ(lines[1 + e].rfind("epoch,", 0), 0u) << lines[1 + e];
  }
  EXPECT_EQ(lines[5].rfind("final,", 0), 0u) << lines[5];
  EXPECT_EQ(lines[6].rfind("sample,", 0), 0u) << lines[6];
}

TEST(GoldenTraceTest, TraceIsBitReproducible) {
  const std::vector<std::string> a = GoldenPgmTraceLines();
  const std::vector<std::string> b = GoldenPgmTraceLines();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(GoldenTraceTest, MatchesCheckedInGolden) {
  const GoldenCompareResult r =
      CompareGoldenTrace(std::string(P3GM_GOLDEN_DIR) + "/pgm_small.golden");
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(GoldenTraceTest, MismatchIsReportedWithRegenHint) {
  const GoldenCompareResult r = CompareGoldenTrace("/nonexistent/file");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.message.find("regen_golden"), std::string::npos);
}

TEST(DpPcaGoldenTest, FixtureHasExpectedShape) {
  const std::vector<std::string> lines = GoldenDpPcaLines();
  // Header + 4 components + variance + rng.
  ASSERT_EQ(lines.size(), 7u);
  EXPECT_EQ(lines[0], "# p3gm golden dp-pca v1");
  for (std::size_t j = 0; j < 4; ++j) {
    EXPECT_EQ(lines[1 + j].rfind("component,", 0), 0u) << lines[1 + j];
  }
  EXPECT_EQ(lines[5].rfind("variance,", 0), 0u) << lines[5];
  EXPECT_EQ(lines[6].rfind("rng,", 0), 0u) << lines[6];
}

TEST(DpPcaGoldenTest, MatchesCheckedInGoldenAtAnyThreadCount) {
  const std::string path =
      std::string(P3GM_GOLDEN_DIR) + "/dp_pca_d200.golden";
  for (const std::size_t threads : {1u, 2u, 3u, 8u}) {
    util::SetNumThreads(threads);
    const GoldenCompareResult r = CompareGoldenDpPca(path);
    EXPECT_TRUE(r.ok) << threads << " threads: " << r.message;
  }
  util::SetNumThreads(0);
}

}  // namespace
}  // namespace audit
}  // namespace p3gm
