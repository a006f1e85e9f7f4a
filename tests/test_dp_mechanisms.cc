#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include "gtest/gtest.h"
#include "dp/mechanisms.h"
#include "linalg/eigen_sym.h"
#include "linalg/ops.h"

namespace p3gm {
namespace dp {
namespace {

// ---------------------------------------------------------------- ClipL2

TEST(ClipTest, LeavesShortVectorsAlone) {
  std::vector<double> v = {0.3, 0.4};  // Norm 0.5.
  ClipL2(1.0, &v);
  EXPECT_DOUBLE_EQ(v[0], 0.3);
  EXPECT_DOUBLE_EQ(v[1], 0.4);
}

TEST(ClipTest, ScalesLongVectorsToBound) {
  std::vector<double> v = {3.0, 4.0};  // Norm 5.
  ClipL2(1.0, &v);
  EXPECT_NEAR(linalg::Norm2(v), 1.0, 1e-12);
  // Direction preserved.
  EXPECT_NEAR(v[1] / v[0], 4.0 / 3.0, 1e-12);
}

TEST(ClipTest, ZeroVectorUnchanged) {
  std::vector<double> v = {0.0, 0.0};
  ClipL2(1.0, &v);
  EXPECT_DOUBLE_EQ(v[0], 0.0);
}

TEST(ClipTest, FactorFormula) {
  EXPECT_DOUBLE_EQ(ClipFactor(2.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(ClipFactor(2.0, 4.0), 0.5);
  EXPECT_DOUBLE_EQ(ClipFactor(2.0, 0.0), 1.0);
}

class ClipNormTest : public ::testing::TestWithParam<double> {};

TEST_P(ClipNormTest, NormNeverExceedsBound) {
  util::Rng rng(5);
  const double c = GetParam();
  for (int t = 0; t < 100; ++t) {
    std::vector<double> v(8);
    for (double& x : v) x = rng.Normal(0.0, 3.0);
    ClipL2(c, &v);
    EXPECT_LE(linalg::Norm2(v), c + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Bounds, ClipNormTest,
                         ::testing::Values(0.1, 1.0, 5.0));

// ------------------------------------------------------------ Mechanisms

TEST(LaplaceMechanismTest, NoiseVarianceMatchesScale) {
  util::Rng rng(7);
  const double sensitivity = 2.0, eps = 0.5;  // Scale b = 4.
  const int n = 100000;
  std::vector<double> v(n, 0.0);
  LaplaceMechanism(sensitivity, eps, &v, &rng);
  double s2 = 0;
  for (double x : v) s2 += x * x;
  EXPECT_NEAR(s2 / n, 2.0 * 16.0, 1.5);  // Var = 2 b^2 = 32.
}

TEST(GaussianMechanismTest, NoiseStddevMatches) {
  util::Rng rng(11);
  const int n = 100000;
  std::vector<double> v(n, 0.0);
  GaussianMechanism(2.0, 1.5, &v, &rng);  // stddev = 3.
  double s2 = 0;
  for (double x : v) s2 += x * x;
  EXPECT_NEAR(std::sqrt(s2 / n), 3.0, 0.05);
}

TEST(GaussianMechanismTest, ZeroMultiplierIsNoop) {
  util::Rng rng(13);
  std::vector<double> v = {1.0, 2.0};
  GaussianMechanism(1.0, 0.0, &v, &rng);
  EXPECT_DOUBLE_EQ(v[0], 1.0);
  EXPECT_DOUBLE_EQ(v[1], 2.0);
}

TEST(GaussianMechanismTest, MatrixOverloadPerturbsAllCells) {
  util::Rng rng(17);
  linalg::Matrix m(10, 10);
  GaussianMechanism(1.0, 1.0, &m, &rng);
  int nonzero = 0;
  for (std::size_t i = 0; i < m.size(); ++i) nonzero += (m.data()[i] != 0.0);
  EXPECT_EQ(nonzero, 100);
}

// ----------------------------------------------------------- Exponential

TEST(ExponentialMechanismTest, PrefersHighUtility) {
  util::Rng rng(19);
  std::vector<double> u = {0.0, 0.0, 100.0};
  int hits = 0;
  for (int t = 0; t < 200; ++t) {
    auto pick = ExponentialMechanism(u, 1.0, 2.0, &rng);
    ASSERT_TRUE(pick.ok());
    hits += (*pick == 2);
  }
  EXPECT_GT(hits, 195);
}

TEST(ExponentialMechanismTest, UniformWhenEqualUtility) {
  util::Rng rng(23);
  std::vector<double> u = {1.0, 1.0};
  int first = 0;
  const int trials = 10000;
  for (int t = 0; t < trials; ++t) {
    first += (*ExponentialMechanism(u, 1.0, 1.0, &rng) == 0);
  }
  EXPECT_NEAR(first / static_cast<double>(trials), 0.5, 0.02);
}

TEST(ExponentialMechanismTest, MatchesTheoreticalDistribution) {
  util::Rng rng(29);
  // P(i) ∝ exp(eps * u_i / 2): with u = {0, ln(4) * 2/eps}, P(1)/P(0) = 4.
  const double eps = 1.0;
  std::vector<double> u = {0.0, 2.0 * std::log(4.0) / eps};
  int second = 0;
  const int trials = 20000;
  for (int t = 0; t < trials; ++t) {
    second += (*ExponentialMechanism(u, 1.0, eps, &rng) == 1);
  }
  EXPECT_NEAR(second / static_cast<double>(trials), 0.8, 0.02);
}

TEST(ExponentialMechanismTest, ValidatesInput) {
  util::Rng rng(31);
  EXPECT_FALSE(ExponentialMechanism({}, 1.0, 1.0, &rng).ok());
  EXPECT_FALSE(ExponentialMechanism({1.0}, 0.0, 1.0, &rng).ok());
  EXPECT_FALSE(ExponentialMechanism({1.0}, 1.0, -1.0, &rng).ok());
}

TEST(ExponentialMechanismTest, HandlesExtremeUtilityGaps) {
  util::Rng rng(37);
  // Would overflow a naive exp() implementation.
  std::vector<double> u = {0.0, 1e6};
  auto pick = ExponentialMechanism(u, 1.0, 1.0, &rng);
  ASSERT_TRUE(pick.ok());
  EXPECT_EQ(*pick, 1u);
}

// ---------------------------------------------------------------- Wishart

TEST(WishartTest, ValidatesArguments) {
  util::Rng rng(41);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(SampleWishart(0, 3, 1.0, &rng).ok());
  EXPECT_FALSE(SampleWishart(3, 1.5, 1.0, &rng).ok());  // df <= d-1.
  EXPECT_FALSE(SampleWishart(3, 4, 0.0, &rng).ok());
  // Non-finite parameters are rejected, each naming the parameter.
  for (const double df : {nan, inf, -inf}) {
    const auto w = SampleWishart(3, df, 1.0, &rng);
    ASSERT_FALSE(w.ok()) << df;
    EXPECT_EQ(w.status().code(), util::StatusCode::kInvalidArgument);
    EXPECT_NE(w.status().message().find("df"), std::string::npos);
  }
  for (const double c : {nan, inf, -inf}) {
    const auto w = SampleWishart(3, 4, c, &rng);
    ASSERT_FALSE(w.ok()) << c;
    EXPECT_EQ(w.status().code(), util::StatusCode::kInvalidArgument);
    EXPECT_NE(w.status().message().find("scale c"), std::string::npos);
  }
}

// The Bartlett draws of SampleWishart, in its order, multiplied out as
// the dense product A A^T: every p of every element, ascending from
// +0.0. SampleWishart must reproduce it bit for bit and consume exactly
// the same draws.
linalg::Matrix DenseBartlettWishart(std::size_t d, double df, double c,
                                    util::Rng* rng) {
  linalg::Matrix a(d, d);
  for (std::size_t i = 0; i < d; ++i) {
    a(i, i) = std::sqrt(rng->ChiSquared(df - static_cast<double>(i)));
    for (std::size_t j = 0; j < i; ++j) a(i, j) = rng->Normal();
  }
  linalg::Matrix w(d, d);
  for (std::size_t i = 0; i < d; ++i) {
    for (std::size_t j = 0; j < d; ++j) {
      double s = 0.0;
      for (std::size_t p = 0; p < d; ++p) s += a(i, p) * a(j, p);
      w(i, j) = s;
    }
  }
  w *= c;
  return w;
}

TEST(WishartTest, MatchesDenseBartlettProductExactly) {
  // Sizes around Syrk's 4- and 8-wide tiles and its 256-row block:
  // below, at and past each, so the all-zero tiles above the factor's
  // diagonal are skipped in the first block and later ones.
  for (const std::size_t d : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 13u, 15u, 16u,
                              17u, 64u, 101u, 256u, 257u, 300u}) {
    const double df = static_cast<double>(d) + 1.0, c = 0.37;
    util::Rng got_rng(500 + d), want_rng(500 + d);
    const auto got = SampleWishart(d, df, c, &got_rng);
    ASSERT_TRUE(got.ok());
    const linalg::Matrix want = DenseBartlettWishart(d, df, c, &want_rng);
    EXPECT_EQ(
        std::memcmp(got->data(), want.data(), want.size() * sizeof(double)), 0)
        << "d = " << d;
    EXPECT_EQ(got_rng.NextU64(), want_rng.NextU64()) << "d = " << d;
  }
}

TEST(WishartTest, SamplesAreSymmetricPsd) {
  util::Rng rng(43);
  for (int t = 0; t < 10; ++t) {
    auto w = SampleWishart(5, 6.0, 0.3, &rng);
    ASSERT_TRUE(w.ok());
    for (std::size_t i = 0; i < 5; ++i) {
      for (std::size_t j = 0; j < 5; ++j) {
        EXPECT_NEAR((*w)(i, j), (*w)(j, i), 1e-12);
      }
    }
    auto e = linalg::EigenSym(*w);
    ASSERT_TRUE(e.ok());
    for (double v : e->values) EXPECT_GE(v, -1e-9);
  }
}

TEST(WishartTest, MeanIsDfTimesScale) {
  // E[W_d(df, c I)] = df * c * I.
  util::Rng rng(47);
  const std::size_t d = 3;
  const double df = d + 1.0, c = 0.5;
  linalg::Matrix mean(d, d);
  const int trials = 4000;
  for (int t = 0; t < trials; ++t) {
    mean += *SampleWishart(d, df, c, &rng);
  }
  mean *= 1.0 / trials;
  for (std::size_t i = 0; i < d; ++i) {
    EXPECT_NEAR(mean(i, i), df * c, 0.1);
    for (std::size_t j = 0; j < d; ++j) {
      if (i != j) {
        EXPECT_NEAR(mean(i, j), 0.0, 0.05);
      }
    }
  }
}

}  // namespace
}  // namespace dp
}  // namespace p3gm
