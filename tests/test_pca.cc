#include <cmath>
#include <limits>
#include <string>

#include "gtest/gtest.h"
#include "dp/accountant.h"
#include "linalg/ops.h"
#include "pca/pca.h"
#include "util/rng.h"

namespace p3gm {
namespace pca {
namespace {

// Data concentrated along a known direction plus small isotropic noise.
linalg::Matrix LineData(std::size_t n, util::Rng* rng) {
  linalg::Matrix x(n, 3);
  // Dominant direction (1, 2, -1)/sqrt(6).
  const double dir[3] = {1.0 / std::sqrt(6.0), 2.0 / std::sqrt(6.0),
                         -1.0 / std::sqrt(6.0)};
  for (std::size_t i = 0; i < n; ++i) {
    const double t = rng->Normal(0.0, 3.0);
    for (std::size_t j = 0; j < 3; ++j) {
      x(i, j) = t * dir[j] + rng->Normal(0.0, 0.05);
    }
  }
  return x;
}

TEST(PcaTest, ValidatesInput) {
  EXPECT_FALSE(FitPca(linalg::Matrix(), 1).ok());
  EXPECT_FALSE(FitPca(linalg::Matrix(5, 3, 1.0), 0).ok());
  EXPECT_FALSE(FitPca(linalg::Matrix(5, 3, 1.0), 4).ok());
}

TEST(PcaTest, FindsDominantDirection) {
  util::Rng rng(3);
  auto model = FitPca(LineData(500, &rng), 1);
  ASSERT_TRUE(model.ok());
  const double dir[3] = {1.0 / std::sqrt(6.0), 2.0 / std::sqrt(6.0),
                         -1.0 / std::sqrt(6.0)};
  double dot = 0.0;
  for (std::size_t j = 0; j < 3; ++j) dot += model->components()(j, 0) * dir[j];
  EXPECT_NEAR(std::fabs(dot), 1.0, 1e-3);
}

TEST(PcaTest, FullRankReconstructsExactly) {
  util::Rng rng(5);
  linalg::Matrix x(50, 4);
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = rng.Normal();
  auto model = FitPca(x, 4);
  ASSERT_TRUE(model.ok());
  EXPECT_NEAR(model->ReconstructionError(x), 0.0, 1e-12);
}

TEST(PcaTest, ReconstructionErrorDecreasesWithComponents) {
  util::Rng rng(7);
  linalg::Matrix x(200, 6);
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = rng.Normal();
  double prev = 1e18;
  for (std::size_t k = 1; k <= 6; ++k) {
    auto model = FitPca(x, k);
    ASSERT_TRUE(model.ok());
    const double err = model->ReconstructionError(x);
    EXPECT_LE(err, prev + 1e-9);
    prev = err;
  }
}

TEST(PcaTest, ExplainedVarianceDescending) {
  util::Rng rng(9);
  auto model = FitPca(LineData(300, &rng), 3);
  ASSERT_TRUE(model.ok());
  const auto& ev = model->explained_variance();
  EXPECT_GE(ev[0], ev[1]);
  EXPECT_GE(ev[1], ev[2]);
  // Dominant component carries nearly all variance.
  EXPECT_GT(ev[0] / (ev[0] + ev[1] + ev[2]), 0.95);
}

TEST(PcaTest, TransformRowMatchesTransform) {
  util::Rng rng(11);
  linalg::Matrix x = LineData(20, &rng);
  auto model = FitPca(x, 2);
  ASSERT_TRUE(model.ok());
  linalg::Matrix z = model->Transform(x);
  for (std::size_t i = 0; i < 20; ++i) {
    auto zr = model->TransformRow(x.Row(i));
    for (std::size_t j = 0; j < 2; ++j) EXPECT_NEAR(zr[j], z(i, j), 1e-12);
  }
}

TEST(PcaTest, HighDimensionUsesRandomizedPath) {
  // d > 160 triggers TopKEigenSym; verify the projection still captures a
  // planted low-rank structure.
  util::Rng rng(13);
  const std::size_t d = 200, n = 150;
  std::vector<double> dir(d);
  for (double& v : dir) v = rng.Normal();
  double norm = 0;
  for (double v : dir) norm += v * v;
  norm = std::sqrt(norm);
  for (double& v : dir) v /= norm;
  linalg::Matrix x(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = rng.Normal(0.0, 5.0);
    for (std::size_t j = 0; j < d; ++j) {
      x(i, j) = t * dir[j] + rng.Normal(0.0, 0.05);
    }
  }
  auto model = FitPca(x, 2);
  ASSERT_TRUE(model.ok());
  double dot = 0.0;
  for (std::size_t j = 0; j < d; ++j) dot += model->components()(j, 0) * dir[j];
  EXPECT_NEAR(std::fabs(dot), 1.0, 1e-2);
}

// ----------------------------------------------------------------- DP-PCA

TEST(DpPcaTest, ValidatesInput) {
  util::Rng rng(17);
  DpPcaOptions opt;
  EXPECT_FALSE(FitDpPca(linalg::Matrix(), opt, &rng).ok());
  opt.epsilon = 0.0;
  EXPECT_FALSE(FitDpPca(linalg::Matrix(5, 3, 0.1), opt, &rng).ok());
  opt.epsilon = 1.0;
  opt.num_components = 9;
  EXPECT_FALSE(FitDpPca(linalg::Matrix(5, 3, 0.1), opt, &rng).ok());
  // Non-finite budgets are rejected up front, naming epsilon, with and
  // without a live accountant (which must not be charged).
  opt.num_components = 2;
  dp::RdpAccountant accountant;
  for (dp::RdpAccountant* acc : {static_cast<dp::RdpAccountant*>(nullptr),
                                 &accountant}) {
    opt.accountant = acc;
    for (const double eps : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity()}) {
      opt.epsilon = eps;
      const auto model = FitDpPca(linalg::Matrix(5, 3, 0.1), opt, &rng);
      ASSERT_FALSE(model.ok()) << eps;
      EXPECT_EQ(model.status().code(), util::StatusCode::kInvalidArgument);
      EXPECT_NE(model.status().message().find("epsilon"), std::string::npos)
          << model.status().message();
    }
  }
  for (const double rdp : accountant.rdp()) EXPECT_EQ(rdp, 0.0);
}

TEST(DpPcaTest, LargeEpsilonApproachesExactPca) {
  util::Rng data_rng(19), mech_rng(23);
  linalg::Matrix x = LineData(2000, &data_rng);
  auto exact = FitPca(x, 1);
  DpPcaOptions opt;
  opt.num_components = 1;
  opt.epsilon = 1000.0;  // Essentially no noise.
  auto priv = FitDpPca(x, opt, &mech_rng);
  ASSERT_TRUE(exact.ok() && priv.ok());
  double dot = 0.0;
  for (std::size_t j = 0; j < 3; ++j) {
    dot += exact->components()(j, 0) * priv->components()(j, 0);
  }
  EXPECT_NEAR(std::fabs(dot), 1.0, 0.05);
}

TEST(DpPcaTest, SmallEpsilonDegradesDirection) {
  util::Rng data_rng(29), mech_rng(31);
  linalg::Matrix x = LineData(200, &data_rng);
  auto exact = FitPca(x, 1);
  DpPcaOptions opt;
  opt.num_components = 1;
  opt.epsilon = 0.001;  // Huge Wishart noise for tiny n.
  auto priv = FitDpPca(x, opt, &mech_rng);
  ASSERT_TRUE(exact.ok() && priv.ok());
  double dot = 0.0;
  for (std::size_t j = 0; j < 3; ++j) {
    dot += exact->components()(j, 0) * priv->components()(j, 0);
  }
  EXPECT_LT(std::fabs(dot), 0.999);
}

TEST(DpPcaTest, ComponentsAreUnitNorm) {
  util::Rng data_rng(37), mech_rng(41);
  linalg::Matrix x = LineData(300, &data_rng);
  DpPcaOptions opt;
  opt.num_components = 2;
  opt.epsilon = 0.5;
  auto model = FitDpPca(x, opt, &mech_rng);
  ASSERT_TRUE(model.ok());
  for (std::size_t c = 0; c < 2; ++c) {
    double norm2 = 0.0;
    for (std::size_t j = 0; j < 3; ++j) {
      norm2 += model->components()(j, c) * model->components()(j, c);
    }
    EXPECT_NEAR(norm2, 1.0, 1e-9);
  }
}

TEST(DpPcaTest, DeterministicGivenRngState) {
  util::Rng data_rng(43);
  linalg::Matrix x = LineData(100, &data_rng);
  DpPcaOptions opt;
  opt.num_components = 1;
  opt.epsilon = 0.2;
  util::Rng r1(47), r2(47);
  auto a = FitDpPca(x, opt, &r1);
  auto b = FitDpPca(x, opt, &r2);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->components(), b->components());
}

// Non-finite data fails both fits with InvalidArgument at d = 12 (dense
// eigensolve) and d = 200 (top-k path), before DP-PCA draws from its
// generator or charges its accountant.
TEST(PcaFiniteTest, RejectsNonFiniteDataOnBothEigenPaths) {
  for (const std::size_t d : {std::size_t{12}, std::size_t{200}}) {
    for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity()}) {
      util::Rng data_rng(53);
      linalg::Matrix x(40, d);
      for (std::size_t i = 0; i < x.size(); ++i) {
        x.data()[i] = data_rng.Uniform();
      }
      x(7, d - 1) = bad;

      const auto exact = FitPca(x, 3);
      ASSERT_FALSE(exact.ok()) << d << " " << bad;
      EXPECT_EQ(exact.status().code(), util::StatusCode::kInvalidArgument);
      EXPECT_NE(exact.status().message().find("non-finite"),
                std::string::npos)
          << exact.status().message();

      DpPcaOptions opt;
      opt.num_components = 3;
      opt.epsilon = 1.0;
      dp::RdpAccountant accountant;
      opt.accountant = &accountant;
      util::Rng rng(59), untouched(59);
      const auto noisy = FitDpPca(x, opt, &rng);
      ASSERT_FALSE(noisy.ok()) << d << " " << bad;
      EXPECT_EQ(noisy.status().code(), util::StatusCode::kInvalidArgument);
      EXPECT_NE(noisy.status().message().find("non-finite"),
                std::string::npos)
          << noisy.status().message();
      EXPECT_EQ(rng.NextU64(), untouched.NextU64());
      for (const double rdp : accountant.rdp()) EXPECT_EQ(rdp, 0.0);
    }
  }
}

}  // namespace
}  // namespace pca
}  // namespace p3gm
