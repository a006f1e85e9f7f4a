#include <cmath>
#include <cstring>
#include <string>

#include "gtest/gtest.h"
#include "nn/activations.h"
#include "nn/losses.h"
#include "util/rng.h"

namespace p3gm {
namespace nn {
namespace {

linalg::Matrix RandomMatrix(std::size_t r, std::size_t c, util::Rng* rng) {
  linalg::Matrix m(r, c);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = rng->Normal();
  return m;
}

// ------------------------------------------------------------------- MSE

TEST(MseTest, ZeroAtTarget) {
  linalg::Matrix p = {{1, 2}};
  auto loss = MseLoss(p, p);
  EXPECT_DOUBLE_EQ(loss.value, 0.0);
  EXPECT_DOUBLE_EQ(loss.grad.MaxAbs(), 0.0);
}

TEST(MseTest, KnownValueAndGrad) {
  linalg::Matrix pred = {{2.0}};
  linalg::Matrix target = {{0.0}};
  auto loss = MseLoss(pred, target);
  EXPECT_DOUBLE_EQ(loss.value, 4.0);
  EXPECT_DOUBLE_EQ(loss.grad(0, 0), 4.0);
}

TEST(MseTest, GradientMatchesFiniteDifference) {
  util::Rng rng(3);
  linalg::Matrix pred = RandomMatrix(3, 4, &rng);
  linalg::Matrix target = RandomMatrix(3, 4, &rng);
  auto loss = MseLoss(pred, target);
  const double h = 1e-6;
  for (std::size_t k = 0; k < pred.size(); ++k) {
    linalg::Matrix pp = pred, pm = pred;
    pp.data()[k] += h;
    pm.data()[k] -= h;
    const double num =
        (MseLoss(pp, target).value - MseLoss(pm, target).value) / (2 * h);
    EXPECT_NEAR(loss.grad.data()[k], num, 1e-5);
  }
}

TEST(MseTest, MeanVsSumScaling) {
  util::Rng rng(5);
  linalg::Matrix pred = RandomMatrix(4, 2, &rng);
  linalg::Matrix target = RandomMatrix(4, 2, &rng);
  auto mean = MseLoss(pred, target, true);
  auto sum = MseLoss(pred, target, false);
  EXPECT_NEAR(sum.value, 4.0 * mean.value, 1e-9);
  EXPECT_NEAR(sum.grad(0, 0), 4.0 * mean.grad(0, 0), 1e-9);
}

// ------------------------------------------------------------------- BCE

TEST(BceTest, PerfectPredictionNearZeroLoss) {
  linalg::Matrix logits = {{30.0, -30.0}};
  linalg::Matrix target = {{1.0, 0.0}};
  auto loss = BceWithLogitsLoss(logits, target);
  EXPECT_NEAR(loss.value, 0.0, 1e-9);
}

TEST(BceTest, KnownValueAtZeroLogit) {
  linalg::Matrix logits = {{0.0}};
  linalg::Matrix target = {{1.0}};
  // softplus(0) - 1*0 = log 2.
  EXPECT_NEAR(BceWithLogitsLoss(logits, target).value, std::log(2.0), 1e-12);
}

TEST(BceTest, GradIsSigmoidMinusTarget) {
  linalg::Matrix logits = {{1.3}};
  linalg::Matrix target = {{0.2}};
  auto loss = BceWithLogitsLoss(logits, target);
  EXPECT_NEAR(loss.grad(0, 0), SigmoidScalar(1.3) - 0.2, 1e-12);
}

TEST(BceTest, GradientMatchesFiniteDifference) {
  util::Rng rng(7);
  linalg::Matrix logits = RandomMatrix(3, 4, &rng);
  linalg::Matrix target(3, 4);
  for (std::size_t i = 0; i < target.size(); ++i) {
    target.data()[i] = rng.Uniform();
  }
  auto loss = BceWithLogitsLoss(logits, target);
  const double h = 1e-6;
  for (std::size_t k = 0; k < logits.size(); ++k) {
    linalg::Matrix lp = logits, lm = logits;
    lp.data()[k] += h;
    lm.data()[k] -= h;
    const double num = (BceWithLogitsLoss(lp, target).value -
                        BceWithLogitsLoss(lm, target).value) /
                       (2 * h);
    EXPECT_NEAR(loss.grad.data()[k], num, 1e-5);
  }
}

TEST(BceTest, StableAtExtremeLogits) {
  linalg::Matrix logits = {{1000.0, -1000.0}};
  linalg::Matrix target = {{0.0, 1.0}};
  auto loss = BceWithLogitsLoss(logits, target);
  EXPECT_TRUE(std::isfinite(loss.value));
  EXPECT_NEAR(loss.value, 2000.0, 1.0);
}

// --------------------------------------------------------------- Softmax

// The two-helper loop BceWithLogitsLoss ran before it shared one exp per
// element and split rows over the pool, kept as its exact oracle.
LossResult ReferenceBceWithLogits(const linalg::Matrix& logits,
                                  const linalg::Matrix& target, bool mean) {
  const std::size_t b = logits.rows();
  const double scale = mean ? 1.0 / static_cast<double>(b) : 1.0;
  LossResult out;
  out.grad = linalg::Matrix(logits.rows(), logits.cols());
  out.per_example.assign(b, 0.0);
  for (std::size_t i = 0; i < b; ++i) {
    const double* l = logits.row_data(i);
    const double* t = target.row_data(i);
    double* g = out.grad.row_data(i);
    double ls = 0.0;
    for (std::size_t j = 0; j < logits.cols(); ++j) {
      ls += SoftplusScalar(l[j]) - t[j] * l[j];
      g[j] = (SigmoidScalar(l[j]) - t[j]) * scale;
    }
    out.per_example[i] = ls;
    out.value += ls * scale;
  }
  return out;
}

TEST(BceTest, MatchesTwoHelperReferenceBitForBit) {
  // 16 rows is the pool grain: 15 and 16 run inline, 17 and 240 split.
  const double extremes[] = {0.0,    -0.0,  1e-300, -1e-300,
                             40.0,   -40.0, 800.0,  -800.0};
  util::Rng rng(17);
  for (const std::size_t b : {1, 15, 16, 17, 240}) {
    linalg::Matrix logits = RandomMatrix(b, 784, &rng);
    linalg::Matrix target(b, 784);
    for (std::size_t i = 0; i < logits.size(); ++i) {
      logits.data()[i] *= 6.0;
      target.data()[i] = rng.Uniform(0.0, 1.0);
      if (i % 7 == 0) logits.data()[i] = extremes[(i / 7) % 8];
      if (i % 11 == 0) target.data()[i] = (i / 11) % 2;
    }
    for (const bool mean : {true, false}) {
      const LossResult got = BceWithLogitsLoss(logits, target, mean);
      const LossResult want = ReferenceBceWithLogits(logits, target, mean);
      const std::string what =
          std::to_string(b) + (mean ? " rows, mean" : " rows, sum");
      EXPECT_EQ(std::memcmp(&got.value, &want.value, sizeof(double)), 0)
          << what;
      EXPECT_EQ(std::memcmp(got.per_example.data(), want.per_example.data(),
                            b * sizeof(double)),
                0)
          << what;
      EXPECT_EQ(std::memcmp(got.grad.data(), want.grad.data(),
                            want.grad.size() * sizeof(double)),
                0)
          << what;
    }
  }
}

TEST(SoftmaxTest, RowsSumToOne) {
  util::Rng rng(11);
  linalg::Matrix logits = RandomMatrix(5, 7, &rng);
  linalg::Matrix p = Softmax(logits);
  for (std::size_t i = 0; i < 5; ++i) {
    double s = 0.0;
    for (std::size_t j = 0; j < 7; ++j) {
      EXPECT_GE(p(i, j), 0.0);
      s += p(i, j);
    }
    EXPECT_NEAR(s, 1.0, 1e-12);
  }
}

TEST(SoftmaxTest, StableForLargeLogits) {
  linalg::Matrix p = Softmax({{1000.0, 999.0}});
  EXPECT_TRUE(std::isfinite(p(0, 0)));
  EXPECT_NEAR(p(0, 0), 1.0 / (1.0 + std::exp(-1.0)), 1e-9);
}

TEST(CrossEntropyTest, UniformLogitsGiveLogK) {
  linalg::Matrix logits(2, 4);
  auto loss = SoftmaxCrossEntropy(logits, {0, 3});
  EXPECT_NEAR(loss.value, std::log(4.0), 1e-12);
}

TEST(CrossEntropyTest, GradientMatchesFiniteDifference) {
  util::Rng rng(13);
  linalg::Matrix logits = RandomMatrix(3, 5, &rng);
  std::vector<std::size_t> labels = {1, 4, 0};
  auto loss = SoftmaxCrossEntropy(logits, labels);
  const double h = 1e-6;
  for (std::size_t k = 0; k < logits.size(); ++k) {
    linalg::Matrix lp = logits, lm = logits;
    lp.data()[k] += h;
    lm.data()[k] -= h;
    const double num = (SoftmaxCrossEntropy(lp, labels).value -
                        SoftmaxCrossEntropy(lm, labels).value) /
                       (2 * h);
    EXPECT_NEAR(loss.grad.data()[k], num, 1e-5);
  }
}

// ------------------------------------------------------------------- KL

TEST(KlLossTest, ZeroForStandardNormal) {
  linalg::Matrix mu(2, 3);
  linalg::Matrix logvar(2, 3);
  auto kl = StandardNormalKl(mu, logvar);
  EXPECT_NEAR(kl.value, 0.0, 1e-12);
  EXPECT_NEAR(kl.grad_mu.MaxAbs(), 0.0, 1e-12);
  EXPECT_NEAR(kl.grad_logvar.MaxAbs(), 0.0, 1e-12);
}

TEST(KlLossTest, KnownValue) {
  // KL(N(1, 1) || N(0,1)) = 0.5.
  linalg::Matrix mu = {{1.0}};
  linalg::Matrix logvar = {{0.0}};
  EXPECT_NEAR(StandardNormalKl(mu, logvar).value, 0.5, 1e-12);
}

TEST(KlLossTest, NonNegativeEverywhere) {
  util::Rng rng(17);
  for (int t = 0; t < 50; ++t) {
    linalg::Matrix mu = RandomMatrix(1, 4, &rng);
    linalg::Matrix logvar = RandomMatrix(1, 4, &rng);
    EXPECT_GE(StandardNormalKl(mu, logvar).value, -1e-12);
  }
}

TEST(KlLossTest, GradientsMatchFiniteDifference) {
  util::Rng rng(19);
  linalg::Matrix mu = RandomMatrix(2, 3, &rng);
  linalg::Matrix logvar = RandomMatrix(2, 3, &rng);
  auto kl = StandardNormalKl(mu, logvar);
  const double h = 1e-6;
  for (std::size_t k = 0; k < mu.size(); ++k) {
    linalg::Matrix mp = mu, mm = mu;
    mp.data()[k] += h;
    mm.data()[k] -= h;
    const double num = (StandardNormalKl(mp, logvar).value -
                        StandardNormalKl(mm, logvar).value) /
                       (2 * h);
    EXPECT_NEAR(kl.grad_mu.data()[k], num, 1e-5);
    linalg::Matrix lp = logvar, lm = logvar;
    lp.data()[k] += h;
    lm.data()[k] -= h;
    const double num_lv = (StandardNormalKl(mu, lp).value -
                           StandardNormalKl(mu, lm).value) /
                          (2 * h);
    EXPECT_NEAR(kl.grad_logvar.data()[k], num_lv, 1e-5);
  }
}

TEST(KlLossTest, PerExampleSumsToValue) {
  util::Rng rng(23);
  linalg::Matrix mu = RandomMatrix(4, 2, &rng);
  linalg::Matrix logvar = RandomMatrix(4, 2, &rng);
  auto kl = StandardNormalKl(mu, logvar, /*mean=*/true);
  double s = 0.0;
  for (double v : kl.per_example) s += v;
  EXPECT_NEAR(kl.value, s / 4.0, 1e-12);
}

}  // namespace
}  // namespace nn
}  // namespace p3gm
