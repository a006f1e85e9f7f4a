#include <cmath>
#include <cstring>
#include <functional>
#include <memory>

#include "gtest/gtest.h"
#include "linalg/ops.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/dropout.h"
#include "nn/linear.h"
#include "nn/sequential.h"
#include "util/rng.h"

namespace p3gm {
namespace nn {
namespace {

linalg::Matrix RandomMatrix(std::size_t r, std::size_t c, util::Rng* rng,
                            double scale = 1.0) {
  linalg::Matrix m(r, c);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = rng->Normal(0.0, scale);
  }
  return m;
}

// Scalar objective L = sum(weights ⊙ layer(x)); returns its value.
double Objective(Layer* layer, const linalg::Matrix& x,
                 const linalg::Matrix& weights) {
  const linalg::Matrix y = layer->Forward(x, /*train=*/true);
  double total = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    total += y.data()[i] * weights.data()[i];
  }
  return total;
}

// Checks the input gradient of `layer` against central finite differences.
void CheckInputGradient(Layer* layer, linalg::Matrix x,
                        std::size_t out_cols, util::Rng* rng,
                        double tol = 1e-6) {
  const linalg::Matrix w = RandomMatrix(x.rows(), out_cols, rng);
  Objective(layer, x, w);
  const linalg::Matrix grad_in = layer->Backward(w, /*accumulate=*/true);

  const double h = 1e-6;
  for (std::size_t k = 0; k < std::min<std::size_t>(x.size(), 30); ++k) {
    linalg::Matrix xp = x, xm = x;
    xp.data()[k] += h;
    xm.data()[k] -= h;
    const double num =
        (Objective(layer, xp, w) - Objective(layer, xm, w)) / (2 * h);
    EXPECT_NEAR(grad_in.data()[k], num, tol * std::max(1.0, std::fabs(num)))
        << "input coordinate " << k;
  }
}

// Checks the parameter gradients of `layer` against finite differences.
void CheckParamGradients(Layer* layer, const linalg::Matrix& x,
                         std::size_t out_cols, util::Rng* rng,
                         double tol = 1e-6) {
  const linalg::Matrix w = RandomMatrix(x.rows(), out_cols, rng);
  for (Parameter* p : layer->Parameters()) p->ZeroGrad();
  Objective(layer, x, w);
  layer->Backward(w, /*accumulate=*/true);

  const double h = 1e-6;
  for (Parameter* p : layer->Parameters()) {
    for (std::size_t k = 0; k < std::min<std::size_t>(p->size(), 20); ++k) {
      const double saved = p->value.data()[k];
      p->value.data()[k] = saved + h;
      const double lp = Objective(layer, x, w);
      p->value.data()[k] = saved - h;
      const double lm = Objective(layer, x, w);
      p->value.data()[k] = saved;
      const double num = (lp - lm) / (2 * h);
      EXPECT_NEAR(p->grad.data()[k], num, tol * std::max(1.0, std::fabs(num)))
          << p->name << " coordinate " << k;
    }
  }
}

// ---------------------------------------------------------------- Linear

TEST(LinearTest, ForwardMatchesManualAffine) {
  util::Rng rng(3);
  Linear lin("l", 2, 3, &rng);
  lin.weight().value = linalg::Matrix{{1, 2, 3}, {4, 5, 6}};
  lin.bias().value = linalg::Matrix{{0.5, -0.5, 0.0}};
  linalg::Matrix x = {{1, 1}};
  linalg::Matrix y = lin.Forward(x, true);
  EXPECT_DOUBLE_EQ(y(0, 0), 5.5);
  EXPECT_DOUBLE_EQ(y(0, 1), 6.5);
  EXPECT_DOUBLE_EQ(y(0, 2), 9.0);
}

TEST(LinearTest, GradientCheck) {
  util::Rng rng(5);
  Linear lin("l", 4, 3, &rng);
  linalg::Matrix x = RandomMatrix(5, 4, &rng);
  CheckInputGradient(&lin, x, 3, &rng);
  CheckParamGradients(&lin, x, 3, &rng);
}

TEST(LinearTest, PerExampleNormsMatchExplicitPerExampleBackward) {
  util::Rng rng(7);
  Linear lin("l", 3, 2, &rng);
  linalg::Matrix x = RandomMatrix(4, 3, &rng);
  linalg::Matrix dy = RandomMatrix(4, 2, &rng);
  lin.Forward(x, true);
  lin.Backward(dy, /*accumulate=*/false);
  std::vector<double> sq(4, 0.0);
  lin.AddPerExampleSquaredGradNorms(&sq);

  // Explicit: run each example alone and measure its gradient norm.
  for (std::size_t i = 0; i < 4; ++i) {
    Linear single("s", 3, 2, &rng);
    single.weight().value = lin.weight().value;
    single.bias().value = lin.bias().value;
    single.Forward(x.SelectRows({i}), true);
    single.Backward(dy.SelectRows({i}), /*accumulate=*/true);
    const double expected = single.weight().grad.FrobeniusNorm() *
                                single.weight().grad.FrobeniusNorm() +
                            single.bias().grad.FrobeniusNorm() *
                                single.bias().grad.FrobeniusNorm();
    EXPECT_NEAR(sq[i], expected, 1e-9);
  }
}

TEST(LinearTest, ClippedAccumulationMatchesScaledSum) {
  util::Rng rng(9);
  Linear lin("l", 3, 2, &rng);
  linalg::Matrix x = RandomMatrix(4, 3, &rng);
  linalg::Matrix dy = RandomMatrix(4, 2, &rng);
  lin.Forward(x, true);
  lin.Backward(dy, false);
  const std::vector<double> scale = {0.5, 1.0, 0.0, 2.0};
  lin.weight().ZeroGrad();
  lin.bias().ZeroGrad();
  lin.AccumulateClippedGrads(scale);

  // Reference: sum of scale_i * x_i dy_i^T.
  linalg::Matrix expected(3, 2);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t a = 0; a < 3; ++a) {
      for (std::size_t b = 0; b < 2; ++b) {
        expected(a, b) += scale[i] * x(i, a) * dy(i, b);
      }
    }
  }
  EXPECT_LT(linalg::MaxAbsDiff(lin.weight().grad, expected), 1e-12);
  for (std::size_t b = 0; b < 2; ++b) {
    double eb = 0.0;
    for (std::size_t i = 0; i < 4; ++i) eb += scale[i] * dy(i, b);
    EXPECT_NEAR(lin.bias().grad(0, b), eb, 1e-12);
  }
}

// ----------------------------------------------------------- Activations

TEST(ActivationTest, ReluForward) {
  Relu relu;
  linalg::Matrix y = relu.Forward({{-1.0, 2.0}}, true);
  EXPECT_DOUBLE_EQ(y(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(y(0, 1), 2.0);
}

TEST(ActivationTest, SigmoidBounds) {
  Sigmoid sig;
  linalg::Matrix y = sig.Forward({{-100.0, 0.0, 100.0}}, true);
  EXPECT_NEAR(y(0, 0), 0.0, 1e-12);
  EXPECT_DOUBLE_EQ(y(0, 1), 0.5);
  EXPECT_NEAR(y(0, 2), 1.0, 1e-12);
}

TEST(ActivationTest, ScalarHelpersStable) {
  EXPECT_NEAR(SigmoidScalar(-1000.0), 0.0, 1e-12);
  EXPECT_NEAR(SigmoidScalar(1000.0), 1.0, 1e-12);
  EXPECT_NEAR(SoftplusScalar(-1000.0), 0.0, 1e-12);
  EXPECT_NEAR(SoftplusScalar(1000.0), 1000.0, 1e-9);
  EXPECT_NEAR(SoftplusScalar(0.0), std::log(2.0), 1e-12);
}

template <typename L>
class ActivationGradientTest : public ::testing::Test {};

using Activations = ::testing::Types<Relu, Sigmoid, Tanh, Softplus>;
TYPED_TEST_SUITE(ActivationGradientTest, Activations);

TYPED_TEST(ActivationGradientTest, MatchesFiniteDifference) {
  util::Rng rng(11);
  TypeParam layer;
  // Keep inputs away from ReLU's kink for finite differences.
  linalg::Matrix x = RandomMatrix(3, 5, &rng);
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (std::fabs(x.data()[i]) < 0.05) x.data()[i] = 0.1;
  }
  CheckInputGradient(&layer, x, 5, &rng, 1e-5);
}

// ----------------------------------------------------------------- Conv

TEST(Conv2dTest, OutputShape) {
  util::Rng rng(13);
  Conv2d conv("c", 1, 6, 6, 4, 3, /*padding=*/1, &rng);
  EXPECT_EQ(conv.out_height(), 6u);
  EXPECT_EQ(conv.out_width(), 6u);
  linalg::Matrix x = RandomMatrix(2, 36, &rng);
  linalg::Matrix y = conv.Forward(x, true);
  EXPECT_EQ(y.rows(), 2u);
  EXPECT_EQ(y.cols(), 4u * 36u);
}

TEST(Conv2dTest, IdentityKernelCopiesInput) {
  util::Rng rng(17);
  Conv2d conv("c", 1, 4, 4, 1, 3, 1, &rng);
  // Kernel = delta at center, zero bias.
  conv.Parameters()[0]->value.Fill(0.0);
  conv.Parameters()[0]->value(4, 0) = 1.0;  // Center of 3x3.
  conv.Parameters()[1]->value.Fill(0.0);
  linalg::Matrix x = RandomMatrix(1, 16, &rng);
  linalg::Matrix y = conv.Forward(x, true);
  EXPECT_LT(linalg::MaxAbsDiff(y, x), 1e-12);
}

TEST(Conv2dTest, GradientCheck) {
  util::Rng rng(19);
  Conv2d conv("c", 2, 5, 5, 3, 3, 1, &rng);
  linalg::Matrix x = RandomMatrix(2, 2 * 25, &rng);
  CheckInputGradient(&conv, x, 3 * 25, &rng, 1e-5);
  CheckParamGradients(&conv, x, 3 * 25, &rng, 1e-5);
}

TEST(MaxPoolTest, ForwardPicksMaxima) {
  MaxPool2d pool(1, 4, 4);
  linalg::Matrix x(1, 16);
  for (std::size_t i = 0; i < 16; ++i) x.data()[i] = static_cast<double>(i);
  linalg::Matrix y = pool.Forward(x, true);
  EXPECT_EQ(y.cols(), 4u);
  EXPECT_DOUBLE_EQ(y(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(y(0, 1), 7.0);
  EXPECT_DOUBLE_EQ(y(0, 2), 13.0);
  EXPECT_DOUBLE_EQ(y(0, 3), 15.0);
}

TEST(MaxPoolTest, BackwardRoutesToArgmax) {
  MaxPool2d pool(1, 2, 2);
  linalg::Matrix x = {{1.0, 4.0, 2.0, 3.0}};
  pool.Forward(x, true);
  linalg::Matrix g = pool.Backward({{10.0}}, true);
  EXPECT_DOUBLE_EQ(g(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(g(0, 1), 10.0);
  EXPECT_DOUBLE_EQ(g(0, 2), 0.0);
  EXPECT_DOUBLE_EQ(g(0, 3), 0.0);
}

// --------------------------------------------------------------- Dropout

TEST(DropoutTest, EvalModeIsIdentity) {
  Dropout drop(0.5, 7);
  linalg::Matrix x = {{1.0, 2.0, 3.0}};
  EXPECT_EQ(drop.Forward(x, /*train=*/false), x);
}

TEST(DropoutTest, TrainModePreservesExpectation) {
  util::Rng rng(23);
  Dropout drop(0.3, 29);
  linalg::Matrix x(200, 50, 1.0);
  linalg::Matrix y = drop.Forward(x, true);
  double mean = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) mean += y.data()[i];
  mean /= static_cast<double>(y.size());
  EXPECT_NEAR(mean, 1.0, 0.03);
}

TEST(DropoutTest, BackwardUsesSameMask) {
  Dropout drop(0.5, 31);
  linalg::Matrix x(1, 100, 1.0);
  linalg::Matrix y = drop.Forward(x, true);
  linalg::Matrix g = drop.Backward(linalg::Matrix(1, 100, 1.0), true);
  EXPECT_EQ(y, g);  // Identical mask and scaling.
}

// ------------------------------------------------------------ Sequential

TEST(SequentialTest, ComposesLayers) {
  util::Rng rng(37);
  Sequential seq("mlp");
  seq.Emplace<Linear>("l1", 4, 8, &rng);
  seq.Emplace<Relu>();
  seq.Emplace<Linear>("l2", 8, 2, &rng);
  EXPECT_EQ(seq.Parameters().size(), 4u);
  EXPECT_EQ(seq.NumParameters(), 4u * 8 + 8 + 8 * 2 + 2);
  linalg::Matrix x = RandomMatrix(3, 4, &rng);
  EXPECT_EQ(seq.Forward(x, true).cols(), 2u);
}

TEST(SequentialTest, GradientCheckThroughStack) {
  util::Rng rng(41);
  Sequential seq("mlp");
  seq.Emplace<Linear>("l1", 3, 6, &rng);
  seq.Emplace<Tanh>();
  seq.Emplace<Linear>("l2", 6, 2, &rng);
  linalg::Matrix x = RandomMatrix(4, 3, &rng);
  CheckInputGradient(&seq, x, 2, &rng, 1e-5);
  CheckParamGradients(&seq, x, 2, &rng, 1e-5);
}

TEST(SequentialTest, ZeroGradClearsAll) {
  util::Rng rng(43);
  Sequential seq;
  seq.Emplace<Linear>("l", 2, 2, &rng);
  linalg::Matrix x = RandomMatrix(2, 2, &rng);
  seq.Forward(x, true);
  seq.Backward(RandomMatrix(2, 2, &rng), true);
  seq.ZeroGrad();
  for (Parameter* p : seq.Parameters()) {
    EXPECT_DOUBLE_EQ(p->grad.MaxAbs(), 0.0);
  }
}

TEST(SequentialTest, PerExampleSupportReflectsMembers) {
  util::Rng rng(47);
  Sequential mlp;
  mlp.Emplace<Linear>("l", 2, 2, &rng);
  EXPECT_TRUE(mlp.SupportsPerExampleGrads());
  Sequential cnn;
  cnn.Emplace<Conv2d>("c", 1, 4, 4, 1, 3, 1, &rng);
  EXPECT_FALSE(cnn.SupportsPerExampleGrads());
}

// ------------------------------------------------------ BackwardNoInput

bool SameBits(const double* a, const double* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(double)) == 0;
}

// BackwardNoInput skips only dL/d input: the parameter gradients
// (accumulate = true) and the per-example norms and clipped gradients
// (accumulate = false) must be bit-identical to Backward's.
void ExpectBackwardNoInputMatchesBackward(
    const std::function<std::unique_ptr<Layer>()>& make) {
  util::Rng rng(53);
  const linalg::Matrix x = RandomMatrix(7, 6, &rng);
  const linalg::Matrix dy = RandomMatrix(7, 5, &rng);
  for (const bool accumulate : {true, false}) {
    const std::unique_ptr<Layer> full = make();
    const std::unique_ptr<Layer> skip = make();
    full->Forward(x, true);
    skip->Forward(x, true);
    full->Backward(dy, accumulate);
    skip->BackwardNoInput(dy, accumulate);
    if (!accumulate) {
      std::vector<double> full_sq(x.rows(), 0.0), skip_sq(x.rows(), 0.0);
      full->AddPerExampleSquaredGradNorms(&full_sq);
      skip->AddPerExampleSquaredGradNorms(&skip_sq);
      EXPECT_TRUE(SameBits(full_sq.data(), skip_sq.data(), x.rows()));
      std::vector<double> scale(x.rows());
      for (std::size_t i = 0; i < x.rows(); ++i) {
        scale[i] = 1.0 / (1.0 + full_sq[i]);
      }
      full->AccumulateClippedGrads(scale);
      skip->AccumulateClippedGrads(scale);
    }
    const std::vector<Parameter*> fp = full->Parameters();
    const std::vector<Parameter*> sp = skip->Parameters();
    ASSERT_EQ(fp.size(), sp.size());
    for (std::size_t k = 0; k < fp.size(); ++k) {
      EXPECT_GT(fp[k]->grad.MaxAbs(), 0.0) << fp[k]->name;
      EXPECT_TRUE(
          SameBits(fp[k]->grad.data(), sp[k]->grad.data(), fp[k]->size()))
          << fp[k]->name << " accumulate=" << accumulate;
    }
  }
}

TEST(BackwardNoInputTest, LinearLeavesTheGradientsOfBackward) {
  ExpectBackwardNoInputMatchesBackward([] {
    util::Rng rng(59);
    return std::make_unique<Linear>("l", 6, 5, &rng);
  });
}

TEST(BackwardNoInputTest, LinearReluStackLeavesTheGradientsOfBackward) {
  ExpectBackwardNoInputMatchesBackward([] {
    util::Rng rng(61);
    auto seq = std::make_unique<Sequential>("encoder");
    seq->Emplace<Linear>("l", 6, 5, &rng);
    seq->Emplace<Relu>();
    return seq;
  });
}

}  // namespace
}  // namespace nn
}  // namespace p3gm
