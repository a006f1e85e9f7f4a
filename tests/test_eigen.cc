#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "linalg/eigen_sym.h"
#include "linalg/ops.h"
#include "util/rng.h"

namespace p3gm {
namespace linalg {
namespace {

Matrix RandomSymmetric(std::size_t n, util::Rng* rng) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      m(i, j) = rng->Normal();
      m(j, i) = m(i, j);
    }
  }
  return m;
}

// Reconstructs V diag(d) V^T.
Matrix Reconstruct(const EigenDecomposition& e) {
  Matrix vd = e.vectors;
  for (std::size_t i = 0; i < vd.rows(); ++i) {
    for (std::size_t j = 0; j < vd.cols(); ++j) vd(i, j) *= e.values[j];
  }
  return MatmulTransB(vd, e.vectors);
}

TEST(EigenSymTest, DiagonalMatrix) {
  auto e = EigenSym(Matrix::Diagonal({3, 1, 2}));
  ASSERT_TRUE(e.ok());
  EXPECT_NEAR(e->values[0], 3, 1e-12);
  EXPECT_NEAR(e->values[1], 2, 1e-12);
  EXPECT_NEAR(e->values[2], 1, 1e-12);
}

TEST(EigenSymTest, KnownTwoByTwo) {
  // [[2,1],[1,2]] has eigenvalues 3 and 1.
  auto e = EigenSym(Matrix{{2, 1}, {1, 2}});
  ASSERT_TRUE(e.ok());
  EXPECT_NEAR(e->values[0], 3.0, 1e-12);
  EXPECT_NEAR(e->values[1], 1.0, 1e-12);
  // Leading eigenvector is (1,1)/sqrt(2) up to sign.
  EXPECT_NEAR(std::fabs(e->vectors(0, 0)), 1.0 / std::sqrt(2.0), 1e-12);
}

TEST(EigenSymTest, RejectsNonSquare) {
  EXPECT_FALSE(EigenSym(Matrix(2, 3)).ok());
}

TEST(EigenSymTest, NaNInputIsANumericError) {
  // A NaN must not walk the QL sweep past the end of its work vectors;
  // PCA passes on whatever covariance its data gives.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const std::size_t n : {2u, 3u, 9u}) {
    Matrix all_nan(n, n, nan);
    Matrix one_nan = Matrix::Identity(n);
    one_nan(0, n - 1) = one_nan(n - 1, 0) = nan;
    for (const Matrix* a : {&all_nan, &one_nan}) {
      const auto e = EigenSym(*a);
      ASSERT_FALSE(e.ok()) << n;
      EXPECT_EQ(e.status().code(), util::StatusCode::kNumericError) << n;
    }
  }
}

TEST(EigenSymTest, HandlesSizeOneAndZero) {
  auto e1 = EigenSym(Matrix{{5}});
  ASSERT_TRUE(e1.ok());
  EXPECT_DOUBLE_EQ(e1->values[0], 5.0);
  auto e0 = EigenSym(Matrix());
  ASSERT_TRUE(e0.ok());
  EXPECT_TRUE(e0->values.empty());
}

class EigenSymSizeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EigenSymSizeTest, ReconstructsInput) {
  util::Rng rng(100 + GetParam());
  Matrix a = RandomSymmetric(GetParam(), &rng);
  auto e = EigenSym(a);
  ASSERT_TRUE(e.ok());
  EXPECT_LT(MaxAbsDiff(Reconstruct(*e), a), 1e-9);
}

TEST_P(EigenSymSizeTest, VectorsAreOrthonormal) {
  util::Rng rng(200 + GetParam());
  Matrix a = RandomSymmetric(GetParam(), &rng);
  auto e = EigenSym(a);
  ASSERT_TRUE(e.ok());
  Matrix gram = MatmulTransA(e->vectors, e->vectors);
  EXPECT_LT(MaxAbsDiff(gram, Matrix::Identity(GetParam())), 1e-10);
}

TEST_P(EigenSymSizeTest, ValuesSortedDescending) {
  util::Rng rng(300 + GetParam());
  auto e = EigenSym(RandomSymmetric(GetParam(), &rng));
  ASSERT_TRUE(e.ok());
  for (std::size_t i = 1; i < e->values.size(); ++i) {
    EXPECT_GE(e->values[i - 1], e->values[i]);
  }
}

TEST_P(EigenSymSizeTest, TraceEqualsEigenvalueSum) {
  util::Rng rng(400 + GetParam());
  Matrix a = RandomSymmetric(GetParam(), &rng);
  auto e = EigenSym(a);
  ASSERT_TRUE(e.ok());
  double trace = 0, sum = 0;
  for (std::size_t i = 0; i < GetParam(); ++i) trace += a(i, i);
  for (double v : e->values) sum += v;
  EXPECT_NEAR(trace, sum, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, EigenSymSizeTest,
                         ::testing::Values(2, 3, 5, 10, 25, 60));

TEST(TopKEigenSymTest, MatchesDenseOnLeadingPairs) {
  util::Rng rng(19);
  Matrix b(30, 8);
  for (std::size_t i = 0; i < b.size(); ++i) b.data()[i] = rng.Normal();
  Matrix a = MatmulTransB(b, b);  // PSD, rank 8... actually rank <= 8.
  auto dense = EigenSym(a);
  auto topk = TopKEigenSym(a, 3, 400, 7);
  ASSERT_TRUE(dense.ok());
  ASSERT_TRUE(topk.ok());
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_NEAR(topk->values[j], dense->values[j],
                1e-6 * std::max(1.0, dense->values[j]));
    // Eigenvector agreement up to sign: |<v_dense, v_topk>| ~ 1.
    double dot = 0;
    for (std::size_t i = 0; i < 30; ++i) {
      dot += dense->vectors(i, j) * topk->vectors(i, j);
    }
    EXPECT_NEAR(std::fabs(dot), 1.0, 1e-4);
  }
}

// Reference power iteration with two products per step, one to advance
// v and one for its Rayleigh quotient, each a serial chain per row.
// TopKEigenSym must reproduce it bit for bit.
std::vector<double> SerialMatVec(const Matrix& a,
                                 const std::vector<double>& x) {
  std::vector<double> y(a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    double s = 0.0;
    for (std::size_t j = 0; j < a.cols(); ++j) s += a(i, j) * x[j];
    y[i] = s;
  }
  return y;
}

EigenDecomposition TwoMatVecTopK(const Matrix& a, std::size_t k,
                                 std::size_t iters, std::uint64_t seed) {
  const std::size_t n = a.rows();
  util::Rng rng(seed);
  Matrix work = a;
  EigenDecomposition out;
  out.vectors = Matrix(n, k);
  for (std::size_t c = 0; c < k; ++c) {
    std::vector<double> v(n);
    for (double& x : v) x = rng.Normal();
    double norm = Norm2(v);
    for (double& x : v) x /= norm;
    double lambda = 0.0;
    for (std::size_t it = 0; it < iters; ++it) {
      std::vector<double> w = SerialMatVec(work, v);
      norm = Norm2(w);
      if (norm < 1e-300) {
        w.assign(n, 0.0);
        w[c % n] = 1.0;
        norm = 1.0;
      }
      for (std::size_t i = 0; i < n; ++i) v[i] = w[i] / norm;
      lambda = Dot(v, SerialMatVec(work, v));
    }
    out.values.push_back(lambda);
    for (std::size_t i = 0; i < n; ++i) out.vectors(i, c) = v[i];
    for (std::size_t i = 0; i < n; ++i) {
      const double vi = lambda * v[i];
      for (std::size_t j = 0; j < n; ++j) work(i, j) -= vi * v[j];
    }
  }
  return out;
}

TEST(TopKEigenSymTest, MatchesTwoMatVecIterationExactly) {
  // 301 rows split over the pool inside MatVec; 5 and 37 run inline with
  // a ragged tail after the four-row passes; the rank-2 matrix deflates
  // to zero and takes the fallback direction; iters = 0 and 1 are the
  // loop's edges.
  util::Rng rng(23);
  Matrix b(2, 9);
  for (std::size_t i = 0; i < b.size(); ++i) b.data()[i] = rng.Normal();
  struct Case {
    Matrix a;
    std::size_t k, iters;
  };
  const Case cases[] = {{RandomSymmetric(5, &rng), 3, 40},
                        {RandomSymmetric(37, &rng), 4, 25},
                        {RandomSymmetric(301, &rng), 2, 12},
                        {MatmulTransA(b, b), 4, 30},
                        {Matrix(6, 6), 2, 5},
                        {RandomSymmetric(8, &rng), 2, 0},
                        {RandomSymmetric(8, &rng), 2, 1}};
  for (const Case& c : cases) {
    const auto got = TopKEigenSym(c.a, c.k, c.iters, 99);
    ASSERT_TRUE(got.ok());
    const EigenDecomposition want = TwoMatVecTopK(c.a, c.k, c.iters, 99);
    const std::string what = std::to_string(c.a.rows()) + " rows, k " +
                             std::to_string(c.k) + ", iters " +
                             std::to_string(c.iters);
    ASSERT_EQ(got->values.size(), want.values.size()) << what;
    EXPECT_EQ(std::memcmp(got->values.data(), want.values.data(),
                          want.values.size() * sizeof(double)),
              0)
        << what;
    EXPECT_EQ(std::memcmp(got->vectors.data(), want.vectors.data(),
                          want.vectors.size() * sizeof(double)),
              0)
        << what;
  }
}

TEST(TopKEigenSymTest, RejectsKTooLarge) {
  EXPECT_FALSE(TopKEigenSym(Matrix::Identity(3), 4).ok());
}

TEST(TopKEigenSymTest, HandlesZeroMatrix) {
  auto e = TopKEigenSym(Matrix(4, 4), 2);
  ASSERT_TRUE(e.ok());
  EXPECT_NEAR(e->values[0], 0.0, 1e-12);
}

}  // namespace
}  // namespace linalg
}  // namespace p3gm
