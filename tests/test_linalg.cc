#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "linalg/cholesky.h"
#include "linalg/covariance.h"
#include "linalg/matrix.h"
#include "linalg/ops.h"
#include "util/rng.h"

namespace p3gm {
namespace linalg {
namespace {

Matrix RandomMatrix(std::size_t r, std::size_t c, util::Rng* rng) {
  Matrix m(r, c);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = rng->Normal();
  return m;
}

void ExpectSameBits(const Matrix& got, const Matrix& want,
                    const std::string& what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  EXPECT_EQ(
      std::memcmp(got.data(), want.data(), want.size() * sizeof(double)), 0)
      << what;
}

// The scalar loops the tiled gemm family replaced, kept verbatim minus
// the pool as exact oracles: i-k-j with a per-term zero skip for Matmul
// and MatmulTransA, one serial add chain per element for MatmulTransB.
Matrix ReferenceMatmul(const Matrix& a, const Matrix& b) {
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  Matrix c(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    const double* arow = a.row_data(i);
    double* crow = c.row_data(i);
    for (std::size_t p = 0; p < k; ++p) {
      const double av = arow[p];
      if (av == 0.0) continue;
      const double* brow = b.row_data(p);
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

Matrix ReferenceMatmulTransA(const Matrix& a, const Matrix& b) {
  const std::size_t m = a.cols(), k = a.rows(), n = b.cols();
  Matrix c(m, n);
  for (std::size_t p = 0; p < k; ++p) {
    const double* arow = a.row_data(p);
    const double* brow = b.row_data(p);
    for (std::size_t i = 0; i < m; ++i) {
      const double av = arow[i];
      if (av == 0.0) continue;
      double* crow = c.row_data(i);
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

Matrix ReferenceMatmulTransB(const Matrix& a, const Matrix& b) {
  const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
  Matrix c(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    const double* arow = a.row_data(i);
    double* crow = c.row_data(i);
    for (std::size_t j = 0; j < n; ++j) {
      const double* brow = b.row_data(j);
      double s = 0.0;
      for (std::size_t p = 0; p < k; ++p) s += arow[p] * brow[p];
      crow[j] = s;
    }
  }
  return c;
}

// Plants signed zeros in `m`: scattered entries, the whole of row 2 and
// the whole of columns 4-7 (one 4-wide panel).
void PlantZeros(Matrix* m) {
  for (std::size_t i = 0; i < m->size(); i += 5) {
    m->data()[i] = i % 2 ? 0.0 : -0.0;
  }
  if (m->rows() > 2) {
    for (std::size_t j = 0; j < m->cols(); ++j) (*m)(2, j) = -0.0;
  }
  for (std::size_t i = 0; i < m->rows(); ++i) {
    for (std::size_t j = 4; j < std::min<std::size_t>(m->cols(), 8); ++j) {
      (*m)(i, j) = j % 2 ? 0.0 : -0.0;
    }
  }
}

// ---------------------------------------------------------------- Matrix

TEST(MatrixTest, ConstructAndAccess) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 0) = 2.0;
  EXPECT_DOUBLE_EQ(m(0, 0), 2.0);
}

TEST(MatrixTest, InitializerList) {
  Matrix m = {{1, 2}, {3, 4}};
  EXPECT_DOUBLE_EQ(m(0, 1), 2);
  EXPECT_DOUBLE_EQ(m(1, 0), 3);
}

TEST(MatrixTest, FromFlatValidatesSize) {
  EXPECT_TRUE(Matrix::FromFlat(2, 2, {1, 2, 3, 4}).ok());
  EXPECT_FALSE(Matrix::FromFlat(2, 2, {1, 2, 3}).ok());
}

TEST(MatrixTest, FromRowsRejectsRagged) {
  EXPECT_TRUE(Matrix::FromRows({{1, 2}, {3, 4}}).ok());
  EXPECT_FALSE(Matrix::FromRows({{1, 2}, {3}}).ok());
}

TEST(MatrixTest, IdentityAndDiagonal) {
  Matrix i = Matrix::Identity(3);
  EXPECT_DOUBLE_EQ(i(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(i(0, 1), 0.0);
  Matrix d = Matrix::Diagonal({2, 3});
  EXPECT_DOUBLE_EQ(d(1, 1), 3.0);
  EXPECT_DOUBLE_EQ(d(1, 0), 0.0);
}

TEST(MatrixTest, RowColSetRow) {
  Matrix m = {{1, 2}, {3, 4}};
  EXPECT_EQ(m.Row(1), (std::vector<double>{3, 4}));
  EXPECT_EQ(m.Col(0), (std::vector<double>{1, 3}));
  m.SetRow(0, {9, 8});
  EXPECT_DOUBLE_EQ(m(0, 1), 8);
}

TEST(MatrixTest, SelectRowsPreservesOrderAndDuplicates) {
  Matrix m = {{1, 2}, {3, 4}, {5, 6}};
  Matrix s = m.SelectRows({2, 0, 2});
  EXPECT_EQ(s.rows(), 3u);
  EXPECT_DOUBLE_EQ(s(0, 0), 5);
  EXPECT_DOUBLE_EQ(s(1, 0), 1);
  EXPECT_DOUBLE_EQ(s(2, 1), 6);
}

TEST(MatrixTest, ConcatColsAndRows) {
  Matrix a = {{1}, {2}};
  Matrix b = {{3}, {4}};
  Matrix cc = a.ConcatCols(b);
  EXPECT_EQ(cc.cols(), 2u);
  EXPECT_DOUBLE_EQ(cc(1, 1), 4);
  Matrix cr = a.ConcatRows(b);
  EXPECT_EQ(cr.rows(), 4u);
  EXPECT_DOUBLE_EQ(cr(3, 0), 4);
}

TEST(MatrixTest, ConcatRowsWithEmpty) {
  Matrix a;
  Matrix b = {{1, 2}};
  EXPECT_EQ(a.ConcatRows(b).rows(), 1u);
  EXPECT_EQ(b.ConcatRows(a).rows(), 1u);
}

TEST(MatrixTest, TransposedTwiceIsIdentityOp) {
  util::Rng rng(3);
  Matrix m = RandomMatrix(4, 7, &rng);
  EXPECT_EQ(m.Transposed().Transposed(), m);
}

TEST(MatrixTest, Arithmetic) {
  Matrix a = {{1, 2}};
  Matrix b = {{3, 4}};
  EXPECT_DOUBLE_EQ((a + b)(0, 1), 6);
  EXPECT_DOUBLE_EQ((b - a)(0, 0), 2);
  EXPECT_DOUBLE_EQ((a * 2.0)(0, 1), 4);
}

TEST(MatrixTest, FrobeniusNormAndMaxAbs) {
  Matrix m = {{3, -4}};
  EXPECT_DOUBLE_EQ(m.FrobeniusNorm(), 5.0);
  EXPECT_DOUBLE_EQ(m.MaxAbs(), 4.0);
}

TEST(MatrixTest, FirstCols) {
  Matrix m = {{1, 2, 3}, {4, 5, 6}};
  Matrix f = m.FirstCols(2);
  EXPECT_EQ(f.cols(), 2u);
  EXPECT_DOUBLE_EQ(f(1, 1), 5);
}

TEST(MatrixTest, ToStringRendersShapeAndValues) {
  Matrix m = {{1.5, -2.0}};
  const std::string s = m.ToString(2);
  EXPECT_NE(s.find("1x2"), std::string::npos);
  EXPECT_NE(s.find("1.50"), std::string::npos);
  EXPECT_NE(s.find("-2.00"), std::string::npos);
}

TEST(MatrixTest, ResizeAndFill) {
  Matrix m(2, 2, 1.0);
  m.Resize(3, 1);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 1u);
  EXPECT_DOUBLE_EQ(m(2, 0), 0.0);
  m.Fill(4.0);
  EXPECT_DOUBLE_EQ(m(0, 0), 4.0);
}

// ------------------------------------------------------------------- Ops

TEST(OpsTest, MatmulAgainstHandComputed) {
  Matrix a = {{1, 2}, {3, 4}};
  Matrix b = {{5, 6}, {7, 8}};
  Matrix c = Matmul(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19);
  EXPECT_DOUBLE_EQ(c(0, 1), 22);
  EXPECT_DOUBLE_EQ(c(1, 0), 43);
  EXPECT_DOUBLE_EQ(c(1, 1), 50);
}

TEST(OpsTest, TransposeVariantsAgreeWithExplicitTranspose) {
  util::Rng rng(5);
  Matrix a = RandomMatrix(4, 3, &rng);
  Matrix b = RandomMatrix(4, 5, &rng);
  ExpectSameBits(MatmulTransA(a, b), Matmul(a.Transposed(), b), "TransA");
  Matrix c = RandomMatrix(5, 3, &rng);
  ExpectSameBits(MatmulTransB(a, c), Matmul(a, c.Transposed()), "TransB");
}

TEST(OpsTest, GemmFamilyMatchesReferenceLoops) {
  // Every element sums p ascending from +0.0, a multiply then an add per
  // term, exactly as the reference loops do. The shapes (m x k x n) cross
  // the edges of the 4-wide tiles and of the 256-deep blocks, and include
  // the DP-SGD products of a 784-wide image model.
  const std::size_t shapes[][3] = {
      {1, 1, 1},       {3, 5, 2},        {4, 4, 4},
      {5, 7, 9},       {17, 33, 13},     {241, 100, 10},
      {240, 784, 100}, {240, 100, 784},  {37, 256, 257}};
  util::Rng rng(13);
  for (const auto& shape : shapes) {
    const std::size_t m = shape[0], k = shape[1], n = shape[2];
    const std::string dims = std::to_string(m) + "x" + std::to_string(k) +
                             "x" + std::to_string(n);
    for (const std::string input : {"dense", "zeros", "nan"}) {
      Matrix a = RandomMatrix(m, k, &rng);   // m x k
      Matrix at = RandomMatrix(k, m, &rng);  // k x m
      Matrix b = RandomMatrix(k, n, &rng);   // k x n
      Matrix bt = RandomMatrix(n, k, &rng);  // n x k
      if (input == "zeros") {
        for (Matrix* x : {&a, &at, &b, &bt}) PlantZeros(x);
      } else if (input == "nan") {
        a(m / 2, k / 2) = std::nan("");
        at(k / 2, m / 2) = std::nan("");
      }
      const std::string what = dims + " " + input;
      ExpectSameBits(Matmul(a, b), ReferenceMatmul(a, b), "Matmul " + what);
      ExpectSameBits(MatmulTransA(at, b), ReferenceMatmulTransA(at, b),
                     "MatmulTransA " + what);
      ExpectSameBits(MatmulTransB(a, bt), ReferenceMatmulTransB(a, bt),
                     "MatmulTransB " + what);
    }
  }
}

TEST(OpsTest, MatVecMatchesMatmul) {
  // Exactly one serial chain per row, j ascending from +0.0. 603 x 603 is
  // large enough to split over the pool; the other shapes run inline and
  // leave a ragged tail after the four-row passes.
  const std::size_t shapes[][2] = {{3, 4},  {1, 1},   {3, 5},
                                   {7, 1},  {13, 40}, {603, 603}};
  util::Rng rng(7);
  for (const auto& shape : shapes) {
    const Matrix a = RandomMatrix(shape[0], shape[1], &rng);
    std::vector<double> x(shape[1]);
    for (double& v : x) v = rng.Normal();
    x[0] = -0.0;
    std::vector<double> want(a.rows());
    for (std::size_t i = 0; i < a.rows(); ++i) {
      double s = 0.0;
      for (std::size_t j = 0; j < a.cols(); ++j) s += a(i, j) * x[j];
      want[i] = s;
    }
    const std::vector<double> got = MatVec(a, x);
    ASSERT_EQ(got.size(), want.size());
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          want.size() * sizeof(double)),
              0)
        << shape[0] << "x" << shape[1];
  }
}

TEST(OpsTest, MatVecTransA) {
  util::Rng rng(9);
  Matrix a = RandomMatrix(3, 4, &rng);
  std::vector<double> x = {1, 2, -1};
  std::vector<double> y = MatVecTransA(a, x);
  std::vector<double> expect = MatVec(a.Transposed(), x);
  for (std::size_t j = 0; j < 4; ++j) EXPECT_NEAR(y[j], expect[j], 1e-12);
}

TEST(OpsTest, DotNormAxpyScale) {
  std::vector<double> a = {1, 2, 2};
  std::vector<double> b = {2, 0, 1};
  EXPECT_DOUBLE_EQ(Dot(a, b), 4.0);
  EXPECT_DOUBLE_EQ(Norm2(a), 3.0);
  EXPECT_DOUBLE_EQ(SquaredNorm2(a), 9.0);
  Axpy(2.0, b, &a);
  EXPECT_DOUBLE_EQ(a[0], 5.0);
  Scale(0.5, &a);
  EXPECT_DOUBLE_EQ(a[0], 2.5);
}

TEST(OpsTest, OuterProduct) {
  Matrix o = Outer({1, 2}, {3, 4, 5});
  EXPECT_EQ(o.rows(), 2u);
  EXPECT_EQ(o.cols(), 3u);
  EXPECT_DOUBLE_EQ(o(1, 2), 10);
}

TEST(OpsTest, AddRowVectorBroadcasts) {
  Matrix m = {{1, 1}, {2, 2}};
  AddRowVector({10, 20}, &m);
  EXPECT_DOUBLE_EQ(m(0, 1), 21);
  EXPECT_DOUBLE_EQ(m(1, 0), 12);
}

TEST(OpsTest, ColMeans) {
  Matrix m = {{1, 3}, {3, 5}};
  auto mu = ColMeans(m);
  EXPECT_DOUBLE_EQ(mu[0], 2);
  EXPECT_DOUBLE_EQ(mu[1], 4);
}

TEST(OpsTest, RowSquaredNorms) {
  Matrix m = {{3, 4}, {0, 1}};
  auto n = RowSquaredNorms(m);
  EXPECT_DOUBLE_EQ(n[0], 25);
  EXPECT_DOUBLE_EQ(n[1], 1);
}

TEST(OpsTest, ScaleRows) {
  Matrix m = {{1, 2}, {3, 4}};
  ScaleRows({2, 0.5}, &m);
  EXPECT_DOUBLE_EQ(m(0, 1), 4);
  EXPECT_DOUBLE_EQ(m(1, 0), 1.5);
}

TEST(OpsTest, SyrkMatchesExplicit) {
  // Syrk sums each element over the data rows in ascending order, exactly
  // like the reference A^T A loop. The shapes cross every edge of its
  // blocking: a width that is not a multiple of the 4-wide tile, row
  // counts below, at and across the 256-row block, and a single column.
  const std::size_t shapes[][2] = {{6, 4},   {1, 5},    {3, 1},
                                   {255, 9}, {256, 8},  {257, 3},
                                   {300, 7}, {600, 1},  {513, 13},
                                   {777, 30}};
  util::Rng rng(11);
  for (const auto& shape : shapes) {
    Matrix a = RandomMatrix(shape[0], shape[1], &rng);
    // Planted signed zeros: scattered entries, a whole row, and columns
    // 4-7 over the first row block, whose tiles Syrk then skips there.
    for (std::size_t i = 0; i < a.rows(); i += 5) a(i, 0) = 0.0;
    for (std::size_t i = 2; i < a.rows(); i += 7) {
      a(i, a.cols() - 1) = -0.0;
    }
    if (a.rows() > 10) {
      for (std::size_t j = 0; j < a.cols(); ++j) a(10, j) = -0.0;
    }
    for (std::size_t i = 0; i < std::min<std::size_t>(a.rows(), 256); ++i) {
      for (std::size_t j = 4; j < std::min<std::size_t>(a.cols(), 8); ++j) {
        a(i, j) = i % 2 ? 0.0 : -0.0;
      }
    }
    const Matrix got = Syrk(a);
    const Matrix want = ReferenceMatmulTransA(a, a);
    ASSERT_EQ(got.size(), want.size());
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          want.size() * sizeof(double)),
              0)
        << shape[0] << "x" << shape[1];
  }
}

// -------------------------------------------------------------- Cholesky

TEST(CholeskyTest, FactorizesSpdMatrix) {
  Matrix a = {{4, 2}, {2, 3}};
  auto l = Cholesky(a);
  ASSERT_TRUE(l.ok());
  Matrix reconstructed = MatmulTransB(*l, *l);
  EXPECT_LT(MaxAbsDiff(reconstructed, a), 1e-12);
}

TEST(CholeskyTest, RejectsNonSquare) {
  EXPECT_FALSE(Cholesky(Matrix(2, 3)).ok());
}

TEST(CholeskyTest, RejectsIndefinite) {
  Matrix a = {{1, 2}, {2, 1}};  // Eigenvalues 3 and -1.
  EXPECT_FALSE(Cholesky(a).ok());
}

TEST(CholeskyTest, JitterRescuesNearSingular) {
  Matrix a = {{1, 1}, {1, 1}};  // Singular.
  EXPECT_FALSE(Cholesky(a).ok());
  EXPECT_TRUE(Cholesky(a, 1e-6).ok());
}

TEST(CholeskyTest, SolveRecoversKnownSolution) {
  util::Rng rng(13);
  Matrix b = RandomMatrix(5, 5, &rng);
  Matrix a = MatmulTransB(b, b);  // SPD.
  for (std::size_t i = 0; i < 5; ++i) a(i, i) += 1.0;
  std::vector<double> x_true = {1, -2, 3, 0.5, -1};
  std::vector<double> rhs = MatVec(a, x_true);
  auto l = Cholesky(a);
  ASSERT_TRUE(l.ok());
  std::vector<double> x = CholeskySolve(*l, rhs);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-9);
}

TEST(CholeskyTest, LogDetMatchesIdentityScaling) {
  Matrix a = Matrix::Identity(3);
  a *= 4.0;  // det = 64.
  auto l = Cholesky(a);
  ASSERT_TRUE(l.ok());
  EXPECT_NEAR(CholeskyLogDet(*l), std::log(64.0), 1e-12);
}

// ------------------------------------------------------------ Covariance

TEST(CovarianceTest, MatchesHandComputed) {
  Matrix x = {{1, 0}, {-1, 0}, {0, 2}, {0, -2}};
  Matrix cov = Covariance(x);
  EXPECT_NEAR(cov(0, 0), 0.5, 1e-12);
  EXPECT_NEAR(cov(1, 1), 2.0, 1e-12);
  EXPECT_NEAR(cov(0, 1), 0.0, 1e-12);
}

TEST(CovarianceTest, CenterRowsSubtractsMean) {
  Matrix x = {{1, 2}, {3, 4}};
  CenterRows({2, 3}, &x);
  EXPECT_DOUBLE_EQ(x(0, 0), -1);
  EXPECT_DOUBLE_EQ(x(1, 1), 1);
}

// Shape-contract death tests: every kernel must abort (not silently
// misread memory) when handed incompatible dimensions. The pool spawns
// threads, so use the threadsafe death-test style, which re-executes the
// test in a fresh child process.
class OpsShapeDeathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  }
  const Matrix a_ = Matrix(3, 4);
  const Matrix b_ = Matrix(5, 6);
};

TEST_F(OpsShapeDeathTest, MatmulInnerDimMismatch) {
  EXPECT_DEATH(Matmul(a_, b_), "P3GM_CHECK failed");
}

TEST_F(OpsShapeDeathTest, MatmulTransARowMismatch) {
  EXPECT_DEATH(MatmulTransA(a_, b_), "P3GM_CHECK failed");
}

TEST_F(OpsShapeDeathTest, MatmulTransBColMismatch) {
  EXPECT_DEATH(MatmulTransB(a_, b_), "P3GM_CHECK failed");
}

TEST_F(OpsShapeDeathTest, MatVecLengthMismatch) {
  EXPECT_DEATH(MatVec(a_, std::vector<double>(3)), "P3GM_CHECK failed");
}

TEST_F(OpsShapeDeathTest, MatVecTransALengthMismatch) {
  EXPECT_DEATH(MatVecTransA(a_, std::vector<double>(4)),
               "P3GM_CHECK failed");
}

TEST_F(OpsShapeDeathTest, DotLengthMismatch) {
  EXPECT_DEATH(Dot(std::vector<double>(3), std::vector<double>(4)),
               "P3GM_CHECK failed");
}

TEST_F(OpsShapeDeathTest, AxpyLengthMismatch) {
  std::vector<double> y(4);
  EXPECT_DEATH(Axpy(2.0, std::vector<double>(3), &y), "P3GM_CHECK failed");
}

TEST_F(OpsShapeDeathTest, AddRowVectorWidthMismatch) {
  Matrix m(3, 4);
  EXPECT_DEATH(AddRowVector(std::vector<double>(5), &m),
               "P3GM_CHECK failed");
}

TEST_F(OpsShapeDeathTest, ScaleRowsHeightMismatch) {
  Matrix m(3, 4);
  EXPECT_DEATH(ScaleRows(std::vector<double>(2), &m), "P3GM_CHECK failed");
}

TEST_F(OpsShapeDeathTest, MaxAbsDiffShapeMismatch) {
  EXPECT_DEATH(MaxAbsDiff(a_, b_), "P3GM_CHECK failed");
}

TEST(CovarianceTest, PsdProperty) {
  util::Rng rng(17);
  Matrix x = RandomMatrix(50, 6, &rng);
  Matrix cov = Covariance(x);
  // All diagonal entries non-negative and matrix symmetric.
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_GE(cov(i, i), 0.0);
    for (std::size_t j = 0; j < 6; ++j) {
      EXPECT_NEAR(cov(i, j), cov(j, i), 1e-12);
    }
  }
  // Cholesky with tiny jitter must succeed (PSD).
  EXPECT_TRUE(Cholesky(cov, 1e-9).ok());
}

}  // namespace
}  // namespace linalg
}  // namespace p3gm
