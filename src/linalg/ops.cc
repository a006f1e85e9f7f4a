#include "linalg/ops.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <utility>

#include "obs/trace.h"
#include "util/thread_pool.h"

namespace p3gm {
namespace linalg {

namespace {

// Minimum rows per worker for the O(rows * k * n) gemm kernels and for
// the O(rows * cols) element-wise kernels. Small enough to engage the
// pool on training-size batches, large enough that a block amortizes the
// dispatch cost.
constexpr std::size_t kGemmRowGrain = 8;
constexpr std::size_t kRowGrain = 64;

// Minimum multiply-adds per MatVec block: a 784 x 784 power-iteration
// step splits over the pool, while the small per-sample products of the
// synthetic generators run inline.
constexpr std::size_t kMatVecMinWork = std::size_t{1} << 16;

// Syrk blocking. kSyrkRowBlock data rows are repacked into k-major
// panels of kSyrkTile columns; a panel (256 x 4 doubles, 8 KiB) stays in
// L1 while a tile sweeps its row of the triangle, and a whole block of
// 784 columns (1.6 MB) stays in L2/L3 for the sweep.
constexpr std::size_t kSyrkTile = 4;
constexpr std::size_t kSyrkRowBlock = 256;
constexpr std::size_t kSyrkTileGrain = 8;

// Two doubles in one SIMD register (SSE2 on x86-64, NEON on AArch64).
// The lanes never interact, so each holds an independent output element.
typedef double Double2 __attribute__((vector_size(16)));

inline Double2 Load2(const double* p) {
  Double2 v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline void Store2(Double2 v, double* p) { std::memcpy(p, &v, sizeof(v)); }

// c += pi^T pj for one kSyrkTile x kSyrkTile tile over `rows` packed
// rows: c[r][t] += pi[p][r] * pj[p][t] for p ascending, a multiply then
// an add per term (this TU is built with -ffp-contract=off).
void SyrkTile(const double* pi, const double* pj, std::size_t rows,
              double c[kSyrkTile][kSyrkTile]) {
  static_assert(kSyrkTile == 4, "SyrkTile is written out for 4 x 4 tiles");
  Double2 c00 = Load2(&c[0][0]), c01 = Load2(&c[0][2]);
  Double2 c10 = Load2(&c[1][0]), c11 = Load2(&c[1][2]);
  Double2 c20 = Load2(&c[2][0]), c21 = Load2(&c[2][2]);
  Double2 c30 = Load2(&c[3][0]), c31 = Load2(&c[3][2]);
  for (std::size_t p = 0; p < rows; ++p) {
    const double* a = pi + p * kSyrkTile;
    const Double2 b0 = Load2(pj + p * kSyrkTile);
    const Double2 b1 = Load2(pj + p * kSyrkTile + 2);
    const Double2 a0 = {a[0], a[0]};
    const Double2 a1 = {a[1], a[1]};
    const Double2 a2 = {a[2], a[2]};
    const Double2 a3 = {a[3], a[3]};
    c00 += a0 * b0;
    c01 += a0 * b1;
    c10 += a1 * b0;
    c11 += a1 * b1;
    c20 += a2 * b0;
    c21 += a2 * b1;
    c30 += a3 * b0;
    c31 += a3 * b1;
  }
  Store2(c00, &c[0][0]);
  Store2(c01, &c[0][2]);
  Store2(c10, &c[1][0]);
  Store2(c11, &c[1][2]);
  Store2(c20, &c[2][0]);
  Store2(c21, &c[2][2]);
  Store2(c30, &c[3][0]);
  Store2(c31, &c[3][2]);
}

}  // namespace

Matrix Matmul(const Matrix& a, const Matrix& b) {
  P3GM_TRACE_SPAN("linalg.gemm");
  P3GM_CHECK(a.cols() == b.rows());
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  Matrix c(m, n);
  // Each worker owns a disjoint block of output rows; per element the
  // accumulation order over p is ascending, so the result is
  // bit-identical for any thread count.
  util::ParallelFor(0, m, kGemmRowGrain, [&](std::size_t rb, std::size_t re) {
    for (std::size_t i = rb; i < re; ++i) {
      const double* arow = a.row_data(i);
      double* crow = c.row_data(i);
      for (std::size_t p = 0; p < k; ++p) {
        const double av = arow[p];
        if (av == 0.0) continue;
        const double* brow = b.row_data(p);
        for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
  });
  return c;
}

Matrix MatmulTransA(const Matrix& a, const Matrix& b) {
  P3GM_TRACE_SPAN("linalg.gemm_ta");
  P3GM_CHECK(a.rows() == b.rows());
  const std::size_t m = a.cols(), k = a.rows(), n = b.cols();
  Matrix c(m, n);
  // Parallel over output rows (columns of A); p stays the outer serial
  // loop inside each block so every element still accumulates over p in
  // ascending order and B's rows are streamed sequentially.
  util::ParallelFor(0, m, kGemmRowGrain, [&](std::size_t rb, std::size_t re) {
    for (std::size_t p = 0; p < k; ++p) {
      const double* arow = a.row_data(p);
      const double* brow = b.row_data(p);
      for (std::size_t i = rb; i < re; ++i) {
        const double av = arow[i];
        if (av == 0.0) continue;
        double* crow = c.row_data(i);
        for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
  });
  return c;
}

Matrix MatmulTransB(const Matrix& a, const Matrix& b) {
  P3GM_TRACE_SPAN("linalg.gemm_tb");
  P3GM_CHECK(a.cols() == b.cols());
  const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
  Matrix c(m, n);
  util::ParallelFor(0, m, kGemmRowGrain, [&](std::size_t rb, std::size_t re) {
    for (std::size_t i = rb; i < re; ++i) {
      const double* arow = a.row_data(i);
      double* crow = c.row_data(i);
      for (std::size_t j = 0; j < n; ++j) {
        const double* brow = b.row_data(j);
        double s = 0.0;
        for (std::size_t p = 0; p < k; ++p) s += arow[p] * brow[p];
        crow[j] = s;
      }
    }
  });
  return c;
}

std::vector<double> MatVec(const Matrix& a, const std::vector<double>& x) {
  P3GM_CHECK(a.cols() == x.size());
  const std::size_t k = a.cols();
  std::vector<double> y(a.rows(), 0.0);
  // Each y[i] is one serial chain over j ascending. Rows are independent,
  // so any split over the pool is bit-identical; four rows per pass give
  // four independent add chains.
  const std::size_t grain = std::max<std::size_t>(1, kMatVecMinWork / (k + 1));
  util::ParallelFor(0, a.rows(), grain, [&](std::size_t rb, std::size_t re) {
    std::size_t i = rb;
    for (; i + 4 <= re; i += 4) {
      const double* r0 = a.row_data(i);
      const double* r1 = a.row_data(i + 1);
      const double* r2 = a.row_data(i + 2);
      const double* r3 = a.row_data(i + 3);
      double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
      for (std::size_t j = 0; j < k; ++j) {
        const double xj = x[j];
        s0 += r0[j] * xj;
        s1 += r1[j] * xj;
        s2 += r2[j] * xj;
        s3 += r3[j] * xj;
      }
      y[i] = s0;
      y[i + 1] = s1;
      y[i + 2] = s2;
      y[i + 3] = s3;
    }
    for (; i < re; ++i) {
      const double* arow = a.row_data(i);
      double s = 0.0;
      for (std::size_t j = 0; j < k; ++j) s += arow[j] * x[j];
      y[i] = s;
    }
  });
  return y;
}

std::vector<double> MatVecTransA(const Matrix& a,
                                 const std::vector<double>& x) {
  P3GM_CHECK(a.rows() == x.size());
  std::vector<double> y(a.cols(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* arow = a.row_data(i);
    const double xv = x[i];
    if (xv == 0.0) continue;
    for (std::size_t j = 0; j < a.cols(); ++j) y[j] += xv * arow[j];
  }
  return y;
}

double Dot(const std::vector<double>& a, const std::vector<double>& b) {
  P3GM_CHECK(a.size() == b.size());
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double SquaredNorm2(const std::vector<double>& a) { return Dot(a, a); }

double Norm2(const std::vector<double>& a) { return std::sqrt(Dot(a, a)); }

void Axpy(double alpha, const std::vector<double>& x,
          std::vector<double>* y) {
  P3GM_CHECK(x.size() == y->size());
  for (std::size_t i = 0; i < x.size(); ++i) (*y)[i] += alpha * x[i];
}

void Scale(double alpha, std::vector<double>* x) {
  for (double& v : *x) v *= alpha;
}

Matrix Outer(const std::vector<double>& a, const std::vector<double>& b) {
  Matrix m(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    double* row = m.row_data(i);
    for (std::size_t j = 0; j < b.size(); ++j) row[j] = a[i] * b[j];
  }
  return m;
}

void AddRowVector(const std::vector<double>& v, Matrix* m) {
  P3GM_CHECK(v.size() == m->cols());
  util::ParallelFor(0, m->rows(), kRowGrain,
                    [&](std::size_t rb, std::size_t re) {
                      for (std::size_t i = rb; i < re; ++i) {
                        double* row = m->row_data(i);
                        for (std::size_t j = 0; j < v.size(); ++j) {
                          row[j] += v[j];
                        }
                      }
                    });
}

std::vector<double> ColMeans(const Matrix& m) {
  std::vector<double> mean(m.cols(), 0.0);
  if (m.rows() == 0) return mean;
  for (std::size_t i = 0; i < m.rows(); ++i) {
    const double* row = m.row_data(i);
    for (std::size_t j = 0; j < m.cols(); ++j) mean[j] += row[j];
  }
  const double inv = 1.0 / static_cast<double>(m.rows());
  for (double& v : mean) v *= inv;
  return mean;
}

std::vector<double> RowSquaredNorms(const Matrix& m) {
  std::vector<double> out(m.rows(), 0.0);
  util::ParallelFor(0, m.rows(), kRowGrain,
                    [&](std::size_t rb, std::size_t re) {
                      for (std::size_t i = rb; i < re; ++i) {
                        const double* row = m.row_data(i);
                        double s = 0.0;
                        for (std::size_t j = 0; j < m.cols(); ++j) {
                          s += row[j] * row[j];
                        }
                        out[i] = s;
                      }
                    });
  return out;
}

void ScaleRows(const std::vector<double>& s, Matrix* m) {
  P3GM_CHECK(s.size() == m->rows());
  util::ParallelFor(0, m->rows(), kRowGrain,
                    [&](std::size_t rb, std::size_t re) {
                      for (std::size_t i = rb; i < re; ++i) {
                        double* row = m->row_data(i);
                        for (std::size_t j = 0; j < m->cols(); ++j) {
                          row[j] *= s[i];
                        }
                      }
                    });
}

Matrix Syrk(const Matrix& a) {
  P3GM_TRACE_SPAN("linalg.syrk");
  const std::size_t n = a.cols();
  const std::size_t panels = (n + kSyrkTile - 1) / kSyrkTile;
  Matrix c(n, n);
  // Panel t of a block holds columns [t * kSyrkTile, (t + 1) * kSyrkTile)
  // of its rows, k-major. Columns past n stay +0.0 padding; they only
  // reach tile entries that are never copied out.
  std::vector<double> packed(panels * kSyrkRowBlock * kSyrkTile, 0.0);
  std::vector<char> nonzero(panels);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> tiles;
  tiles.reserve(panels * (panels + 1) / 2);
  for (std::size_t p0 = 0; p0 < a.rows(); p0 += kSyrkRowBlock) {
    const std::size_t rows = std::min(kSyrkRowBlock, a.rows() - p0);
    std::fill(nonzero.begin(), nonzero.end(), 0);
    for (std::size_t p = 0; p < rows; ++p) {
      const double* src = a.row_data(p0 + p);
      for (std::size_t j = 0; j < n; ++j) {
        packed[((j / kSyrkTile) * kSyrkRowBlock + p) * kSyrkTile +
               j % kSyrkTile] = src[j];
        nonzero[j / kSyrkTile] |= src[j] != 0.0;
      }
    }
    // The upper-triangle tiles (I <= J) of this block in row-major order,
    // leaving out those whose panel I or J is all zeros: they would only
    // add +-0.0. Every listed tile costs the same, so ParallelFor's equal
    // contiguous split gives each worker an equal share of the work.
    tiles.clear();
    for (std::size_t ti = 0; ti < panels; ++ti) {
      if (!nonzero[ti]) continue;
      for (std::size_t tj = ti; tj < panels; ++tj) {
        if (nonzero[tj]) {
          tiles.emplace_back(static_cast<std::uint32_t>(ti),
                             static_cast<std::uint32_t>(tj));
        }
      }
    }
    // Each tile carries its partial sums in c from block to block, so
    // every element still sums over all data rows in ascending order.
    util::ParallelFor(
        0, tiles.size(), kSyrkTileGrain, [&](std::size_t tb, std::size_t te) {
          double acc[kSyrkTile][kSyrkTile];
          for (std::size_t t = tb; t < te; ++t) {
            const std::size_t i0 = tiles[t].first * kSyrkTile;
            const std::size_t j0 = tiles[t].second * kSyrkTile;
            const std::size_t ni = std::min(kSyrkTile, n - i0);
            const std::size_t nj = std::min(kSyrkTile, n - j0);
            for (std::size_t r = 0; r < kSyrkTile; ++r) {
              for (std::size_t s = 0; s < kSyrkTile; ++s) {
                acc[r][s] = r < ni && s < nj ? c(i0 + r, j0 + s) : 0.0;
              }
            }
            SyrkTile(&packed[i0 * kSyrkRowBlock], &packed[j0 * kSyrkRowBlock],
                     rows, acc);
            for (std::size_t r = 0; r < ni; ++r) {
              for (std::size_t s = 0; s < nj; ++s) {
                c(i0 + r, j0 + s) = acc[r][s];
              }
            }
          }
        });
  }
  // Mirror the upper triangle. Each worker writes a disjoint block of
  // rows of the lower triangle.
  util::ParallelFor(0, n, kRowGrain, [&](std::size_t rb, std::size_t re) {
    for (std::size_t j = std::max<std::size_t>(rb, 1); j < re; ++j) {
      double* crow = c.row_data(j);
      for (std::size_t i = 0; i < j; ++i) crow[i] = c(i, j);
    }
  });
  return c;
}

double MaxAbsDiff(const Matrix& a, const Matrix& b) {
  P3GM_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  // max is exactly associative, so the chunked reduction is bit-identical
  // to the serial scan for any grain and thread count.
  return util::ParallelReduce(
      0, a.rows(), kRowGrain, 0.0,
      [&](std::size_t rb, std::size_t re) {
        double m = 0.0;
        for (std::size_t i = rb; i < re; ++i) {
          const double* ra = a.row_data(i);
          const double* rb_row = b.row_data(i);
          for (std::size_t j = 0; j < a.cols(); ++j) {
            m = std::max(m, std::fabs(ra[j] - rb_row[j]));
          }
        }
        return m;
      },
      [](double* acc, double partial) { *acc = std::max(*acc, partial); });
}

}  // namespace linalg
}  // namespace p3gm
