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

// Minimum rows per worker for the O(rows * cols) element-wise kernels.
constexpr std::size_t kRowGrain = 64;

// Minimum multiply-adds per MatVec block: a 784 x 784 power-iteration
// step splits over the pool, while the small per-sample products of the
// synthetic generators run inline.
constexpr std::size_t kMatVecMinWork = std::size_t{1} << 16;

// The product kernels run kTile x kTile register tiles over k-major
// panels of kTile columns. Syrk repacks kSyrkRowBlock data rows at a
// time; a panel (256 x 4 doubles, 8 KiB) stays in L1 while a tile sweeps
// its row of the triangle, and a whole block of 784 columns (1.6 MB)
// stays in L2/L3 for the sweep.
constexpr std::size_t kTile = 4;
constexpr std::size_t kSyrkRowBlock = 256;
constexpr std::size_t kSyrkTileGrain = 8;

// Gemm depth blocking: a worker packs at most kGemmDepth rows of a left
// panel (8 KiB, on its stack) and sweeps them across every right panel.
// kGemmMinWork is the fewest multiply-adds a pool block may get, so the
// b x 100 x 10 products of the d' = 10 heads run inline.
constexpr std::size_t kGemmDepth = 256;
constexpr std::size_t kGemmMinWork = std::size_t{1} << 19;

// Two doubles in one SIMD register (SSE2 on x86-64, NEON on AArch64).
// The lanes never interact, so each holds an independent output element.
typedef double Double2 __attribute__((vector_size(16)));

inline Double2 Load2(const double* p) {
  Double2 v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline Double2 Swap2(Double2 v) { return Double2{v[1], v[0]}; }

inline void Unpair(Double2 v, double* lo, double* hi) {
  *lo = v[0];
  *hi = v[1];
}

// c += pi^T pj for one kTile x kTile tile over `rows` packed rows:
// c[r * ldc + t] += pi[p][r] * pj[p][t] for p ascending, a multiply then
// an add per term (this TU is built with -ffp-contract=off). Each
// register pairs two elements on a diagonal, e.g. d1 = (c[0][1],
// c[1][0]), so a step multiplies (a0, a1) and (a2, a3) by (b0, b1),
// (b1, b0), (b2, b3) and (b3, b2): two shuffles per step instead of four
// broadcasts.
void TileMulAdd(const double* pi, const double* pj, std::size_t rows,
                double* c, std::size_t ldc) {
  static_assert(kTile == 4, "TileMulAdd is written out for 4 x 4 tiles");
  double* c0 = c;
  double* c1 = c + ldc;
  double* c2 = c + 2 * ldc;
  double* c3 = c + 3 * ldc;
  Double2 d0 = {c0[0], c1[1]}, d1 = {c0[1], c1[0]};
  Double2 d2 = {c0[2], c1[3]}, d3 = {c0[3], c1[2]};
  Double2 d4 = {c2[0], c3[1]}, d5 = {c2[1], c3[0]};
  Double2 d6 = {c2[2], c3[3]}, d7 = {c2[3], c3[2]};
  for (std::size_t p = 0; p < rows; ++p) {
    const Double2 a01 = Load2(pi + p * kTile);
    const Double2 a23 = Load2(pi + p * kTile + 2);
    const Double2 b01 = Load2(pj + p * kTile);
    const Double2 b23 = Load2(pj + p * kTile + 2);
    const Double2 b10 = Swap2(b01);
    const Double2 b32 = Swap2(b23);
    d0 += a01 * b01;
    d1 += a01 * b10;
    d2 += a01 * b23;
    d3 += a01 * b32;
    d4 += a23 * b01;
    d5 += a23 * b10;
    d6 += a23 * b23;
    d7 += a23 * b32;
  }
  Unpair(d0, &c0[0], &c1[1]);
  Unpair(d1, &c0[1], &c1[0]);
  Unpair(d2, &c0[2], &c1[3]);
  Unpair(d3, &c0[3], &c1[2]);
  Unpair(d4, &c2[0], &c3[1]);
  Unpair(d5, &c2[1], &c3[0]);
  Unpair(d6, &c2[2], &c3[3]);
  Unpair(d7, &c2[3], &c3[2]);
}

// Runs TileMulAdd on the kTile x kTile block of `c` at (i0, j0), carrying
// the block's current values as the partial sums, so a sum split over
// several calls still runs p in ascending order. A tile that crosses the
// edge of `c` runs on a copy whose entries past the edge start at +0.0
// and are dropped.
void UpdateTile(const double* pi, const double* pj, std::size_t rows,
                std::size_t i0, std::size_t j0, Matrix* c) {
  const std::size_t ni = std::min(kTile, c->rows() - i0);
  const std::size_t nj = std::min(kTile, c->cols() - j0);
  if (ni == kTile && nj == kTile) {
    TileMulAdd(pi, pj, rows, c->row_data(i0) + j0, c->cols());
    return;
  }
  double acc[kTile * kTile] = {};
  for (std::size_t r = 0; r < ni; ++r) {
    for (std::size_t s = 0; s < nj; ++s) {
      acc[r * kTile + s] = (*c)(i0 + r, j0 + s);
    }
  }
  TileMulAdd(pi, pj, rows, acc, kTile);
  for (std::size_t r = 0; r < ni; ++r) {
    for (std::size_t s = 0; s < nj; ++s) {
      (*c)(i0 + r, j0 + s) = acc[r * kTile + s];
    }
  }
}

// How a gemm reads one operand: element (p, i) of the operand, where p
// runs over the summed dimension and i over the output rows (left) or
// columns (right), is data[p * p_stride + i * i_stride].
struct Operand {
  const double* data;
  std::size_t p_stride;
  std::size_t i_stride;
};

// Copies rows [p0, p1) of columns [i0, i0 + kTile) of `x` into a k-major
// panel. Columns at or past `cols` are +0.0 padding; they reach only tile
// entries that UpdateTile drops.
void PackPanel(const Operand& x, std::size_t p0, std::size_t p1,
               std::size_t i0, std::size_t cols, double* panel) {
  const std::size_t w = std::min(kTile, cols - i0);
  const std::size_t s = x.i_stride;
  const double* src = x.data + p0 * x.p_stride + i0 * s;
  for (std::size_t p = p0; p < p1; ++p, src += x.p_stride, panel += kTile) {
    if (w == kTile) {
      panel[0] = src[0];
      panel[1] = src[s];
      panel[2] = src[2 * s];
      panel[3] = src[3 * s];
    } else {
      for (std::size_t t = 0; t < kTile; ++t) {
        panel[t] = t < w ? src[t * s] : 0.0;
      }
    }
  }
}

// The gemm family: C (m x n) with C_ij = sum_p left(p, i) * right(p, j)
// over p ascending from +0.0. The three Matmul variants differ only in
// how they read their operands.
//
// The whole right panels are packed once per call, into a buffer no
// larger than the operand; a ragged last panel is packed by each worker.
// Left panels are dealt evenly over the pool, and each worker writes
// only the output rows of its own panels. The depth is split into equal
// blocks of at most kGemmDepth rows; per block a worker packs one left
// panel at a time onto its stack and sweeps it across every right panel.
Matrix Gemm(std::size_t m, std::size_t k, std::size_t n, const Operand& left,
            const Operand& right) {
  Matrix c(m, n);
  const std::size_t full = n / kTile;
  const std::size_t panels = (n + kTile - 1) / kTile;
  std::vector<double> packed(full * k * kTile);
  for (std::size_t jp = 0; jp < full; ++jp) {
    PackPanel(right, 0, k, jp * kTile, n, &packed[jp * k * kTile]);
  }
  const std::size_t blocks = (k + kGemmDepth - 1) / kGemmDepth;
  const std::size_t grain = kGemmMinWork / (kTile * k * n + 1) + 1;
  util::ParallelFor(
      0, (m + kTile - 1) / kTile, grain, [&](std::size_t ib, std::size_t ie) {
        double lp[kGemmDepth * kTile] = {};
        double rp[kGemmDepth * kTile] = {};
        for (std::size_t kb = 0; kb < blocks; ++kb) {
          const std::size_t p0 = kb * k / blocks;
          const std::size_t p1 = (kb + 1) * k / blocks;
          if (full < panels) PackPanel(right, p0, p1, full * kTile, n, rp);
          for (std::size_t ip = ib; ip < ie; ++ip) {
            PackPanel(left, p0, p1, ip * kTile, m, lp);
            for (std::size_t jp = 0; jp < panels; ++jp) {
              const double* pj =
                  jp < full ? &packed[(jp * k + p0) * kTile] : rp;
              UpdateTile(lp, pj, p1 - p0, ip * kTile, jp * kTile, &c);
            }
          }
        }
      });
  return c;
}

}  // namespace

Matrix Matmul(const Matrix& a, const Matrix& b) {
  P3GM_TRACE_SPAN("linalg.gemm");
  P3GM_CHECK(a.cols() == b.rows());
  return Gemm(a.rows(), a.cols(), b.cols(), {a.data(), 1, a.cols()},
              {b.data(), b.cols(), 1});
}

Matrix MatmulTransA(const Matrix& a, const Matrix& b) {
  P3GM_TRACE_SPAN("linalg.gemm_ta");
  P3GM_CHECK(a.rows() == b.rows());
  return Gemm(a.cols(), a.rows(), b.cols(), {a.data(), a.cols(), 1},
              {b.data(), b.cols(), 1});
}

Matrix MatmulTransB(const Matrix& a, const Matrix& b) {
  P3GM_TRACE_SPAN("linalg.gemm_tb");
  P3GM_CHECK(a.cols() == b.cols());
  return Gemm(a.rows(), a.cols(), b.rows(), {a.data(), 1, a.cols()},
              {b.data(), 1, b.cols()});
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
  const std::size_t panels = (n + kTile - 1) / kTile;
  Matrix c(n, n);
  // Panel t of a block holds columns [t * kTile, (t + 1) * kTile) of its
  // rows, k-major. Columns past n stay +0.0 padding; they only reach tile
  // entries that are never copied out.
  std::vector<double> packed(panels * kSyrkRowBlock * kTile, 0.0);
  std::vector<char> nonzero(panels);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> tiles;
  tiles.reserve(panels * (panels + 1) / 2);
  for (std::size_t p0 = 0; p0 < a.rows(); p0 += kSyrkRowBlock) {
    const std::size_t rows = std::min(kSyrkRowBlock, a.rows() - p0);
    std::fill(nonzero.begin(), nonzero.end(), 0);
    for (std::size_t p = 0; p < rows; ++p) {
      const double* src = a.row_data(p0 + p);
      for (std::size_t j = 0; j < n; ++j) {
        packed[((j / kTile) * kSyrkRowBlock + p) * kTile + j % kTile] = src[j];
        nonzero[j / kTile] |= src[j] != 0.0;
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
          for (std::size_t t = tb; t < te; ++t) {
            const std::size_t i0 = tiles[t].first * kTile;
            const std::size_t j0 = tiles[t].second * kTile;
            UpdateTile(&packed[i0 * kSyrkRowBlock],
                       &packed[j0 * kSyrkRowBlock], rows, i0, j0, &c);
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
