#include "linalg/ops.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <utility>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "linalg/tier.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace p3gm {
namespace linalg {

namespace {

using internal::Tier;

// Minimum rows per worker for the O(rows * cols) element-wise kernels.
constexpr std::size_t kRowGrain = 64;

// Minimum multiply-adds per MatVec block: a 784 x 784 power-iteration
// step splits over the pool, while the small per-sample products of the
// synthetic generators run inline.
constexpr std::size_t kMatVecMinWork = std::size_t{1} << 16;

// The products run W x W register tiles over k-major panels of W packed
// columns, where W is the tier's panel width. Syrk repacks kSyrkRowBlock
// data rows at a time; a panel (256 x 8 doubles, 16 KiB) stays in L1
// while a tile sweeps its row of the triangle, and a whole block of 784
// columns (1.6 MB) stays in L2/L3 for the sweep.
constexpr std::size_t kSyrkRowBlock = 256;
constexpr std::size_t kSyrkTileGrain = 8;

// Gemm depth blocking: a worker packs at most kGemmDepth rows of a left
// panel (16 KiB, on its stack) and sweeps them across every right panel.
// kGemmMinWork is the fewest multiply-adds a pool block may get, so the
// b x 100 x 10 products of the d' = 10 heads run inline.
constexpr std::size_t kGemmDepth = 256;
constexpr std::size_t kGemmMinWork = std::size_t{1} << 19;

// The fewest doubles a pool block of a pack copies, so the packs of the
// small products run inline.
constexpr std::size_t kPackMinWork = std::size_t{1} << 14;

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

// A tier's tile: Update(pi, pj, ldb, rows, ni, nj, c, ldc) adds
// pi^T pj to the ni x nj block at c (row stride ldc), where pi is a
// packed left panel (row p at pi + p * kWidth) and pj a right panel
// (row p at pj + p * ldb), both zero past their edge. Each element of
// the block runs c += pi[p][r] * pj[p][t] for p ascending over `rows`,
// a multiply then an add per term (this TU is built with
// -ffp-contract=off), carrying the block's current values as the
// partial sums, so a sum split over several calls still runs p in
// ascending order.

// The portable tier: 4 x 4 tiles. Each register pairs two elements on a
// diagonal, e.g. d1 = (c[0][1], c[1][0]), so a step multiplies (a0, a1)
// and (a2, a3) by (b0, b1), (b1, b0), (b2, b3) and (b3, b2): two
// shuffles per step instead of four broadcasts.
struct PortableTile {
  static constexpr std::size_t kWidth = 4;

  static void MulAdd(const double* pi, const double* pj, std::size_t ldb,
                     std::size_t rows, double* c, std::size_t ldc) {
    double* c0 = c;
    double* c1 = c + ldc;
    double* c2 = c + 2 * ldc;
    double* c3 = c + 3 * ldc;
    Double2 d0 = {c0[0], c1[1]}, d1 = {c0[1], c1[0]};
    Double2 d2 = {c0[2], c1[3]}, d3 = {c0[3], c1[2]};
    Double2 d4 = {c2[0], c3[1]}, d5 = {c2[1], c3[0]};
    Double2 d6 = {c2[2], c3[3]}, d7 = {c2[3], c3[2]};
    for (std::size_t p = 0; p < rows; ++p) {
      const Double2 a01 = Load2(pi + p * kWidth);
      const Double2 a23 = Load2(pi + p * kWidth + 2);
      const Double2 b01 = Load2(pj + p * ldb);
      const Double2 b23 = Load2(pj + p * ldb + 2);
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

  // A block that crosses the edge of C runs on a copy whose entries past
  // the edge start at +0.0 and are dropped.
  static void Update(const double* pi, const double* pj, std::size_t ldb,
                     std::size_t rows, std::size_t ni, std::size_t nj,
                     double* c, std::size_t ldc) {
    if (ni == kWidth && nj == kWidth) {
      MulAdd(pi, pj, ldb, rows, c, ldc);
      return;
    }
    double acc[kWidth * kWidth] = {};
    for (std::size_t r = 0; r < ni; ++r) {
      for (std::size_t s = 0; s < nj; ++s) acc[r * kWidth + s] = c[r * ldc + s];
    }
    MulAdd(pi, pj, ldb, rows, acc, kWidth);
    for (std::size_t r = 0; r < ni; ++r) {
      for (std::size_t s = 0; s < nj; ++s) c[r * ldc + s] = acc[r * kWidth + s];
    }
  }
};

#if defined(__x86_64__)
#define P3GM_LINALG_AVX512 1

// The AVX-512 tier: R x 8 tiles, R = 1..8. Row r of the block is one
// 8-lane register; a step broadcasts pi[p][r] and multiplies it by the 8
// columns of pj's row p. The lanes of columns past nj start at +0.0 and
// are never stored, so a ragged block costs R rows, not 8, and needs no
// copy.
template <std::size_t R>
__attribute__((target("avx512f"))) void Avx512MulAdd(
    const double* pi, const double* pj, std::size_t ldb, std::size_t rows,
    unsigned cols, double* c, std::size_t ldc) {
  const __mmask8 mask = static_cast<__mmask8>(cols);
  __m512d acc[R];
#pragma GCC unroll 8
  for (std::size_t r = 0; r < R; ++r) {
    acc[r] = _mm512_maskz_loadu_pd(mask, c + r * ldc);
  }
  for (std::size_t p = 0; p < rows; ++p) {
    const __m512d b = _mm512_loadu_pd(pj + p * ldb);
#pragma GCC unroll 8
    for (std::size_t r = 0; r < R; ++r) {
      acc[r] = _mm512_add_pd(acc[r],
                             _mm512_mul_pd(_mm512_set1_pd(pi[p * 8 + r]), b));
    }
  }
#pragma GCC unroll 8
  for (std::size_t r = 0; r < R; ++r) {
    _mm512_mask_storeu_pd(c + r * ldc, mask, acc[r]);
  }
}

struct Avx512Tile {
  static constexpr std::size_t kWidth = 8;

  static void Update(const double* pi, const double* pj, std::size_t ldb,
                     std::size_t rows, std::size_t ni, std::size_t nj,
                     double* c, std::size_t ldc) {
    const unsigned cols = (1u << nj) - 1;
    switch (ni) {
      case 1: return Avx512MulAdd<1>(pi, pj, ldb, rows, cols, c, ldc);
      case 2: return Avx512MulAdd<2>(pi, pj, ldb, rows, cols, c, ldc);
      case 3: return Avx512MulAdd<3>(pi, pj, ldb, rows, cols, c, ldc);
      case 4: return Avx512MulAdd<4>(pi, pj, ldb, rows, cols, c, ldc);
      case 5: return Avx512MulAdd<5>(pi, pj, ldb, rows, cols, c, ldc);
      case 6: return Avx512MulAdd<6>(pi, pj, ldb, rows, cols, c, ldc);
      case 7: return Avx512MulAdd<7>(pi, pj, ldb, rows, cols, c, ldc);
      default: return Avx512MulAdd<8>(pi, pj, ldb, rows, cols, c, ldc);
    }
  }
};
#endif

// How a gemm reads one operand: element (p, i) of the operand, where p
// runs over the summed dimension and i over the output rows (left) or
// columns (right), is data[p * p_stride + i * i_stride].
struct Operand {
  const double* data;
  std::size_t p_stride;
  std::size_t i_stride;
};

// Copies rows [p0, p1) of columns [i0, i0 + W) of `x` into a k-major
// panel. Columns at or past `cols` are +0.0 padding; they reach only
// tile entries that Update drops.
template <std::size_t W>
void PackPanel(const Operand& x, std::size_t p0, std::size_t p1,
               std::size_t i0, std::size_t cols, double* panel) {
  const std::size_t w = std::min(W, cols - i0);
  const std::size_t s = x.i_stride;
  const double* src = x.data + p0 * x.p_stride + i0 * s;
  for (std::size_t p = p0; p < p1; ++p, src += x.p_stride, panel += W) {
    if (w == W && s == 1) {
      std::memcpy(panel, src, W * sizeof(double));
    } else if (w == W) {
      for (std::size_t t = 0; t < W; ++t) panel[t] = src[t * s];
    } else {
      for (std::size_t t = 0; t < W; ++t) panel[t] = t < w ? src[t * s] : 0.0;
    }
  }
}

// The gemm family: C (m x n) with C_ij = sum_p left(p, i) * right(p, j)
// over p ascending from +0.0. The three Matmul variants differ only in
// how they read their operands.
//
// When more than one left panel reuses them, the right operand's full
// panels are packed once per call into a buffer no larger than the
// operand, each worker packing a disjoint run of them. A single left
// panel instead reads a row-major right operand in place, or packs each
// right panel where it uses it. A ragged last right panel is packed per
// worker and depth block. Left panels are dealt evenly over the pool,
// and each worker writes only the output rows of its own panels. The
// depth is split into equal blocks of at most kGemmDepth rows; per block
// a worker packs one left panel at a time onto its stack and sweeps it
// across every right panel.
template <typename Tile>
Matrix GemmOn(std::size_t m, std::size_t k, std::size_t n,
              const Operand& left, const Operand& right) {
  constexpr std::size_t W = Tile::kWidth;
  Matrix c(m, n);
  const std::size_t full = n / W;
  const std::size_t panels = (n + W - 1) / W;
  const std::size_t left_panels = (m + W - 1) / W;
  const bool pack_once = left_panels > 1;
  std::vector<double> packed(pack_once ? full * k * W : 0);
  if (pack_once) {
    util::ParallelFor(0, full, kPackMinWork / (k * W + 1) + 1,
                      [&](std::size_t jb, std::size_t je) {
                        for (std::size_t jp = jb; jp < je; ++jp) {
                          PackPanel<W>(right, 0, k, jp * W, n,
                                       packed.data() + jp * k * W);
                        }
                      });
  }
  const std::size_t blocks = (k + kGemmDepth - 1) / kGemmDepth;
  const std::size_t grain = kGemmMinWork / (W * k * n + 1) + 1;
  util::ParallelFor(
      0, left_panels, grain, [&](std::size_t ib, std::size_t ie) {
        alignas(64) double lp[kGemmDepth * W];
        alignas(64) double rp[kGemmDepth * W];
        for (std::size_t kb = 0; kb < blocks; ++kb) {
          const std::size_t p0 = kb * k / blocks;
          const std::size_t p1 = (kb + 1) * k / blocks;
          if (pack_once && full < panels) {
            PackPanel<W>(right, p0, p1, full * W, n, rp);
          }
          for (std::size_t ip = ib; ip < ie; ++ip) {
            const std::size_t i0 = ip * W;
            PackPanel<W>(left, p0, p1, i0, m, lp);
            for (std::size_t jp = 0; jp < panels; ++jp) {
              const std::size_t j0 = jp * W;
              const double* pj = rp;
              std::size_t ldb = W;
              if (jp < full && pack_once) {
                pj = packed.data() + (jp * k + p0) * W;
              } else if (jp < full && right.i_stride == 1) {
                pj = right.data + p0 * right.p_stride + j0;
                ldb = right.p_stride;
              } else if (!pack_once) {
                PackPanel<W>(right, p0, p1, j0, n, rp);
              }
              Tile::Update(lp, pj, ldb, p1 - p0, std::min(W, m - i0),
                           std::min(W, n - j0), c.row_data(i0) + j0, n);
            }
          }
        }
      });
  return c;
}

// A^T A for Syrk. Per block of kSyrkRowBlock data rows, each worker
// packs a disjoint run of W-column panels and flags the panels that hold
// a nonzero (NaN counts as one).
template <typename Tile>
Matrix SyrkOn(const Matrix& a) {
  constexpr std::size_t W = Tile::kWidth;
  const std::size_t n = a.cols();
  const std::size_t panels = (n + W - 1) / W;
  Matrix c(n, n);
  // Panel t of a block holds columns [t * W, (t + 1) * W) of its rows,
  // k-major. Columns past n are +0.0 padding; they only reach tile
  // entries that are never copied out.
  std::vector<double> packed(panels * kSyrkRowBlock * W);
  std::vector<char> nonzero(panels);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> tiles;
  tiles.reserve(panels * (panels + 1) / 2);
  const Operand rows_of_a = {a.data(), n, 1};
  for (std::size_t p0 = 0; p0 < a.rows(); p0 += kSyrkRowBlock) {
    const std::size_t rows = std::min(kSyrkRowBlock, a.rows() - p0);
    util::ParallelFor(
        0, panels, kPackMinWork / (rows * W) + 1,
        [&](std::size_t tb, std::size_t te) {
          for (std::size_t t = tb; t < te; ++t) {
            double* panel = packed.data() + t * kSyrkRowBlock * W;
            PackPanel<W>(rows_of_a, p0, p0 + rows, t * W, n, panel);
            nonzero[t] = std::any_of(panel, panel + rows * W,
                                     [](double v) { return v != 0.0; });
          }
        });
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
            const std::size_t i0 = tiles[t].first * W;
            const std::size_t j0 = tiles[t].second * W;
            Tile::Update(packed.data() + i0 * kSyrkRowBlock,
                         packed.data() + j0 * kSyrkRowBlock, W, rows,
                         std::min(W, n - i0), std::min(W, n - j0),
                         c.row_data(i0) + j0, n);
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

Matrix Gemm(Tier tier, std::size_t m, std::size_t k, std::size_t n,
            const Operand& left, const Operand& right) {
  P3GM_CHECK(internal::TierSupported(tier));
#if defined(P3GM_LINALG_AVX512)
  if (tier == Tier::kAvx512) return GemmOn<Avx512Tile>(m, k, n, left, right);
#endif
  return GemmOn<PortableTile>(m, k, n, left, right);
}

}  // namespace

namespace internal {

const char* TierName(Tier tier) {
  switch (tier) {
    case Tier::kPortable: return "portable";
    case Tier::kAvx512: return "avx512";
  }
  return "?";
}

bool TierSupported(Tier tier) {
  if (tier == Tier::kPortable) return true;
#if defined(P3GM_LINALG_AVX512)
  // __builtin_cpu_supports consults CPUID and XGETBV, so an OS that does
  // not save the zmm and mask registers reports unsupported.
  static const bool avx512 = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f") != 0;
  }();
  return tier == Tier::kAvx512 && avx512;
#else
  return false;
#endif
}

Tier ActiveTier() {
  return TierSupported(Tier::kAvx512) ? Tier::kAvx512 : Tier::kPortable;
}

Matrix Matmul(Tier tier, const Matrix& a, const Matrix& b) {
  P3GM_CHECK(a.cols() == b.rows());
  return Gemm(tier, a.rows(), a.cols(), b.cols(), {a.data(), 1, a.cols()},
              {b.data(), b.cols(), 1});
}

Matrix MatmulTransA(Tier tier, const Matrix& a, const Matrix& b) {
  P3GM_CHECK(a.rows() == b.rows());
  return Gemm(tier, a.cols(), a.rows(), b.cols(), {a.data(), a.cols(), 1},
              {b.data(), b.cols(), 1});
}

Matrix MatmulTransB(Tier tier, const Matrix& a, const Matrix& b) {
  P3GM_CHECK(a.cols() == b.cols());
  return Gemm(tier, a.rows(), a.cols(), b.rows(), {a.data(), 1, a.cols()},
              {b.data(), 1, b.cols()});
}

Matrix Syrk(Tier tier, const Matrix& a) {
  P3GM_CHECK(TierSupported(tier));
#if defined(P3GM_LINALG_AVX512)
  if (tier == Tier::kAvx512) return SyrkOn<Avx512Tile>(a);
#endif
  return SyrkOn<PortableTile>(a);
}

}  // namespace internal

Matrix Matmul(const Matrix& a, const Matrix& b) {
  P3GM_TRACE_SPAN("linalg.gemm");
  return internal::Matmul(internal::ActiveTier(), a, b);
}

Matrix MatmulTransA(const Matrix& a, const Matrix& b) {
  P3GM_TRACE_SPAN("linalg.gemm_ta");
  return internal::MatmulTransA(internal::ActiveTier(), a, b);
}

Matrix MatmulTransB(const Matrix& a, const Matrix& b) {
  P3GM_TRACE_SPAN("linalg.gemm_tb");
  return internal::MatmulTransB(internal::ActiveTier(), a, b);
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
  return internal::Syrk(internal::ActiveTier(), a);
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
