#include "linalg/eigen_sym.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "linalg/ops.h"
#include "obs/trace.h"
#include "util/rng.h"

namespace p3gm {
namespace linalg {

namespace {

// Householder reduction of the symmetric matrix stored in `v` (n x n) to
// tridiagonal form; diagonal in `d`, subdiagonal in `e` (e[0] unused).
// On exit `v` holds the accumulated orthogonal transformation Q with
// A = Q * T * Q^T. Port of the EISPACK tred2 routine (0-based).
void Tred2(Matrix* v, std::vector<double>* d, std::vector<double>* e) {
  const std::size_t n = v->rows();
  Matrix& a = *v;
  d->assign(n, 0.0);
  e->assign(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) (*d)[j] = a(n - 1, j);

  for (std::size_t i = n - 1; i > 0; --i) {
    // Scale to avoid under/overflow.
    double scale = 0.0;
    double h = 0.0;
    if (i > 1) {
      for (std::size_t k = 0; k < i; ++k) scale += std::fabs((*d)[k]);
    }
    if (scale == 0.0) {
      (*e)[i] = (i > 0) ? (*d)[i - 1] : 0.0;
      for (std::size_t j = 0; j < i; ++j) {
        (*d)[j] = a(i - 1, j);
        a(i, j) = 0.0;
        a(j, i) = 0.0;
      }
    } else {
      for (std::size_t k = 0; k < i; ++k) {
        (*d)[k] /= scale;
        h += (*d)[k] * (*d)[k];
      }
      double f = (*d)[i - 1];
      double g = std::sqrt(h);
      if (f > 0) g = -g;
      (*e)[i] = scale * g;
      h -= f * g;
      (*d)[i - 1] = f - g;
      for (std::size_t j = 0; j < i; ++j) (*e)[j] = 0.0;

      // Apply similarity transformation to remaining rows.
      for (std::size_t j = 0; j < i; ++j) {
        f = (*d)[j];
        a(j, i) = f;
        g = (*e)[j] + a(j, j) * f;
        for (std::size_t k = j + 1; k <= i - 1; ++k) {
          g += a(k, j) * (*d)[k];
          (*e)[k] += a(k, j) * f;
        }
        (*e)[j] = g;
      }
      f = 0.0;
      for (std::size_t j = 0; j < i; ++j) {
        (*e)[j] /= h;
        f += (*e)[j] * (*d)[j];
      }
      const double hh = f / (h + h);
      for (std::size_t j = 0; j < i; ++j) (*e)[j] -= hh * (*d)[j];
      for (std::size_t j = 0; j < i; ++j) {
        f = (*d)[j];
        g = (*e)[j];
        for (std::size_t k = j; k <= i - 1; ++k) {
          a(k, j) -= f * (*e)[k] + g * (*d)[k];
        }
        (*d)[j] = a(i - 1, j);
        a(i, j) = 0.0;
      }
    }
    (*d)[i] = h;
  }

  // Accumulate transformations.
  for (std::size_t i = 0; i < n - 1; ++i) {
    a(n - 1, i) = a(i, i);
    a(i, i) = 1.0;
    const double h = (*d)[i + 1];
    if (h != 0.0) {
      for (std::size_t k = 0; k <= i; ++k) (*d)[k] = a(k, i + 1) / h;
      for (std::size_t j = 0; j <= i; ++j) {
        double g = 0.0;
        for (std::size_t k = 0; k <= i; ++k) g += a(k, i + 1) * a(k, j);
        for (std::size_t k = 0; k <= i; ++k) a(k, j) -= g * (*d)[k];
      }
    }
    for (std::size_t k = 0; k <= i; ++k) a(k, i + 1) = 0.0;
  }
  for (std::size_t j = 0; j < n; ++j) {
    (*d)[j] = a(n - 1, j);
    a(n - 1, j) = 0.0;
  }
  a(n - 1, n - 1) = 1.0;
  (*e)[0] = 0.0;
}

// Implicit-shift QL iteration on the tridiagonal (d, e); eigenvectors are
// accumulated into `v`. Port of the EISPACK tql2 routine (0-based).
// Returns false if an eigenvalue fails to converge in 50 iterations.
bool Tql2(Matrix* v, std::vector<double>* d, std::vector<double>* e) {
  const std::size_t n = v->rows();
  Matrix& a = *v;
  for (std::size_t i = 1; i < n; ++i) (*e)[i - 1] = (*e)[i];
  (*e)[n - 1] = 0.0;

  double f = 0.0;
  double tst1 = 0.0;
  const double eps = std::pow(2.0, -52.0);
  for (std::size_t l = 0; l < n; ++l) {
    tst1 = std::max(tst1, std::fabs((*d)[l]) + std::fabs((*e)[l]));
    std::size_t m = l;
    while (m < n) {
      if (std::fabs((*e)[m]) <= eps * tst1) break;
      ++m;
    }
    // For finite input e[n - 1] stays 0 and stops the scan; a NaN there
    // would send the sweep below past the end of d and e.
    if (m == n) return false;
    if (m > l) {
      int iter = 0;
      do {
        if (++iter > 50) return false;
        // Compute implicit shift.
        double g = (*d)[l];
        double p = ((*d)[l + 1] - g) / (2.0 * (*e)[l]);
        double r = std::hypot(p, 1.0);
        if (p < 0) r = -r;
        (*d)[l] = (*e)[l] / (p + r);
        (*d)[l + 1] = (*e)[l] * (p + r);
        const double dl1 = (*d)[l + 1];
        double h = g - (*d)[l];
        for (std::size_t i = l + 2; i < n; ++i) (*d)[i] -= h;
        f += h;

        // QL transformation.
        p = (*d)[m];
        double c = 1.0;
        double c2 = c, c3 = c;
        const double el1 = (*e)[l + 1];
        double s = 0.0, s2 = 0.0;
        for (std::size_t ii = m; ii-- > l;) {
          const std::size_t i = ii;
          c3 = c2;
          c2 = c;
          s2 = s;
          g = c * (*e)[i];
          h = c * p;
          r = std::hypot(p, (*e)[i]);
          (*e)[i + 1] = s * r;
          s = (*e)[i] / r;
          c = p / r;
          p = c * (*d)[i] - s * g;
          (*d)[i + 1] = h + s * (c * g + s * (*d)[i]);
          // Accumulate eigenvectors.
          for (std::size_t k = 0; k < n; ++k) {
            h = a(k, i + 1);
            a(k, i + 1) = s * a(k, i) + c * h;
            a(k, i) = c * a(k, i) - s * h;
          }
        }
        p = -s * s2 * c3 * el1 * (*e)[l] / dl1;
        (*e)[l] = s * p;
        (*d)[l] = c * p;
      } while (std::fabs((*e)[l]) > eps * tst1);
    }
    (*d)[l] += f;
    (*e)[l] = 0.0;
  }
  return true;
}

}  // namespace

util::Result<EigenDecomposition> EigenSym(const Matrix& a) {
  if (a.rows() != a.cols()) {
    return util::Status::InvalidArgument("EigenSym: matrix must be square");
  }
  const std::size_t n = a.rows();
  if (n == 0) return EigenDecomposition{{}, Matrix()};
  if (n == 1) {
    return EigenDecomposition{{a(0, 0)}, Matrix::Identity(1)};
  }

  EigenDecomposition out;
  out.vectors = a;  // tred2 works in place on a copy.
  std::vector<double> d, e;
  Tred2(&out.vectors, &d, &e);
  if (!Tql2(&out.vectors, &d, &e)) {
    return util::Status::NumericError("EigenSym: QL failed to converge");
  }

  // Sort eigenpairs descending.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t x, std::size_t y) { return d[x] > d[y]; });
  out.values.resize(n);
  Matrix sorted(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    out.values[j] = d[order[j]];
    for (std::size_t i = 0; i < n; ++i) sorted(i, j) = out.vectors(i, order[j]);
  }
  out.vectors = std::move(sorted);
  return out;
}

util::Result<EigenDecomposition> TopKEigenSym(const Matrix& a, std::size_t k,
                                              std::size_t iters,
                                              std::uint64_t seed) {
  if (a.rows() != a.cols()) {
    return util::Status::InvalidArgument(
        "TopKEigenSym: matrix must be square");
  }
  const std::size_t n = a.rows();
  if (k > n) {
    return util::Status::InvalidArgument("TopKEigenSym: k exceeds dimension");
  }
  P3GM_TRACE_SPAN("linalg.topk_eigen");
  util::Rng rng(seed);
  Matrix work = a;  // Deflated in place.
  EigenDecomposition out;
  out.values.reserve(k);
  out.vectors = Matrix(n, k);

  for (std::size_t c = 0; c < k; ++c) {
    std::vector<double> v(n);
    for (double& x : v) x = rng.Normal();
    double norm = Norm2(v);
    for (double& x : v) x /= norm;
    double lambda = 0.0;
    // w = work * v always holds at the top of a step: the product that
    // gives the Rayleigh quotient of this step's v is the next step's w.
    std::vector<double> w = MatVec(work, v);
    for (std::size_t it = 0; it < iters; ++it) {
      norm = Norm2(w);
      if (norm < 1e-300) {  // Matrix is (numerically) zero after deflation.
        w.assign(n, 0.0);
        w[c % n] = 1.0;
        norm = 1.0;
      }
      for (std::size_t i = 0; i < n; ++i) v[i] = w[i] / norm;
      w = MatVec(work, v);
      lambda = Dot(v, w);
    }
    out.values.push_back(lambda);
    for (std::size_t i = 0; i < n; ++i) out.vectors(i, c) = v[i];
    // Hotelling deflation: work -= lambda v v^T.
    for (std::size_t i = 0; i < n; ++i) {
      double* row = work.row_data(i);
      const double vi = lambda * v[i];
      for (std::size_t j = 0; j < n; ++j) row[j] -= vi * v[j];
    }
  }
  return out;
}

}  // namespace linalg
}  // namespace p3gm
