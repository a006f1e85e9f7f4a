#ifndef P3GM_LINALG_EIGEN_SYM_H_
#define P3GM_LINALG_EIGEN_SYM_H_

#include <vector>

#include "linalg/matrix.h"
#include "util/result.h"

namespace p3gm {
namespace linalg {

/// Full eigendecomposition of a real symmetric matrix.
struct EigenDecomposition {
  /// Eigenvalues sorted in descending order.
  std::vector<double> values;
  /// Column j of `vectors` is the unit eigenvector for values[j].
  Matrix vectors;
};

/// Computes all eigenpairs of the symmetric matrix `a` via Householder
/// tridiagonalization followed by the implicit-shift QL iteration (the
/// classic tred2/tql2 pair). O(n^3), accurate to machine precision for
/// well-conditioned inputs.
///
/// Returns InvalidArgument for non-square input and NumericError if QL
/// fails to converge within 50 iterations per eigenvalue (essentially
/// impossible for finite symmetric input) or meets a NaN.
util::Result<EigenDecomposition> EigenSym(const Matrix& a);

/// Computes the top-`k` eigenpairs of the symmetric PSD matrix `a` by
/// power iteration with Hotelling deflation; cheaper than EigenSym when
/// k << n. `iters` power steps are used per component.
///
/// Intended for large covariance matrices where only the leading principal
/// components are needed (the DP-PCA path).
util::Result<EigenDecomposition> TopKEigenSym(const Matrix& a, std::size_t k,
                                              std::size_t iters = 200,
                                              std::uint64_t seed = 7);

}  // namespace linalg
}  // namespace p3gm

#endif  // P3GM_LINALG_EIGEN_SYM_H_
