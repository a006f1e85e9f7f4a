#ifndef P3GM_DP_MECHANISMS_H_
#define P3GM_DP_MECHANISMS_H_

#include <cstddef>
#include <vector>

#include "linalg/matrix.h"
#include "util/result.h"
#include "util/rng.h"

namespace p3gm {
namespace dp {

/// L2 gradient clipping ψ_C from DP-SGD (Abadi et al. 2016):
/// v <- v * min(1, C / ||v||_2). Bounds the L2 sensitivity of a sum of
/// per-example vectors by C. Requires clip_norm > 0.
void ClipL2(double clip_norm, std::vector<double>* v);

/// Returns the factor min(1, C / norm) applied by ClipL2 for a vector of
/// the given L2 norm.
double ClipFactor(double clip_norm, double norm);

/// Adds i.i.d. Laplace(sensitivity / epsilon) noise to every element of
/// `v`, the standard (epsilon, 0)-DP Laplace mechanism.
void LaplaceMechanism(double sensitivity, double epsilon,
                      std::vector<double>* v, util::Rng* rng);

/// Adds i.i.d. N(0, (noise_multiplier * sensitivity)^2) noise to every
/// element of `v`. With noise multiplier sigma this is the Gaussian
/// mechanism; its RDP cost is alpha / (2 sigma^2) per release (see
/// accountant.h).
void GaussianMechanism(double sensitivity, double noise_multiplier,
                       std::vector<double>* v, util::Rng* rng);

/// Matrix overload of the Gaussian mechanism (element-wise noise).
void GaussianMechanism(double sensitivity, double noise_multiplier,
                       linalg::Matrix* m, util::Rng* rng);

/// Exponential mechanism: samples an index i with probability proportional
/// to exp(epsilon * utilities[i] / (2 * sensitivity)). Computed in log
/// space, so large utility gaps are handled without overflow.
/// Fails on empty utilities or non-positive epsilon/sensitivity.
util::Result<std::size_t> ExponentialMechanism(
    const std::vector<double>& utilities, double sensitivity, double epsilon,
    util::Rng* rng);

/// Samples a d x d Wishart matrix W ~ W_d(df, c * I) via the Bartlett
/// decomposition. Used by the DP-PCA Wishart mechanism (Jiang et al. 2016),
/// where a noise matrix with df = d + 1 and c = 3 / (2 n epsilon) added to
/// the covariance gives (epsilon, 0)-DP.
/// Fails with InvalidArgument unless df and c are finite, df > d - 1 and
/// c > 0. The result is the dense Bartlett product A A^T bit for bit,
/// computed by linalg::Syrk on the transposed factor.
util::Result<linalg::Matrix> SampleWishart(std::size_t d, double df, double c,
                                           util::Rng* rng);

}  // namespace dp
}  // namespace p3gm

#endif  // P3GM_DP_MECHANISMS_H_
