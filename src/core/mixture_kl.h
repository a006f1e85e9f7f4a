#ifndef P3GM_CORE_MIXTURE_KL_H_
#define P3GM_CORE_MIXTURE_KL_H_

#include "linalg/matrix.h"
#include "nn/losses.h"
#include "stats/gmm.h"

namespace p3gm {
namespace core {

/// Batched KL(N(mu_i, diag(var_i)) || MoG) with the gradient P3GM's
/// decoding phase needs. The value uses the Hershey–Olsen variational
/// approximation D = -log sum_b pi_b exp(-KL_b) (paper Section IV-D);
/// the gradient flows only to the log-variances because the encoder mean
/// is frozen to f(x) (Section V-B), so `grad_mu` stays empty. It shares
/// the result type of nn::StandardNormalKl, the VAE's KL term.
using MixtureKlResult = nn::KlResult;

/// `mu` and `logvar` are (B x d) with d == prior.dim(). When `mean` is
/// true the value and gradients carry a 1/B factor (standard training);
/// when false they are per-example sums (the DP-SGD path).
MixtureKlResult MixturePriorKl(const linalg::Matrix& mu,
                               const linalg::Matrix& logvar,
                               const stats::GaussianMixture& prior,
                               bool mean = true);

}  // namespace core
}  // namespace p3gm

#endif  // P3GM_CORE_MIXTURE_KL_H_
