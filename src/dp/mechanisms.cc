#include "dp/mechanisms.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "audit/fault_injection.h"
#include "linalg/ops.h"
#include "obs/trace.h"

namespace p3gm {
namespace dp {

double ClipFactor(double clip_norm, double norm) {
  P3GM_CHECK(clip_norm > 0.0);
  if (audit::SkipClip()) return 1.0;
  if (norm <= clip_norm || norm == 0.0) return 1.0;
  return clip_norm / norm;
}

void ClipL2(double clip_norm, std::vector<double>* v) {
  const double factor = ClipFactor(clip_norm, linalg::Norm2(*v));
  if (factor < 1.0) linalg::Scale(factor, v);
}

void LaplaceMechanism(double sensitivity, double epsilon,
                      std::vector<double>* v, util::Rng* rng) {
  P3GM_CHECK(sensitivity > 0.0 && epsilon > 0.0);
  const double scale = audit::NoiseScale() * sensitivity / epsilon;
  for (double& x : *v) x += rng->Laplace(scale);
}

void GaussianMechanism(double sensitivity, double noise_multiplier,
                       std::vector<double>* v, util::Rng* rng) {
  P3GM_CHECK(sensitivity > 0.0 && noise_multiplier >= 0.0);
  if (noise_multiplier == 0.0) return;
  const double stddev = audit::NoiseScale() * noise_multiplier * sensitivity;
  for (double& x : *v) x += rng->Normal(0.0, stddev);
}

void GaussianMechanism(double sensitivity, double noise_multiplier,
                       linalg::Matrix* m, util::Rng* rng) {
  P3GM_CHECK(sensitivity > 0.0 && noise_multiplier >= 0.0);
  if (noise_multiplier == 0.0) return;
  const double stddev = audit::NoiseScale() * noise_multiplier * sensitivity;
  double* data = m->data();
  for (std::size_t i = 0; i < m->size(); ++i) data[i] += rng->Normal(0.0, stddev);
}

util::Result<std::size_t> ExponentialMechanism(
    const std::vector<double>& utilities, double sensitivity, double epsilon,
    util::Rng* rng) {
  if (utilities.empty()) {
    return util::Status::InvalidArgument(
        "ExponentialMechanism: empty utility list");
  }
  if (sensitivity <= 0.0 || epsilon <= 0.0) {
    return util::Status::InvalidArgument(
        "ExponentialMechanism: sensitivity and epsilon must be positive");
  }
  // Gumbel-max trick: argmax_i (eps * u_i / (2 * du) + Gumbel_i) is an
  // exact sample from the exponential-mechanism distribution and never
  // over/underflows.
  const double scale = epsilon / (2.0 * sensitivity);
  std::size_t best = 0;
  double best_score = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < utilities.size(); ++i) {
    double u = std::max(rng->Uniform(), std::numeric_limits<double>::min());
    const double gumbel = -std::log(-std::log(u));
    const double score = scale * utilities[i] + gumbel;
    if (score > best_score) {
      best_score = score;
      best = i;
    }
  }
  return best;
}

util::Result<linalg::Matrix> SampleWishart(std::size_t d, double df, double c,
                                           util::Rng* rng) {
  P3GM_TRACE_SPAN("dp.wishart");
  if (d == 0) {
    return util::Status::InvalidArgument("SampleWishart: dimension is zero");
  }
  if (!(df > static_cast<double>(d) - 1.0) || !std::isfinite(df)) {
    return util::Status::InvalidArgument(
        "SampleWishart: df must be finite and exceed d - 1");
  }
  if (!(c > 0.0) || !std::isfinite(c)) {
    return util::Status::InvalidArgument(
        "SampleWishart: scale c must be finite and positive");
  }
  // Bartlett: B = A A^T with A lower triangular, A_ii^2 ~ chi^2(df - i)
  // (0-based) and A_ij ~ N(0,1) for j < i. Then W_d(df, c I) = c * B.
  // The factor is stored transposed, at = A^T, so that B = Syrk(at): each
  // B_ij sums A_ip A_jp over p ascending from +0.0, exactly the dense
  // product A A^T, while Syrk skips the blocks of zeros above the
  // diagonal of A.
  c *= audit::NoiseScale();
  linalg::Matrix at(d, d);
  for (std::size_t i = 0; i < d; ++i) {
    at(i, i) = std::sqrt(rng->ChiSquared(df - static_cast<double>(i)));
    for (std::size_t j = 0; j < i; ++j) at(j, i) = rng->Normal();
  }
  linalg::Matrix w = linalg::Syrk(at);
  w *= c;
  return w;
}

}  // namespace dp
}  // namespace p3gm
