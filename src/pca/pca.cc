#include "pca/pca.h"

#include <algorithm>
#include <cmath>

#include "dp/accountant.h"
#include "dp/mechanisms.h"
#include "linalg/covariance.h"
#include "linalg/eigen_sym.h"
#include "linalg/ops.h"
#include "obs/trace.h"

namespace p3gm {
namespace pca {

namespace {

// Dense d x d eigensolve below this dimension; randomized top-k above
// (the full tred2/tql2 pass is O(d^3) and dominates for image-sized d).
constexpr std::size_t kDenseEigenLimit = 160;

util::Result<linalg::EigenDecomposition> LeadingEigen(
    const linalg::Matrix& cov, std::size_t k) {
  if (cov.rows() <= kDenseEigenLimit) {
    P3GM_ASSIGN_OR_RETURN(linalg::EigenDecomposition full,
                          linalg::EigenSym(cov));
    linalg::EigenDecomposition out;
    out.values.assign(full.values.begin(),
                      full.values.begin() + static_cast<std::ptrdiff_t>(k));
    out.vectors = linalg::Matrix(cov.rows(), k);
    for (std::size_t i = 0; i < cov.rows(); ++i) {
      for (std::size_t j = 0; j < k; ++j) {
        out.vectors(i, j) = full.vectors(i, j);
      }
    }
    return out;
  }
  return linalg::TopKEigenSym(cov, k, /*iters=*/100);
}

}  // namespace

linalg::Matrix PcaModel::Transform(const linalg::Matrix& x) const {
  P3GM_CHECK(x.cols() == input_dim());
  linalg::Matrix centered = x;
  linalg::CenterRows(mean_, &centered);
  return linalg::Matmul(centered, components_);
}

std::vector<double> PcaModel::TransformRow(const std::vector<double>& x) const {
  P3GM_CHECK(x.size() == input_dim());
  std::vector<double> centered(x);
  for (std::size_t j = 0; j < centered.size(); ++j) centered[j] -= mean_[j];
  return linalg::MatVecTransA(components_, centered);
}

linalg::Matrix PcaModel::Reconstruct(const linalg::Matrix& z) const {
  P3GM_CHECK(z.cols() == output_dim());
  linalg::Matrix x = linalg::MatmulTransB(z, components_);
  linalg::AddRowVector(mean_, &x);
  return x;
}

double PcaModel::ReconstructionError(const linalg::Matrix& x) const {
  P3GM_CHECK(x.rows() > 0);
  const linalg::Matrix recon = Reconstruct(Transform(x));
  double total = 0.0;
  for (std::size_t i = 0; i < x.rows(); ++i) {
    const double* a = x.row_data(i);
    const double* b = recon.row_data(i);
    for (std::size_t j = 0; j < x.cols(); ++j) {
      const double diff = a[j] - b[j];
      total += diff * diff;
    }
  }
  return total / static_cast<double>(x.rows());
}

util::Result<PcaModel> FitPca(const linalg::Matrix& x,
                              std::size_t num_components) {
  P3GM_TRACE_SPAN("pca.fit");
  if (x.rows() == 0 || x.cols() == 0) {
    return util::Status::InvalidArgument("FitPca: empty data");
  }
  if (num_components == 0 || num_components > x.cols()) {
    return util::Status::InvalidArgument(
        "FitPca: num_components must be in [1, d]");
  }
  std::vector<double> mean = linalg::ColMeans(x);
  const linalg::Matrix cov = linalg::CovarianceWithMean(x, mean);
  P3GM_ASSIGN_OR_RETURN(linalg::EigenDecomposition eig,
                        LeadingEigen(cov, num_components));
  return PcaModel(std::move(mean), std::move(eig.vectors),
                  std::move(eig.values));
}

util::Result<PcaModel> FitDpPca(const linalg::Matrix& x,
                                const DpPcaOptions& options, util::Rng* rng) {
  P3GM_TRACE_SPAN("dp_pca.fit");
  if (x.rows() == 0 || x.cols() == 0) {
    return util::Status::InvalidArgument("FitDpPca: empty data");
  }
  if (options.num_components == 0 || options.num_components > x.cols()) {
    return util::Status::InvalidArgument(
        "FitDpPca: num_components must be in [1, d]");
  }
  if (!(options.epsilon > 0.0) || !std::isfinite(options.epsilon)) {
    return util::Status::InvalidArgument(
        "FitDpPca: epsilon must be finite and positive");
  }
  const std::size_t n = x.rows();
  const std::size_t d = x.cols();

  // Public mean (paper footnote 2), then optional row clipping so the
  // covariance has per-record sensitivity compatible with the Wishart
  // mechanism's analysis (unit-norm rows).
  std::vector<double> mean = linalg::ColMeans(x);
  linalg::Matrix centered = x;
  linalg::CenterRows(mean, &centered);
  if (options.clip_rows) {
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<double> row = centered.Row(i);
      dp::ClipL2(1.0, &row);
      centered.SetRow(i, row);
    }
  }
  linalg::Matrix cov = linalg::Syrk(centered);
  cov *= 1.0 / static_cast<double>(n);

  // Wishart mechanism: A_hat = A + W, W ~ W_d(d+1, C_w) with all C_w
  // eigenvalues equal to 3 / (2 n epsilon).
  const double c = 3.0 / (2.0 * static_cast<double>(n) * options.epsilon);
  P3GM_ASSIGN_OR_RETURN(
      linalg::Matrix w,
      dp::SampleWishart(d, static_cast<double>(d) + 1.0, c, rng));
  cov += w;
  // Live accounting: the Wishart release is (epsilon, 0)-DP.
  if (options.accountant != nullptr) {
    options.accountant->AddPureDp(options.epsilon, "wishart");
  }

  P3GM_ASSIGN_OR_RETURN(linalg::EigenDecomposition eig,
                        LeadingEigen(cov, options.num_components));
  return PcaModel(std::move(mean), std::move(eig.vectors),
                  std::move(eig.values));
}

}  // namespace pca
}  // namespace p3gm
