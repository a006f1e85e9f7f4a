#include "nn/linear.h"

#include "linalg/ops.h"
#include "nn/init.h"
#include "util/thread_pool.h"

namespace p3gm {
namespace nn {

Linear::Linear(std::string name, std::size_t in_features,
               std::size_t out_features, util::Rng* rng)
    : name_(std::move(name)),
      weight_(name_ + ".weight", in_features, out_features),
      bias_(name_ + ".bias", 1, out_features) {
  HeNormal(in_features, &weight_.value, rng);
}

linalg::Matrix Linear::Forward(const linalg::Matrix& x, bool train) {
  (void)train;
  P3GM_CHECK(x.cols() == in_features());
  cached_input_ = x;
  linalg::Matrix y = linalg::Matmul(x, weight_.value);
  linalg::AddRowVector(bias_.value.Row(0), &y);
  return y;
}

linalg::Matrix Linear::Backward(const linalg::Matrix& grad_out,
                                bool accumulate) {
  BackwardNoInput(grad_out, accumulate);
  // dX = dY W^T.
  return linalg::MatmulTransB(grad_out, weight_.value);
}

void Linear::BackwardNoInput(const linalg::Matrix& grad_out,
                             bool accumulate) {
  P3GM_CHECK(grad_out.rows() == cached_input_.rows());
  P3GM_CHECK(grad_out.cols() == out_features());
  if (accumulate) {
    // gW += X^T dY ; gb += column sums of dY.
    weight_.grad += linalg::MatmulTransA(cached_input_, grad_out);
    for (std::size_t i = 0; i < grad_out.rows(); ++i) {
      const double* row = grad_out.row_data(i);
      double* gb = bias_.grad.row_data(0);
      for (std::size_t j = 0; j < out_features(); ++j) gb[j] += row[j];
    }
  } else {
    cached_grad_out_ = grad_out;
  }
}

void Linear::AddPerExampleSquaredGradNorms(
    std::vector<double>* sq_norms) const {
  P3GM_CHECK(cached_grad_out_.rows() == cached_input_.rows());
  P3GM_CHECK(sq_norms->size() == cached_input_.rows());
  const std::vector<double> x_sq = linalg::RowSquaredNorms(cached_input_);
  const std::vector<double> dy_sq = linalg::RowSquaredNorms(cached_grad_out_);
  // Weight contribution ||x_i||^2 ||dy_i||^2 plus bias ||dy_i||^2; each
  // worker writes a disjoint slice of sq_norms.
  util::ParallelFor(0, x_sq.size(), 256,
                    [&](std::size_t rb, std::size_t re) {
                      for (std::size_t i = rb; i < re; ++i) {
                        (*sq_norms)[i] += (x_sq[i] + 1.0) * dy_sq[i];
                      }
                    });
}

void Linear::AccumulateClippedGrads(const std::vector<double>& scale) {
  P3GM_CHECK(scale.size() == cached_input_.rows());
  P3GM_CHECK(cached_grad_out_.rows() == cached_input_.rows());
  linalg::Matrix scaled = cached_grad_out_;
  linalg::ScaleRows(scale, &scaled);
  weight_.grad += linalg::MatmulTransA(cached_input_, scaled);
  for (std::size_t i = 0; i < scaled.rows(); ++i) {
    const double* row = scaled.row_data(i);
    double* gb = bias_.grad.row_data(0);
    for (std::size_t j = 0; j < out_features(); ++j) gb[j] += row[j];
  }
}

}  // namespace nn
}  // namespace p3gm
