#ifndef P3GM_NN_LINEAR_H_
#define P3GM_NN_LINEAR_H_

#include <string>
#include <vector>

#include "nn/layer.h"
#include "util/rng.h"

namespace p3gm {
namespace nn {

/// Fully connected affine layer: Y = X W + b, with W (in x out) and bias
/// b (1 x out).
///
/// Per-example DP-SGD support uses the factored form of affine-layer
/// gradients (Goodfellow 2015): example i's weight gradient is the outer
/// product x_i dy_i^T, so
///   ||gW_i||_F^2 = ||x_i||^2 * ||dy_i||^2,   ||gb_i||^2 = ||dy_i||^2,
/// and the clipped sum is X^T diag(c) dY — one matmul, no per-example
/// materialization.
class Linear : public Layer {
 public:
  /// He-normal weight init (ReLU default), zero bias. `rng` is only used
  /// during construction.
  Linear(std::string name, std::size_t in_features, std::size_t out_features,
         util::Rng* rng);

  linalg::Matrix Forward(const linalg::Matrix& x, bool train) override;
  linalg::Matrix Backward(const linalg::Matrix& grad_out,
                          bool accumulate) override;
  /// Skips the dX = dY W^T gemm.
  void BackwardNoInput(const linalg::Matrix& grad_out,
                       bool accumulate) override;
  std::vector<Parameter*> Parameters() override { return {&weight_, &bias_}; }
  bool SupportsPerExampleGrads() const override { return true; }
  void AddPerExampleSquaredGradNorms(
      std::vector<double>* sq_norms) const override;
  void AccumulateClippedGrads(const std::vector<double>& scale) override;
  std::string name() const override { return name_; }

  std::size_t in_features() const { return weight_.value.rows(); }
  std::size_t out_features() const { return weight_.value.cols(); }

  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }

 private:
  std::string name_;
  Parameter weight_;  // in x out
  Parameter bias_;    // 1 x out
  linalg::Matrix cached_input_;     // B x in
  linalg::Matrix cached_grad_out_;  // B x out (per-example path)
};

}  // namespace nn
}  // namespace p3gm

#endif  // P3GM_NN_LINEAR_H_
