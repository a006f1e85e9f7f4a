#ifndef P3GM_NN_LAYER_H_
#define P3GM_NN_LAYER_H_

#include <string>
#include <vector>

#include "linalg/matrix.h"
#include "nn/parameter.h"

namespace p3gm {
namespace nn {

/// Base class of all network layers. Data flows as batches: each row of
/// the (B x features) input matrix is one example. Layers cache whatever
/// they need in Forward for the subsequent Backward.
///
/// Two training modes are supported:
///
/// 1. Standard: Backward(grad_out, /*accumulate=*/true) propagates the
///    gradient and adds parameter gradients for the whole batch into
///    Parameter::grad.
/// 2. Per-example (DP-SGD): Backward(grad_out, /*accumulate=*/false)
///    only propagates (caching grad_out); the trainer then queries
///    AddPerExampleSquaredGradNorms() to obtain each example's gradient
///    norm across all layers, derives clip factors, and calls
///    AccumulateClippedGrads() so every layer adds the *clipped sum*
///    of per-example gradients (the Goodfellow outer-product trick for
///    affine layers — per-example gradients are never materialized).
class Layer {
 public:
  virtual ~Layer() = default;

  /// Computes the layer output for a batch. `train` toggles
  /// train-time-only behaviour (e.g. dropout). The effective mode is
  /// `train && is_training()`: a layer put into eval mode with
  /// SetTraining(false) must ignore the per-call flag (see below).
  virtual linalg::Matrix Forward(const linalg::Matrix& x, bool train) = 0;

  /// Sets the layer mode. In eval mode (training = false) Forward must be
  /// a *deterministic, repeatable* function of its input regardless of the
  /// per-call `train` argument: stochastic layers (dropout) act as the
  /// identity and no layer may consume RNG state. This is the contract the
  /// finite-difference gradient checker (audit::CheckLayerGradients)
  /// relies on — it evaluates Forward many times and any hidden
  /// stochasticity or train-only behaviour would corrupt the numeric
  /// derivative. Containers must propagate the mode to their children.
  virtual void SetTraining(bool training) { training_ = training; }
  bool is_training() const { return training_; }

  /// Propagates `grad_out` (dL/d output) to dL/d input. When `accumulate`
  /// is true, also adds this batch's parameter gradients into the
  /// parameters. When false, caches grad_out for the per-example path.
  virtual linalg::Matrix Backward(const linalg::Matrix& grad_out,
                                  bool accumulate) = 0;

  /// Backward for a layer whose input gradient nobody reads (the first
  /// layer of a network): leaves exactly the parameter gradients and
  /// cached state that Backward leaves, and may skip computing dL/d input.
  virtual void BackwardNoInput(const linalg::Matrix& grad_out,
                               bool accumulate) {
    Backward(grad_out, accumulate);
  }

  /// Trainable parameters (empty for stateless layers).
  virtual std::vector<Parameter*> Parameters() { return {}; }

  /// Whether the per-example gradient path (DP-SGD) is implemented. True
  /// for all parameterless layers.
  virtual bool SupportsPerExampleGrads() const { return true; }

  /// Adds this layer's per-example squared parameter-gradient norms into
  /// `sq_norms` (length = batch size of the last Forward/Backward pair).
  /// No-op for parameterless layers.
  virtual void AddPerExampleSquaredGradNorms(
      std::vector<double>* sq_norms) const {
    (void)sq_norms;
  }

  /// Accumulates sum_i scale[i] * grad_i into Parameter::grad, where
  /// grad_i is example i's parameter gradient from the cached
  /// forward/backward pair. No-op for parameterless layers.
  virtual void AccumulateClippedGrads(const std::vector<double>& scale) {
    (void)scale;
  }

  /// Layer name for diagnostics.
  virtual std::string name() const = 0;

 protected:
  bool training_ = true;
};

}  // namespace nn
}  // namespace p3gm

#endif  // P3GM_NN_LAYER_H_
