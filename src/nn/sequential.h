#ifndef P3GM_NN_SEQUENTIAL_H_
#define P3GM_NN_SEQUENTIAL_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "nn/layer.h"

namespace p3gm {
namespace nn {

/// An owning chain of layers applied in order. Also a Layer itself, so
/// stacks compose.
class Sequential : public Layer {
 public:
  Sequential() = default;
  explicit Sequential(std::string name) : name_(std::move(name)) {}

  /// Appends a layer and returns a raw pointer for later inspection.
  template <typename L>
  L* Add(std::unique_ptr<L> layer) {
    L* raw = layer.get();
    layers_.push_back(std::move(layer));
    return raw;
  }

  /// Convenience: constructs the layer in place.
  template <typename L, typename... Args>
  L* Emplace(Args&&... args) {
    return Add(std::make_unique<L>(std::forward<Args>(args)...));
  }

  linalg::Matrix Forward(const linalg::Matrix& x, bool train) override;
  linalg::Matrix Backward(const linalg::Matrix& grad_out,
                          bool accumulate) override;
  /// Backward through every layer but the first, then BackwardNoInput
  /// on the first.
  void BackwardNoInput(const linalg::Matrix& grad_out,
                       bool accumulate) override;
  /// Propagates the mode to every child layer.
  void SetTraining(bool training) override;
  std::vector<Parameter*> Parameters() override;
  bool SupportsPerExampleGrads() const override;
  void AddPerExampleSquaredGradNorms(
      std::vector<double>* sq_norms) const override;
  void AccumulateClippedGrads(const std::vector<double>& scale) override;
  std::string name() const override { return name_; }

  std::size_t num_layers() const { return layers_.size(); }
  Layer* layer(std::size_t i) { return layers_[i].get(); }

  /// Zeroes the gradients of all parameters.
  void ZeroGrad();

  /// Total number of scalar parameters.
  std::size_t NumParameters();

 private:
  std::string name_ = "sequential";
  std::vector<std::unique_ptr<Layer>> layers_;
};

}  // namespace nn
}  // namespace p3gm

#endif  // P3GM_NN_SEQUENTIAL_H_
