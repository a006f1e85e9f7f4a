#include "nn/sequential.h"

namespace p3gm {
namespace nn {

linalg::Matrix Sequential::Forward(const linalg::Matrix& x, bool train) {
  linalg::Matrix h = x;
  for (auto& layer : layers_) h = layer->Forward(h, train);
  return h;
}

linalg::Matrix Sequential::Backward(const linalg::Matrix& grad_out,
                                    bool accumulate) {
  linalg::Matrix g = grad_out;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    g = (*it)->Backward(g, accumulate);
  }
  return g;
}

void Sequential::BackwardNoInput(const linalg::Matrix& grad_out,
                                 bool accumulate) {
  if (layers_.empty()) return;
  linalg::Matrix g = grad_out;
  for (std::size_t i = layers_.size() - 1; i > 0; --i) {
    g = layers_[i]->Backward(g, accumulate);
  }
  layers_.front()->BackwardNoInput(g, accumulate);
}

void Sequential::SetTraining(bool training) {
  training_ = training;
  for (auto& layer : layers_) layer->SetTraining(training);
}

std::vector<Parameter*> Sequential::Parameters() {
  std::vector<Parameter*> params;
  for (auto& layer : layers_) {
    for (Parameter* p : layer->Parameters()) params.push_back(p);
  }
  return params;
}

bool Sequential::SupportsPerExampleGrads() const {
  for (const auto& layer : layers_) {
    if (!layer->SupportsPerExampleGrads()) return false;
  }
  return true;
}

void Sequential::AddPerExampleSquaredGradNorms(
    std::vector<double>* sq_norms) const {
  for (const auto& layer : layers_) {
    layer->AddPerExampleSquaredGradNorms(sq_norms);
  }
}

void Sequential::AccumulateClippedGrads(const std::vector<double>& scale) {
  for (auto& layer : layers_) layer->AccumulateClippedGrads(scale);
}

void Sequential::ZeroGrad() {
  for (Parameter* p : Parameters()) p->ZeroGrad();
}

std::size_t Sequential::NumParameters() {
  std::size_t total = 0;
  for (Parameter* p : Parameters()) total += p->size();
  return total;
}

}  // namespace nn
}  // namespace p3gm
