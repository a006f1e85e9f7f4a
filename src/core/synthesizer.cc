#include "core/synthesizer.h"

#include <algorithm>
#include <cmath>

#include "data/transforms.h"

namespace p3gm {
namespace core {

namespace {

std::string VariantName(const PgmOptions& options) {
  if (!options.differentially_private) return "PGM";
  return options.freeze_variance ? "P3GM(AE)" : "P3GM";
}

std::string VariantName(const VaeOptions& options) {
  return options.differentially_private ? "DP-VAE" : "VAE";
}

}  // namespace

template <typename Model, typename Options>
util::Status ElboSynthesizer<Model, Options>::Fit(const data::Dataset& train) {
  if (model_) {
    return util::Status::FailedPrecondition(name() + ": Fit called twice");
  }
  if (train.size() == 0) {
    return util::Status::InvalidArgument(name() + ": empty dataset");
  }
  num_classes_ = train.num_classes;
  dataset_name_ = train.name;
  const linalg::Matrix joint =
      data::AttachLabels(train.features, train.labels, num_classes_);
  model_ = std::make_unique<Model>(options_);
  return model_->Fit(joint);
}

template <typename Model, typename Options>
util::Result<data::Dataset> ElboSynthesizer<Model, Options>::Generate(
    std::size_t n, util::Rng* rng) {
  if (!model_) {
    return util::Status::FailedPrecondition(name() +
                                            ": Generate before Fit");
  }
  const linalg::Matrix joint = model_->Sample(n, rng);
  data::LabeledRows rows = data::DetachLabels(joint, num_classes_);
  data::Dataset out;
  out.name = dataset_name_ + "+" + name();
  out.num_classes = num_classes_;
  out.features = std::move(rows.features);
  out.labels = std::move(rows.labels);
  return out;
}

template <typename Model, typename Options>
dp::DpGuarantee ElboSynthesizer<Model, Options>::ComputeEpsilon(
    double delta) const {
  if (!model_) {
    dp::DpGuarantee g;
    g.delta = delta;
    return g;
  }
  return model_->ComputeEpsilon(delta);
}

template <typename Model, typename Options>
std::string ElboSynthesizer<Model, Options>::name() const {
  return VariantName(options_);
}

template class ElboSynthesizer<Pgm, PgmOptions>;
template class ElboSynthesizer<Vae, VaeOptions>;

util::Result<data::Dataset> GenerateWithLabelRatio(
    Synthesizer* synth, std::size_t n, const data::Dataset& reference,
    util::Rng* rng, std::size_t oversample) {
  if (n == 0 || reference.size() == 0) {
    return util::Status::InvalidArgument(
        "GenerateWithLabelRatio: empty request or reference");
  }
  P3GM_ASSIGN_OR_RETURN(data::Dataset pool,
                        synth->Generate(n * std::max<std::size_t>(
                                                1, oversample),
                                        rng));
  const std::vector<std::size_t> ref_counts = reference.ClassCounts();
  std::vector<std::vector<std::size_t>> by_class(pool.num_classes);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    if (pool.labels[i] < pool.num_classes) {
      by_class[pool.labels[i]].push_back(i);
    }
  }
  std::vector<std::size_t> idx;
  idx.reserve(n);
  for (std::size_t c = 0; c < pool.num_classes; ++c) {
    const auto want = static_cast<std::size_t>(std::round(
        static_cast<double>(n) * static_cast<double>(ref_counts[c]) /
        static_cast<double>(reference.size())));
    if (by_class[c].empty()) continue;  // Backfilled below.
    for (std::size_t k = 0; k < want; ++k) {
      idx.push_back(by_class[c][rng->UniformInt(by_class[c].size())]);
    }
  }
  while (idx.size() < n) idx.push_back(rng->UniformInt(pool.size()));
  rng->Shuffle(&idx);
  idx.resize(n);

  data::Dataset out;
  out.name = pool.name;
  out.num_classes = pool.num_classes;
  out.features = pool.features.SelectRows(idx);
  out.labels.reserve(n);
  for (std::size_t i : idx) out.labels.push_back(pool.labels[i]);
  return out;
}

}  // namespace core
}  // namespace p3gm
