#ifndef P3GM_CORE_SYNTHESIZER_H_
#define P3GM_CORE_SYNTHESIZER_H_

#include <memory>
#include <string>

#include "core/pgm.h"
#include "core/vae.h"
#include "data/dataset.h"
#include "dp/accountant.h"
#include "util/result.h"
#include "util/rng.h"

namespace p3gm {
namespace core {

/// Common interface of every data synthesizer in the library (P3GM, PGM,
/// VAE, DP-VAE, DP-GM, PrivBayes). Implements the paper's labeled
/// synthesis convention: the generative model is trained on
/// [features | one-hot(label)] so each generated row carries a label
/// (Section IV-E), and Generate() splits them back apart.
class Synthesizer {
 public:
  virtual ~Synthesizer() = default;

  /// Trains the generative model on a labeled dataset. Call once.
  virtual util::Status Fit(const data::Dataset& train) = 0;

  /// Draws a labeled synthetic dataset of `n` rows.
  virtual util::Result<data::Dataset> Generate(std::size_t n,
                                               util::Rng* rng) = 0;

  /// Privacy of the performed run; epsilon = 0 for non-private models.
  virtual dp::DpGuarantee ComputeEpsilon(double delta) const = 0;

  virtual std::string name() const = 0;
};

/// Synthesizer backed by one of the library's ELBO-trained models: Pgm
/// (PGM / P3GM / P3GM(AE), chosen via PgmOptions) or Vae (VAE / DP-VAE
/// via VaeOptions). Defined for exactly these two, by the aliases below.
template <typename Model, typename Options>
class ElboSynthesizer : public Synthesizer {
 public:
  explicit ElboSynthesizer(const Options& options) : options_(options) {}

  util::Status Fit(const data::Dataset& train) override;
  util::Result<data::Dataset> Generate(std::size_t n,
                                       util::Rng* rng) override;
  dp::DpGuarantee ComputeEpsilon(double delta) const override;
  std::string name() const override;

  /// Underlying model (valid after Fit) for diagnostics / traces.
  Model& model() { return *model_; }

 private:
  Options options_;
  std::unique_ptr<Model> model_;
  std::size_t num_classes_ = 2;
  std::string dataset_name_;
};

using PgmSynthesizer = ElboSynthesizer<Pgm, PgmOptions>;
using VaeSynthesizer = ElboSynthesizer<Vae, VaeOptions>;

/// Generates `n` rows whose label ratio matches `reference` (the paper's
/// Section VI convention: "generate a dataset so that the label ratio is
/// the same as the real training dataset"). Oversamples from `synth` by
/// `oversample` and stratified-subsamples per class; classes the model
/// never produces are backfilled from whatever was generated.
util::Result<data::Dataset> GenerateWithLabelRatio(
    Synthesizer* synth, std::size_t n, const data::Dataset& reference,
    util::Rng* rng, std::size_t oversample = 3);

}  // namespace core
}  // namespace p3gm

#endif  // P3GM_CORE_SYNTHESIZER_H_
