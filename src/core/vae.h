#ifndef P3GM_CORE_VAE_H_
#define P3GM_CORE_VAE_H_

#include <functional>
#include <memory>
#include <vector>

#include "dp/accountant.h"
#include "linalg/matrix.h"
#include "nn/dp_sgd.h"
#include "nn/linear.h"
#include "nn/optimizer.h"
#include "nn/sequential.h"
#include "stats/gmm.h"
#include "util/result.h"
#include "util/rng.h"

namespace p3gm {
namespace core {

/// Progress report passed to the per-epoch callback during training.
struct TrainProgress {
  std::size_t epoch = 0;
  /// Mean per-example reconstruction loss (first ELBO term) this epoch.
  double recon_loss = 0.0;
  /// Mean per-example KL term this epoch.
  double kl_loss = 0.0;
};
using EpochCallback = std::function<void(const TrainProgress&)>;

/// Per-iteration reconstruction-loss trace (Fig. 7a/b granularity).
struct IterationTrace {
  std::vector<double> recon_loss;
};

/// Observation model of the decoder head (paper Section IV-C: "a
/// Bernoulli or Gaussian MLP depending on the type of data").
enum class DecoderType {
  /// Bernoulli likelihood on [0,1] data: BCE loss, sigmoid outputs.
  kBernoulli,
  /// Fixed-variance Gaussian likelihood: MSE loss, linear outputs
  /// clamped to [0,1] at sampling time. Better for continuous tabular
  /// features concentrated away from {0,1}.
  kGaussian,
};

/// Configuration shared by VAE and DP-VAE. It is also the ELBO trainer's
/// configuration (ElboNet), which P3GM's Decoding Phase fills from
/// PgmOptions.
struct VaeOptions {
  /// Hidden width of the one-hidden-layer encoder/decoder MLPs. The paper
  /// uses 1000; the benches default lower to fit the single-core budget.
  std::size_t hidden = 200;
  /// Latent dimensionality d'. ElboNet ignores it when the encoder mean
  /// is frozen: the frozen rows fix d'.
  std::size_t latent_dim = 10;
  std::size_t epochs = 10;
  std::size_t batch_size = 120;
  double learning_rate = 1e-3;
  /// Observation model of the reconstruction term.
  DecoderType decoder = DecoderType::kBernoulli;
  /// Seeds Vae's generator (ElboNet draws from its caller's).
  std::uint64_t seed = 57;

  /// When true, trains with DP-SGD (this is the paper's DP-VAE baseline).
  bool differentially_private = false;
  /// DP-SGD knobs (used only when differentially_private).
  double clip_norm = 1.0;
  double sgd_sigma = 1.5;
};

/// The three inputs that tell the ELBO variants apart. The defaults are
/// the VAE; P3GM's Decoding Phase freezes the mean to f(x), takes the KL
/// against its MoG prior, and pins the variance for P3GM(AE).
struct ElboVariant {
  /// Frozen encoder mean, one row per data row; null learns the mean.
  const linalg::Matrix* frozen_mean = nullptr;
  /// Prior of the KL term (Hershey–Olsen, MixturePriorKl); null is
  /// N(0, I). A MoG prior needs a frozen mean: its KL has no mean grad.
  const stats::GaussianMixture* prior = nullptr;
  /// False pins sigma_phi(x) = 0: no encoder trains, z is the frozen
  /// mean and the KL term drops out (Eq. (11)). Needs a frozen mean.
  bool learn_variance = true;
};

/// The names one caller's ELBO fit reports under (docs/observability.md),
/// each a string literal.
struct ElboInstruments {
  const char* epoch_span;
  const char* batches;
  const char* epoch;
  const char* recon_loss;
  const char* kl_loss;
};

/// The one ELBO trainer behind Vae (VAE, DP-VAE, each DP-GM cluster) and
/// Pgm's Decoding Phase (PGM, P3GM, P3GM(AE)), with the paper's
/// architecture: encoder FC [d, hidden] + ReLU feeding the optional mean
/// head and the log-variance head, decoder FC [d', hidden, d] with ReLU.
/// Each step samples a batch, reparameterizes, takes the reconstruction
/// loss plus the KL term, backpropagates, and updates with Adam; with
/// `differentially_private` the gradients are per-example clipped and
/// noised (DP-SGD) and each step composes onto the caller's accountant.
/// It branches on the ElboVariant inputs only.
class ElboNet {
 public:
  ElboNet(const VaeOptions& options, const ElboInstruments& instruments);

  /// Trains on rows of `x`, drawing from `rng` and composing each DP-SGD
  /// step onto `accountant` under the "dp_sgd" ledger phase. Call once.
  util::Status Fit(const linalg::Matrix& x, const ElboVariant& variant,
                   util::Rng* rng, dp::RdpAccountant* accountant,
                   const EpochCallback& callback);

  /// Decodes latent rows: sigmoid outputs for the Bernoulli decoder,
  /// outputs clamped to [0, 1] for the Gaussian one.
  linalg::Matrix Decode(const linalg::Matrix& z);

  /// Learned encoder mean rows for `x`. Requires a learned mean.
  linalg::Matrix EncodeMean(const linalg::Matrix& x);

  /// The decoder's affine weights {W1, b1, W2, b2}. Valid after Fit.
  std::vector<linalg::Matrix> ExportDecoderWeights();

  const IterationTrace& trace() const { return trace_; }
  /// Rows fitted on and DP-SGD steps taken, for accounting.
  std::size_t data_size() const { return data_size_; }
  std::size_t sgd_steps() const { return sgd_steps_; }

 private:
  VaeOptions options_;
  ElboInstruments instruments_;
  nn::Sequential trunk_;
  std::unique_ptr<nn::Linear> mean_head_;
  std::unique_ptr<nn::Linear> logvar_head_;
  nn::Sequential decoder_;
  nn::Adam optimizer_;
  IterationTrace trace_;
  std::size_t data_size_ = 0;
  std::size_t sgd_steps_ = 0;
  bool fitted_ = false;
};

/// Variational autoencoder (Kingma & Welling) with the paper's
/// architecture: the ElboNet with a learned mean and the N(0, I) prior.
/// Trains end-to-end on the ELBO with Adam; with
/// `options.differentially_private` gradients are per-example clipped and
/// noised (DP-SGD), which is exactly the paper's DP-VAE baseline.
///
/// Inputs must be scaled to [0, 1] (Bernoulli reconstruction).
class Vae {
 public:
  explicit Vae(const VaeOptions& options);

  /// Trains on rows of `x`. Safe to call once per instance.
  util::Status Fit(const linalg::Matrix& x,
                   const EpochCallback& callback = nullptr);

  /// Generates `n` rows: z ~ N(0, I), x = sigmoid(decoder(z)).
  linalg::Matrix Sample(std::size_t n, util::Rng* rng);

  /// Decodes the given latent rows.
  linalg::Matrix Decode(const linalg::Matrix& z) { return net_.Decode(z); }

  /// Encoder mean rows for `x` (diagnostics).
  linalg::Matrix EncodeMean(const linalg::Matrix& x) {
    return net_.EncodeMean(x);
  }

  /// Privacy cost of the performed training under (epsilon, delta)-DP.
  /// Returns epsilon = 0 for the non-private configuration.
  dp::DpGuarantee ComputeEpsilon(double delta) const;

  /// The live accountant that composed each DP-SGD step as Fit performed
  /// it (ledger-enabled; feeds obs::PrivacyLedger when observability is
  /// on).
  const dp::RdpAccountant& accountant() const { return accountant_; }

  /// Per-iteration reconstruction losses recorded during Fit (Fig. 7a/b).
  const IterationTrace& trace() const { return net_.trace(); }

  /// Exports the decoder's affine weights {W1, b1, W2, b2} for packaging
  /// into a ReleasePackage. Valid after Fit.
  std::vector<linalg::Matrix> ExportDecoderWeights() {
    return net_.ExportDecoderWeights();
  }

  const VaeOptions& options() const { return options_; }

 private:
  VaeOptions options_;
  util::Rng rng_;
  dp::RdpAccountant accountant_;
  ElboNet net_;
};

}  // namespace core
}  // namespace p3gm

#endif  // P3GM_CORE_VAE_H_
