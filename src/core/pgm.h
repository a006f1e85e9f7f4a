#ifndef P3GM_CORE_PGM_H_
#define P3GM_CORE_PGM_H_

#include <vector>

#include "core/vae.h"
#include "dp/accountant.h"
#include "linalg/matrix.h"
#include "pca/pca.h"
#include "stats/gmm.h"
#include "util/result.h"
#include "util/rng.h"

namespace p3gm {
namespace core {

/// Configuration of the phased generative model. One class realizes the
/// three variants the paper evaluates:
///  * PGM      — differentially_private = false (exact PCA + exact EM +
///               plain SGD), the non-private reference of Table V.
///  * P3GM     — differentially_private = true (DP-PCA + DP-EM + DP-SGD),
///               Algorithm 1.
///  * P3GM(AE) — freeze_variance = true: the encoder variance is pinned
///               to zero, Eq. (11)'s autoencoder-like ablation of Fig. 7.
struct PgmOptions {
  /// Hidden width of the encoder/decoder MLPs (paper: 1000).
  std::size_t hidden = 200;
  /// Reduced dimensionality d' of DP-PCA (paper default 10). Ignored when
  /// use_pca is false (then d' = d, as for Kaggle Credit).
  std::size_t latent_dim = 10;
  /// Number of MoG components dm (paper: 3).
  std::size_t mog_components = 3;
  std::size_t epochs = 10;
  std::size_t batch_size = 120;
  double learning_rate = 1e-3;
  /// Observation model of the reconstruction term.
  DecoderType decoder = DecoderType::kBernoulli;
  /// Whether to apply the PCA dimensionality reduction f.
  bool use_pca = true;
  /// P3GM(AE): pin sigma_phi(x) = 0 so only the decoder trains.
  bool freeze_variance = false;

  bool differentially_private = false;
  /// DP-PCA pure-DP budget epsilon_p (paper: 0.1).
  double pca_epsilon = 0.1;
  /// DP-EM noise multiplier sigma_e and iteration count Te (paper: 20).
  /// The paper chooses sigma_e "as epsilon = 1 holds"; with Te = 20 and
  /// dm = 3 components, sigma_e = 100 keeps DP-EM's share of the RDP
  /// budget at roughly a third of epsilon = 1, leaving the rest for
  /// DP-SGD (see dp::DpEmRdp).
  double em_sigma = 100.0;
  std::size_t em_iters = 20;
  /// DP-SGD clipping bound C and noise multiplier sigma_s.
  double clip_norm = 1.0;
  double sgd_sigma = 1.5;

  std::uint64_t seed = 77;
};

/// Phased generative model (paper Section IV). Training runs in two
/// phases:
///
/// Encoding Phase — fit the dimensionality reduction f with (DP-)PCA and
/// the latent prior r_lambda(z) = MoG with (DP-)EM over f(X); the encoder
/// mean is frozen to mu_phi(x) = f(x).
///
/// Decoding Phase — the ELBO trainer (ElboNet) with the encoder mean
/// frozen to f(x): it trains the decoder and the encoder's variance head
/// by (DP-)SGD on the ELBO, whose KL term is taken against the MoG prior
/// via the Hershey–Olsen approximation.
///
/// Synthesis — z ~ MoG(lambda), x = sigmoid(decoder(z)) (Section IV-E).
///
/// Inputs must be scaled to [0, 1].
class Pgm {
 public:
  explicit Pgm(const PgmOptions& options);

  /// Runs both phases on rows of `x`. Call once per instance.
  util::Status Fit(const linalg::Matrix& x,
                   const EpochCallback& callback = nullptr);

  /// Generates `n` rows from the fitted model.
  linalg::Matrix Sample(std::size_t n, util::Rng* rng);

  /// Decodes latent rows through the decoder (post-processing).
  linalg::Matrix Decode(const linalg::Matrix& z) { return net_.Decode(z); }

  /// The frozen encoder mean f(x) for each row of `x` (after the
  /// DP-mode unit-ball clipping, i.e. exactly what the decoder was
  /// trained to invert).
  linalg::Matrix EncodeMean(const linalg::Matrix& x) const;

  /// The fitted latent prior r_lambda(z).
  const stats::GaussianMixture& prior() const { return prior_; }

  /// Privacy parameters of the performed run (for external accounting).
  dp::P3gmPrivacyParams PrivacyParams() const;

  /// Total (epsilon, delta)-DP of the run via RDP composition
  /// (Theorem 4). epsilon = 0 for the non-private configuration.
  dp::DpGuarantee ComputeEpsilon(double delta) const;

  /// The live accountant that composed each mechanism release as Fit
  /// performed it (ledger-enabled; feeds obs::PrivacyLedger when
  /// observability is on). Matches ComputeEpsilon up to the floating
  /// point accumulation order of per-step composition.
  const dp::RdpAccountant& accountant() const { return accountant_; }

  /// Solves for the DP-SGD noise multiplier that makes a *planned* run
  /// with these options on `n` examples meet `target_epsilon` at `delta`.
  static util::Result<double> CalibrateSigma(const PgmOptions& options,
                                             std::size_t n,
                                             double target_epsilon,
                                             double delta);

  /// Per-iteration reconstruction-loss trace (Fig. 7a/b).
  const IterationTrace& trace() const { return net_.trace(); }

  /// Exports the decoder's affine weights {W1, b1, W2, b2} for packaging
  /// into a ReleasePackage. Valid after Fit.
  std::vector<linalg::Matrix> ExportDecoderWeights() {
    return net_.ExportDecoderWeights();
  }

  const PgmOptions& options() const { return options_; }

 private:
  PgmOptions options_;
  util::Rng rng_;
  dp::RdpAccountant accountant_;
  pca::PcaModel pca_;
  bool pca_fitted_ = false;
  stats::GaussianMixture prior_;
  ElboNet net_;
  std::size_t data_size_ = 0;
  bool fitted_ = false;
};

}  // namespace core
}  // namespace p3gm

#endif  // P3GM_CORE_PGM_H_
