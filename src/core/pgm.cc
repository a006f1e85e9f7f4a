#include "core/pgm.h"

#include <algorithm>

#include "dp/mechanisms.h"
#include "obs/ledger.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "stats/dp_em.h"

namespace p3gm {
namespace core {

// The trainer takes its latent width from the frozen mean Fit passes and
// draws from rng_, so latent_dim and seed stay at their defaults.
Pgm::Pgm(const PgmOptions& options)
    : options_(options),
      rng_(options.seed),
      net_({.hidden = options.hidden,
            .epochs = options.epochs,
            .batch_size = options.batch_size,
            .learning_rate = options.learning_rate,
            .decoder = options.decoder,
            .differentially_private = options.differentially_private,
            .clip_norm = options.clip_norm,
            .sgd_sigma = options.sgd_sigma},
           {.epoch_span = "pgm.epoch",
            .batches = "pgm.batches",
            .epoch = "pgm.epoch",
            .recon_loss = "pgm.epoch.recon_loss",
            .kl_loss = "pgm.epoch.kl_loss"}) {}

linalg::Matrix Pgm::EncodeMean(const linalg::Matrix& x) const {
  linalg::Matrix z = pca_fitted_ ? pca_.Transform(x) : x;
  if (options_.differentially_private) {
    // The same unit-ball clipping DP-EM applied; keeping the encoder
    // consistent with the statistics the prior was fitted on.
    for (std::size_t i = 0; i < z.rows(); ++i) {
      std::vector<double> row = z.Row(i);
      dp::ClipL2(1.0, &row);
      z.SetRow(i, row);
    }
  }
  return z;
}

util::Status Pgm::Fit(const linalg::Matrix& x, const EpochCallback& callback) {
  P3GM_TRACE_SPAN("pgm.fit");
  if (fitted_) {
    return util::Status::FailedPrecondition("Pgm::Fit called twice");
  }
  if (x.rows() == 0 || x.cols() == 0) {
    return util::Status::InvalidArgument("Pgm::Fit: empty data");
  }
  if (options_.batch_size == 0 || options_.batch_size > x.rows()) {
    return util::Status::InvalidArgument(
        "Pgm::Fit: batch size must be in [1, n]");
  }
  fitted_ = true;
  data_size_ = x.rows();
  const std::size_t d = x.cols();
  const bool dp = options_.differentially_private;

  // Live accounting: every private release below composes onto
  // accountant_ at the moment it happens, and — when observability is on
  // — lands in the process-wide privacy ledger. Accounting is pure
  // arithmetic on the side; it never touches the model or the RNG.
  accountant_.set_ledger_enabled(true);
  obs::Registry& registry = obs::Registry::Global();

  // ---------------------------------------------------------------
  // Encoding Phase (Algorithm 1 lines 1-4).
  // ---------------------------------------------------------------
  if (options_.use_pca) {
    if (options_.latent_dim > d) {
      return util::Status::InvalidArgument(
          "Pgm::Fit: latent_dim exceeds data dimension");
    }
    obs::PhaseScope phase("dp_pca");
    P3GM_TRACE_SPAN("pgm.phase.pca");
    const std::uint64_t phase_start = obs::NowNs();
    if (dp) {
      pca::DpPcaOptions pca_opts;
      pca_opts.num_components = options_.latent_dim;
      pca_opts.epsilon = options_.pca_epsilon;
      pca_opts.accountant = &accountant_;
      P3GM_ASSIGN_OR_RETURN(pca_, pca::FitDpPca(x, pca_opts, &rng_));
    } else {
      P3GM_ASSIGN_OR_RETURN(pca_, pca::FitPca(x, options_.latent_dim));
    }
    pca_fitted_ = true;
    registry.gauge("pgm.phase.pca_seconds")
        ->Set(static_cast<double>(obs::NowNs() - phase_start) * 1e-9);
  }
  const linalg::Matrix encoded = EncodeMean(x);

  {
    obs::PhaseScope phase("dp_em");
    P3GM_TRACE_SPAN("pgm.phase.em");
    const std::uint64_t phase_start = obs::NowNs();
    if (dp) {
      stats::DpEmOptions em_opts;
      em_opts.num_components = options_.mog_components;
      em_opts.iters = options_.em_iters;
      em_opts.noise_multiplier = options_.em_sigma;
      em_opts.seed = options_.seed ^ 0xe3;
      em_opts.accountant = &accountant_;
      P3GM_ASSIGN_OR_RETURN(stats::DpEmResult em,
                            stats::FitGmmDpEm(encoded, em_opts, &rng_));
      prior_ = std::move(em.mixture);
    } else {
      stats::EmOptions em_opts;
      em_opts.num_components = options_.mog_components;
      em_opts.max_iters = options_.em_iters;
      em_opts.seed = options_.seed ^ 0xe3;
      P3GM_ASSIGN_OR_RETURN(prior_, stats::FitGmm(encoded, em_opts));
    }
    registry.gauge("pgm.phase.em_seconds")
        ->Set(static_cast<double>(obs::NowNs() - phase_start) * 1e-9);
  }

  // ---------------------------------------------------------------
  // Decoding Phase (Algorithm 1 lines 5-11): the ELBO trainer with the
  // encoder mean frozen to f(x) and the KL taken against the MoG prior.
  // The frozen mean receives no gradient; only the decoder and
  // (optionally) the variance head train.
  // ---------------------------------------------------------------
  P3GM_TRACE_SPAN("pgm.phase.sgd");
  const std::uint64_t sgd_phase_start = obs::NowNs();
  ElboVariant variant;
  variant.frozen_mean = &encoded;
  variant.prior = &prior_;
  variant.learn_variance = !options_.freeze_variance;
  P3GM_RETURN_NOT_OK(net_.Fit(x, variant, &rng_, &accountant_, callback));
  registry.gauge("pgm.phase.sgd_seconds")
      ->Set(static_cast<double>(obs::NowNs() - sgd_phase_start) * 1e-9);
  return util::Status::OK();
}

linalg::Matrix Pgm::Sample(std::size_t n, util::Rng* rng) {
  P3GM_CHECK(fitted_);
  return Decode(prior_.SampleN(n, rng));
}

dp::P3gmPrivacyParams Pgm::PrivacyParams() const {
  dp::P3gmPrivacyParams params;
  params.pca_epsilon =
      (options_.use_pca && options_.differentially_private)
          ? options_.pca_epsilon
          : 0.0;
  params.em_sigma = options_.em_sigma;
  params.em_iters = options_.differentially_private ? options_.em_iters : 0;
  params.mog_components = options_.mog_components;
  params.sgd_sigma = options_.sgd_sigma;
  params.sgd_sampling_rate =
      data_size_ > 0 ? static_cast<double>(options_.batch_size) /
                           static_cast<double>(data_size_)
                     : 0.0;
  params.sgd_steps = net_.sgd_steps();
  return params;
}

dp::DpGuarantee Pgm::ComputeEpsilon(double delta) const {
  dp::DpGuarantee out;
  out.delta = delta;
  if (!options_.differentially_private) {
    out.epsilon = 0.0;
    return out;
  }
  return dp::ComputeP3gmEpsilonRdp(PrivacyParams(), delta);
}

util::Result<double> Pgm::CalibrateSigma(const PgmOptions& options,
                                         std::size_t n, double target_epsilon,
                                         double delta) {
  if (n == 0 || options.batch_size == 0 || options.batch_size > n) {
    return util::Status::InvalidArgument(
        "CalibrateSigma: invalid n or batch size");
  }
  dp::P3gmPrivacyParams params;
  params.pca_epsilon = options.use_pca ? options.pca_epsilon : 0.0;
  params.em_sigma = options.em_sigma;
  params.em_iters = options.em_iters;
  params.mog_components = options.mog_components;
  params.sgd_sampling_rate =
      static_cast<double>(options.batch_size) / static_cast<double>(n);
  params.sgd_steps =
      options.epochs * std::max<std::size_t>(1, n / options.batch_size);
  return dp::CalibrateSgdSigma(params, target_epsilon, delta);
}

}  // namespace core
}  // namespace p3gm
