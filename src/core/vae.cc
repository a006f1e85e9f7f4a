#include "core/vae.h"

#include <algorithm>
#include <cmath>

#include "core/mixture_kl.h"
#include "linalg/ops.h"
#include "nn/activations.h"
#include "nn/losses.h"
#include "obs/ledger.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace p3gm {
namespace core {

namespace {

// Log-variance heads are clamped into this range before exponentiation to
// keep exp() finite during the noisy early DP-SGD steps.
constexpr double kLogVarMin = -8.0;
constexpr double kLogVarMax = 8.0;

void ClampInPlace(double lo, double hi, linalg::Matrix* m) {
  double* data = m->data();
  for (std::size_t i = 0; i < m->size(); ++i) {
    data[i] = std::clamp(data[i], lo, hi);
  }
}

}  // namespace

ElboNet::ElboNet(const VaeOptions& options,
                 const ElboInstruments& instruments)
    : options_(options),
      instruments_(instruments),
      trunk_("encoder"),
      decoder_("decoder"),
      optimizer_(options.learning_rate) {}

util::Status ElboNet::Fit(const linalg::Matrix& x, const ElboVariant& variant,
                          util::Rng* rng, dp::RdpAccountant* accountant,
                          const EpochCallback& callback) {
  if (fitted_) {
    return util::Status::FailedPrecondition("ElboNet::Fit called twice");
  }
  if (x.rows() == 0 || x.cols() == 0) {
    return util::Status::InvalidArgument("ElboNet::Fit: empty data");
  }
  if (options_.batch_size == 0 || options_.batch_size > x.rows()) {
    return util::Status::InvalidArgument(
        "ElboNet::Fit: batch size must be in [1, n]");
  }
  const bool learn_mean = variant.frozen_mean == nullptr;
  const bool learn_variance = variant.learn_variance;
  P3GM_CHECK_MSG(learn_mean ? learn_variance && variant.prior == nullptr
                            : variant.frozen_mean->rows() == x.rows(),
                 "ElboNet::Fit: inconsistent ElboVariant");
  fitted_ = true;
  data_size_ = x.rows();
  const std::size_t n = x.rows();
  const std::size_t d = x.cols();
  const std::size_t dl =
      learn_mean ? options_.latent_dim : variant.frozen_mean->cols();
  const bool dp = options_.differentially_private;
  obs::PhaseScope sgd_phase("dp_sgd");

  // Paper architecture: encoder FC [d, hidden, d'], decoder FC
  // [d', hidden, d], ReLU activations. With the variance pinned, no
  // encoder layer exists: the frozen mean is all of q(z|x).
  if (learn_variance) {
    trunk_.Emplace<nn::Linear>("enc1", d, options_.hidden, rng);
    trunk_.Emplace<nn::Relu>();
  }
  if (learn_mean) {
    mean_head_ =
        std::make_unique<nn::Linear>("enc_mu", options_.hidden, dl, rng);
  }
  if (learn_variance) {
    logvar_head_ =
        std::make_unique<nn::Linear>("enc_logvar", options_.hidden, dl, rng);
  }
  decoder_.Emplace<nn::Linear>("dec1", dl, options_.hidden, rng);
  decoder_.Emplace<nn::Relu>();
  decoder_.Emplace<nn::Linear>("dec2", options_.hidden, d, rng);

  std::vector<nn::Layer*> stacks;
  if (learn_variance) stacks.push_back(&trunk_);
  if (learn_mean) stacks.push_back(mean_head_.get());
  if (learn_variance) stacks.push_back(logvar_head_.get());
  stacks.push_back(&decoder_);
  std::vector<nn::Parameter*> params;
  for (nn::Layer* s : stacks) {
    for (nn::Parameter* p : s->Parameters()) params.push_back(p);
  }

  const double q =
      static_cast<double>(options_.batch_size) / static_cast<double>(n);
  nn::DpSgdOptions dp_opts;
  dp_opts.clip_norm = options_.clip_norm;
  dp_opts.noise_multiplier = options_.sgd_sigma;
  dp_opts.lot_size = options_.batch_size;

  // The per-step RDP cost is the same for every step; computing the
  // order curve once keeps per-step ledger accounting cheap. Accounting
  // is pure arithmetic on the side; it never touches the model or `rng`.
  const std::vector<double> sgd_curve =
      dp ? accountant->SampledGaussianCurve(q, options_.sgd_sigma)
         : std::vector<double>();
  obs::Registry& registry = obs::Registry::Global();
  obs::Counter* batches = registry.counter(instruments_.batches);
  obs::Gauge* epoch_gauge = registry.gauge(instruments_.epoch);
  obs::Gauge* recon_gauge = registry.gauge(instruments_.recon_loss);
  obs::Gauge* kl_gauge = registry.gauge(instruments_.kl_loss);

  const std::size_t steps_per_epoch =
      std::max<std::size_t>(1, n / options_.batch_size);
  for (std::size_t epoch = 0; epoch < options_.epochs; ++epoch) {
    P3GM_TRACE_SPAN(instruments_.epoch_span);
    std::vector<std::size_t> perm = rng->Permutation(n);
    double epoch_recon = 0.0, epoch_kl = 0.0, epoch_examples = 0.0;
    for (std::size_t step = 0; step < steps_per_epoch; ++step) {
      std::vector<std::size_t> idx;
      if (dp) {
        // Poisson sampling with rate q, matching the sampled-Gaussian
        // RDP analysis.
        idx = rng->PoissonSample(n, q);
        if (idx.empty()) continue;
      } else {
        const std::size_t start = step * options_.batch_size;
        for (std::size_t i = start;
             i < std::min(start + options_.batch_size, n); ++i) {
          idx.push_back(perm[i]);
        }
      }
      const std::size_t b = idx.size();
      const linalg::Matrix xb = x.SelectRows(idx);
      for (nn::Parameter* p : params) p->ZeroGrad();

      // Forward: q(z|x) = N(mu, diag(exp(logvar))), reparameterized.
      linalg::Matrix h, mu, logvar, eps, half_std;
      if (learn_variance) h = trunk_.Forward(xb, true);
      mu = learn_mean ? mean_head_->Forward(h, true)
                      : variant.frozen_mean->SelectRows(idx);
      linalg::Matrix z = mu;
      if (learn_variance) {
        logvar = logvar_head_->Forward(h, true);
        ClampInPlace(kLogVarMin, kLogVarMax, &logvar);
        eps = linalg::Matrix(b, dl);
        half_std = linalg::Matrix(b, dl);
        for (std::size_t i = 0; i < eps.size(); ++i) {
          eps.data()[i] = rng->Normal();
          half_std.data()[i] = std::exp(0.5 * logvar.data()[i]);
          z.data()[i] += half_std.data()[i] * eps.data()[i];
        }
      }
      const linalg::Matrix logits = decoder_.Forward(z, true);

      // Losses. In DP mode gradients must stay per-example sums (the
      // averaging happens after noising), so mean=false there.
      const bool mean = !dp;
      const nn::LossResult recon =
          options_.decoder == DecoderType::kBernoulli
              ? nn::BceWithLogitsLoss(logits, xb, mean)
              : nn::MseLoss(logits, xb, mean);
      nn::KlResult kl;
      if (learn_variance) {
        kl = variant.prior != nullptr
                 ? MixturePriorKl(mu, logvar, *variant.prior, mean)
                 : nn::StandardNormalKl(mu, logvar, mean);
      }
      for (std::size_t i = 0; i < b; ++i) {
        epoch_recon += recon.per_example[i];
        if (learn_variance) epoch_kl += kl.per_example[i];
      }
      epoch_examples += static_cast<double>(b);
      {
        double batch_recon = 0.0;
        for (double v : recon.per_example) batch_recon += v;
        trace_.recon_loss.push_back(batch_recon / static_cast<double>(b));
      }

      // Backward through the decoder and the reparameterization. A
      // frozen mean receives no gradient.
      const linalg::Matrix dz = decoder_.Backward(recon.grad, !dp);
      if (learn_variance) {
        linalg::Matrix dh;
        if (learn_mean) {
          linalg::Matrix dmu = dz;
          dmu += kl.grad_mu;
          dh = mean_head_->Backward(dmu, !dp);
        }
        linalg::Matrix dlogvar = kl.grad_logvar;
        for (std::size_t i = 0; i < dlogvar.size(); ++i) {
          dlogvar.data()[i] +=
              dz.data()[i] * eps.data()[i] * 0.5 * half_std.data()[i];
        }
        if (learn_mean) {
          dh += logvar_head_->Backward(dlogvar, !dp);
        } else {
          dh = logvar_head_->Backward(dlogvar, !dp);
        }
        trunk_.BackwardNoInput(dh, !dp);
      }

      if (dp) {
        nn::DpSgdStep dp_step(dp_opts, rng);
        P3GM_RETURN_NOT_OK(dp_step.CollectSquaredNorms(stacks, b));
        dp_step.ApplyClippedAccumulation(stacks);
        dp_step.AddNoiseAndAverage(params, b);
        ++sgd_steps_;
        dp::MechanismEvent event;
        event.mechanism = "sampled_gaussian";
        event.sigma = options_.sgd_sigma;
        event.sampling_rate = q;
        accountant->AddEvent(event, sgd_curve);
      }
      optimizer_.Step(params);
      batches->Add();
    }
    const double recon_loss =
        epoch_examples > 0 ? epoch_recon / epoch_examples : 0.0;
    const double kl_loss = epoch_examples > 0 ? epoch_kl / epoch_examples : 0.0;
    epoch_gauge->Set(static_cast<double>(epoch + 1));
    recon_gauge->Set(recon_loss);
    kl_gauge->Set(kl_loss);
    if (callback) {
      TrainProgress progress;
      progress.epoch = epoch;
      progress.recon_loss = recon_loss;
      progress.kl_loss = kl_loss;
      callback(progress);
    }
  }
  return util::Status::OK();
}

linalg::Matrix ElboNet::Decode(const linalg::Matrix& z) {
  linalg::Matrix logits = decoder_.Forward(z, false);
  double* data = logits.data();
  if (options_.decoder == DecoderType::kBernoulli) {
    for (std::size_t i = 0; i < logits.size(); ++i) {
      data[i] = nn::SigmoidScalar(data[i]);
    }
  } else {
    // Gaussian decoder: outputs are means in data space, clamped to the
    // [0,1] feature domain.
    for (std::size_t i = 0; i < logits.size(); ++i) {
      data[i] = std::clamp(data[i], 0.0, 1.0);
    }
  }
  return logits;
}

linalg::Matrix ElboNet::EncodeMean(const linalg::Matrix& x) {
  P3GM_CHECK_MSG(mean_head_ != nullptr, "EncodeMean needs a learned mean");
  return mean_head_->Forward(trunk_.Forward(x, false), false);
}

std::vector<linalg::Matrix> ElboNet::ExportDecoderWeights() {
  P3GM_CHECK_MSG(fitted_, "ExportDecoderWeights before Fit");
  std::vector<linalg::Matrix> out;
  for (nn::Parameter* p : decoder_.Parameters()) out.push_back(p->value);
  return out;  // {W1, b1, W2, b2} in layer order.
}

Vae::Vae(const VaeOptions& options)
    : options_(options),
      rng_(options.seed),
      net_(options, {.epoch_span = "vae.epoch",
                     .batches = "vae.batches",
                     .epoch = "vae.epoch",
                     .recon_loss = "vae.epoch.recon_loss",
                     .kl_loss = "vae.epoch.kl_loss"}) {}

util::Status Vae::Fit(const linalg::Matrix& x, const EpochCallback& callback) {
  P3GM_TRACE_SPAN("vae.fit");
  // Every DP-SGD step lands in the privacy ledger as it is composed.
  accountant_.set_ledger_enabled(true);
  return net_.Fit(x, ElboVariant(), &rng_, &accountant_, callback);
}

linalg::Matrix Vae::Sample(std::size_t n, util::Rng* rng) {
  linalg::Matrix z(n, options_.latent_dim);
  for (std::size_t i = 0; i < z.size(); ++i) z.data()[i] = rng->Normal();
  return Decode(z);
}

dp::DpGuarantee Vae::ComputeEpsilon(double delta) const {
  dp::DpGuarantee out;
  out.delta = delta;
  if (!options_.differentially_private || net_.sgd_steps() == 0) {
    out.epsilon = 0.0;
    return out;
  }
  dp::RdpAccountant acc;
  const double q = static_cast<double>(options_.batch_size) /
                   static_cast<double>(net_.data_size());
  acc.AddSampledGaussian(q, options_.sgd_sigma, net_.sgd_steps());
  return acc.GetEpsilon(delta);
}

}  // namespace core
}  // namespace p3gm
