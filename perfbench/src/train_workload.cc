// Training workloads: a fixed-seed DP P3GM Pgm::Fit, timed whole with
// observability off, plus a traced replay that drives the same phases
// through the library's public calls and times each one.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "core/mixture_kl.h"
#include "core/pgm.h"
#include "data/images.h"
#include "dp/accountant.h"
#include "dp/mechanisms.h"
#include "nn/activations.h"
#include "nn/dp_sgd.h"
#include "nn/linear.h"
#include "nn/losses.h"
#include "nn/optimizer.h"
#include "nn/sequential.h"
#include "obs/observability.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "pca/pca.h"
#include "stats/dp_em.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace p3gm {
namespace perfbench {

namespace {

constexpr double kTargetEpsilon = 1.0;
constexpr double kDelta = 1e-5;
// Pgm::Fit clamps the encoder log-variance to this range.
constexpr double kLogVarMin = -8.0;
constexpr double kLogVarMax = 8.0;
// Share of the traced run's wall time the timed parts must cover.
constexpr double kMinCoverage = 0.95;
// The traced fit may be this much slower than the untraced one (the
// mean_ms bound in BENCHMARK.json).
constexpr double kTracedWallBound = 0.25;
// Traced replays in a traced run, each followed by an untraced fit.
constexpr int kTracedFits = 3;

struct TrainConfig {
  std::size_t n = 0;
  core::PgmOptions options;
};

// train_image: 784-d MNIST-like rows, DP-PCA to 10 dimensions, 5 MoG
// components, hidden 100, lot 240, one epoch (16 steps at full size).
// 4000 rows keep a fit near 3 s, so a run holds a dozen or more fits and
// their mean spans the run rather than one stretch of the host's speed.
TrainConfig MakeConfig(std::uint64_t seed, bool tiny) {
  TrainConfig c;
  c.n = tiny ? 1200 : 4000;
  core::PgmOptions& o = c.options;
  o.differentially_private = true;
  o.seed = seed + 1;
  o.use_pca = true;
  o.latent_dim = 10;
  o.mog_components = 5;
  o.hidden = 100;
  o.batch_size = tiny ? 40 : 240;
  o.epochs = 1;
  return c;
}

struct Prepared {
  linalg::Matrix x;
  core::PgmOptions options;  // sgd_sigma calibrated
};

// The timed set-up: dataset generation plus sigma calibration.
util::Result<Prepared> Prepare(const TrainConfig& config,
                               std::uint64_t seed) {
  data::Dataset data = data::MakeMnistLike(config.n, seed);
  Prepared p;
  p.options = config.options;
  P3GM_ASSIGN_OR_RETURN(p.options.sgd_sigma,
                        core::Pgm::CalibrateSigma(p.options, config.n,
                                                  kTargetEpsilon, kDelta));
  p.x = std::move(data.features);
  return p;
}

struct FitOutcome {
  bool ok = false;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double recon_loss = 0.0;  // Mean over the last epoch.
  std::uint64_t weights_hash = 0;
};

// Checks the privacy bookkeeping of a finished run: the closed-form
// epsilon meets the target and agrees with the live accountant.
bool EpsilonOk(double closed_form, double live, const char* what) {
  const bool ok = closed_form <= kTargetEpsilon * (1.0 + 1e-9) &&
                  std::fabs(closed_form - live) <=
                      1e-6 * std::max(1.0, closed_form);
  if (!ok) {
    std::fprintf(stderr,
                 "perfbench: %s epsilon %.12g (live accountant %.12g) "
                 "vs target %g\n",
                 what, closed_form, live, kTargetEpsilon);
  }
  return ok;
}

FitOutcome RunFit(const Prepared& p) {
  FitOutcome out;
  core::Pgm pgm(p.options);
  double last_recon = std::nan("");
  const double cpu0 = ProcessCpuSeconds();
  const double t0 = NowSeconds();
  const util::Status status = pgm.Fit(
      p.x, [&](const core::TrainProgress& progress) {
        last_recon = progress.recon_loss;
      });
  out.wall_s = NowSeconds() - t0;
  out.cpu_s = ProcessCpuSeconds() - cpu0;
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: Fit failed: %s\n",
                 status.ToString().c_str());
    return out;
  }
  out.recon_loss = last_recon;
  out.weights_hash = HashMatrices(pgm.ExportDecoderWeights());
  out.ok = std::isfinite(last_recon) &&
           EpsilonOk(pgm.ComputeEpsilon(kDelta).epsilon,
                     pgm.accountant().GetEpsilon(kDelta).epsilon, "Fit");
  return out;
}

void ClampInPlace(double lo, double hi, linalg::Matrix* m) {
  for (std::size_t i = 0; i < m->size(); ++i) {
    m->data()[i] = std::clamp(m->data()[i], lo, hi);
  }
}

struct ReplayOutcome {
  bool ok = false;
  double wall_s = 0.0;
  double recon_loss = 0.0;
  std::uint64_t weights_hash = 0;
  std::size_t steps = 0;
};

// Pgm::Fit (src/core/pgm.cc) for the DP configuration with PCA, step for
// step:
// the same calls, options and RNG consumption order, with a span around
// each layer call. Its decoder must hash identically to Pgm::Fit's; a
// mismatch means the replay has drifted from the library.
ReplayOutcome ReplayFit(const Prepared& p) {
  using linalg::Matrix;
  ReplayOutcome out;
  const core::PgmOptions& o = p.options;
  const Matrix& x = p.x;
  const std::size_t n = x.rows();
  const std::size_t d = x.cols();
  const double t0 = NowSeconds();
  obs::TraceSpan fit_span("bench.train.fit");

  util::Rng rng(o.seed);
  dp::RdpAccountant accountant;
  accountant.set_ledger_enabled(true);

  // Encoding phase: DP-PCA, the frozen encoder mean, DP-EM.
  const std::size_t dl = o.latent_dim;
  Matrix encoded;
  pca::PcaModel pca_model;
  {
    obs::TraceSpan span("bench.pca.fit");
    pca::DpPcaOptions pca_opts;
    pca_opts.num_components = dl;
    pca_opts.epsilon = o.pca_epsilon;
    pca_opts.accountant = &accountant;
    auto fitted = pca::FitDpPca(x, pca_opts, &rng);
    if (!fitted.ok()) return out;
    pca_model = std::move(fitted).ValueOrDie();
  }
  {
    obs::TraceSpan span("bench.pca.encode");
    encoded = pca_model.Transform(x);
    for (std::size_t i = 0; i < encoded.rows(); ++i) {
      std::vector<double> row = encoded.Row(i);
      dp::ClipL2(1.0, &row);
      encoded.SetRow(i, row);
    }
  }
  stats::GaussianMixture prior;
  {
    obs::TraceSpan span("bench.em.fit");
    stats::DpEmOptions em_opts;
    em_opts.num_components = o.mog_components;
    em_opts.iters = o.em_iters;
    em_opts.noise_multiplier = o.em_sigma;
    em_opts.seed = o.seed ^ 0xe3;
    em_opts.accountant = &accountant;
    auto em = stats::FitGmmDpEm(encoded, em_opts, &rng);
    if (!em.ok()) return out;
    prior = std::move(em).ValueOrDie().mixture;
  }

  // Decoding phase: DP-SGD on the ELBO.
  nn::Sequential trunk("encoder");
  trunk.Emplace<nn::Linear>("enc1", d, o.hidden, &rng);
  trunk.Emplace<nn::Relu>();
  nn::Linear logvar_head("enc_logvar", o.hidden, dl, &rng);
  nn::Sequential decoder("decoder");
  decoder.Emplace<nn::Linear>("dec1", dl, o.hidden, &rng);
  decoder.Emplace<nn::Relu>();
  decoder.Emplace<nn::Linear>("dec2", o.hidden, d, &rng);
  nn::Adam optimizer(o.learning_rate);
  const std::vector<nn::Layer*> stacks = {&trunk, &logvar_head, &decoder};
  std::vector<nn::Parameter*> params;
  for (nn::Layer* s : stacks) {
    for (nn::Parameter* param : s->Parameters()) params.push_back(param);
  }

  const double q = static_cast<double>(o.batch_size) / static_cast<double>(n);
  nn::DpSgdOptions dp_opts;
  dp_opts.clip_norm = o.clip_norm;
  dp_opts.noise_multiplier = o.sgd_sigma;
  dp_opts.lot_size = o.batch_size;
  const std::vector<double> sgd_curve =
      accountant.SampledGaussianCurve(q, o.sgd_sigma);
  const std::size_t steps_per_epoch =
      std::max<std::size_t>(1, n / o.batch_size);
  double epoch_recon = 0.0, epoch_examples = 0.0;
  for (std::size_t epoch = 0; epoch < o.epochs; ++epoch) {
    rng.Permutation(n);  // Pgm::Fit draws it in DP mode too.
    epoch_recon = 0.0;
    epoch_examples = 0.0;
    for (std::size_t step = 0; step < steps_per_epoch; ++step) {
      obs::TraceSpan step_span("bench.sgd.step");
      std::vector<std::size_t> idx;
      Matrix xb, cx;
      {
        obs::TraceSpan span("bench.sgd.batch");
        idx = rng.PoissonSample(n, q);
        if (!idx.empty()) {
          xb = x.SelectRows(idx);
          cx = encoded.SelectRows(idx);
        }
      }
      if (idx.empty()) continue;
      const std::size_t b = idx.size();
      {
        // Gradient buffers are reset for the backward pass to fill.
        obs::TraceSpan span("bench.sgd.backward");
        for (nn::Parameter* param : params) param->ZeroGrad();
      }
      Matrix z = cx, logvar, eps, half_std, logits;
      {
        obs::TraceSpan span("bench.sgd.forward");
        const Matrix h = trunk.Forward(xb, true);
        logvar = logvar_head.Forward(h, true);
        ClampInPlace(kLogVarMin, kLogVarMax, &logvar);
        eps = Matrix(b, dl);
        half_std = Matrix(b, dl);
        for (std::size_t i = 0; i < eps.size(); ++i) {
          eps.data()[i] = rng.Normal();
          half_std.data()[i] = std::exp(0.5 * logvar.data()[i]);
          z.data()[i] += half_std.data()[i] * eps.data()[i];
        }
        logits = decoder.Forward(z, true);
      }
      nn::LossResult recon;
      core::MixtureKlResult kl;
      {
        obs::TraceSpan span("bench.sgd.loss");
        recon = nn::BceWithLogitsLoss(logits, xb, /*mean=*/false);
        kl = core::MixturePriorKl(cx, logvar, prior, /*mean=*/false);
        for (std::size_t i = 0; i < b; ++i) epoch_recon += recon.per_example[i];
        epoch_examples += static_cast<double>(b);
      }
      {
        obs::TraceSpan span("bench.sgd.backward");
        const Matrix dz = decoder.Backward(recon.grad, false);
        Matrix dlogvar = kl.grad_logvar;
        for (std::size_t i = 0; i < dlogvar.size(); ++i) {
          dlogvar.data()[i] +=
              dz.data()[i] * eps.data()[i] * 0.5 * half_std.data()[i];
        }
        const Matrix dh = logvar_head.Backward(dlogvar, false);
        trunk.Backward(dh, false);
      }
      nn::DpSgdStep dp_step(dp_opts, &rng);
      {
        obs::TraceSpan span("bench.sgd.norms");
        if (!dp_step.CollectSquaredNorms(stacks, b).ok()) return out;
      }
      {
        obs::TraceSpan span("bench.sgd.clip");
        dp_step.ApplyClippedAccumulation(stacks);
      }
      {
        obs::TraceSpan span("bench.sgd.noise");
        dp_step.AddNoiseAndAverage(params, b);
      }
      {
        obs::TraceSpan span("bench.sgd.account");
        dp::MechanismEvent event;
        event.mechanism = "sampled_gaussian";
        event.sigma = o.sgd_sigma;
        event.sampling_rate = q;
        accountant.AddEvent(event, sgd_curve);
      }
      {
        obs::TraceSpan span("bench.sgd.optim");
        optimizer.Step(params);
      }
      ++out.steps;
    }
  }
  out.wall_s = NowSeconds() - t0;
  std::vector<Matrix> weights;
  for (nn::Parameter* param : decoder.Parameters()) {
    weights.push_back(param->value);
  }
  out.weights_hash = HashMatrices(weights);
  out.recon_loss = epoch_examples > 0 ? epoch_recon / epoch_examples : 0.0;

  dp::P3gmPrivacyParams privacy;
  privacy.pca_epsilon = o.pca_epsilon;
  privacy.em_sigma = o.em_sigma;
  privacy.em_iters = o.em_iters;
  privacy.mog_components = o.mog_components;
  privacy.sgd_sigma = o.sgd_sigma;
  privacy.sgd_sampling_rate = q;
  privacy.sgd_steps = out.steps;
  out.ok = EpsilonOk(dp::ComputeP3gmEpsilonRdp(privacy, kDelta).epsilon,
                     accountant.GetEpsilon(kDelta).epsilon, "traced fit");
  return out;
}

std::uint64_t CounterValue(const obs::Snapshot& snapshot,
                           const std::string& name) {
  for (const obs::CounterSample& c : snapshot.counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

void TracedRun(const RunArgs& args, const Prepared& p, RunResult* result) {
  // Untraced and traced fits alternate, starting and ending untraced, so
  // a drift of the host's speed reaches both sides alike; their medians
  // give the overhead. The first untraced fit is also the reference for
  // each replay's decoder hash and recon loss.
  const FitOutcome first = RunFit(p);
  result->Operation(first.ok);
  std::vector<double> plain_s = {first.wall_s}, traced_s;
  double traced_total_s = 0.0, recon_loss = 0.0;
  std::size_t steps_total = 0;

  obs::Registry::Global().Reset();
  obs::TraceRecorder::Global().Clear();
  for (int i = 0; i < kTracedFits; ++i) {
    obs::SetEnabled(true);
    const ReplayOutcome traced = ReplayFit(p);
    obs::SetEnabled(false);
    bool ok = traced.ok;
    if (traced.weights_hash != first.weights_hash) {
      result->Fail("traced replay's decoder differs from Pgm::Fit's");
      ok = false;
    }
    if (traced.recon_loss != first.recon_loss) {
      result->Fail("traced replay's recon loss differs from Pgm::Fit's");
      ok = false;
    }
    result->Operation(ok);
    traced_s.push_back(traced.wall_s);
    traced_total_s += traced.wall_s;
    steps_total += traced.steps;
    recon_loss = traced.recon_loss;

    const FitOutcome plain = RunFit(p);
    result->Operation(plain.ok && plain.weights_hash == first.weights_hash);
    plain_s.push_back(plain.wall_s);
  }
  const obs::Snapshot snapshot = obs::Registry::Global().TakeSnapshot();
  const std::vector<obs::TraceRecorder::Event> events =
      obs::TraceRecorder::Global().Events();
  const double plain_wall_s = Median(plain_s);
  const double traced_wall_s = Median(traced_s);

  // Layer times are per fit: the sum over the replays over their count.
  static const char* const kParts[] = {
      "bench.pca.fit",     "bench.pca.encode", "bench.em.fit",
      "bench.sgd.batch",   "bench.sgd.forward", "bench.sgd.loss",
      "bench.sgd.backward", "bench.sgd.norms",  "bench.sgd.clip",
      "bench.sgd.noise",   "bench.sgd.optim",  "bench.sgd.account"};
  double covered = 0.0;
  for (const char* part : kParts) {
    const double s = SumSpanSeconds(events, part);
    covered += s;
    // part + 6 drops "bench.".
    result->Add(std::string(part + 6) + "_s", s / kTracedFits);
  }
  const double coverage = covered / traced_total_s;
  const double steps = static_cast<double>(steps_total);
  const double examples =
      static_cast<double>(CounterValue(snapshot, "dpsgd.examples"));
  result->Add("sgd.steps", steps / kTracedFits);
  result->Add("sgd.step_p50_ms",
              Median(SpanSeconds(events, "bench.sgd.step")) * 1e3);
  result->Add("sgd.clip_rate",
              examples > 0 ? static_cast<double>(CounterValue(
                                 snapshot, "dpsgd.examples_clipped")) /
                                 examples
                           : 0.0);
  result->Add("pool.tasks_per_step",
              static_cast<double>(CounterValue(snapshot, "threadpool.tasks")) /
                  std::max(1.0, steps));
  result->Add("train.coverage", coverage);
  result->Add("train.recon_loss", recon_loss);
  result->Add("trace.overhead_ms", (traced_wall_s - plain_wall_s) * 1e3);
  std::fprintf(stderr,
               "perfbench: %s traced fit %.3f s, untraced %.3f s (medians), "
               "coverage %.4f\n",
               args.workload.c_str(), traced_wall_s, plain_wall_s, coverage);

  if (!args.tiny) {
    if (coverage < kMinCoverage) {
      result->Fail("timed parts cover less than 95% of the traced fit");
    }
    if (traced_wall_s > plain_wall_s * (1.0 + kTracedWallBound)) {
      result->Fail("traced fit is slower than the untraced one by more "
                   "than the mean_ms bound");
    }
  }
  obs::TraceRecorder::Global().WriteChromeJson(args.out_dir + "/" +
                                               args.workload + ".trace.json");
}

}  // namespace

bool IsTrainWorkload(const std::string& name) {
  return name == "train_image";
}

void RunTrainWorkload(const RunArgs& args, RunResult* result) {
  const TrainConfig config = MakeConfig(args.seed, args.tiny);
  util::SetNumThreads(2);

  std::vector<double> setup_s;
  std::unique_ptr<Prepared> prepared;
  std::uint64_t data_hash = 0;
  const double setup_start = NowSeconds();
  while (WantAnotherSetup(setup_s.size(), NowSeconds() - setup_start,
                          args.trace)) {
    prepared.reset();
    const double t0 = NowSeconds();
    auto p = Prepare(config, args.seed);
    setup_s.push_back(NowSeconds() - t0);
    if (!p.ok()) {
      result->Fail("set-up: " + p.status().ToString());
      result->Operation(false);
      return;
    }
    prepared = std::make_unique<Prepared>(std::move(p).ValueOrDie());
    const std::uint64_t h = HashMatrices({prepared->x});
    if (setup_s.size() > 1 && h != data_hash) {
      result->Fail("dataset is not seed-stable");
    }
    data_hash = h;
  }

  if (args.trace) {
    TracedRun(args, *prepared, result);
    return;
  }

  // Fits repeat until the run's time is spent, at least twice so the
  // decoder hash can be compared across repetitions of the same seed.
  std::vector<double> wall_s, cpu_s;
  std::uint64_t first_hash = 0;
  double recon_loss = 0.0;
  const double start = NowSeconds();
  while (wall_s.size() < 2 ||
         NowSeconds() - start + wall_s.back() <= args.seconds) {
    const FitOutcome fit = RunFit(*prepared);
    bool ok = fit.ok;
    if (wall_s.empty()) {
      first_hash = fit.weights_hash;
      recon_loss = fit.recon_loss;
    } else if (fit.weights_hash != first_hash ||
               fit.recon_loss != recon_loss) {
      result->Fail("same-seed fits produced different decoders");
      ok = false;
    }
    result->Operation(ok);
    wall_s.push_back(fit.wall_s);
    cpu_s.push_back(fit.cpu_s);
  }
  double total_wall = 0.0;
  for (double w : wall_s) total_wall += w;
  std::fprintf(stderr, "perfbench: %s %zu fits, recon_loss %.6f\n",
               args.workload.c_str(), wall_s.size(), recon_loss);
  result->Add("setup_s", Median(setup_s));
  result->Add("mean_ms", Mean(wall_s) * 1e3);
  result->Add("p90_ms", Quantile(wall_s, 0.9) * 1e3);
  result->Add("ops_per_s", static_cast<double>(wall_s.size()) / total_wall);
  result->Add("cpu_ms_per_op", Median(cpu_s) * 1e3);
  result->Add("peak_rss_mb", PeakRssMb());
}

}  // namespace perfbench
}  // namespace p3gm
