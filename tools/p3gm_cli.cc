// p3gm — command-line front end for the library. Lets a data holder run
// the full Fig.-1 workflow without writing C++:
//
//   p3gm train data.csv model.release --epsilon 1.0 --epochs 40
//   p3gm inspect model.release
//   p3gm generate model.release synthetic.csv --n 10000
//
// `train` reads a numeric CSV (last column = integer label by default),
// calibrates DP-SGD for the requested (epsilon, delta), trains P3GM and
// writes a self-contained release package. `generate` samples from a
// package (pure post-processing: no further privacy cost).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/pgm.h"
#include "core/release.h"
#include "core/synthesizer.h"
#include "data/csv_loader.h"
#include "obs/flight_recorder.h"
#include "obs/ledger.h"
#include "obs/observability.h"
#include "obs/perf/alloc.h"
#include "obs/profile/heap.h"
#include "obs/profile/profiler.h"
#include "obs/quality/monitor.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "serve/server.h"
#include "tools/bench_cli.h"
#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/string_utils.h"

namespace {

using namespace p3gm;  // NOLINT(build/namespaces)

struct Flags {
  double epsilon = 1.0;
  double delta = 1e-5;
  std::size_t epochs = 40;
  std::size_t batch = 200;
  std::size_t latent = 10;
  std::size_t hidden = 200;
  std::size_t mog = 3;
  std::size_t n = 1000;
  std::uint64_t seed = 42;
  bool use_pca = true;
  bool non_private = false;
  bool gaussian_decoder = false;
  int label_column = -1;
  std::string obs_prefix;  // Empty = observability off.
};

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  p3gm train <data.csv> <model.release> [options]\n"
               "  p3gm generate <model.release> <out.csv> --n N [--seed S]\n"
               "  p3gm inspect <model.release>\n"
               "  p3gm bench [--out FILE] [--filter SUBSTR] [--reps N]\n"
               "             [--warmup N] [--smoke] [--list]\n"
               "  p3gm serve <model.release>... [serve options]\n"
               "  p3gm quality <model.release> [quality options]\n"
               "  p3gm profile [profile options] -- <subcommand...>\n"
               "\n"
               "train options:\n"
               "  --epsilon E          target epsilon (default 1.0)\n"
               "  --delta D            target delta (default 1e-5)\n"
               "  --non-private        train without DP (PGM)\n"
               "  --epochs N           training epochs (default 40)\n"
               "  --batch B            lot size (default 200)\n"
               "  --latent L           PCA components d' (default 10)\n"
               "  --hidden H           MLP hidden width (default 200)\n"
               "  --mog K              MoG components (default 3)\n"
               "  --no-pca             skip dimensionality reduction\n"
               "  --gaussian-decoder   MSE/Gaussian observation model\n"
               "  --label-column I     label column index (default -1 = "
               "last)\n"
               "  --seed S             RNG seed (default 42)\n"
               "  --obs PREFIX         export training telemetry to\n"
               "                       PREFIX_metrics.{json,csv},\n"
               "                       PREFIX_trace.json (chrome://tracing)\n"
               "                       and PREFIX_ledger.{json,csv}\n"
               "\n"
               "serve options (see docs/serving.md):\n"
               "  --port P             TCP port, 1-65535 (default 8080)\n"
               "  --host H             bind address (default 127.0.0.1)\n"
               "  --max-batch N        coalesce up to N sample requests per\n"
               "                       decoder pass, 1-1024 (default 8)\n"
               "  --queue-limit N      pending sample jobs before 503,\n"
               "                       0-65536 (default 256)\n"
               "  --cache N            LRU sample-cache entries, 0 = off\n"
               "                       (default 0)\n"
               "  --max-n N            per-request row ceiling (default\n"
               "                       100000)\n"
               "  --seed S             stream seed for unseeded requests\n"
               "  --slow-ms N          WARN-log requests slower than N ms,\n"
               "                       0 = off (default 0)\n"
               "  --profile-on-slow DIR  when a --slow-ms WARN fires,\n"
               "                       capture a 1s CPU-profile burst and\n"
               "                       write slow-<traceid>.folded to DIR\n"
               "                       (skipped while a profile is already\n"
               "                       running)\n"
               "  --flight-dump PATH   flight-recorder dump file for\n"
               "                       SIGQUIT and fatal signals (default\n"
               "                       p3gm_flight.dump)\n"
               "  --no-obs             disable the metrics registry\n"
               "                       (/v1/metrics reports zeros)\n"
               "  --quality-threshold T  drift alarm threshold on the\n"
               "                       quality monitor, (0, 2] (default\n"
               "                       0.15)\n"
               "  --no-quality         disable synthesis-quality\n"
               "                       monitoring (P3GM_NO_QUALITY=1 does\n"
               "                       the same)\n"
               "\n"
               "profile options (see docs/observability.md \"Profiling\"):\n"
               "  --out PREFIX         write PREFIX_cpu.folded (and, in\n"
               "                       -DP3GM_ALLOC_TRACKING=ON builds,\n"
               "                       PREFIX_heap.folded) — folded stacks\n"
               "                       for flamegraph.pl (default\n"
               "                       p3gm_profile)\n"
               "  --hz N               CPU samples per second of CPU time,\n"
               "                       1-1000 (default 99)\n"
               "  --heap-stride BYTES  bytes between heap samples (default\n"
               "                       524288)\n"
               "  everything after `--` runs as a normal p3gm invocation\n"
               "  (train, generate, bench, quality, ...) under sampling.\n"
               "\n"
               "quality options (see docs/observability.md):\n"
               "  --score data.csv     score a CSV of samples against the\n"
               "                       fingerprint; exit 1 when drift\n"
               "                       exceeds the threshold. The CSV must\n"
               "                       already be in the model's output\n"
               "                       domain (e.g. from p3gm generate)\n"
               "  --threshold T        drift threshold for --score,\n"
               "                       (0, 2] (default 0.15)\n"
               "  --n N                reference rows when computing a\n"
               "                       fingerprint (default 4096)\n"
               "  --seed S             RNG seed for the reference draw\n"
               "                       (default 42)\n"
               "  --embed              recompute the fingerprint and save\n"
               "                       it into the package\n"
               "  --out PATH           write --embed output here instead\n"
               "                       of overwriting the input\n"
               "  --label-column I     label column of --score CSV\n"
               "                       (default -1 = last)\n"
               "\n"
               "serve answers POST /v1/sample, GET /v1/models, GET\n"
               "/v1/metrics[?format=prometheus], GET /v1/quality, GET\n"
               "/v1/profile[?seconds=N&hz=M], GET /v1/profile/heap, GET\n"
               "/healthz and POST /v1/reload; SIGHUP also hot-reloads\n"
               "packages, SIGQUIT dumps the flight recorder,\n"
               "SIGTERM/SIGINT drain gracefully. P3GM_LOG_LEVEL /\n"
               "P3GM_LOG_FORMAT (json) configure logging.\n");
  return 2;
}

bool ParseFlags(int argc, char** argv, int start, Flags* flags) {
  for (int i = start; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](double* out) {
      if (i + 1 >= argc) return false;
      *out = std::atof(argv[++i]);
      return true;
    };
    double v = 0;
    if (arg == "--epsilon" && next(&v)) {
      flags->epsilon = v;
    } else if (arg == "--delta" && next(&v)) {
      flags->delta = v;
    } else if (arg == "--epochs" && next(&v)) {
      flags->epochs = static_cast<std::size_t>(v);
    } else if (arg == "--batch" && next(&v)) {
      flags->batch = static_cast<std::size_t>(v);
    } else if (arg == "--latent" && next(&v)) {
      flags->latent = static_cast<std::size_t>(v);
    } else if (arg == "--hidden" && next(&v)) {
      flags->hidden = static_cast<std::size_t>(v);
    } else if (arg == "--mog" && next(&v)) {
      flags->mog = static_cast<std::size_t>(v);
    } else if (arg == "--n" && next(&v)) {
      flags->n = static_cast<std::size_t>(v);
    } else if (arg == "--seed" && next(&v)) {
      flags->seed = static_cast<std::uint64_t>(v);
    } else if (arg == "--label-column" && next(&v)) {
      flags->label_column = static_cast<int>(v);
    } else if (arg == "--obs") {
      if (i + 1 >= argc) return false;
      flags->obs_prefix = argv[++i];
    } else if (arg == "--no-pca") {
      flags->use_pca = false;
    } else if (arg == "--non-private") {
      flags->non_private = true;
    } else if (arg == "--gaussian-decoder") {
      flags->gaussian_decoder = true;
    } else {
      std::fprintf(stderr, "unknown or malformed flag: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

int Fail(const util::Status& st) {
  std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
  return 1;
}

// Writes the metrics snapshot, trace and privacy ledger accumulated so
// far to <prefix>_*.{json,csv} files.
void ExportTelemetry(const std::string& prefix, double delta) {
  const obs::Snapshot snapshot = obs::Registry::Global().TakeSnapshot();
  snapshot.WriteJson(prefix + "_metrics.json");
  snapshot.WriteCsv(prefix + "_metrics.csv");
  obs::TraceRecorder::Global().WriteChromeJson(prefix + "_trace.json");
  const obs::PrivacyLedger& ledger = obs::PrivacyLedger::Global();
  if (ledger.size() > 0) {
    ledger.WriteJson(prefix + "_ledger.json");
    ledger.WriteCsv(prefix + "_ledger.csv");
    std::printf("ledger: %zu entries, cumulative epsilon %.6f at delta %g\n",
                ledger.size(), ledger.CumulativeEpsilon(), delta);
  }
  std::printf("telemetry written to %s_*.{json,csv}\n", prefix.c_str());
}

int CmdTrain(const std::string& csv_path, const std::string& out_path,
             const Flags& flags) {
  util::Stopwatch sw;
  if (!flags.obs_prefix.empty()) {
    obs::SetEnabled(true);
    obs::PrivacyLedger::Global().SetDelta(flags.delta);
  }
  data::CsvLoadOptions load;
  load.label_column = flags.label_column;
  auto dataset = data::LoadCsvDataset(csv_path, load);
  if (!dataset.ok()) return Fail(dataset.status());
  std::printf("loaded %zu rows x %zu features, %zu classes (%.1fs)\n",
              dataset->size(), dataset->dim(), dataset->num_classes,
              sw.ElapsedSeconds());

  core::PgmOptions opt;
  opt.hidden = flags.hidden;
  opt.latent_dim = flags.latent;
  opt.mog_components = flags.mog;
  opt.epochs = flags.epochs;
  opt.batch_size = std::min(flags.batch, dataset->size());
  opt.use_pca = flags.use_pca && flags.latent < dataset->dim();
  opt.decoder = flags.gaussian_decoder ? core::DecoderType::kGaussian
                                       : core::DecoderType::kBernoulli;
  opt.seed = flags.seed;
  opt.differentially_private = !flags.non_private;
  if (opt.differentially_private) {
    auto sigma = core::Pgm::CalibrateSigma(
        opt, dataset->size() , flags.epsilon, flags.delta);
    if (!sigma.ok()) return Fail(sigma.status());
    opt.sgd_sigma = *sigma;
    std::printf("calibrated sigma_s = %.4f for (%.3g, %.3g)-DP\n", *sigma,
                flags.epsilon, flags.delta);
  }

  sw.Restart();
  core::PgmSynthesizer synth(opt);
  if (auto st = synth.Fit(*dataset); !st.ok()) return Fail(st);
  const auto g = synth.ComputeEpsilon(flags.delta);
  std::printf("trained %s in %.1fs; privacy spent: (%.4f, %g)-DP\n",
              synth.name().c_str(), sw.ElapsedSeconds(), g.epsilon,
              flags.delta);

  auto pkg = core::ReleasePackage::FromPgm(&synth.model(),
                                           dataset->num_classes,
                                           synth.name() + ":" + csv_path);
  if (!pkg.ok()) return Fail(pkg.status());
  // Reference fingerprint for serve-time drift monitoring. Drawn from
  // the released model itself, so it is DP post-processing: zero
  // additional privacy cost.
  auto fp = core::BuildFingerprint(*pkg, 4096, flags.seed);
  if (!fp.ok()) return Fail(fp.status());
  pkg->SetFingerprint(std::move(*fp));
  if (auto st = pkg->Save(out_path); !st.ok()) return Fail(st);
  std::printf(
      "release package written to %s (quality fingerprint: 4096 rows)\n",
      out_path.c_str());
  if (!flags.obs_prefix.empty()) {
    ExportTelemetry(flags.obs_prefix, flags.delta);
  }
  return 0;
}

int CmdGenerate(const std::string& pkg_path, const std::string& out_path,
                const Flags& flags) {
  auto pkg = core::ReleasePackage::Load(pkg_path);
  if (!pkg.ok()) return Fail(pkg.status());
  util::Rng rng(flags.seed);
  auto dataset = pkg->Generate(flags.n, &rng);
  if (!dataset.ok()) return Fail(dataset.status());
  if (auto st = data::SaveCsvDataset(*dataset, out_path); !st.ok()) {
    return Fail(st);
  }
  std::printf("wrote %zu synthetic rows to %s\n", dataset->size(),
              out_path.c_str());
  return 0;
}

int CmdInspect(const std::string& pkg_path) {
  auto pkg = core::ReleasePackage::Load(pkg_path);
  if (!pkg.ok()) return Fail(pkg.status());
  std::printf("release package: %s\n", pkg->name().c_str());
  std::printf("  decoder:       %zu -> %zu (%s observation model)\n",
              pkg->latent_dim(), pkg->output_dim(),
              pkg->decoder_type() == core::DecoderType::kBernoulli
                  ? "Bernoulli"
                  : "Gaussian");
  std::printf("  features:      %zu (+ %zu-class one-hot label block)\n",
              pkg->feature_dim(), pkg->num_classes());
  std::printf("  latent prior:  MoG with %zu components over %zu dims\n",
              pkg->prior().num_components(), pkg->prior().dim());
  for (std::size_t k = 0; k < pkg->prior().num_components(); ++k) {
    std::printf("    component %zu: weight %.4f\n", k,
                pkg->prior().weights()[k]);
  }
  if (const auto* fp = pkg->fingerprint()) {
    std::printf("  fingerprint:   %llu reference rows (seed %llu)\n",
                static_cast<unsigned long long>(fp->reference_rows()),
                static_cast<unsigned long long>(fp->seed()));
  } else {
    std::printf("  fingerprint:   none (format v1 or stripped; run "
                "`p3gm quality %s --embed`)\n",
                pkg_path.c_str());
  }
  return 0;
}


// Strict numeric flag parsing for the daemon (mirrors the
// P3GM_NUM_THREADS hardening): non-numeric, negative, overflowing or
// out-of-range values are a usage error, never silently truncated the
// way train/generate's atof-based flags are.
bool ParseServeUintFlag(const char* flag, const char* text,
                        std::uint64_t min, std::uint64_t max,
                        std::uint64_t* out) {
  if (!util::ParseUint64(text, min, max, out)) {
    std::fprintf(stderr,
                 "invalid value for %s: \"%s\" (expected integer in "
                 "[%llu, %llu])\n",
                 flag, text, static_cast<unsigned long long>(min),
                 static_cast<unsigned long long>(max));
    return false;
  }
  return true;
}

// Strict double parsing for serve/quality flags: the whole token must
// be a finite number inside [min, max].
bool ParseDoubleFlag(const char* flag, const char* text, double min,
                     double max, double* out) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !(v >= min) || !(v <= max)) {
    std::fprintf(stderr,
                 "invalid value for %s: \"%s\" (expected number in "
                 "[%g, %g])\n",
                 flag, text, min, max);
    return false;
  }
  *out = v;
  return true;
}

// p3gm quality: offline fingerprint + drift tooling for a release
// package. Without --score it just computes (or reads) the fingerprint
// and prints it; --embed re-saves the package with a freshly computed
// fingerprint; --score folds a CSV of samples into a QualityMonitor and
// exits 1 when drift exceeds the threshold — the CI-able regression
// check described in docs/observability.md.
int CmdQuality(int argc, char** argv) {
  const std::string pkg_path = argv[2];
  std::string score_path;
  std::string out_path = pkg_path;
  bool embed = false;
  std::size_t n = 4096;
  std::uint64_t seed = 42;
  double threshold = 0.15;
  int label_column = -1;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    std::uint64_t v = 0;
    double d = 0;
    if (arg == "--score") {
      const char* text = value();
      if (text == nullptr) return Usage();
      score_path = text;
    } else if (arg == "--out") {
      const char* text = value();
      if (text == nullptr) return Usage();
      out_path = text;
    } else if (arg == "--embed") {
      embed = true;
    } else if (arg == "--n") {
      const char* text = value();
      if (text == nullptr ||
          !ParseServeUintFlag("--n", text, 1, 100000000, &v)) {
        return Usage();
      }
      n = static_cast<std::size_t>(v);
    } else if (arg == "--seed") {
      const char* text = value();
      if (text == nullptr ||
          !ParseServeUintFlag("--seed", text, 0, UINT64_MAX, &v)) {
        return Usage();
      }
      seed = v;
    } else if (arg == "--threshold") {
      const char* text = value();
      if (text == nullptr ||
          !ParseDoubleFlag("--threshold", text, 1e-9, 2.0, &d)) {
        return Usage();
      }
      threshold = d;
    } else if (arg == "--label-column") {
      const char* text = value();
      if (text == nullptr) return Usage();
      label_column = std::atoi(text);
    } else {
      std::fprintf(stderr, "unknown quality flag: %s\n", arg.c_str());
      return Usage();
    }
  }

  auto pkg = core::ReleasePackage::Load(pkg_path);
  if (!pkg.ok()) return Fail(pkg.status());

  // Embedded fingerprint when present (and not refreshing); otherwise a
  // fresh reference draw — pure post-processing, zero privacy cost.
  std::shared_ptr<const obs::quality::Fingerprint> fingerprint;
  if (pkg->fingerprint() != nullptr && !embed) {
    fingerprint = pkg->fingerprint_ptr();
    std::printf("using embedded fingerprint (%llu reference rows)\n",
                static_cast<unsigned long long>(
                    fingerprint->reference_rows()));
  } else {
    auto fp = core::BuildFingerprint(*pkg, n, seed);
    if (!fp.ok()) return Fail(fp.status());
    std::printf("computed fingerprint from %zu reference rows (seed "
                "%llu)\n",
                n, static_cast<unsigned long long>(seed));
    if (embed) {
      pkg->SetFingerprint(*fp);
      if (auto st = pkg->Save(out_path); !st.ok()) return Fail(st);
      std::printf("fingerprint embedded into %s\n", out_path.c_str());
    }
    fingerprint =
        std::make_shared<const obs::quality::Fingerprint>(std::move(*fp));
  }

  std::printf("  features: %zu, classes: %zu\n", fingerprint->feature_dim(),
              fingerprint->num_classes());
  for (std::size_t f = 0; f < fingerprint->feature_dim(); ++f) {
    const auto& ff = fingerprint->feature(f);
    std::printf("    f%-3zu mean %8.4f  stddev %8.4f  range [%.4f, %.4f]\n",
                f, ff.mean, ff.stddev, ff.min, ff.max);
  }

  if (score_path.empty()) return 0;

  data::CsvLoadOptions load;
  load.label_column = label_column;
  // The CSV must already live in the model's output domain (p3gm
  // generate output does); min-max rescaling here would mask exactly
  // the marginal shifts this command exists to detect.
  load.scale_features = false;
  auto dataset = data::LoadCsvDataset(score_path, load);
  if (!dataset.ok()) return Fail(dataset.status());
  if (dataset->dim() != fingerprint->feature_dim()) {
    std::fprintf(stderr,
                 "error: %s has %zu features but the fingerprint has "
                 "%zu\n",
                 score_path.c_str(), dataset->dim(),
                 fingerprint->feature_dim());
    return 1;
  }

  obs::quality::MonitorOptions mopt;
  mopt.stride = 1;  // Offline: fold every row.
  obs::quality::QualityMonitor monitor(fingerprint,
                                       fingerprint->feature_dim(),
                                       pkg->num_classes(), mopt);
  monitor.ObserveDataset(dataset->features, dataset->labels);
  const obs::quality::DriftReport report = monitor.Score();
  std::printf("scored %llu rows from %s\n",
              static_cast<unsigned long long>(report.rows_observed),
              score_path.c_str());
  for (std::size_t f = 0; f < report.features.size(); ++f) {
    const auto& fd = report.features[f];
    std::printf("    f%-3zu ks %.4f  mean_z %.3f  sigma_ratio %.3f\n", f,
                fd.ks, fd.mean_z, fd.sigma_ratio);
  }
  std::printf("  worst ks:  %.4f (feature %zu)\n", report.worst_ks,
              report.worst_feature);
  std::printf("  label tv:  %.4f\n", report.label_tv);
  std::printf("  drift:     %.4f (threshold %.4f)\n", report.drift(),
              threshold);
  if (report.drift() > threshold) {
    std::printf("DRIFT: threshold exceeded\n");
    return 1;
  }
  std::printf("OK: within threshold\n");
  return 0;
}

int CmdServe(int argc, char** argv) {
  serve::ServerOptions options;
  options.port = 8080;
  bool obs_enabled = true;
  std::string flight_dump_path = "p3gm_flight.dump";
  std::vector<std::string> packages;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    std::uint64_t v = 0;
    if (arg == "--port") {
      const char* text = value();
      if (text == nullptr ||
          !ParseServeUintFlag("--port", text, 1, 65535, &v)) {
        return Usage();
      }
      options.port = static_cast<std::uint16_t>(v);
    } else if (arg == "--host") {
      const char* text = value();
      if (text == nullptr) return Usage();
      options.host = text;
    } else if (arg == "--max-batch") {
      const char* text = value();
      if (text == nullptr ||
          !ParseServeUintFlag("--max-batch", text, 1, 1024, &v)) {
        return Usage();
      }
      options.max_batch = static_cast<std::size_t>(v);
    } else if (arg == "--queue-limit") {
      const char* text = value();
      if (text == nullptr ||
          !ParseServeUintFlag("--queue-limit", text, 0, 65536, &v)) {
        return Usage();
      }
      options.queue_limit = static_cast<std::size_t>(v);
    } else if (arg == "--cache") {
      const char* text = value();
      if (text == nullptr ||
          !ParseServeUintFlag("--cache", text, 0, 65536, &v)) {
        return Usage();
      }
      options.cache_entries = static_cast<std::size_t>(v);
    } else if (arg == "--max-n") {
      const char* text = value();
      if (text == nullptr ||
          !ParseServeUintFlag("--max-n", text, 1, 100000000, &v)) {
        return Usage();
      }
      options.max_n = static_cast<std::size_t>(v);
    } else if (arg == "--seed") {
      const char* text = value();
      if (text == nullptr ||
          !ParseServeUintFlag("--seed", text, 0, UINT64_MAX, &v)) {
        return Usage();
      }
      options.seed = v;
    } else if (arg == "--slow-ms") {
      const char* text = value();
      if (text == nullptr ||
          !ParseServeUintFlag("--slow-ms", text, 0, 3600000, &v)) {
        return Usage();
      }
      options.slow_request_ms = static_cast<int>(v);
    } else if (arg == "--profile-on-slow") {
      const char* text = value();
      if (text == nullptr) return Usage();
      options.profile_on_slow_dir = text;
    } else if (arg == "--flight-dump") {
      const char* text = value();
      if (text == nullptr) return Usage();
      flight_dump_path = text;
    } else if (arg == "--no-obs") {
      obs_enabled = false;
    } else if (arg == "--quality-threshold") {
      const char* text = value();
      double d = 0;
      if (text == nullptr ||
          !ParseDoubleFlag("--quality-threshold", text, 1e-9, 2.0, &d)) {
        return Usage();
      }
      options.quality.threshold = d;
    } else if (arg == "--no-quality") {
      options.quality.enabled = false;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown serve flag: %s\n", arg.c_str());
      return Usage();
    } else {
      packages.push_back(arg);
    }
  }
  if (packages.empty()) {
    std::fprintf(stderr, "serve: at least one <model.release> required\n");
    return Usage();
  }
  // Environment escape hatch, for turning monitoring off without
  // touching the service's command line.
  if (const char* env = std::getenv("P3GM_NO_QUALITY");
      env != nullptr && *env != '\0' && std::strcmp(env, "0") != 0) {
    options.quality.enabled = false;
  }
  obs::SetEnabled(obs_enabled);
  util::InitLoggingFromEnv();
  obs::InstallFlightDumpHandlers(flight_dump_path);

  serve::Server server(options);
  if (auto st = server.Init(packages); !st.ok()) return Fail(st);
  serve::Server::InstallSignalHandlers(&server);
  if (auto st = server.Start(); !st.ok()) return Fail(st);
  std::printf("p3gm serve: %zu model(s) on %s:%d\n",
              server.registry().size(), options.host.c_str(),
              server.port());
  server.WaitUntilStopped();
  serve::Server::InstallSignalHandlers(nullptr);
  server.Stop();
  std::printf("p3gm serve: stopped\n");
  return 0;
}
int Dispatch(int argc, char** argv);

// p3gm profile [--out PREFIX] [--hz N] [--heap-stride BYTES] -- <verb...>
//
// Runs any other p3gm invocation under the sampling CPU profiler (and,
// in -DP3GM_ALLOC_TRACKING=ON builds, the sampled heap profiler),
// writing flamegraph-ready folded stacks next to the verb's own output.
// The wrapped verb's exit code is passed through; profiling failures
// only warn — a profile must never fail the run it observes.
int CmdProfile(int argc, char** argv) {
  std::string prefix = "p3gm_profile";
  std::uint64_t hz = 99;
  std::uint64_t heap_stride = 512 * 1024;
  int sep = -1;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--") {
      sep = i;
      break;
    }
    if (arg == "--out") {
      const char* text = value();
      if (text == nullptr) return Usage();
      prefix = text;
    } else if (arg == "--hz") {
      const char* text = value();
      if (text == nullptr ||
          !ParseServeUintFlag("--hz", text, 1, 1000, &hz)) {
        return Usage();
      }
    } else if (arg == "--heap-stride") {
      const char* text = value();
      if (text == nullptr || !ParseServeUintFlag("--heap-stride", text, 1,
                                                 1ull << 40, &heap_stride)) {
        return Usage();
      }
    } else {
      std::fprintf(stderr, "unknown profile flag: %s\n", arg.c_str());
      return Usage();
    }
  }
  if (sep < 0 || sep + 1 >= argc) {
    std::fprintf(stderr,
                 "profile: missing `-- <subcommand>` to profile\n");
    return Usage();
  }

  obs::profile::CpuProfileOptions cpu_options;
  cpu_options.hz = static_cast<int>(hz);
  if (auto st = obs::profile::CpuProfiler::Global().Start(cpu_options);
      !st.ok()) {
    std::fprintf(stderr, "profile: %s\n", st.ToString().c_str());
    return 1;
  }
  bool heap_on = false;
  if (obs::perf::AllocTrackingCompiledIn()) {
    obs::profile::HeapProfileOptions heap_options;
    heap_options.stride_bytes = heap_stride;
    heap_on =
        obs::profile::HeapProfiler::Global().Start(heap_options).ok();
  }

  // Re-dispatch the tail as a fresh p3gm invocation: argv[0] stays the
  // binary name, argv[1] becomes the wrapped verb.
  std::vector<char*> inner;
  inner.push_back(argv[0]);
  for (int i = sep + 1; i < argc; ++i) inner.push_back(argv[i]);
  const int rc = Dispatch(static_cast<int>(inner.size()), inner.data());

  auto cpu = obs::profile::CpuProfiler::Global().Stop();
  if (cpu.ok()) {
    const std::string path = prefix + "_cpu.folded";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f != nullptr) {
      const std::string text = cpu->ToFoldedText();
      std::fwrite(text.data(), 1, text.size(), f);
      std::fclose(f);
      std::printf(
          "profile: %llu cpu samples (%llu dropped, %s walker) -> %s\n",
          static_cast<unsigned long long>(cpu->samples),
          static_cast<unsigned long long>(cpu->dropped),
          obs::profile::UsingFramePointerWalk() ? "frame-pointer"
                                                : "backtrace",
          path.c_str());
    } else {
      std::fprintf(stderr, "profile: cannot write %s\n", path.c_str());
    }
  } else {
    std::fprintf(stderr, "profile: cpu collection failed: %s\n",
                 cpu.status().ToString().c_str());
  }
  if (heap_on) {
    auto heap = obs::profile::HeapProfiler::Global().Snapshot();
    obs::profile::HeapProfiler::Global().Stop();
    if (heap.ok()) {
      const std::string path = prefix + "_heap.folded";
      std::FILE* f = std::fopen(path.c_str(), "w");
      if (f != nullptr) {
        const std::string text = heap->ToFoldedText();
        std::fwrite(text.data(), 1, text.size(), f);
        std::fclose(f);
        std::printf(
            "profile: %llu heap samples (%llu bytes attributed) -> %s\n",
            static_cast<unsigned long long>(heap->samples),
            static_cast<unsigned long long>(heap->sampled_bytes),
            path.c_str());
      } else {
        std::fprintf(stderr, "profile: cannot write %s\n", path.c_str());
      }
    }
  } else if (!obs::perf::AllocTrackingCompiledIn()) {
    std::printf(
        "profile: heap profile skipped (build with "
        "-DP3GM_ALLOC_TRACKING=ON to enable)\n");
  }
  return rc;
}

// The verb table, shared by main() and the `profile` wrapper.
int Dispatch(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  Flags flags;
  if (cmd == "train" && argc >= 4) {
    if (!ParseFlags(argc, argv, 4, &flags)) return Usage();
    return CmdTrain(argv[2], argv[3], flags);
  }
  if (cmd == "generate" && argc >= 4) {
    if (!ParseFlags(argc, argv, 4, &flags)) return Usage();
    return CmdGenerate(argv[2], argv[3], flags);
  }
  if (cmd == "inspect" && argc >= 3) {
    return CmdInspect(argv[2]);
  }
  if (cmd == "bench") {
    return cli::RunBenchCommand(argc, argv, 2);
  }
  if (cmd == "serve") {
    return CmdServe(argc, argv);
  }
  if (cmd == "quality" && argc >= 3) {
    return CmdQuality(argc, argv);
  }
  if (cmd == "profile") {
    return CmdProfile(argc, argv);
  }
  return Usage();
}

}  // namespace

int main(int argc, char** argv) { return Dispatch(argc, argv); }
