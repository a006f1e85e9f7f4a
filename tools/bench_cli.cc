// `p3gm bench` — the canonical micro-benchmark suite behind the
// BENCH_*.json trajectory. Every kernel the P3GM pipeline leans on
// (gemm, syrk, Cholesky, eigensolvers, the RDP accountant, Wishart
// sampling, DP-PCA, GMM-EM, the per-example clip step) is measured with
// warmup + repetitions, robust statistics, and — where the kernel
// permits — hardware counters and allocation attribution, then written
// as one versioned JSON document that tools/bench_compare diffs across
// commits:
//
//   p3gm bench --out BENCH_seed.json
//   p3gm bench --smoke --reps 2 --filter gemm
//
// Smoke mode (--smoke or P3GM_BENCH_SMOKE=1) shrinks every problem size
// so the whole suite finishes in seconds; smoke outputs are only ever
// compared against other smoke outputs (the bench names embed the
// actual sizes, so a mixed comparison degrades to "missing", not to a
// bogus verdict).
//
// Sampling is interleaved (BenchSuite::RunInterleaved): round r
// measures every benchmark once before any benchmark gets rep r+1, so
// each benchmark's samples span the full suite window and machine-load
// phases hit all benchmarks alike — the property bench_compare's drift
// normalization relies on.

#include "tools/bench_cli.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/release.h"
#include "data/dataset.h"
#include "dp/accountant.h"
#include "dp/mechanisms.h"
#include "linalg/cholesky.h"
#include "linalg/eigen_sym.h"
#include "linalg/ops.h"
#include "nn/dp_sgd.h"
#include "nn/linear.h"
#include "obs/bench/harness.h"
#include "obs/flight_recorder.h"
#include "obs/prometheus.h"
#include "pca/pca.h"
#include "serve/api.h"
#include "stats/gmm.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace p3gm {
namespace cli {

namespace {

using linalg::Matrix;
namespace ob = obs::bench;

// Defeats dead-code elimination of a pure kernel result without
// perturbing the timed region (a single volatile store per rep).
void Keep(double v) {
  static volatile double sink;
  sink = v;
  (void)sink;
}

Matrix RandomMatrix(std::size_t r, std::size_t c, std::uint64_t seed) {
  util::Rng rng(seed);
  Matrix m(r, c);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.Normal();
  return m;
}

// Serving-shaped decoder package for the decode micros: latent ->
// hidden -> output Gaussian head, fixed pseudo-random weights so the
// run is reproducible without training.
core::ReleasePackage DecodePackage(std::size_t dl, std::size_t h,
                                   std::size_t d) {
  util::Rng rng(37);
  Matrix w1(dl, h), b1(1, h), w2(h, d), b2(1, d);
  for (std::size_t i = 0; i < w1.size(); ++i) w1.data()[i] = 0.1 * rng.Normal();
  for (std::size_t i = 0; i < b1.size(); ++i) b1.data()[i] = 0.05 * rng.Normal();
  for (std::size_t i = 0; i < w2.size(); ++i) w2.data()[i] = 0.1 * rng.Normal();
  for (std::size_t i = 0; i < b2.size(); ++i) b2.data()[i] = 0.05 * rng.Normal();
  Matrix means(2, dl), variances(2, dl, 0.8);
  for (std::size_t j = 0; j < dl; ++j) {
    means(0, j) = -0.8;
    means(1, j) = 0.8;
  }
  auto prior = stats::GaussianMixture::Create({0.5, 0.5}, means, variances);
  P3GM_CHECK(prior.ok());
  auto pkg = core::ReleasePackage::FromParts(
      "bench_micro_decode", /*num_classes=*/2, core::DecoderType::kGaussian,
      std::move(*prior), std::move(w1), std::move(b1), std::move(w2),
      std::move(b2));
  P3GM_CHECK(pkg.ok());
  return std::move(*pkg);
}

// Well-conditioned SPD test matrix: B^T B + n I.
Matrix SpdMatrix(std::size_t n, std::uint64_t seed) {
  Matrix b = RandomMatrix(n, n, seed);
  Matrix a = linalg::MatmulTransB(b, b);
  for (std::size_t i = 0; i < n; ++i) a(i, i) += static_cast<double>(n);
  return a;
}

struct BenchCliFlags {
  std::string out = "BENCH_micro.json";
  std::string filter;
  int reps = -1;    // < 0: keep the env/default value.
  int warmup = -1;
  bool smoke = false;
  bool list = false;
};

int BenchUsage() {
  std::fprintf(stderr,
               "usage: p3gm bench [options]\n"
               "  --out FILE       output JSON path (default "
               "BENCH_micro.json)\n"
               "  --filter SUBSTR  run only benchmarks whose name contains "
               "SUBSTR\n"
               "  --reps N         measured repetitions per benchmark\n"
               "  --warmup N       discarded warmup runs per benchmark\n"
               "  --smoke          tiny problem sizes (CI smoke; also "
               "P3GM_BENCH_SMOKE=1)\n"
               "  --list           print benchmark names and exit\n");
  return 2;
}

bool ParseBenchFlags(int argc, char** argv, int start,
                     BenchCliFlags* flags) {
  for (int i = start; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      flags->out = argv[++i];
    } else if (arg == "--filter" && i + 1 < argc) {
      flags->filter = argv[++i];
    } else if (arg == "--reps" && i + 1 < argc) {
      flags->reps = std::atoi(argv[++i]);
    } else if (arg == "--warmup" && i + 1 < argc) {
      flags->warmup = std::atoi(argv[++i]);
    } else if (arg == "--smoke") {
      flags->smoke = true;
    } else if (arg == "--list") {
      flags->list = true;
    } else {
      std::fprintf(stderr, "unknown or malformed flag: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

// A benchmark is a name plus a setup factory: `make()` allocates the
// inputs (outside any timed region) and returns the measured closure.
// Factories are only invoked for benchmarks that survive --filter, and
// the returned closures are handed to RunInterleaved together.
struct MicroBench {
  std::string name;
  std::function<std::function<void()>()> make;
};

// The suite. Sizes come in a (full, smoke) pair; the bench name embeds
// the size actually run so a smoke file never silently masquerades as a
// full one in comparisons.
std::vector<MicroBench> BuildSuite(bool smoke) {
  std::vector<MicroBench> benches;
  auto add = [&](std::string name,
                 std::function<std::function<void()>()> make) {
    benches.push_back({std::move(name), std::move(make)});
  };

  for (std::size_t n : smoke ? std::vector<std::size_t>{48}
                             : std::vector<std::size_t>{128, 256}) {
    add("gemm." + std::to_string(n), [n]() {
      auto a = std::make_shared<Matrix>(RandomMatrix(n, n, 1));
      auto b = std::make_shared<Matrix>(RandomMatrix(n, n, 2));
      return [a, b] { Keep(linalg::Matmul(*a, *b)(0, 0)); };
    });
  }

  {
    const std::size_t r = smoke ? 128 : 512;
    const std::size_t c = smoke ? 32 : 128;
    add("syrk." + std::to_string(r) + "x" + std::to_string(c), [r, c]() {
      auto a = std::make_shared<Matrix>(RandomMatrix(r, c, 3));
      return [a] { Keep(linalg::Syrk(*a)(0, 0)); };
    });
  }

  {
    const std::size_t n = smoke ? 64 : 256;
    add("cholesky." + std::to_string(n), [n]() {
      auto a = std::make_shared<Matrix>(SpdMatrix(n, 5));
      return [a] {
        auto l = linalg::Cholesky(*a);
        Keep(l.ok() ? (*l)(0, 0) : 0.0);
      };
    });
  }

  {
    const std::size_t n = smoke ? 32 : 96;
    add("eigen_sym." + std::to_string(n), [n]() {
      auto a = std::make_shared<Matrix>(SpdMatrix(n, 7));
      return [a] {
        auto e = linalg::EigenSym(*a);
        Keep(e.ok() ? e->values[0] : 0.0);
      };
    });
  }

  {
    const std::size_t n = smoke ? 64 : 256;
    add("topk_eigen." + std::to_string(n), [n]() {
      auto a = std::make_shared<Matrix>(SpdMatrix(n, 9));
      return [a] {
        auto e = linalg::TopKEigenSym(*a, 10, 100);
        Keep(e.ok() ? e->values[0] : 0.0);
      };
    });
  }

  add("rdp_compose", []() {
    auto params = std::make_shared<dp::P3gmPrivacyParams>();
    params->sgd_sampling_rate = 0.004;
    params->sgd_steps = 2600;
    return [params] {
      Keep(dp::ComputeP3gmEpsilonRdp(*params, 1e-5).epsilon);
    };
  });

  add("sigma_calibration", []() {
    auto params = std::make_shared<dp::P3gmPrivacyParams>();
    params->sgd_sampling_rate = 0.004;
    params->sgd_steps = 2600;
    return [params] {
      auto sigma = dp::CalibrateSgdSigma(*params, 1.0, 1e-5);
      Keep(sigma.ok() ? *sigma : 0.0);
    };
  });

  {
    const std::size_t d = smoke ? 16 : 64;
    add("wishart." + std::to_string(d), [d]() {
      auto rng = std::make_shared<util::Rng>(11);
      return [d, rng] {
        auto w = dp::SampleWishart(d, static_cast<double>(d) + 1.0, 0.01,
                                   rng.get());
        Keep(w.ok() ? (*w)(0, 0) : 0.0);
      };
    });
  }

  // The first DP-PCA shape takes the dense eigensolve; the second has
  // d = 256, above pca's dense limit of 160 in smoke mode too, and times
  // the path image-sized data takes: the blocked Syrk, the Bartlett
  // product and the top-k power iteration.
  using Shape = std::pair<std::size_t, std::size_t>;
  for (const Shape& shape : smoke ? std::vector<Shape>{{200, 16}, {300, 256}}
                                  : std::vector<Shape>{{1000, 64},
                                                       {2000, 256}}) {
    const std::size_t rows = shape.first, cols = shape.second;
    add("dp_pca." + std::to_string(rows) + "x" + std::to_string(cols),
        [rows, cols]() {
          auto x = std::make_shared<Matrix>(RandomMatrix(rows, cols, 13));
          auto rng = std::make_shared<util::Rng>(17);
          pca::DpPcaOptions opt;
          opt.num_components = 10;
          return [x, rng, opt] {
            auto m = pca::FitDpPca(*x, opt, rng.get());
            Keep(m.ok() ? 1.0 : 0.0);
          };
        });
  }

  {
    const std::size_t rows = smoke ? 300 : 2000;
    const std::size_t dim = smoke ? 5 : 10;
    const std::size_t iters = smoke ? 5 : 20;
    add("gmm_fit." + std::to_string(rows) + "x" + std::to_string(dim),
        [rows, dim, iters]() {
          util::Rng rng(19);
          auto x = std::make_shared<Matrix>(rows, dim);
          for (std::size_t i = 0; i < x->rows(); ++i) {
            const double shift =
                (i % 3 == 0) ? -1.0 : ((i % 3 == 1) ? 0.0 : 1.0);
            for (std::size_t j = 0; j < dim; ++j) {
              (*x)(i, j) = rng.Normal(shift, 0.3);
            }
          }
          stats::EmOptions opt;
          opt.num_components = 3;
          opt.max_iters = iters;
          return [x, opt] {
            auto g = stats::FitGmm(*x, opt);
            Keep(g.ok() ? g->weights()[0] : 0.0);
          };
        });
  }

  {
    const std::size_t in = smoke ? 128 : 784;
    const std::size_t out = smoke ? 32 : 200;
    const std::size_t batch = smoke ? 20 : 100;
    add("dpsgd_clip_step." + std::to_string(in) + "x" + std::to_string(out),
        [in, out, batch]() {
          struct State {
            util::Rng rng;
            nn::Linear lin;
            Matrix x, dy;
            nn::DpSgdOptions opt;
            State(std::size_t in, std::size_t out, std::size_t batch)
                : rng(23),
                  lin("l", in, out, &rng),
                  x(RandomMatrix(batch, in, 29)),
                  dy(RandomMatrix(batch, out, 31)) {}
          };
          auto st = std::make_shared<State>(in, out, batch);
          return [st, batch] {
            st->lin.Forward(st->x, true);
            st->lin.Backward(st->dy, /*accumulate=*/false);
            nn::DpSgdStep step(st->opt, &st->rng);
            Keep(step.CollectSquaredNorms({&st->lin}, batch).ok() ? 1.0
                                                                  : 0.0);
            std::vector<nn::Parameter*> params = st->lin.Parameters();
            for (auto* p : params) p->ZeroGrad();
            step.ApplyClippedAccumulation({&st->lin});
            step.AddNoiseAndAverage(params, batch);
          };
        });
  }

  // Decoder synthesis through the compiled inference plan (packed
  // weights, fused SIMD kernels) via DecodeLatentInto — the serve
  // batcher's call. bench/bench_decode sweeps batch sizes; this micro
  // pins the serving-shaped batch into the cross-commit trajectory.
  {
    const std::size_t dl = smoke ? 16 : 64;
    const std::size_t h = smoke ? 64 : 512;
    const std::size_t d = smoke ? 48 : 786;
    const std::size_t batch = smoke ? 32 : 256;
    add("decode.planned." + std::to_string(batch) + "x" + std::to_string(d),
        [dl, h, d, batch]() {
          auto pkg = std::make_shared<core::ReleasePackage>(
              DecodePackage(dl, h, d));
          util::Rng rng(41);
          auto z = std::make_shared<Matrix>(pkg->SampleLatent(batch, &rng));
          auto out = std::make_shared<Matrix>();
          return [pkg, z, out] {
            const util::Status s = pkg->DecodeLatentInto(*z, out.get());
            Keep(s.ok() ? out->data()[0] : 0.0);
          };
        });
  }

  // The /v1/sample body encoder on a serve_bulk-shaped response: 16 rows
  // of 784 pixels plus a 10-class block, valued like a Bernoulli
  // decoder's sigmoid outputs, so nearly every value takes 17 digits.
  {
    const std::size_t n = smoke ? 4 : 16;
    const std::size_t d = smoke ? 64 : 794;
    add("serve.encode." + std::to_string(n) + "x" + std::to_string(d),
        [n, d]() {
          auto rows = std::make_shared<data::Dataset>();
          rows->features = RandomMatrix(n, d, 43);
          for (std::size_t i = 0; i < rows->features.size(); ++i) {
            double& v = rows->features.data()[i];
            v = 1.0 / (1.0 + std::exp(-v));
          }
          rows->num_classes = 10;
          for (std::size_t i = 0; i < n; ++i) rows->labels.push_back(i % 10);
          return [rows] {
            Keep(static_cast<double>(
                serve::SampleResponseJson("bench", 1, false, *rows).size()));
          };
        });
  }

  // Observability hot paths: one flight-recorder append (the per-event
  // cost every request pays several times) and one Prometheus encode of
  // a serve-shaped snapshot (the cost of a scrape).
  add("obs.flight_append", []() {
    return [] {
      obs::FlightRecorder::Global().Record(
          obs::FlightRecorder::EventKind::kRequest, "bench.flight", 1, 2);
      Keep(1.0);
    };
  });
  add("obs.prom_encode", []() {
    auto snapshot = std::make_shared<obs::Snapshot>();
    for (int i = 0; i < 16; ++i) {
      snapshot->counters.push_back(
          {"serve.bench.counter_" + std::to_string(i),
           static_cast<std::uint64_t>(i * 1000)});
    }
    for (int i = 0; i < 8; ++i) {
      obs::HistogramSample h;
      h.name = "serve.bench.latency_seconds{endpoint=\"/v1/bench_" +
               std::to_string(i) + "\"}";
      h.bounds = {1e-4, 1e-3, 1e-2, 0.1, 1.0};
      h.bucket_counts = {5, 10, 20, 40, 80, 3};
      h.count = 158;
      h.sum = 12.5;
      snapshot->histograms.push_back(std::move(h));
    }
    return [snapshot] {
      Keep(static_cast<double>(obs::ToPrometheusText(*snapshot).size()));
    };
  });

  return benches;
}

}  // namespace

int RunBenchCommand(int argc, char** argv, int start) {
  BenchCliFlags flags;
  if (!ParseBenchFlags(argc, argv, start, &flags)) return BenchUsage();
  if (const char* env = std::getenv("P3GM_BENCH_SMOKE");
      env != nullptr && env[0] != '\0' && std::strcmp(env, "0") != 0) {
    flags.smoke = true;
  }

  ob::BenchOptions options = ob::BenchOptions::FromEnv();
  if (flags.reps >= 0) options.reps = flags.reps;
  if (flags.warmup >= 0) options.warmup = flags.warmup;
  if (options.reps <= 0) {
    std::fprintf(stderr, "error: --reps must be positive\n");
    return BenchUsage();
  }

  const std::vector<MicroBench> benches = BuildSuite(flags.smoke);
  if (flags.list) {
    for (const auto& b : benches) std::printf("%s\n", b.name.c_str());
    return 0;
  }

  // Materialize the filtered closures (setup runs here, untimed), then
  // hand the whole batch to the interleaved sampler.
  std::vector<ob::BenchSuite::NamedBench> named;
  for (const auto& b : benches) {
    if (!flags.filter.empty() &&
        b.name.find(flags.filter) == std::string::npos) {
      continue;
    }
    named.push_back({b.name, b.make()});
  }
  if (named.empty()) {
    std::fprintf(stderr, "error: filter '%s' matched no benchmarks\n",
                 flags.filter.c_str());
    return 1;
  }

  ob::BenchSuite suite(flags.smoke ? "micro-smoke" : "micro");
  suite.runinfo().threads = static_cast<int>(util::NumThreads());
  std::printf(
      "p3gm bench: suite=%s reps=%d warmup=%d threads=%d hw_counters=%s "
      "(interleaved)\n",
      suite.runinfo().suite.c_str(), options.reps, options.warmup,
      suite.runinfo().threads,
      obs::perf::HardwareCountersAvailable() ? "yes" : "no (fallback)");

  util::Stopwatch sw;
  suite.RunInterleaved(named, options);
  suite.runinfo().wall_seconds = sw.ElapsedSeconds();

  for (const auto& r : suite.results()) {
    std::printf("  %-28s median %10.6fs  ci95 [%.6f, %.6f]  n=%zu\n",
                r.name.c_str(), r.stats.median, r.stats.ci95_lo,
                r.stats.ci95_hi, r.stats.n);
  }

  if (!suite.WriteJson(flags.out)) {
    std::fprintf(stderr, "error: cannot write %s\n", flags.out.c_str());
    return 1;
  }
  std::printf("%zu benchmarks in %.1fs -> %s\n", suite.results().size(),
              suite.runinfo().wall_seconds, flags.out.c_str());
  return 0;
}

}  // namespace cli
}  // namespace p3gm
