// Serial/parallel equivalence harness: every parallelized kernel must
// produce BIT-IDENTICAL results (==, not near) at 1, 2, 3 and 8 threads.
// This is the proof obligation of the determinism contract documented in
// util/thread_pool.h — disjoint output slices, index-ordered reductions,
// and no shared RNG inside parallel regions.

#include <cstdint>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "core/pgm.h"
#include "dp/mechanisms.h"
#include "linalg/covariance.h"
#include "linalg/eigen_sym.h"
#include "obs/ledger.h"
#include "obs/observability.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "linalg/matrix.h"
#include "linalg/ops.h"
#include "nn/activations.h"
#include "nn/dp_sgd.h"
#include "nn/linear.h"
#include "nn/sequential.h"
#include "stats/dp_em.h"
#include "stats/gmm.h"
#include "util/thread_pool.h"
#include "util/rng.h"

namespace p3gm {
namespace {

constexpr std::size_t kThreadCounts[] = {2, 3, 8};

// Runs `fn` with the pool pinned to `threads`, restoring the automatic
// resolution afterwards.
template <typename Fn>
auto RunWithThreads(std::size_t threads, Fn fn) {
  util::SetNumThreads(threads);
  auto result = fn();
  util::SetNumThreads(0);
  return result;
}

linalg::Matrix RandomMatrix(std::size_t r, std::size_t c,
                            std::uint64_t seed) {
  util::Rng rng(seed);
  linalg::Matrix m(r, c);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.Normal();
  return m;
}

// Asserts fn() is bit-identical at every thread count. Result must
// support ==.
template <typename Fn>
void ExpectThreadInvariant(Fn fn, const char* what) {
  const auto serial = RunWithThreads(1, fn);
  for (std::size_t threads : kThreadCounts) {
    const auto parallel = RunWithThreads(threads, fn);
    EXPECT_TRUE(parallel == serial)
        << what << " differs at " << threads << " threads";
  }
}

// ------------------------------------------------------------- linalg

// Gemm shapes (m x k x n): ragged tile edges that run inline (the
// d' = 10 head product) and split over the pool (37 x 256 x 257).
constexpr std::size_t kGemmShapes[][3] = {
    {83, 47, 31}, {241, 100, 10}, {37, 256, 257}};

TEST(ParallelEquivalenceTest, Matmul) {
  std::uint64_t seed = 1;
  for (const auto& s : kGemmShapes) {
    const linalg::Matrix a = RandomMatrix(s[0], s[1], seed++);
    const linalg::Matrix b = RandomMatrix(s[1], s[2], seed++);
    ExpectThreadInvariant([&] { return linalg::Matmul(a, b); }, "Matmul");
  }
}

TEST(ParallelEquivalenceTest, MatmulTransA) {
  std::uint64_t seed = 3;
  for (const auto& s : kGemmShapes) {
    const linalg::Matrix a = RandomMatrix(s[1], s[0], seed++);
    const linalg::Matrix b = RandomMatrix(s[1], s[2], seed++);
    ExpectThreadInvariant([&] { return linalg::MatmulTransA(a, b); },
                          "MatmulTransA");
  }
}

TEST(ParallelEquivalenceTest, MatmulTransB) {
  std::uint64_t seed = 5;
  for (const auto& s : kGemmShapes) {
    const linalg::Matrix a = RandomMatrix(s[0], s[1], seed++);
    const linalg::Matrix b = RandomMatrix(s[2], s[1], seed++);
    ExpectThreadInvariant([&] { return linalg::MatmulTransB(a, b); },
                          "MatmulTransB");
  }
}

TEST(ParallelEquivalenceTest, RowSquaredNorms) {
  const linalg::Matrix m = RandomMatrix(333, 21, 7);
  ExpectThreadInvariant([&] { return linalg::RowSquaredNorms(m); },
                        "RowSquaredNorms");
}

TEST(ParallelEquivalenceTest, ScaleRowsAndAddRowVector) {
  const linalg::Matrix base = RandomMatrix(150, 17, 8);
  std::vector<double> scales(150), offset(17);
  util::Rng rng(9);
  for (double& s : scales) s = rng.Uniform(0.5, 2.0);
  for (double& o : offset) o = rng.Normal();
  ExpectThreadInvariant(
      [&] {
        linalg::Matrix m = base;
        linalg::ScaleRows(scales, &m);
        linalg::AddRowVector(offset, &m);
        return m;
      },
      "ScaleRows+AddRowVector");
}

TEST(ParallelEquivalenceTest, SyrkAndCovariance) {
  const linalg::Matrix x = RandomMatrix(211, 37, 10);
  ExpectThreadInvariant([&] { return linalg::Syrk(x); }, "Syrk");
  ExpectThreadInvariant([&] { return linalg::Covariance(x); },
                        "Covariance");
  // Ragged in both directions: 530 rows are two full row blocks plus a
  // tail, and 51 columns end in a partial tile.
  const linalg::Matrix ragged = RandomMatrix(530, 51, 13);
  ExpectThreadInvariant([&] { return linalg::Syrk(ragged); }, "Syrk ragged");
}

TEST(ParallelEquivalenceTest, MatVecAndTopKEigenSym) {
  // 603 rows split into several MatVec blocks, each with a ragged tail
  // after its four-row passes.
  const linalg::Matrix b = RandomMatrix(603, 40, 14);
  const linalg::Matrix a = linalg::MatmulTransB(b, b);
  const std::vector<double> x = RandomMatrix(1, 603, 15).Row(0);
  ExpectThreadInvariant([&] { return linalg::MatVec(a, x); }, "MatVec");
  ExpectThreadInvariant(
      [&] {
        auto e = linalg::TopKEigenSym(a, 3, 15, 5);
        EXPECT_TRUE(e.ok());
        return std::make_pair(e->values, e->vectors);
      },
      "TopKEigenSym");
}

TEST(ParallelEquivalenceTest, SampleWishart) {
  ExpectThreadInvariant(
      [] {
        util::Rng rng(16);
        auto w = dp::SampleWishart(97, 98.0, 0.25, &rng);
        EXPECT_TRUE(w.ok());
        return std::make_pair(*w, rng.NextU64());
      },
      "SampleWishart");
}

TEST(ParallelEquivalenceTest, MaxAbsDiff) {
  const linalg::Matrix a = RandomMatrix(200, 13, 11);
  const linalg::Matrix b = RandomMatrix(200, 13, 12);
  ExpectThreadInvariant([&] { return linalg::MaxAbsDiff(a, b); },
                        "MaxAbsDiff");
}

// -------------------------------------------------------------- stats

TEST(ParallelEquivalenceTest, GmmEStepViaFullFit) {
  // Three separated clusters; FitGmm exercises the parallel E-step, the
  // component-parallel M-step and MeanLogLikelihood (restart selection).
  util::Rng rng(13);
  linalg::Matrix x(240, 6);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    const double shift = static_cast<double>(i % 3) - 1.0;
    for (std::size_t j = 0; j < x.cols(); ++j) {
      x(i, j) = rng.Normal(shift, 0.3);
    }
  }
  stats::EmOptions opt;
  opt.num_components = 3;
  opt.max_iters = 8;
  opt.restarts = 2;
  opt.seed = 17;
  auto fit = [&] {
    auto model = stats::FitGmm(x, opt);
    EXPECT_TRUE(model.ok());
    return model->means().ConcatCols(model->variances());
  };
  ExpectThreadInvariant(fit, "FitGmm parameters");
}

TEST(ParallelEquivalenceTest, DpEmResponsibilities) {
  util::Rng data_rng(19);
  linalg::Matrix x(180, 5);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x.data()[i] = data_rng.Normal(0.0, 0.8);
  }
  stats::DpEmOptions opt;
  opt.num_components = 3;
  opt.iters = 4;
  opt.noise_multiplier = 2.0;
  opt.seed = 23;
  auto fit = [&] {
    // Fresh identically seeded rng per run: DP noise is drawn strictly
    // serially, so the stream is identical regardless of thread count.
    util::Rng rng(29);
    auto result = stats::FitGmmDpEm(x, opt, &rng);
    EXPECT_TRUE(result.ok());
    return result->mixture.means().ConcatCols(result->mixture.variances());
  };
  ExpectThreadInvariant(fit, "FitGmmDpEm parameters");
}

// ----------------------------------------------------------------- nn

TEST(ParallelEquivalenceTest, FullDpSgdStep) {
  // One complete privatized gradient step on a 2-layer MLP, with noise:
  // norms (Goodfellow path), clip scales, clipped accumulation, noise
  // and averaging.
  const linalg::Matrix x = RandomMatrix(96, 12, 31);
  const linalg::Matrix dy = RandomMatrix(96, 4, 37);
  auto step = [&] {
    util::Rng rng(41);
    nn::Sequential net;
    net.Emplace<nn::Linear>("l1", 12, 10, &rng);
    net.Emplace<nn::Sigmoid>();
    net.Emplace<nn::Linear>("l2", 10, 4, &rng);
    net.Forward(x, true);
    net.Backward(dy, /*accumulate=*/false);
    nn::DpSgdOptions opt;
    opt.clip_norm = 0.7;
    opt.noise_multiplier = 1.3;
    opt.lot_size = 96;
    util::Rng noise_rng(43);
    nn::DpSgdStep sgd(opt, &noise_rng);
    EXPECT_TRUE(sgd.CollectSquaredNorms({&net}, x.rows()).ok());
    net.ZeroGrad();
    sgd.ApplyClippedAccumulation({&net});
    sgd.AddNoiseAndAverage(net.Parameters(), x.rows());
    linalg::Matrix packed(0, 0);
    bool first = true;
    for (nn::Parameter* p : net.Parameters()) {
      linalg::Matrix flat(1, p->size());
      for (std::size_t i = 0; i < p->size(); ++i) {
        flat(0, i) = p->grad.data()[i];
      }
      packed = first ? flat : packed.ConcatCols(flat);
      first = false;
    }
    return packed;
  };
  ExpectThreadInvariant(step, "DP-SGD privatized gradient");
}

// --------------------------------------------------------------- core

TEST(ParallelEquivalenceTest, EndToEndPgmFit) {
  // Small but complete P3GM run: DP-PCA + DP-EM prior + DP-SGD decoder,
  // then synthesis. Everything downstream of Fit must match bit-for-bit.
  util::Rng data_rng(47);
  linalg::Matrix x(72, 9);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x.data()[i] = data_rng.Uniform();
  }
  core::PgmOptions opt;
  opt.hidden = 12;
  opt.latent_dim = 3;
  opt.mog_components = 2;
  opt.epochs = 2;
  opt.batch_size = 24;
  opt.em_iters = 3;
  opt.differentially_private = true;
  opt.sgd_sigma = 1.1;
  opt.seed = 53;
  auto fit = [&] {
    core::Pgm model(opt);
    EXPECT_TRUE(model.Fit(x).ok());
    // Flatten the entire fitted state — prior parameters, decoder
    // weights — plus synthesized rows into one row vector.
    std::vector<double> state;
    auto append = [&state](const linalg::Matrix& m) {
      state.insert(state.end(), m.data(), m.data() + m.size());
    };
    append(model.prior().means());
    append(model.prior().variances());
    state.insert(state.end(), model.prior().weights().begin(),
                 model.prior().weights().end());
    for (const linalg::Matrix& w : model.ExportDecoderWeights()) append(w);
    util::Rng sample_rng(59);
    append(model.Sample(6, &sample_rng));
    linalg::Matrix packed(1, state.size());
    for (std::size_t i = 0; i < state.size(); ++i) packed(0, i) = state[i];
    return packed;
  };
  ExpectThreadInvariant(fit, "Pgm::Fit + Sample");
}

TEST(ParallelEquivalenceTest, ObservabilityInvariance) {
  // Observation must be strictly passive: turning the telemetry layer on
  // may not change any computed value or consume any RNG. Same complete
  // P3GM run as EndToEndPgmFit, compared bit-for-bit with observability
  // off vs. on, serially and at 8 threads.
  util::Rng data_rng(47);
  linalg::Matrix x(72, 9);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x.data()[i] = data_rng.Uniform();
  }
  core::PgmOptions opt;
  opt.hidden = 12;
  opt.latent_dim = 3;
  opt.mog_components = 2;
  opt.epochs = 2;
  opt.batch_size = 24;
  opt.em_iters = 3;
  opt.differentially_private = true;
  opt.sgd_sigma = 1.1;
  opt.seed = 53;
  auto fit = [&] {
    core::Pgm model(opt);
    EXPECT_TRUE(model.Fit(x).ok());
    std::vector<double> state;
    auto append = [&state](const linalg::Matrix& m) {
      state.insert(state.end(), m.data(), m.data() + m.size());
    };
    append(model.prior().means());
    append(model.prior().variances());
    state.insert(state.end(), model.prior().weights().begin(),
                 model.prior().weights().end());
    for (const linalg::Matrix& w : model.ExportDecoderWeights()) append(w);
    util::Rng sample_rng(59);
    append(model.Sample(6, &sample_rng));
    linalg::Matrix packed(1, state.size());
    for (std::size_t i = 0; i < state.size(); ++i) packed(0, i) = state[i];
    return packed;
  };
  for (std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    obs::SetEnabled(false);
    const auto dark = RunWithThreads(threads, fit);
    obs::SetEnabled(true);
    const auto observed = RunWithThreads(threads, fit);
    obs::SetEnabled(false);
    EXPECT_TRUE(observed == dark)
        << "observability changed the result at " << threads << " threads";
    if (obs::kCompiledIn) {
      // The observed run must actually have been observed — otherwise
      // this test proves nothing.
      EXPECT_GT(obs::TraceRecorder::Global().EventCount(), 0u);
      EXPECT_GT(obs::PrivacyLedger::Global().size(), 0u);
    }
    obs::Registry::Global().Reset();
    obs::TraceRecorder::Global().Clear();
    obs::PrivacyLedger::Global().Clear();
  }
}

}  // namespace
}  // namespace p3gm
