// Exhaustive equivalence suite for the planned decoder runtime
// (src/infer): every test pins the planned path bit-for-bit — raw
// memcmp on the doubles, stricter than operator== (it distinguishes
// -0.0 from +0.0) — against the reference forward pass, an
// nn::Sequential carrying the same weights, per the accumulation-order
// contract in docs/inference.md.

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/release.h"
#include "infer/kernels.h"
#include "infer/plan.h"
#include "linalg/matrix.h"
#include "nn/activations.h"
#include "nn/linear.h"
#include "nn/sequential.h"
#include "obs/observability.h"
#include "obs/registry.h"
#include "stats/gmm.h"
#include "util/rng.h"

namespace p3gm {
namespace {

// --- helpers -------------------------------------------------------------

testing::AssertionResult BitIdentical(const linalg::Matrix& a,
                                      const linalg::Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return testing::AssertionFailure()
           << "shape mismatch: " << a.rows() << "x" << a.cols() << " vs "
           << b.rows() << "x" << b.cols();
  }
  // An empty matrix may hold a null buffer, which memcmp must not see.
  if (a.size() == 0 ||
      std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0) {
    return testing::AssertionSuccess();
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a.data()[i], &b.data()[i], sizeof(double)) != 0) {
      std::ostringstream os;
      os.precision(17);
      os << "first bit difference at flat index " << i << " (row "
         << i / a.cols() << ", col " << i % a.cols() << "): " << a.data()[i]
         << " vs " << b.data()[i];
      return testing::AssertionFailure() << os.str();
    }
  }
  return testing::AssertionFailure() << "memcmp mismatch not located";
}

linalg::Matrix RandomMatrix(std::size_t rows, std::size_t cols,
                            util::Rng* rng) {
  linalg::Matrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = rng->Normal();
  return m;
}

/// Sets P3GM_INFER_FORCE_SCALAR=1 for the scope (ActiveTier re-reads the
/// environment on every call, so this flips the dispatch immediately).
class ScopedForceScalar {
 public:
  ScopedForceScalar() { ::setenv("P3GM_INFER_FORCE_SCALAR", "1", 1); }
  ~ScopedForceScalar() { ::unsetenv("P3GM_INFER_FORCE_SCALAR"); }
};

struct LayerShape {
  std::size_t out;
  infer::Activation act;
};

/// The reference forward pass: an nn::Sequential of Linear + activation
/// layers with `weights`/`biases` patched in (Linear's own init is
/// overwritten). kClamp01 has no nn layer; as the final head it is
/// applied by hand.
linalg::Matrix SequentialForward(const std::vector<LayerShape>& shapes,
                                 const std::vector<linalg::Matrix>& weights,
                                 const std::vector<linalg::Matrix>& biases,
                                 const linalg::Matrix& x) {
  nn::Sequential seq("ref");
  util::Rng init_rng(7);
  std::size_t prev = weights.front().rows();
  for (std::size_t l = 0; l < shapes.size(); ++l) {
    nn::Linear* lin =
        seq.Emplace<nn::Linear>("l" + std::to_string(l), prev,
                                shapes[l].out, &init_rng);
    lin->weight().value = weights[l];
    lin->bias().value = biases[l];
    switch (shapes[l].act) {
      case infer::Activation::kRelu:
        seq.Emplace<nn::Relu>();
        break;
      case infer::Activation::kSigmoid:
        seq.Emplace<nn::Sigmoid>();
        break;
      case infer::Activation::kTanh:
        seq.Emplace<nn::Tanh>();
        break;
      case infer::Activation::kIdentity:
      case infer::Activation::kClamp01:
        break;  // kClamp01 applied manually below.
    }
    prev = shapes[l].out;
  }

  linalg::Matrix out = seq.Forward(x, /*train=*/false);
  if (shapes.back().act == infer::Activation::kClamp01) {
    double* d = out.data();
    for (std::size_t i = 0; i < out.size(); ++i) {
      d[i] = std::clamp(d[i], 0.0, 1.0);
    }
  }
  return out;
}

/// Builds the same architecture twice — a reference nn::Sequential and a
/// compiled DecoderPlan sharing the exact same weights — and returns
/// both forward passes on `x`.
struct ForwardPair {
  linalg::Matrix reference;
  linalg::Matrix planned;
};

ForwardPair RunBothPaths(std::size_t in_dim,
                         const std::vector<LayerShape>& shapes,
                         const linalg::Matrix& x, util::Rng* rng) {
  std::vector<linalg::Matrix> weights;
  std::vector<linalg::Matrix> biases;
  std::size_t prev = in_dim;
  for (const LayerShape& s : shapes) {
    weights.push_back(RandomMatrix(prev, s.out, rng));
    biases.push_back(RandomMatrix(1, s.out, rng));
    prev = s.out;
  }

  ForwardPair pair;
  pair.reference = SequentialForward(shapes, weights, biases, x);
  std::vector<infer::LayerSpec> specs;
  for (std::size_t l = 0; l < shapes.size(); ++l) {
    specs.push_back({&weights[l], &biases[l], shapes[l].act});
  }
  util::Result<infer::DecoderPlan> plan = infer::DecoderPlan::Compile(specs);
  EXPECT_TRUE(plan.ok()) << plan.status();
  EXPECT_TRUE(plan->Execute(x, &pair.planned).ok());
  return pair;
}

/// A release package plus the weights it was built from, so its decode
/// can be checked against SequentialForward on the same weights.
struct DecodeCase {
  core::ReleasePackage pkg;
  std::vector<LayerShape> shapes;
  std::vector<linalg::Matrix> weights;
  std::vector<linalg::Matrix> biases;

  linalg::Matrix Reference(const linalg::Matrix& z) const {
    return SequentialForward(shapes, weights, biases, z);
  }
};

DecodeCase MakeDecodeCase(core::DecoderType type, std::size_t latent,
                          std::size_t hidden, std::size_t out,
                          std::uint64_t seed) {
  util::Rng rng(seed);
  linalg::Matrix means(2, latent);
  linalg::Matrix vars(2, latent, 1.0);
  for (std::size_t i = 0; i < means.size(); ++i) {
    means.data()[i] = rng.Normal();
  }
  auto prior = stats::GaussianMixture::Create({0.5, 0.5}, std::move(means),
                                              std::move(vars));
  EXPECT_TRUE(prior.ok());
  linalg::Matrix w1 = RandomMatrix(latent, hidden, &rng);
  linalg::Matrix b1 = RandomMatrix(1, hidden, &rng);
  linalg::Matrix w2 = RandomMatrix(hidden, out, &rng);
  linalg::Matrix b2 = RandomMatrix(1, out, &rng);
  DecodeCase c;
  c.shapes = {{hidden, infer::Activation::kRelu},
              {out, type == core::DecoderType::kBernoulli
                        ? infer::Activation::kSigmoid
                        : infer::Activation::kClamp01}};
  c.weights = {w1, w2};
  c.biases = {b1, b2};
  auto pkg = core::ReleasePackage::FromParts(
      "equiv", /*num_classes=*/0, type, std::move(prior).ValueOrDie(),
      std::move(w1), std::move(b1), std::move(w2), std::move(b2));
  EXPECT_TRUE(pkg.ok()) << pkg.status();
  c.pkg = std::move(pkg).ValueOrDie();
  return c;
}

// --- property-based planned vs. Sequential ------------------------------

// Random architectures over the shape grid the kernels care about:
// widths straddling the 8-column panel (1, 7, 8, 9, ...), prime and
// power-of-two batches, depths 1-4, every fusable activation. Each
// architecture must reproduce the reference forward pass bit-for-bit.
TEST(InferEquivalence, RandomArchitecturesMatchSequentialBitForBit) {
  const std::size_t kWidths[] = {1, 2, 3, 7, 8, 9, 16, 31,
                                 32, 33, 63, 64, 65, 127, 128, 257};
  const std::size_t kBatches[] = {1, 2, 3, 5, 8, 13, 17, 31, 64, 257};
  const infer::Activation kActs[] = {
      infer::Activation::kIdentity, infer::Activation::kRelu,
      infer::Activation::kSigmoid, infer::Activation::kTanh};
  util::Rng rng(20260808);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t depth = 1 + rng.UniformInt(4);
    const std::size_t in_dim =
        kWidths[rng.UniformInt(std::size(kWidths))];
    const std::size_t batch =
        kBatches[rng.UniformInt(std::size(kBatches))];
    std::vector<LayerShape> shapes;
    for (std::size_t l = 0; l < depth; ++l) {
      shapes.push_back({kWidths[rng.UniformInt(std::size(kWidths))],
                        kActs[rng.UniformInt(std::size(kActs))]});
    }
    linalg::Matrix x = RandomMatrix(batch, in_dim, &rng);
    ForwardPair pair = RunBothPaths(in_dim, shapes, x, &rng);
    std::string desc = "trial " + std::to_string(trial) + ": batch " +
                       std::to_string(batch) + ", dims " +
                       std::to_string(in_dim);
    for (const LayerShape& s : shapes) {
      desc += "->" + std::to_string(s.out);
      desc += infer::ActivationName(s.act);
    }
    EXPECT_TRUE(BitIdentical(pair.reference, pair.planned)) << desc;
  }
}

// The largest shape the ISSUE pins: batch 1024 through a ragged-width
// stack, plus the clamp01 (Gaussian) head.
TEST(InferEquivalence, LargeBatchRaggedWidths) {
  util::Rng rng(99);
  const std::vector<LayerShape> shapes = {
      {257, infer::Activation::kRelu},
      {129, infer::Activation::kTanh},
      {66, infer::Activation::kClamp01},
  };
  linalg::Matrix x = RandomMatrix(1024, 31, &rng);
  ForwardPair pair = RunBothPaths(31, shapes, x, &rng);
  EXPECT_TRUE(BitIdentical(pair.reference, pair.planned));
}

// A batch decoded as one stacked matrix must equal the same rows decoded
// in odd-sized slices: each row's arithmetic is independent of its
// neighbors (this is what makes serve-side batching safe).
TEST(InferEquivalence, BatchSlicingInvariance) {
  util::Rng rng(4242);
  const std::vector<LayerShape> shapes = {{65, infer::Activation::kRelu},
                                          {33, infer::Activation::kSigmoid}};
  std::vector<linalg::Matrix> weights;
  std::vector<infer::LayerSpec> specs;
  weights.push_back(RandomMatrix(17, 65, &rng));
  weights.push_back(RandomMatrix(1, 65, &rng));
  weights.push_back(RandomMatrix(65, 33, &rng));
  weights.push_back(RandomMatrix(1, 33, &rng));
  specs.push_back({&weights[0], &weights[1], infer::Activation::kRelu});
  specs.push_back({&weights[2], &weights[3], infer::Activation::kSigmoid});
  auto plan = infer::DecoderPlan::Compile(specs);
  ASSERT_TRUE(plan.ok());

  const std::size_t batch = 103;
  linalg::Matrix x = RandomMatrix(batch, 17, &rng);
  linalg::Matrix stacked;
  ASSERT_TRUE(plan->Execute(x, &stacked).ok());

  std::size_t row = 0;
  for (std::size_t slice : {1u, 2u, 3u, 5u, 7u, 85u}) {
    linalg::Matrix xs(slice, 17);
    for (std::size_t r = 0; r < slice; ++r) {
      for (std::size_t c = 0; c < 17; ++c) xs(r, c) = x(row + r, c);
    }
    linalg::Matrix ys;
    ASSERT_TRUE(plan->Execute(xs, &ys).ok());
    for (std::size_t r = 0; r < slice; ++r) {
      ASSERT_EQ(std::memcmp(ys.row_data(r), stacked.row_data(row + r),
                            33 * sizeof(double)),
                0)
          << "slice starting at row " << row;
    }
    row += slice;
  }
  ASSERT_EQ(row, batch);
}

// --- dispatch-tier equivalence ------------------------------------------

// Forcing the scalar tier must reproduce the SIMD tier exactly: the
// AVX2 kernel vectorizes across output columns only, so each lane runs
// the scalar accumulation verbatim.
TEST(InferEquivalence, ForceScalarMatchesActiveTier) {
  util::Rng rng(777);
  const std::vector<LayerShape> shapes = {{131, infer::Activation::kRelu},
                                          {77, infer::Activation::kTanh},
                                          {29, infer::Activation::kSigmoid}};
  std::vector<linalg::Matrix> weights;
  std::size_t prev = 23;
  std::vector<infer::LayerSpec> specs;
  for (const LayerShape& s : shapes) {
    weights.push_back(RandomMatrix(prev, s.out, &rng));
    weights.push_back(RandomMatrix(1, s.out, &rng));
    prev = s.out;
  }
  for (std::size_t l = 0; l < shapes.size(); ++l) {
    specs.push_back({&weights[2 * l], &weights[2 * l + 1], shapes[l].act});
  }
  auto plan = infer::DecoderPlan::Compile(specs);
  ASSERT_TRUE(plan.ok());

  for (std::size_t batch : {1u, 3u, 4u, 9u, 64u, 250u}) {
    linalg::Matrix x = RandomMatrix(batch, 23, &rng);
    linalg::Matrix native;
    ASSERT_TRUE(plan->Execute(x, &native).ok());
    linalg::Matrix scalar;
    {
      ScopedForceScalar force;
      EXPECT_EQ(infer::ActiveTier(), infer::KernelTier::kScalar);
      ASSERT_TRUE(plan->Execute(x, &scalar).ok());
    }
    EXPECT_TRUE(BitIdentical(native, scalar)) << "batch " << batch;
  }
  // Outside the scope the dispatch returns to the hardware tier.
  if (infer::Avx2Supported()) {
    EXPECT_EQ(infer::ActiveTier(), infer::KernelTier::kAvx2);
  } else {
    EXPECT_EQ(infer::ActiveTier(), infer::KernelTier::kScalar);
  }
}

// --- DecodeLatent / Generate against the reference path -----------------

TEST(InferEquivalence, DecodeLatentMatchesReferenceBernoulli) {
  const DecodeCase c =
      MakeDecodeCase(core::DecoderType::kBernoulli, 11, 47, 30, 1);
  util::Rng rng(5);
  linalg::Matrix z = c.pkg.SampleLatent(129, &rng);
  auto planned = c.pkg.DecodeLatent(z);
  ASSERT_TRUE(planned.ok());
  EXPECT_TRUE(BitIdentical(c.Reference(z), *planned));
}

TEST(InferEquivalence, DecodeLatentMatchesReferenceGaussian) {
  const DecodeCase c =
      MakeDecodeCase(core::DecoderType::kGaussian, 7, 33, 21, 2);
  util::Rng rng(6);
  linalg::Matrix z = c.pkg.SampleLatent(64, &rng);
  auto planned = c.pkg.DecodeLatent(z);
  ASSERT_TRUE(planned.ok());
  EXPECT_TRUE(BitIdentical(c.Reference(z), *planned));
}

// Special values must flow through every path with identical bits:
// NaN propagates (relu/clamp keep it — the comparisons are false, and
// propagation never touches the sign bit), -0.0 survives relu
// untouched, denormals round identically, and exact zeros may be
// skipped (reference Matmul, sparse kernel) or streamed (dense kernel)
// with no bit difference, because the weights are finite. Infinities
// are deliberately absent: inf - inf manufactures a NaN whose sign
// depends on operand order of commutative ops, which the C level does
// not pin — the contract covers finite and NaN inputs.
TEST(InferEquivalence, SpecialValueLatentsMatchAcrossPathsAndTiers) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kDenorm = std::numeric_limits<double>::denorm_min();
  const double kSpecials[] = {kNan, -0.0, 0.0, kDenorm, -kDenorm, -1e30};
  util::Rng rng(31337);
  const std::vector<LayerShape> shapes = {{53, infer::Activation::kRelu},
                                          {21, infer::Activation::kClamp01}};
  for (std::size_t batch : {1u, 9u, 130u}) {
    linalg::Matrix x = RandomMatrix(batch, 19, &rng);
    // Scatter specials over ~1/3 of the entries, covering every row.
    for (std::size_t i = 0; i < x.size(); i += 3) {
      x.data()[i] = kSpecials[(i / 3) % std::size(kSpecials)];
    }
    ForwardPair pair = RunBothPaths(19, shapes, x, &rng);
    EXPECT_TRUE(BitIdentical(pair.reference, pair.planned))
        << "batch " << batch;
    // The scalar tier must agree with whatever tier just ran.
    std::vector<linalg::Matrix> weights;
    std::vector<infer::LayerSpec> specs;
    std::size_t prev = 19;
    util::Rng wrng(555);
    for (const LayerShape& s : shapes) {
      weights.push_back(RandomMatrix(prev, s.out, &wrng));
      weights.push_back(RandomMatrix(1, s.out, &wrng));
      prev = s.out;
    }
    for (std::size_t l = 0; l < shapes.size(); ++l) {
      specs.push_back({&weights[2 * l], &weights[2 * l + 1], shapes[l].act});
    }
    auto plan = infer::DecoderPlan::Compile(specs);
    ASSERT_TRUE(plan.ok());
    linalg::Matrix native, scalar;
    ASSERT_TRUE(plan->Execute(x, &native).ok());
    {
      ScopedForceScalar force;
      ASSERT_TRUE(plan->Execute(x, &scalar).ok());
    }
    EXPECT_TRUE(BitIdentical(native, scalar)) << "batch " << batch;
  }
}

// DecodeLatentInto is the serving batcher's entry point: same bytes as
// DecodeLatent and the reference, with the caller's buffer reused.
TEST(InferEquivalence, DecodeLatentIntoMatchesDecodeLatent) {
  const DecodeCase c =
      MakeDecodeCase(core::DecoderType::kGaussian, 9, 41, 26, 3);
  util::Rng rng(7);
  linalg::Matrix z = c.pkg.SampleLatent(77, &rng);
  auto by_value = c.pkg.DecodeLatent(z);
  ASSERT_TRUE(by_value.ok());
  linalg::Matrix into;
  ASSERT_TRUE(c.pkg.DecodeLatentInto(z, &into).ok());
  EXPECT_TRUE(BitIdentical(*by_value, into));
  EXPECT_TRUE(BitIdentical(c.Reference(z), into));
}

// One output buffer across growing and shrinking batches — the
// batcher's steady state. Every pass must match a fresh DecodeLatent,
// and a same-shape pass must not reallocate. Zero rows decode to an
// empty 0 x output_dim matrix.
TEST(InferEquivalence, DecodeLatentIntoReusesBufferAcrossBatchSizes) {
  const DecodeCase c =
      MakeDecodeCase(core::DecoderType::kBernoulli, 8, 37, 22, 4);
  const core::ReleasePackage& pkg = c.pkg;
  linalg::Matrix out;
  util::Rng rng(8);
  for (const std::size_t rows : {64, 7, 0, 128, 1, 128}) {
    linalg::Matrix z = pkg.SampleLatent(rows, &rng);
    ASSERT_TRUE(pkg.DecodeLatentInto(z, &out).ok()) << "rows=" << rows;
    EXPECT_EQ(out.rows(), rows);
    EXPECT_EQ(out.cols(), pkg.output_dim());
    const double* buffer = out.data();
    auto fresh = pkg.DecodeLatent(z);
    ASSERT_TRUE(fresh.ok());
    EXPECT_TRUE(BitIdentical(*fresh, out)) << "rows=" << rows;
    // Same shape again: the buffer must be reused, not reallocated.
    ASSERT_TRUE(pkg.DecodeLatentInto(z, &out).ok());
    EXPECT_EQ(buffer, out.data()) << "rows=" << rows;
    EXPECT_TRUE(BitIdentical(*fresh, out)) << "rows=" << rows;
  }
}

TEST(InferEquivalence, DecodeLatentIntoRejectsBadShapes) {
  const DecodeCase c =
      MakeDecodeCase(core::DecoderType::kGaussian, 6, 19, 12, 5);
  linalg::Matrix wrong(3, c.pkg.latent_dim() + 1);
  linalg::Matrix out;
  EXPECT_FALSE(c.pkg.DecodeLatentInto(wrong, &out).ok());
}

// Fixed-seed Generate must produce the dataset the reference decode of
// the same latents assembles: sampling consumes the RNG identically and
// decoding is bit-identical, so features and labels match exactly.
TEST(InferEquivalence, GenerateEndToEndMatchesReference) {
  const DecodeCase c =
      MakeDecodeCase(core::DecoderType::kBernoulli, 5, 19, 12, 3);
  util::Rng rng(31337);
  auto planned = c.pkg.Generate(200, &rng);
  ASSERT_TRUE(planned.ok());
  util::Rng replay(31337);
  const data::Dataset reference =
      c.pkg.AssembleRows(c.Reference(c.pkg.SampleLatent(200, &replay)));
  EXPECT_TRUE(BitIdentical(reference.features, planned->features));
  EXPECT_EQ(reference.labels, planned->labels);
}

// --- concurrency / reuse -------------------------------------------------

// The plan is immutable after Compile and scratch space is per-thread:
// concurrent Executes must be race-free (run under TSan via the
// `threads` label) and every result bit-identical to the serial one.
TEST(InferEquivalence, ConcurrentExecutesAreIdentical) {
  util::Rng rng(11);
  linalg::Matrix w1 = RandomMatrix(9, 41, &rng);
  linalg::Matrix b1 = RandomMatrix(1, 41, &rng);
  linalg::Matrix w2 = RandomMatrix(41, 13, &rng);
  linalg::Matrix b2 = RandomMatrix(1, 13, &rng);
  auto plan = infer::DecoderPlan::Compile(
      {{&w1, &b1, infer::Activation::kRelu},
       {&w2, &b2, infer::Activation::kSigmoid}});
  ASSERT_TRUE(plan.ok());
  linalg::Matrix x = RandomMatrix(57, 9, &rng);
  linalg::Matrix serial;
  ASSERT_TRUE(plan->Execute(x, &serial).ok());

  std::vector<std::thread> workers;
  std::vector<testing::AssertionResult> results(4,
                                                testing::AssertionSuccess());
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      for (int iter = 0; iter < 25; ++iter) {
        linalg::Matrix out;
        if (!plan->Execute(x, &out).ok()) {
          results[t] = testing::AssertionFailure() << "Execute failed";
          return;
        }
        testing::AssertionResult cmp = BitIdentical(serial, out);
        if (!cmp) {
          results[t] = cmp;
          return;
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  for (const testing::AssertionResult& r : results) EXPECT_TRUE(r);
}

// Batch sizes ramping up and down through one plan reuse the same
// thread-local arena; results must not depend on its history.
TEST(InferEquivalence, ArenaReuseAcrossBatchSizes) {
  util::Rng rng(13);
  linalg::Matrix w1 = RandomMatrix(6, 25, &rng);
  linalg::Matrix b1 = RandomMatrix(1, 25, &rng);
  linalg::Matrix w2 = RandomMatrix(25, 10, &rng);
  linalg::Matrix b2 = RandomMatrix(1, 10, &rng);
  auto plan = infer::DecoderPlan::Compile(
      {{&w1, &b1, infer::Activation::kRelu},
       {&w2, &b2, infer::Activation::kIdentity}});
  ASSERT_TRUE(plan.ok());

  linalg::Matrix x = RandomMatrix(512, 6, &rng);
  linalg::Matrix full;
  ASSERT_TRUE(plan->Execute(x, &full).ok());
  for (std::size_t batch : {512u, 1u, 300u, 512u, 7u}) {
    linalg::Matrix xs(batch, 6);
    for (std::size_t r = 0; r < batch; ++r) {
      for (std::size_t c = 0; c < 6; ++c) xs(r, c) = x(r, c);
    }
    linalg::Matrix ys;
    ASSERT_TRUE(plan->Execute(xs, &ys).ok());
    for (std::size_t r = 0; r < batch; ++r) {
      ASSERT_EQ(std::memcmp(ys.row_data(r), full.row_data(r),
                            10 * sizeof(double)),
                0)
          << "batch " << batch << " row " << r;
    }
  }
}

// --- observability -------------------------------------------------------

TEST(InferEquivalence, ExecuteBumpsObsCounters) {
  const bool was_enabled = obs::Enabled();
  obs::SetEnabled(true);
  obs::Counter* hits = obs::Registry::Global().counter("infer.plan.hits");
  obs::Counter* rows = obs::Registry::Global().counter("infer.rows.decoded");
  const std::uint64_t hits_before = hits->value();
  const std::uint64_t rows_before = rows->value();

  util::Rng rng(17);
  linalg::Matrix w = RandomMatrix(4, 12, &rng);
  linalg::Matrix b = RandomMatrix(1, 12, &rng);
  auto plan = infer::DecoderPlan::Compile(
      {{&w, &b, infer::Activation::kSigmoid}});
  ASSERT_TRUE(plan.ok());
  linalg::Matrix x = RandomMatrix(23, 4, &rng);
  linalg::Matrix out;
  ASSERT_TRUE(plan->Execute(x, &out).ok());

  EXPECT_EQ(hits->value(), hits_before + 1);
  EXPECT_EQ(rows->value(), rows_before + 23);
  EXPECT_GT(
      obs::Registry::Global().gauge("infer.arena.bytes")->value(), 0.0);
  obs::SetEnabled(was_enabled);
}

}  // namespace
}  // namespace p3gm
