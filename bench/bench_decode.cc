// Decoder synthesis throughput: the compiled inference runtime
// (infer::DecoderPlan — packed weights, arena buffers, fused SIMD
// kernels; see docs/inference.md), driven through
// ReleasePackage::DecodeLatentInto exactly as `p3gm serve` drives it per
// coalesced batch, against the reference forward pass: an
// nn::Sequential carrying the same weights, which pays its true cost
// (per-layer Matrix allocations included). Both sweep the same batch
// sizes.
//
// The two are contractually bit-identical; this bench asserts that on
// every batch size before timing anything, so a kernel regression can
// never hide behind a throughput win.
//
// Emits BENCH_decode.json for the tools/bench_compare regression gate.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/release.h"
#include "infer/kernels.h"
#include "linalg/matrix.h"
#include "nn/activations.h"
#include "nn/linear.h"
#include "nn/sequential.h"
#include "stats/gmm.h"
#include "util/csv.h"
#include "util/rng.h"

namespace p3gm {
namespace bench {
namespace {

constexpr std::size_t kLatent = 64, kHidden = 512, kOutputs = 786;

// An MNIST-scale decoder: latent 64 -> hidden 512 -> 786 outputs (784
// pixels + a 2-class one-hot block), Gaussian (clamp01) head. Weights
// are fixed pseudo-random so the run is reproducible without training.
struct DecoderWeights {
  linalg::Matrix w1{kLatent, kHidden}, b1{1, kHidden};
  linalg::Matrix w2{kHidden, kOutputs}, b2{1, kOutputs};
};

DecoderWeights MakeWeights() {
  DecoderWeights w;
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return static_cast<double>(state % 2000) / 1000.0 - 1.0;
  };
  for (std::size_t i = 0; i < w.w1.size(); ++i) w.w1.data()[i] = 0.1 * next();
  for (std::size_t i = 0; i < w.b1.size(); ++i) w.b1.data()[i] = 0.05 * next();
  for (std::size_t i = 0; i < w.w2.size(); ++i) w.w2.data()[i] = 0.1 * next();
  for (std::size_t i = 0; i < w.b2.size(); ++i) w.b2.data()[i] = 0.05 * next();
  return w;
}

core::ReleasePackage MakeDecodePackage(const DecoderWeights& w) {
  linalg::Matrix means(2, kLatent), variances(2, kLatent, 0.8);
  for (std::size_t j = 0; j < kLatent; ++j) {
    means(0, j) = -0.8;
    means(1, j) = 0.8;
  }
  auto prior = stats::GaussianMixture::Create({0.5, 0.5}, means, variances);
  P3GM_CHECK(prior.ok());
  auto pkg = core::ReleasePackage::FromParts(
      "bench_decode", /*num_classes=*/2, core::DecoderType::kGaussian,
      std::move(*prior), w.w1, w.b1, w.w2, w.b2);
  P3GM_CHECK(pkg.ok());
  return std::move(*pkg);
}

// The reference forward pass: Linear -> Relu -> Linear with the same
// weights patched in (Linear's own init is overwritten). clamp01 has no
// nn layer, so the head is applied by hand.
void BuildReference(const DecoderWeights& w, nn::Sequential* seq) {
  util::Rng init_rng(7);
  nn::Linear* l1 =
      seq->Emplace<nn::Linear>("l1", kLatent, kHidden, &init_rng);
  l1->weight().value = w.w1;
  l1->bias().value = w.b1;
  seq->Emplace<nn::Relu>();
  nn::Linear* l2 =
      seq->Emplace<nn::Linear>("l2", kHidden, kOutputs, &init_rng);
  l2->weight().value = w.w2;
  l2->bias().value = w.b2;
}

void ReferenceDecode(nn::Sequential* seq, const linalg::Matrix& z,
                     linalg::Matrix* out) {
  *out = seq->Forward(z, /*train=*/false);
  double* d = out->data();
  for (std::size_t i = 0; i < out->size(); ++i) {
    d[i] = std::clamp(d[i], 0.0, 1.0);
  }
}

// Decodes through DecodeLatentInto — the serve batcher's call — with the
// same reusable-buffer contract the production path has.
void PlannedDecode(const core::ReleasePackage& pkg, const linalg::Matrix& z,
                   linalg::Matrix* out) {
  const util::Status status = pkg.DecodeLatentInto(z, out);
  P3GM_CHECK_MSG(status.ok(), status.ToString().c_str());
}

}  // namespace
}  // namespace bench
}  // namespace p3gm

int main() {
  using namespace p3gm;  // NOLINT(build/namespaces)

  bench::BenchRun run("decode");
  bench::PrintTitle(
      "decoder synthesis: planned infer runtime vs reference forward pass");

  const std::vector<std::size_t> kBatches =
      bench::SmokeMode() ? std::vector<std::size_t>{1, 16, 256}
                         : std::vector<std::size_t>{1, 16, 64, 256, 1024};
  // Rows decoded per measured rep: equal row budget at every batch size
  // so per-pass fixed costs show up in the batch=1 column rather than in
  // rep-count asymmetry.
  const std::size_t kRowsPerRep = bench::SmokeMode() ? 256 : 2048;

  const bench::DecoderWeights weights = bench::MakeWeights();
  const core::ReleasePackage pkg = bench::MakeDecodePackage(weights);
  nn::Sequential reference("reference");
  bench::BuildReference(weights, &reference);
  util::Rng z_rng(20260808);
  linalg::Matrix z_full = pkg.SampleLatent(kBatches.back(), &z_rng);

  // Per-batch latent slices (row-major prefix copies).
  std::vector<linalg::Matrix> z_by_batch;
  for (const std::size_t b : kBatches) {
    linalg::Matrix z(b, z_full.cols());
    std::memcpy(z.data(), z_full.data(),
                b * z_full.cols() * sizeof(double));
    z_by_batch.push_back(std::move(z));
  }

  // Equivalence gate first: the planned runtime must reproduce the
  // reference bytes on every batch size it is about to be timed on.
  for (std::size_t i = 0; i < kBatches.size(); ++i) {
    linalg::Matrix a, b;
    bench::PlannedDecode(pkg, z_by_batch[i], &a);
    bench::ReferenceDecode(&reference, z_by_batch[i], &b);
    P3GM_CHECK_MSG(a.rows() == b.rows() && a.cols() == b.cols() &&
                       std::memcmp(a.data(), b.data(),
                                   a.size() * sizeof(double)) == 0,
                   "planned decode diverged from reference");
  }

  // Interleaved measurement: round r samples every (runtime, batch)
  // configuration once before any configuration gets rep r+1, so machine
  // drift cancels in the planned/reference ratio.
  // Each configuration keeps its own output buffer across reps — the
  // steady state a serving batcher reaches after its first batch.
  std::vector<linalg::Matrix> outs(2 * kBatches.size());
  std::vector<obs::bench::BenchSuite::NamedBench> benches;
  for (std::size_t i = 0; i < kBatches.size(); ++i) {
    const std::size_t batch = kBatches[i];
    const std::size_t iters =
        (kRowsPerRep + batch - 1) / batch;  // >= kRowsPerRep rows.
    const linalg::Matrix* z = &z_by_batch[i];
    linalg::Matrix* planned_out = &outs[2 * i];
    linalg::Matrix* reference_out = &outs[2 * i + 1];
    benches.push_back({"decode/planned_b" + std::to_string(batch),
                       [&pkg, z, iters, planned_out] {
                         for (std::size_t it = 0; it < iters; ++it) {
                           bench::PlannedDecode(pkg, *z, planned_out);
                         }
                       }});
    benches.push_back({"decode/reference_b" + std::to_string(batch),
                       [&reference, z, iters, reference_out] {
                         for (std::size_t it = 0; it < iters; ++it) {
                           bench::ReferenceDecode(&reference, *z,
                                                  reference_out);
                         }
                       }});
  }
  run.suite().RunInterleaved(benches);

  // Samples/sec from the median rep of each configuration.
  auto rows_per_second = [&](const std::string& name,
                             std::size_t batch) -> double {
    const std::size_t iters = (kRowsPerRep + batch - 1) / batch;
    for (const obs::bench::BenchResult& r : run.suite().results()) {
      if (r.name == name && r.stats.median > 0.0) {
        return static_cast<double>(iters * batch) / r.stats.median;
      }
    }
    return 0.0;
  };

  std::printf("%-8s %16s %16s %10s\n", "batch", "planned rows/s",
              "reference rows/s", "speedup");
  util::CsvWriter csv("bench_decode.csv");
  csv.WriteRow({"batch", "planned_rows_per_s", "reference_rows_per_s",
                "speedup"});
  double speedup_at_256 = 0.0;
  for (const std::size_t batch : kBatches) {
    const double planned =
        rows_per_second("decode/planned_b" + std::to_string(batch), batch);
    const double reference = rows_per_second(
        "decode/reference_b" + std::to_string(batch), batch);
    const double speedup = reference > 0.0 ? planned / reference : 0.0;
    if (batch == 256) speedup_at_256 = speedup;
    std::printf("%-8zu %16.0f %16.0f %9.2fx\n", batch, planned, reference,
                speedup);
    csv.WriteRow({std::to_string(batch), util::FormatDouble(planned, 1),
                  util::FormatDouble(reference, 1),
                  util::FormatDouble(speedup, 3)});
  }
  bench::PrintRule();
  std::printf("planned-decode speedup at batch 256: %.2fx samples/sec "
              "(latent 64 -> hidden 512 -> 786 outputs, %s tier)\n",
              speedup_at_256,
              infer::TierName(infer::ActiveTier()));
  run.AppendRunInfo(&csv);
  return 0;
}
