#include "infer/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>

#include "nn/activations.h"
#include "util/check.h"

namespace p3gm {
namespace infer {

const char* ActivationName(Activation act) {
  switch (act) {
    case Activation::kIdentity: return "identity";
    case Activation::kRelu: return "relu";
    case Activation::kSigmoid: return "sigmoid";
    case Activation::kTanh: return "tanh";
    case Activation::kClamp01: return "clamp01";
  }
  return "?";
}

const char* TierName(KernelTier tier) {
  switch (tier) {
    case KernelTier::kScalar: return "scalar";
    case KernelTier::kAvx2: return "avx2";
  }
  return "?";
}

bool Avx2Supported() {
#if defined(P3GM_INFER_HAVE_AVX2)
  // __builtin_cpu_supports consults CPUID *and* XGETBV, so an OS that
  // does not save ymm state reports unsupported.
  static const bool supported = __builtin_cpu_supports("avx2") != 0;
  return supported;
#else
  return false;
#endif
}

KernelTier ActiveTier() {
  if (!Avx2Supported()) return KernelTier::kScalar;
  // Re-read on every call (not cached) so tests and operators can flip
  // tiers mid-process; one getenv per forward pass is noise.
  const char* force = std::getenv("P3GM_INFER_FORCE_SCALAR");
  if (force != nullptr && force[0] != '\0' && std::strcmp(force, "0") != 0) {
    return KernelTier::kScalar;
  }
  return KernelTier::kAvx2;
}

PackedLayer PackLayer(const linalg::Matrix& weight,
                      const linalg::Matrix& bias, Activation act) {
  P3GM_CHECK(bias.rows() == 1 && bias.cols() == weight.cols());
  PackedLayer layer;
  layer.in = weight.rows();
  layer.out = weight.cols();
  layer.padded_out = PaddedWidth(layer.out);
  layer.act = act;
  layer.bias.assign(bias.data(), bias.data() + bias.cols());
  // Over-allocate by one panel row so the panel area can start on a
  // 64-byte boundary wherever the vector's buffer happens to land; a
  // panel row is exactly one cache line, so every slab load in the SIMD
  // tier then stays within a single line.
  layer.packed.assign(layer.in * layer.padded_out + kPanelWidth - 1, 0.0);
  const std::size_t misalign =
      reinterpret_cast<std::uintptr_t>(layer.packed.data()) % 64;
  layer.panel_pad = misalign == 0 ? 0 : (64 - misalign) / sizeof(double);
  const std::size_t k_dim = layer.in;
  for (std::size_t p = 0; p * kPanelWidth < layer.out; ++p) {
    const std::size_t j0 = p * kPanelWidth;
    const std::size_t width = std::min(kPanelWidth, layer.out - j0);
    double* panel = layer.packed.data() + layer.panel_pad +
                    p * k_dim * kPanelWidth;
    for (std::size_t k = 0; k < k_dim; ++k) {
      const double* wrow = weight.row_data(k);
      for (std::size_t jj = 0; jj < width; ++jj) {
        panel[k * kPanelWidth + jj] = wrow[j0 + jj];
      }
    }
  }
  return layer;
}

namespace internal {

void ApplyEpilogueRow(Activation act, const double* scratch,
                      const double* bias, std::size_t out, double* dst) {
  EpilogueRow(act, scratch, bias, out, dst);
}

void FusedLayerScalar(const double* a, std::size_t a_stride,
                      std::size_t rows, const PackedLayer& layer,
                      double* scratch, std::size_t c_stride, double* dst,
                      std::size_t dst_stride) {
  const std::size_t k_dim = layer.in;
  const std::size_t num_panels = layer.padded_out / kPanelWidth;
  for (std::size_t i = 0; i < rows; ++i) {
    const double* arow = a + i * a_stride;
    double* crow = scratch + i * c_stride;
    for (std::size_t j = 0; j < layer.padded_out; ++j) crow[j] = 0.0;
    for (std::size_t p = 0; p < num_panels; ++p) {
      const double* panel = layer.panels() + p * k_dim * kPanelWidth;
      double* cpanel = crow + p * kPanelWidth;
      for (std::size_t k = 0; k < k_dim; ++k) {
        const double av = arow[k];
        // Skipping a zero multiplier is bit-neutral for finite weights
        // (docs/inference.md), and it is what makes the post-ReLU layer
        // cheap.
        if (av == 0.0) continue;
        const double* brow = panel + k * kPanelWidth;
        for (std::size_t jj = 0; jj < kPanelWidth; ++jj) {
          cpanel[jj] += av * brow[jj];
        }
      }
    }
    ApplyEpilogueRow(layer.act, crow, layer.bias.data(), layer.out,
                     dst + i * dst_stride);
  }
}

}  // namespace internal

void RunFusedLayer(KernelTier tier, const double* a, std::size_t a_stride,
                   std::size_t rows, const PackedLayer& layer,
                   double* scratch, std::size_t c_stride, double* dst,
                   std::size_t dst_stride) {
  P3GM_CHECK(a_stride >= layer.in && c_stride >= layer.padded_out &&
             dst_stride >= layer.out);
  if (rows == 0 || layer.out == 0) return;
#if defined(P3GM_INFER_HAVE_AVX2)
  if (tier == KernelTier::kAvx2) {
    internal::FusedLayerAvx2(a, a_stride, rows, layer, scratch, c_stride,
                             dst, dst_stride);
    return;
  }
#else
  (void)tier;
#endif
  internal::FusedLayerScalar(a, a_stride, rows, layer, scratch, c_stride,
                             dst, dst_stride);
}

}  // namespace infer
}  // namespace p3gm
