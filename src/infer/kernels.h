#ifndef P3GM_INFER_KERNELS_H_
#define P3GM_INFER_KERNELS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include "linalg/matrix.h"
#include "nn/activations.h"

namespace p3gm {
namespace infer {

/// Fused epilogue applied element-wise after the affine accumulation.
/// Every entry reproduces the exact scalar formula of its training-path
/// counterpart (see docs/inference.md §accumulation-order contract):
/// kRelu is `v < 0 ? 0 : v` (nn::Relu / ReleasePackage::DecodeLatent),
/// kSigmoid is nn::SigmoidScalar, kTanh is std::tanh, kClamp01 is
/// std::clamp(v, 0, 1) (the Gaussian decoder head).
enum class Activation { kIdentity, kRelu, kSigmoid, kTanh, kClamp01 };

const char* ActivationName(Activation act);

/// Kernel dispatch tier, resolved once per process from CPUID and
/// overridable per call via P3GM_INFER_FORCE_SCALAR=1 (the equivalence
/// suite pins both tiers bit-identical, so forcing scalar is a debug
/// aid, never a numerics switch).
enum class KernelTier { kScalar, kAvx2 };

const char* TierName(KernelTier tier);

/// True when this binary carries the AVX2 kernel TU and the CPU+OS
/// report AVX2 support.
bool Avx2Supported();

/// The tier Execute will use right now: Avx2 when supported and
/// P3GM_INFER_FORCE_SCALAR is unset/0, scalar otherwise. Reads the
/// environment on every call so tests can flip tiers at runtime.
KernelTier ActiveTier();

/// Column-panel width of the packed weight layout (doubles). The packed
/// buffer stores each panel of kPanelWidth output columns contiguously
/// and k-major: element (k, j) of panel p lives at
/// packed[p * K * kPanelWidth + k * kPanelWidth + (j - p * kPanelWidth)].
/// Ragged final panels are zero-padded so kernels always read and
/// accumulate full panels; only the leading `out` columns of the
/// scratch row are ever consumed.
constexpr std::size_t kPanelWidth = 8;

inline std::size_t PaddedWidth(std::size_t out) {
  return (out + kPanelWidth - 1) / kPanelWidth * kPanelWidth;
}

/// One decoder layer, pre-packed at plan-compile time: weights
/// rearranged into the panel-major layout above, bias flattened, and
/// the epilogue fused in.
struct PackedLayer {
  std::size_t in = 0;          // K: input features.
  std::size_t out = 0;         // N: output features.
  std::size_t padded_out = 0;  // N rounded up to kPanelWidth.
  /// Panel-major weights (in * padded_out doubles), preceded by up to
  /// kPanelWidth - 1 slack doubles so `panels()` starts on a 64-byte
  /// cache-line boundary: every panel row is then one full line and no
  /// 32-byte slab load in the SIMD tier straddles two lines. Access the
  /// panels only through `panels()`.
  std::vector<double> packed;
  std::size_t panel_pad = 0;  // slack doubles before the first panel.
  std::vector<double> bias;   // out.
  Activation act = Activation::kIdentity;

  /// Base of the panel-major weight area. Aligned to 64 bytes as packed
  /// by PackLayer; a copied PackedLayer keeps identical contents (and
  /// therefore identical results) but may lose the alignment, which
  /// only costs speed — kernels use unaligned accesses throughout.
  const double* panels() const { return packed.data() + panel_pad; }
};

/// Packs `weight` (in x out) and `bias` (1 x out) for the fused kernel.
PackedLayer PackLayer(const linalg::Matrix& weight,
                      const linalg::Matrix& bias, Activation act);

/// Runs `rows` rows of the fused layer: scratch = a * W (ascending-k
/// mul-then-add accumulation, bit-identical to linalg::Matmul for finite
/// weights), then dst = act(scratch + bias) over the leading `out`
/// columns.
///
///  * `a`: rows x layer.in, row stride `a_stride` (>= layer.in).
///  * `scratch`: rows x layer.padded_out accumulation buffer, row
///    stride `c_stride` (>= layer.padded_out). Contents clobbered.
///  * `dst`: rows x layer.out output, row stride `dst_stride`
///    (>= layer.out). May equal `scratch` (the in-place intermediate
///    case); any other overlap with `a` or `scratch` is the caller's
///    bug and is checked by the plan layer.
///
/// All pointers may be arbitrarily (8-byte) aligned; kernels use
/// unaligned accesses throughout.
void RunFusedLayer(KernelTier tier, const double* a, std::size_t a_stride,
                   std::size_t rows, const PackedLayer& layer,
                   double* scratch, std::size_t c_stride, double* dst,
                   std::size_t dst_stride);

namespace internal {

/// Portable reference tier; also the tail/remainder path of the SIMD
/// tier's contract tests. Defined in kernels.cc.
void FusedLayerScalar(const double* a, std::size_t a_stride,
                      std::size_t rows, const PackedLayer& layer,
                      double* scratch, std::size_t c_stride, double* dst,
                      std::size_t dst_stride);

/// AVX2 tier; only defined when the build carries the AVX2 TU
/// (P3GM_INFER_HAVE_AVX2). Compiled with -ffp-contract=off so no
/// mul+add pair is ever fused into an FMA — fusion rounds once where
/// the contract rounds twice.
void FusedLayerAvx2(const double* a, std::size_t a_stride, std::size_t rows,
                    const PackedLayer& layer, double* scratch,
                    std::size_t c_stride, double* dst,
                    std::size_t dst_stride);

/// Epilogue shared by every tier: dst[j] = act(scratch[j] + bias[j]).
/// The formulas are the bit-identity contract — each case is the exact
/// scalar expression of its training-path counterpart (see the
/// Activation enum above). Inline in the header so each kernel TU can
/// inline it into its own sweep; the compiler may auto-vectorize the
/// pure-arithmetic cases, which is safe because without -ffast-math it
/// only does so when the result is identical for every input, NaNs and
/// signed zeros included. Sigmoid/tanh go through libm/nn and stay
/// scalar calls.
inline void EpilogueRow(Activation act, const double* scratch,
                        const double* bias, std::size_t out, double* dst) {
  switch (act) {
    case Activation::kIdentity:
      for (std::size_t j = 0; j < out; ++j) dst[j] = scratch[j] + bias[j];
      break;
    case Activation::kRelu:
      for (std::size_t j = 0; j < out; ++j) {
        const double v = scratch[j] + bias[j];
        // Same comparison as nn::Relu / the reference decoder: negative
        // zero passes through untouched.
        dst[j] = v < 0.0 ? 0.0 : v;
      }
      break;
    case Activation::kSigmoid:
      for (std::size_t j = 0; j < out; ++j) {
        dst[j] = nn::SigmoidScalar(scratch[j] + bias[j]);
      }
      break;
    case Activation::kTanh:
      for (std::size_t j = 0; j < out; ++j) {
        dst[j] = std::tanh(scratch[j] + bias[j]);
      }
      break;
    case Activation::kClamp01:
      for (std::size_t j = 0; j < out; ++j) {
        dst[j] = std::clamp(scratch[j] + bias[j], 0.0, 1.0);
      }
      break;
  }
}

/// Out-of-line wrapper around EpilogueRow (kept for tests and
/// non-kernel callers).
void ApplyEpilogueRow(Activation act, const double* scratch,
                      const double* bias, std::size_t out, double* dst);

}  // namespace internal

}  // namespace infer
}  // namespace p3gm

#endif  // P3GM_INFER_KERNELS_H_
