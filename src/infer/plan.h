#ifndef P3GM_INFER_PLAN_H_
#define P3GM_INFER_PLAN_H_

#include <cstddef>
#include <vector>

#include "infer/arena.h"
#include "infer/kernels.h"
#include "linalg/matrix.h"
#include "util/result.h"
#include "util/status.h"

namespace p3gm {
namespace infer {

/// One layer of a decoder forward pass, described by borrowed weight and
/// bias matrices. The matrices are only read during Compile (they are
/// packed into the plan's own storage), so they need not outlive it.
struct LayerSpec {
  const linalg::Matrix* weight = nullptr;  // in x out.
  const linalg::Matrix* bias = nullptr;    // 1 x out.
  Activation act = Activation::kIdentity;
};

/// A forward-only decoder execution plan, compiled once per model and
/// reused for every batch:
///
///  * weights pre-packed into the panel-major kernel layout,
///  * intermediate buffer sizes and offsets precomputed, so a batch
///    costs exactly one arena reservation (amortised to zero) and no
///    per-layer allocations,
///  * layers executed through the fused linear+bias+activation kernels
///    (RunFusedLayer) with runtime scalar/AVX2 dispatch.
///
/// Execute is bit-identical to running the same layers through
/// linalg::Matmul + AddRowVector + the scalar activations — see
/// docs/inference.md for the accumulation-order contract — and is safe
/// to call concurrently from many threads (the plan is immutable after
/// Compile; scratch space is per-thread).
class DecoderPlan {
 public:
  /// Validates the layer chain (non-empty, shapes compatible) and packs
  /// every layer. The spec matrices are copied from; they may be freed
  /// afterwards.
  static util::Result<DecoderPlan> Compile(const std::vector<LayerSpec>& specs);

  std::size_t num_layers() const { return layers_.size(); }
  std::size_t input_dim() const { return input_dim_; }
  std::size_t output_dim() const { return output_dim_; }
  const PackedLayer& layer(std::size_t l) const { return layers_[l]; }

  /// Scratch doubles Execute will reserve for a batch of `rows` rows
  /// (intermediate layer buffers only; a single-layer plan needs none).
  std::size_t ArenaDoublesFor(std::size_t rows) const;

  /// Runs the forward pass for `input` (rows x input_dim) into `*out`,
  /// which is resized to rows x output_dim. Uses the calling thread's
  /// arena. rows == 0 is valid and leaves an empty 0 x output_dim.
  util::Status Execute(const linalg::Matrix& input, linalg::Matrix* out) const;

  /// Raw-buffer forward pass: `in` is rows x input_dim with row stride
  /// `in_stride` (>= input_dim), `out` is rows x output_dim with row
  /// stride `out_stride` (>= output_dim). `in` and `out` must not
  /// overlap (checked fatally — the kernels accumulate in place).
  /// `arena` supplies scratch; pass the same arena across calls to reuse
  /// its capacity. Thread-safe for distinct arenas.
  util::Status ExecuteRaw(const double* in, std::size_t in_stride,
                          std::size_t rows, double* out,
                          std::size_t out_stride, Arena* arena) const;

 private:
  DecoderPlan() = default;

  std::vector<PackedLayer> layers_;
  std::size_t input_dim_ = 0;
  std::size_t output_dim_ = 0;
  // Per-row doubles of the two ping-pong intermediate slots: layer l
  // (l < num_layers-1) writes slot l % 2, layer l+1 reads it back.
  std::size_t slot_width_[2] = {0, 0};
};

}  // namespace infer
}  // namespace p3gm

#endif  // P3GM_INFER_PLAN_H_
