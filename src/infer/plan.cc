#include "infer/plan.h"

#include <algorithm>
#include <atomic>
#include <string>

#include "obs/registry.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace p3gm {
namespace infer {

namespace {

// Row grain for the batch-level ParallelFor. Matches the reference
// gemm's row grain (linalg::kGemmRowGrain) so thread-count invariance
// holds under the same contract: every worker owns a disjoint block of
// rows and each row's arithmetic is fully sequential.
constexpr std::size_t kRowGrain = 8;

// Interior row-block size within one worker's range. The kernels sweep
// every output panel per call, re-reading the input block (or its
// gathered sparse form) once per panel, while the packed weight panels
// stream from cache once per block — so larger blocks amortize the
// panel streams and smaller blocks keep the per-panel re-read hot.
// 128 rows measured best on the serving-size decode (64 gives up ~3%
// to panel re-streaming, 256 pushes the sparse entry stream out of
// L2). Any chunking yields identical bits — rows are independent end
// to end.
constexpr std::size_t kRowBlock = 128;

// High-water mark across every thread's arena, mirrored to the
// infer.arena.bytes gauge.
std::atomic<std::size_t> g_arena_high_water{0};

void NoteArenaBytes(std::size_t bytes) {
  std::size_t prev = g_arena_high_water.load(std::memory_order_relaxed);
  while (bytes > prev &&
         !g_arena_high_water.compare_exchange_weak(
             prev, bytes, std::memory_order_relaxed)) {
  }
  if (bytes >= prev) {
    static obs::Gauge* arena_bytes =
        obs::Registry::Global().gauge("infer.arena.bytes");
    arena_bytes->Set(static_cast<double>(
        g_arena_high_water.load(std::memory_order_relaxed)));
  }
}

}  // namespace

util::Result<DecoderPlan> DecoderPlan::Compile(
    const std::vector<LayerSpec>& specs) {
  if (specs.empty()) {
    return util::Status::InvalidArgument(
        "DecoderPlan::Compile: empty layer list");
  }
  for (std::size_t l = 0; l < specs.size(); ++l) {
    const LayerSpec& s = specs[l];
    if (s.weight == nullptr || s.bias == nullptr) {
      return util::Status::InvalidArgument(
          "DecoderPlan::Compile: null weight/bias in layer " +
          std::to_string(l));
    }
    if (s.weight->rows() == 0 || s.weight->cols() == 0) {
      return util::Status::InvalidArgument(
          "DecoderPlan::Compile: layer " + std::to_string(l) +
          " has a zero dimension (" + std::to_string(s.weight->rows()) + "x" +
          std::to_string(s.weight->cols()) + ")");
    }
    if (s.bias->rows() != 1 || s.bias->cols() != s.weight->cols()) {
      return util::Status::InvalidArgument(
          "DecoderPlan::Compile: layer " + std::to_string(l) +
          " bias shape " + std::to_string(s.bias->rows()) + "x" +
          std::to_string(s.bias->cols()) + " does not match weight cols " +
          std::to_string(s.weight->cols()));
    }
    if (l > 0 && s.weight->rows() != specs[l - 1].weight->cols()) {
      return util::Status::InvalidArgument(
          "DecoderPlan::Compile: layer " + std::to_string(l) + " expects " +
          std::to_string(s.weight->rows()) + " inputs but layer " +
          std::to_string(l - 1) + " produces " +
          std::to_string(specs[l - 1].weight->cols()));
    }
  }

  DecoderPlan plan;
  plan.input_dim_ = specs.front().weight->rows();
  plan.output_dim_ = specs.back().weight->cols();
  plan.layers_.reserve(specs.size());
  for (std::size_t l = 0; l < specs.size(); ++l) {
    plan.layers_.push_back(
        PackLayer(*specs[l].weight, *specs[l].bias, specs[l].act));
    // Only intermediate outputs live in the arena; the final layer
    // writes straight into the caller's buffer.
    if (l + 1 < specs.size()) {
      const std::size_t slot = l % 2;
      plan.slot_width_[slot] =
          std::max(plan.slot_width_[slot], plan.layers_[l].padded_out);
    }
  }

  static obs::Counter* compiled =
      obs::Registry::Global().counter("infer.plan.compiled");
  compiled->Add();
  return plan;
}

std::size_t DecoderPlan::ArenaDoublesFor(std::size_t rows) const {
  // Two ping-pong intermediate slots plus the final layer's accumulator
  // (skipped at run time when the caller's buffer is dense and
  // panel-aligned, but always reserved so the layout is static).
  return rows *
         (slot_width_[0] + slot_width_[1] + layers_.back().padded_out);
}

util::Status DecoderPlan::ExecuteRaw(const double* in, std::size_t in_stride,
                                     std::size_t rows, double* out,
                                     std::size_t out_stride,
                                     Arena* arena) const {
  if (rows == 0) return util::Status::OK();
  P3GM_CHECK(in != nullptr && out != nullptr && arena != nullptr);
  if (in_stride < input_dim_ || out_stride < output_dim_) {
    return util::Status::InvalidArgument(
        "DecoderPlan::ExecuteRaw: stride smaller than layer width");
  }
  // The kernels accumulate into their destination, so input and output
  // aliasing silently corrupts the pass — make it loud instead.
  {
    const double* in_end = in + (rows - 1) * in_stride + input_dim_;
    const double* out_end = out + (rows - 1) * out_stride + output_dim_;
    P3GM_CHECK_MSG(out_end <= in || in_end <= out,
                   "DecoderPlan::ExecuteRaw: input and output buffers alias");
  }

  double* const slot0 = arena->Reserve(ArenaDoublesFor(rows));
  double* const slot1 = slot0 + rows * slot_width_[0];
  double* const slots[2] = {slot0, slot1};
  double* const final_scratch = slot1 + rows * slot_width_[1];
  NoteArenaBytes(arena->capacity_bytes());

  // Resolve the tier once so every row block of this pass — and every
  // layer — uses the same kernel even if the environment flips mid-call.
  const KernelTier tier = ActiveTier();

  static obs::Counter* plan_hits =
      obs::Registry::Global().counter("infer.plan.hits");
  static obs::Counter* rows_decoded =
      obs::Registry::Global().counter("infer.rows.decoded");
  static obs::Gauge* tier_gauge =
      obs::Registry::Global().gauge("infer.dispatch.tier");
  plan_hits->Add();
  rows_decoded->Add(rows);
  tier_gauge->Set(tier == KernelTier::kAvx2 ? 1.0 : 0.0);

  const std::size_t num_layers = layers_.size();
  // Rows are independent end-to-end, so each worker threads its block
  // through the whole layer chain: no inter-layer barrier and the
  // block's intermediates stay cache-warm. Slots are indexed by
  // absolute row, so blocks touch disjoint slices of the arena.
  util::ParallelFor(0, rows, kRowGrain, [&](std::size_t wb, std::size_t we) {
    for (std::size_t rb = wb; rb < we; rb += kRowBlock) {
      const std::size_t re = std::min(we, rb + kRowBlock);
      const std::size_t n = re - rb;
      const double* src = in + rb * in_stride;
      std::size_t src_stride = in_stride;
      for (std::size_t l = 0; l < num_layers; ++l) {
        const PackedLayer& layer = layers_[l];
        if (l + 1 == num_layers) {
          // Final layer: the fused epilogue writes the caller's buffer.
          // When that buffer is dense and panel-aligned it doubles as the
          // accumulator (RunFusedLayer allows dst == scratch); otherwise
          // the dedicated arena region accumulates the padded panels and
          // the epilogue copies out the valid columns.
          double* dst = out + rb * out_stride;
          const bool in_place =
              layer.padded_out == layer.out && out_stride == layer.out;
          double* scratch =
              in_place ? dst : final_scratch + rb * layer.padded_out;
          const std::size_t c_stride =
              in_place ? out_stride : layer.padded_out;
          RunFusedLayer(tier, src, src_stride, n, layer, scratch, c_stride,
                        dst, out_stride);
        } else {
          const std::size_t slot = l % 2;
          double* scratch = slots[slot] + rb * slot_width_[slot];
          RunFusedLayer(tier, src, src_stride, n, layer, scratch,
                        slot_width_[slot], scratch, slot_width_[slot]);
          src = scratch;
          src_stride = slot_width_[slot];
        }
      }
    }
  });
  return util::Status::OK();
}

util::Status DecoderPlan::Execute(const linalg::Matrix& input,
                                  linalg::Matrix* out) const {
  P3GM_CHECK(out != nullptr);
  if (input.cols() != input_dim_) {
    return util::Status::InvalidArgument(
        "DecoderPlan::Execute: input has " + std::to_string(input.cols()) +
        " columns, plan expects " + std::to_string(input_dim_));
  }
  if (out->rows() != input.rows() || out->cols() != output_dim_) {
    *out = linalg::Matrix(input.rows(), output_dim_);
  }
  if (input.rows() == 0) return util::Status::OK();
  // One arena per thread: grows to the steady-state batch size and then
  // every subsequent batch is allocation-free.
  static thread_local Arena arena;
  return ExecuteRaw(input.data(), input.cols(), input.rows(), out->data(),
                    out->cols(), &arena);
}

}  // namespace infer
}  // namespace p3gm
