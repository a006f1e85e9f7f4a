#ifndef P3GM_OBS_PROFILE_HEAP_H_
#define P3GM_OBS_PROFILE_HEAP_H_

#include <cstddef>
#include <cstdint>

#include "obs/profile/symbolize.h"
#include "util/result.h"

namespace p3gm {
namespace obs {
namespace profile {

/// Sampled heap profiler: stack-attributed allocation sampling layered
/// on the P3GM_ALLOC_TRACKING operator-new hooks (obs/perf/alloc.h).
///
/// Sampling is a deterministic byte stride, not a Poisson draw: each
/// thread counts allocated bytes down from `stride_bytes` and captures
/// one stack every time the counter crosses zero, attributing
/// `crossings * stride_bytes` to that stack. Identical runs produce
/// identical profiles (per thread), and the profiler consumes no
/// randomness — it can never perturb util::Rng streams.
///
/// The hook path is allocation-free: samples land in a fixed
/// CAS-claimed hash table of pre-sized entries, collisions and table
/// overflow are counted as drops, and a thread-local guard makes the
/// hook re-entrancy safe (a sampled allocation inside the hook itself
/// is ignored). Requires -DP3GM_ALLOC_TRACKING=ON; Start reports
/// Unimplemented when the hooks are compiled out.

/// Fixed capacity of the sample table (entries, power of two). Each
/// entry is one unique call stack; typical processes populate a few
/// dozen.
constexpr std::size_t kHeapTableSize = 1024;

struct HeapProfileOptions {
  /// Bytes between samples per thread. Smaller = finer attribution,
  /// more hook work. The default samples every 512 KiB, which keeps the
  /// steady-state cost well under the 2% bench gate.
  std::uint64_t stride_bytes = 512 * 1024;
};

/// A snapshot of attributed allocation stacks. Weights are bytes, so
/// the folded text renders as a bytes-flamegraph.
struct HeapProfile : FoldedProfile {
  std::uint64_t samples = 0;        // Stack captures that landed.
  std::uint64_t dropped = 0;        // Lost to table collisions/overflow.
  std::uint64_t sampled_bytes = 0;  // Total attributed bytes.
  std::uint64_t stride_bytes = 0;
};

/// Process-wide sampled heap profiler. Start enables the hook; the
/// profile accumulates until Stop. Snapshot may be taken while running.
class HeapProfiler {
 public:
  static HeapProfiler& Global();

  /// Resets the table and enables sampling. FailedPrecondition when
  /// already running, Unimplemented when P3GM_ALLOC_TRACKING is
  /// compiled out, InvalidArgument for a zero stride.
  util::Status Start(const HeapProfileOptions& options);

  bool running() const;

  /// Aggregates and symbolizes the table without stopping sampling.
  /// FailedPrecondition when not running.
  util::Result<HeapProfile> Snapshot() const;

  /// Disables sampling. The table keeps its contents until the next
  /// Start, so a final Snapshot-after-Stop pattern needs Snapshot first.
  void Stop();

 private:
  HeapProfiler() = default;
};

/// The sampling hook. Called by the alloc-tracking operator-new wrapper
/// for every allocation with its usable size; a single relaxed load
/// when sampling is off. Not for direct use elsewhere.
void HeapSampleHook(std::size_t size);

}  // namespace profile
}  // namespace obs
}  // namespace p3gm

#endif  // P3GM_OBS_PROFILE_HEAP_H_
