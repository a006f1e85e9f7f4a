#ifndef P3GM_OBS_PROFILE_PROFILER_H_
#define P3GM_OBS_PROFILE_PROFILER_H_

#include <cstddef>
#include <cstdint>

#include "obs/profile/symbolize.h"
#include "util/result.h"

namespace p3gm {
namespace obs {
namespace profile {

/// In-process sampling CPU profiler (docs/observability.md "Profiling").
///
/// A SIGPROF interval timer (setitimer(ITIMER_PROF)) fires at `hz` per
/// second of consumed process CPU time; the kernel delivers each tick to
/// a thread that is currently running, so samples are CPU-weighted
/// across threads for free. The handler captures a raw program-counter
/// stack and appends it to one obs::EventRing that every thread shares
/// — zero locks, zero allocation, zero syscalls on the sampling path.
/// The first Start allocates the ring (kSampleRingCapacity samples);
/// a full ring overwrites its oldest samples and counts them as dropped.
///
/// Symbolization (dladdr + demangling) happens exclusively at collection
/// time, never in the handler. The collected profile renders as folded
/// stacks — `frame;frame;...;leaf <count>` — the format flamegraph.pl
/// and the existing tools/trace_to_folded pipeline consume.
///
/// Like the flight recorder, the profiler is NOT gated on
/// obs::Enabled(): it is strictly passive (never feeds a computation,
/// never consumes util::Rng), so it is available even in
/// -DP3GM_OBSERVABILITY=OFF builds; only the obs.profile.* registry
/// gauges become no-ops there.

/// Samples the shared ring holds before the oldest is overwritten: at
/// the default 99 Hz, 41 s of four saturated cores.
constexpr std::size_t kSampleRingCapacity = 4 * 4096;

struct CpuProfileOptions {
  /// Samples per second of CPU time, [1, 1000]. 99 (not 100) keeps the
  /// sampler out of lockstep with 10ms-periodic application timers.
  int hz = 99;
};

/// A finished CPU profile; `folded` weights are sample counts.
struct CpuProfile : FoldedProfile {
  std::uint64_t samples = 0;  // In `folded`: the weights sum to this.
  std::uint64_t dropped = 0;  // Lost to a failed stack walk, ring wrap
                              // or a record still being written.
                              // samples + dropped = timer ticks.
  double duration_seconds = 0.0;  // Wall time Start -> Stop.
  int hz = 0;
};

/// The process-wide sampling profiler. One profile at a time: Start
/// while running fails with FailedPrecondition (the serve endpoint maps
/// this to 503). Thread-safe; Start/Stop may be called from any thread.
class CpuProfiler {
 public:
  static CpuProfiler& Global();

  /// Validates options, arms the SIGPROF timer and begins sampling.
  /// FailedPrecondition when a profile is already running,
  /// InvalidArgument on out-of-range options, Unavailable when the
  /// platform lacks both stack walkers.
  util::Status Start(const CpuProfileOptions& options);

  bool running() const;

  /// Disarms the timer, walks the ring, symbolizes at dump time and
  /// returns the aggregated profile. Also publishes the final
  /// obs.profile.samples / obs.profile.dropped registry gauges.
  /// FailedPrecondition when no profile is running.
  util::Result<CpuProfile> Stop();

  /// Stacks appended to the ring since the last Start (0 before any).
  std::uint64_t SamplesCaptured() const;

 private:
  CpuProfiler() = default;
};

/// True when the signal handler walks frame pointers; false when it
/// uses the pre-warmed backtrace() unwinder. Decided once per Start by
/// probing whether this build carries usable frame pointers. Exposed
/// for tests and the runinfo line.
bool UsingFramePointerWalk();

}  // namespace profile
}  // namespace obs
}  // namespace p3gm

#endif  // P3GM_OBS_PROFILE_PROFILER_H_
