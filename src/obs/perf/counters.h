#ifndef P3GM_OBS_PERF_COUNTERS_H_
#define P3GM_OBS_PERF_COUNTERS_H_

#include <cstdint>

namespace p3gm {
namespace obs {
namespace perf {

/// Hardware/software cost sample for a measured region. Two tiers:
///
///  * Hardware tier — cycles / instructions / cache-misses /
///    branch-misses via perf_event_open, when the kernel grants access
///    (bare metal, perf_event_paranoid permitting). `hw_available` says
///    whether these four fields carry data.
///  * Portable tier — always filled: wall time (steady clock),
///    user/system CPU time and fault counts (getrusage deltas), and the
///    process peak RSS at sample end. This is the tier containers and CI
///    run on; the BENCH schema marks the hardware fields unavailable
///    rather than fabricating them.
struct PerfSample {
  bool hw_available = false;
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t branch_misses = 0;

  double wall_seconds = 0.0;
  double user_seconds = 0.0;
  double sys_seconds = 0.0;
  std::uint64_t minor_faults = 0;
  std::uint64_t major_faults = 0;
  std::uint64_t max_rss_kb = 0;  // Process high-water mark, not a delta.

  /// Field-wise accumulation (wall/CPU/fault deltas add; max_rss and
  /// hw_available combine as max/and). Used to aggregate repetitions.
  void Accumulate(const PerfSample& other);
};

/// True when the hardware tier works in this process: a probe
/// perf_event_open succeeds and P3GM_PERF_NO_HW is not set. The syscall
/// probe runs once per process; the environment override is re-read on
/// every call so tests can force the fallback path.
bool HardwareCountersAvailable();

/// Start/Stop sampler around a measured region. Usable whether or not
/// the hardware tier is available — Stop() always returns a valid
/// portable-tier sample. Not reentrant; one in-flight measurement per
/// instance.
class PerfCounters {
 public:
  PerfCounters();
  ~PerfCounters();
  PerfCounters(const PerfCounters&) = delete;
  PerfCounters& operator=(const PerfCounters&) = delete;

  void Start();
  PerfSample Stop();

 private:
  // Group fds in event order cycles/instructions/cache/branch; -1 when
  // the hardware tier is off.
  int fds_[4] = {-1, -1, -1, -1};
  bool hw_ = false;
  std::uint64_t start_ns_ = 0;
  double start_user_ = 0.0;
  double start_sys_ = 0.0;
  std::uint64_t start_minflt_ = 0;
  std::uint64_t start_majflt_ = 0;
};

}  // namespace perf
}  // namespace obs
}  // namespace p3gm

#endif  // P3GM_OBS_PERF_COUNTERS_H_
