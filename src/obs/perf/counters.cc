#include "obs/perf/counters.h"

#include <cstdlib>
#include <cstring>

#include "obs/observability.h"

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <sys/time.h>
#include <unistd.h>
#endif

namespace p3gm {
namespace obs {
namespace perf {

void PerfSample::Accumulate(const PerfSample& other) {
  // A region is "hardware-measured" only if every accumulated piece was.
  hw_available = hw_available && other.hw_available;
  cycles += other.cycles;
  instructions += other.instructions;
  cache_misses += other.cache_misses;
  branch_misses += other.branch_misses;
  wall_seconds += other.wall_seconds;
  user_seconds += other.user_seconds;
  sys_seconds += other.sys_seconds;
  minor_faults += other.minor_faults;
  major_faults += other.major_faults;
  if (other.max_rss_kb > max_rss_kb) max_rss_kb = other.max_rss_kb;
}

namespace {

bool ForceFallback() {
  const char* env = std::getenv("P3GM_PERF_NO_HW");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

#if defined(__linux__)

const std::uint64_t kHwConfigs[4] = {
    PERF_COUNT_HW_CPU_CYCLES, PERF_COUNT_HW_INSTRUCTIONS,
    PERF_COUNT_HW_CACHE_MISSES, PERF_COUNT_HW_BRANCH_MISSES};

int OpenHwCounter(std::uint64_t config, int group_fd) {
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof attr);
  attr.type = PERF_TYPE_HARDWARE;
  attr.size = sizeof attr;
  attr.config = config;
  attr.disabled = group_fd == -1 ? 1 : 0;  // Leader starts the group.
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  attr.read_format = PERF_FORMAT_GROUP;
  return static_cast<int>(syscall(__NR_perf_event_open, &attr, /*pid=*/0,
                                  /*cpu=*/-1, group_fd, /*flags=*/0UL));
}

// Opens the four-event group into fds[4]; all-or-nothing.
bool OpenHwGroup(int fds[4]) {
  for (int i = 0; i < 4; ++i) fds[i] = -1;
  for (int i = 0; i < 4; ++i) {
    fds[i] = OpenHwCounter(kHwConfigs[i], i == 0 ? -1 : fds[0]);
    if (fds[i] < 0) {
      for (int j = 0; j < i; ++j) close(fds[j]);
      fds[0] = -1;
      return false;
    }
  }
  return true;
}

void CloseHwGroup(int fds[4]) {
  for (int i = 0; i < 4; ++i) {
    if (fds[i] >= 0) close(fds[i]);
    fds[i] = -1;
  }
}

double TimevalSeconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

// One syscall probe per process; the environment override is layered on
// top per call so tests can flip it after the probe ran.
bool ProbeHwOnce() {
  static const bool available = [] {
    int fds[4];
    if (!OpenHwGroup(fds)) return false;
    CloseHwGroup(fds);
    return true;
  }();
  return available;
}

#endif  // defined(__linux__)

}  // namespace

bool HardwareCountersAvailable() {
#if defined(__linux__)
  return !ForceFallback() && ProbeHwOnce();
#else
  return false;
#endif
}

PerfCounters::PerfCounters() {
#if defined(__linux__)
  hw_ = HardwareCountersAvailable() && OpenHwGroup(fds_);
#endif
}

PerfCounters::~PerfCounters() {
#if defined(__linux__)
  if (hw_) CloseHwGroup(fds_);
#endif
}

void PerfCounters::Start() {
  start_ns_ = NowNs();
#if defined(__linux__)
  rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
    start_user_ = TimevalSeconds(ru.ru_utime);
    start_sys_ = TimevalSeconds(ru.ru_stime);
    start_minflt_ = static_cast<std::uint64_t>(ru.ru_minflt);
    start_majflt_ = static_cast<std::uint64_t>(ru.ru_majflt);
  }
  if (hw_) {
    ioctl(fds_[0], PERF_EVENT_IOC_RESET, PERF_IOC_FLAG_GROUP);
    ioctl(fds_[0], PERF_EVENT_IOC_ENABLE, PERF_IOC_FLAG_GROUP);
  }
#endif
}

PerfSample PerfCounters::Stop() {
  PerfSample s;
  s.wall_seconds = static_cast<double>(NowNs() - start_ns_) * 1e-9;
#if defined(__linux__)
  if (hw_) {
    ioctl(fds_[0], PERF_EVENT_IOC_DISABLE, PERF_IOC_FLAG_GROUP);
    // PERF_FORMAT_GROUP layout: nr, then one value per event in open
    // order.
    std::uint64_t buf[1 + 4] = {0};
    const ssize_t n = read(fds_[0], buf, sizeof buf);
    if (n == static_cast<ssize_t>(sizeof buf) && buf[0] == 4) {
      s.hw_available = true;
      s.cycles = buf[1];
      s.instructions = buf[2];
      s.cache_misses = buf[3];
      s.branch_misses = buf[4];
    }
  }
  rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
    s.user_seconds = TimevalSeconds(ru.ru_utime) - start_user_;
    s.sys_seconds = TimevalSeconds(ru.ru_stime) - start_sys_;
    s.minor_faults = static_cast<std::uint64_t>(ru.ru_minflt) - start_minflt_;
    s.major_faults = static_cast<std::uint64_t>(ru.ru_majflt) - start_majflt_;
    s.max_rss_kb = static_cast<std::uint64_t>(ru.ru_maxrss);
  }
#endif
  return s;
}

}  // namespace perf
}  // namespace obs
}  // namespace p3gm
