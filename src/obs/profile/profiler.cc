#include "obs/profile/profiler.h"

#include <signal.h>
#include <string.h>
#include <sys/time.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <mutex>
#include <new>
#include <vector>

#include "obs/event_ring.h"
#include "obs/observability.h"
#include "obs/registry.h"

namespace p3gm {
namespace obs {
namespace profile {

namespace {

// ---------------------------------------------------------------------
// Sampling state. Everything the SIGPROF handler touches is a
// constant-initialized atomic or pre-allocated memory: the handler
// performs no allocation, takes no lock and makes no syscall.
// ---------------------------------------------------------------------

// One sample: [0] depth, [1..depth] pcs, leaf first.
using SampleRing = EventRing<1 + kMaxStackDepth>;

// The first Start builds the ring here and it is never destroyed: a
// handler that fired just before a Stop (or process exit) may still
// hold it.
alignas(SampleRing) unsigned char g_ring_storage[sizeof(SampleRing)];
std::atomic<SampleRing*> g_ring{nullptr};

std::atomic<bool> g_collecting{false};
std::atomic<bool> g_use_frame_pointers{false};
std::atomic<std::uint64_t> g_walk_failures{0};

std::mutex g_lifecycle_mutex;  // Serializes Start/Stop (cold path).
bool g_handler_installed = false;
std::uint64_t g_start_ns = 0;
int g_hz = 0;

}  // namespace

// --- stack capture -----------------------------------------------------
// External linkage on purpose: CMAKE_ENABLE_EXPORTS puts these names in
// the dynamic table, so dladdr can recognize the handler's own frames at
// dump time and strip them off the leaf end of every sample (the
// "obs::profile::" test in IsProfilerInternalFrame below). In an
// anonymous namespace they would symbolize as bare hex and pollute the
// flamegraph.

// Frame-pointer walk: follows the saved-rbp chain from this frame
// upward. Only yields useful stacks in -fno-omit-frame-pointer builds
// (the sanitizer presets); the Start-time probe decides whether to
// trust it. Bounds checks keep a garbage chain from faulting the
// handler: each frame must move strictly upward, stay 8-byte aligned
// and advance less than 1 MiB per hop.
#if defined(__GNUC__)
__attribute__((noinline))
#endif
int ProfilerFramePointerWalk(std::uintptr_t* pcs) {
  int depth = 0;
  std::uintptr_t fp =
      reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
  while (depth < static_cast<int>(kMaxStackDepth)) {
    if (fp == 0 || (fp & 0x7) != 0) break;
    const std::uintptr_t* frame =
        reinterpret_cast<const std::uintptr_t*>(fp);
    const std::uintptr_t next_fp = frame[0];
    const std::uintptr_t ret = frame[1];
    if (ret < 0x1000) break;
    pcs[depth++] = ret;
    if (next_fp <= fp || next_fp - fp > (1u << 20)) break;
    fp = next_fp;
  }
  return depth;
}

// Captures the current stack, leaf-first. In backtrace mode the
// unwinder crosses the kernel signal frame (its unwind info is marked),
// so samples see the interrupted application stack, not just the
// handler; Start warms backtrace() up outside any handler.
int ProfilerCaptureStack(std::uintptr_t* pcs) {
  if (g_use_frame_pointers.load(std::memory_order_relaxed)) {
    return ProfilerFramePointerWalk(pcs);
  }
  return Backtrace(pcs);
}

void ProfilerHandleSample() {
  std::uintptr_t pcs[kMaxStackDepth];
  const int depth = ProfilerCaptureStack(pcs);
  if (depth <= 0) {
    g_walk_failures.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  std::uint64_t sample[1 + kMaxStackDepth];
  sample[0] = static_cast<std::uint64_t>(depth);
  std::copy(pcs, pcs + depth, sample + 1);
  g_ring.load(std::memory_order_acquire)->Append(sample, 1 + depth);
}

void ProfilerSignalHandler(int) {
  // Acquire pairs with Start's release store, which follows the ring's
  // construction.
  if (!g_collecting.load(std::memory_order_acquire)) return;
  const int saved_errno = errno;
  ProfilerHandleSample();
  errno = saved_errno;
}

namespace {

// Start-time probe: trust the frame-pointer walk only when it can see
// through a small noinline call chain in this build.
#if defined(__GNUC__)
__attribute__((noinline))
#endif
int ProbeDepth2(std::uintptr_t* pcs) {
  return ProfilerFramePointerWalk(pcs);
}
#if defined(__GNUC__)
__attribute__((noinline))
#endif
int ProbeDepth1(std::uintptr_t* pcs) { return ProbeDepth2(pcs); }

bool ProbeFramePointers() {
  std::uintptr_t pcs[kMaxStackDepth];
  return ProbeDepth1(pcs) >= 3;
}

// Profiler-internal frames captured below the interrupted pc (the
// handler itself plus the signal trampoline) are stripped at fold time
// so flamegraphs show only application stacks. Unlike the heap
// profiler's rule, operator new is kept: a sample landing there is real
// CPU signal.
bool IsProfilerInternalFrame(const std::string& name) {
  return name.find("obs::profile::") != std::string::npos ||
         name.find("__restore_rt") != std::string::npos ||
         name.find("killpg") != std::string::npos;
}

}  // namespace

bool UsingFramePointerWalk() {
  return g_use_frame_pointers.load(std::memory_order_relaxed);
}

CpuProfiler& CpuProfiler::Global() {
  static CpuProfiler* global = new CpuProfiler();
  return *global;
}

bool CpuProfiler::running() const {
  return g_collecting.load(std::memory_order_acquire);
}

std::uint64_t CpuProfiler::SamplesCaptured() const {
  const SampleRing* ring = g_ring.load(std::memory_order_acquire);
  return ring == nullptr ? 0 : ring->written();
}

util::Status CpuProfiler::Start(const CpuProfileOptions& options) {
  if (options.hz < 1 || options.hz > 1000) {
    return util::Status::InvalidArgument(
        "CpuProfiler: hz must be in [1, 1000]");
  }
  std::lock_guard<std::mutex> lock(g_lifecycle_mutex);
  if (g_collecting.load(std::memory_order_acquire)) {
    return util::Status::FailedPrecondition(
        "CpuProfiler: a profile is already running");
  }

  const bool frame_pointers = ProbeFramePointers();
  if (!WarmUpBacktrace() && !frame_pointers) {
    return util::Status::Unimplemented(
        "CpuProfiler: no usable stack walker on this platform");
  }
  g_use_frame_pointers.store(frame_pointers, std::memory_order_relaxed);

  SampleRing* ring = g_ring.load(std::memory_order_relaxed);
  if (ring == nullptr) {
    ring = new (g_ring_storage) SampleRing(kSampleRingCapacity);
    g_ring.store(ring, std::memory_order_release);
  }
  ring->Clear();
  g_walk_failures.store(0, std::memory_order_relaxed);
  g_hz = options.hz;
  g_start_ns = NowNs();

  // Installed once, never restored: the handler gates on g_collecting,
  // so a straggler SIGPROF after Stop is a no-op instead of a crash.
  if (!g_handler_installed) {
    struct sigaction action;
    ::memset(&action, 0, sizeof action);
    action.sa_handler = ProfilerSignalHandler;
    ::sigemptyset(&action.sa_mask);
    action.sa_flags = SA_RESTART;
    if (::sigaction(SIGPROF, &action, nullptr) != 0) {
      return util::Status::IoError("CpuProfiler: sigaction failed");
    }
    g_handler_installed = true;
  }
  g_collecting.store(true, std::memory_order_release);

  struct itimerval interval;
  ::memset(&interval, 0, sizeof interval);
  const long usec = std::max(1000000L / options.hz, 1L);
  interval.it_interval.tv_sec = usec / 1000000;
  interval.it_interval.tv_usec = usec % 1000000;
  interval.it_value = interval.it_interval;
  if (::setitimer(ITIMER_PROF, &interval, nullptr) != 0) {
    g_collecting.store(false, std::memory_order_release);
    return util::Status::IoError("CpuProfiler: setitimer failed");
  }
  return util::Status::OK();
}

util::Result<CpuProfile> CpuProfiler::Stop() {
  std::lock_guard<std::mutex> lock(g_lifecycle_mutex);
  if (!g_collecting.load(std::memory_order_acquire)) {
    return util::Status::FailedPrecondition(
        "CpuProfiler: no profile is running");
  }
  struct itimerval disarm;
  ::memset(&disarm, 0, sizeof disarm);
  ::setitimer(ITIMER_PROF, &disarm, nullptr);
  g_collecting.store(false, std::memory_order_release);
  // A tick delivered just before the disarm may still be executing its
  // handler on another thread; give it a moment to publish its sample
  // (the walk skips and counts it otherwise).
  struct timespec settle = {0, 2 * 1000 * 1000};
  ::nanosleep(&settle, nullptr);

  CpuProfile profile;
  profile.hz = g_hz;
  profile.duration_seconds =
      static_cast<double>(NowNs() - g_start_ns) * 1e-9;

  // Aggregate identical raw stacks first so each unique stack is
  // symbolized once.
  const SampleRing& ring = *g_ring.load(std::memory_order_acquire);
  RawStacks raw;
  const std::uint64_t skipped = ring.ForEach([&](const std::uint64_t* w) {
    raw[std::vector<std::uintptr_t>(w + 1, w + 1 + w[0])] += 1;
    ++profile.samples;
  });
  profile.dropped = g_walk_failures.load(std::memory_order_relaxed) +
                    ring.lost() + skipped;
  profile.folded = FoldStacks(raw, IsProfilerInternalFrame);

  Registry::Global().gauge("obs.profile.samples")
      ->Set(static_cast<double>(profile.samples));
  Registry::Global().gauge("obs.profile.dropped")
      ->Set(static_cast<double>(profile.dropped));
  return profile;
}

}  // namespace profile
}  // namespace obs
}  // namespace p3gm
