#include "obs/profile/heap.h"

#include <atomic>
#include <cstring>
#include <mutex>
#include <vector>

#include "obs/perf/alloc.h"

namespace p3gm {
namespace obs {
namespace profile {

namespace {

// One unique call stack. Claimed empty -> claiming -> published with a
// CAS + release store so concurrent hooks either see a fully written
// entry or probe past it; count/bytes accumulate with relaxed adds.
struct HeapEntry {
  std::atomic<std::uint32_t> state{0};  // 0 empty, 1 claiming, 2 live.
  std::uint64_t hash = 0;
  std::uint32_t depth = 0;
  std::uintptr_t pcs[kMaxStackDepth];
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> bytes{0};
};

constexpr int kProbeLimit = 16;

// Constant-initialized statics: the hook may fire for allocations made
// during static initialization, before any constructor runs.
HeapEntry g_table[kHeapTableSize];
std::atomic<std::uint64_t> g_stride{0};  // 0 = sampling off.
std::atomic<std::uint64_t> g_heap_samples{0};
std::atomic<std::uint64_t> g_heap_dropped{0};
thread_local std::int64_t t_countdown = 0;
thread_local bool t_in_hook = false;

std::mutex g_heap_lifecycle_mutex;

std::uint64_t HashStack(const std::uintptr_t* pcs, std::uint32_t depth) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a.
  for (std::uint32_t i = 0; i < depth; ++i) {
    h = (h ^ pcs[i]) * 1099511628211ull;
  }
  return h == 0 ? 1 : h;
}

void RecordHeapSample(const std::uintptr_t* pcs, std::uint32_t depth,
                      std::uint64_t attributed_bytes) {
  const std::uint64_t hash = HashStack(pcs, depth);
  std::size_t index = hash & (kHeapTableSize - 1);
  for (int probe = 0; probe < kProbeLimit; ++probe) {
    HeapEntry& entry = g_table[index];
    std::uint32_t state = entry.state.load(std::memory_order_acquire);
    if (state == 0) {
      std::uint32_t expected = 0;
      if (entry.state.compare_exchange_strong(expected, 1,
                                              std::memory_order_acquire)) {
        entry.hash = hash;
        entry.depth = depth;
        for (std::uint32_t i = 0; i < depth; ++i) entry.pcs[i] = pcs[i];
        entry.state.store(2, std::memory_order_release);
        state = 2;
      } else {
        state = expected;
      }
    }
    if (state == 2 && entry.hash == hash && entry.depth == depth &&
        std::memcmp(entry.pcs, pcs, depth * sizeof(pcs[0])) == 0) {
      entry.count.fetch_add(1, std::memory_order_relaxed);
      entry.bytes.fetch_add(attributed_bytes, std::memory_order_relaxed);
      g_heap_samples.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    // state == 1 (mid-claim by another thread) or a different stack:
    // linear-probe onward.
    index = (index + 1) & (kHeapTableSize - 1);
  }
  g_heap_dropped.fetch_add(1, std::memory_order_relaxed);
}

// Hook-internal and allocator frames on the leaf end carry no
// attribution value; stripping stops at the first application frame.
bool IsHeapInternalFrame(const std::string& name) {
  return name.find("obs::profile::") != std::string::npos ||
         name.find("obs::perf::") != std::string::npos ||
         name.find("operator_new") != std::string::npos;
}

}  // namespace

void HeapSampleHook(std::size_t size) {
  const std::uint64_t stride = g_stride.load(std::memory_order_relaxed);
  if (stride == 0 || t_in_hook) return;
  if (t_countdown == 0) t_countdown = static_cast<std::int64_t>(stride);
  t_countdown -= static_cast<std::int64_t>(size);
  if (t_countdown > 0) return;
  // Crossed one or more stride boundaries: attribute whole strides so
  // total attributed bytes track total allocated bytes in expectation.
  const std::uint64_t crossings =
      1 + static_cast<std::uint64_t>(-t_countdown) / stride;
  t_countdown += static_cast<std::int64_t>(crossings * stride);
  t_in_hook = true;  // backtrace/symbol machinery may itself allocate.
  std::uintptr_t pcs[kMaxStackDepth];
  const int depth = Backtrace(pcs);
  if (depth > 0) {
    RecordHeapSample(pcs, static_cast<std::uint32_t>(depth),
                     crossings * stride);
  } else {
    g_heap_dropped.fetch_add(1, std::memory_order_relaxed);
  }
  t_in_hook = false;
}

HeapProfiler& HeapProfiler::Global() {
  static HeapProfiler* global = new HeapProfiler();
  return *global;
}

bool HeapProfiler::running() const {
  return g_stride.load(std::memory_order_relaxed) != 0;
}

util::Status HeapProfiler::Start(const HeapProfileOptions& options) {
  if (!perf::AllocTrackingCompiledIn()) {
    return util::Status::Unimplemented(
        "HeapProfiler: requires -DP3GM_ALLOC_TRACKING=ON");
  }
  if (options.stride_bytes == 0) {
    return util::Status::InvalidArgument(
        "HeapProfiler: stride_bytes must be positive");
  }
  std::lock_guard<std::mutex> lock(g_heap_lifecycle_mutex);
  if (g_stride.load(std::memory_order_relaxed) != 0) {
    return util::Status::FailedPrecondition(
        "HeapProfiler: already running");
  }
  WarmUpBacktrace();  // Not inside some arbitrary caller's operator new.
  // stride == 0 means no hook can be mid-record, so a plain reset is
  // race-free.
  for (HeapEntry& entry : g_table) {
    entry.state.store(0, std::memory_order_relaxed);
    entry.count.store(0, std::memory_order_relaxed);
    entry.bytes.store(0, std::memory_order_relaxed);
  }
  g_heap_samples.store(0, std::memory_order_relaxed);
  g_heap_dropped.store(0, std::memory_order_relaxed);
  g_stride.store(options.stride_bytes, std::memory_order_release);
  return util::Status::OK();
}

void HeapProfiler::Stop() {
  std::lock_guard<std::mutex> lock(g_heap_lifecycle_mutex);
  g_stride.store(0, std::memory_order_release);
}

util::Result<HeapProfile> HeapProfiler::Snapshot() const {
  const std::uint64_t stride = g_stride.load(std::memory_order_relaxed);
  if (stride == 0) {
    return util::Status::FailedPrecondition(
        "HeapProfiler: not running");
  }
  HeapProfile profile;
  profile.stride_bytes = stride;
  profile.samples = g_heap_samples.load(std::memory_order_relaxed);
  profile.dropped = g_heap_dropped.load(std::memory_order_relaxed);

  RawStacks raw;
  for (const HeapEntry& entry : g_table) {
    if (entry.state.load(std::memory_order_acquire) != 2) continue;
    const std::uint64_t bytes =
        entry.bytes.load(std::memory_order_relaxed);
    if (bytes == 0) continue;
    raw[std::vector<std::uintptr_t>(entry.pcs, entry.pcs + entry.depth)] +=
        bytes;
    profile.sampled_bytes += bytes;
  }
  profile.folded = FoldStacks(raw, IsHeapInternalFrame);
  return profile;
}

}  // namespace profile
}  // namespace obs
}  // namespace p3gm
