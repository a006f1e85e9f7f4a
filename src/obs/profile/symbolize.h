#ifndef P3GM_OBS_PROFILE_SYMBOLIZE_H_
#define P3GM_OBS_PROFILE_SYMBOLIZE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace p3gm {
namespace obs {
namespace profile {

/// Stack capture, symbolization and folding shared by the CPU and heap
/// profilers; the flight recorder's crash dump uses the capture too.

/// Frames kept per captured stack.
constexpr std::size_t kMaxStackDepth = 64;

/// backtrace()'s first call may dlopen libgcc, which is not
/// async-signal-safe: every user takes it here, in normal context,
/// before a signal handler or allocation hook may capture. Returns false
/// when this platform has no backtrace().
bool WarmUpBacktrace();

/// Fills `pcs` (room for kMaxStackDepth) with the calling thread's
/// return addresses, leaf first, via backtrace(); returns the depth, 0
/// when unavailable. Its own frame is the leaf; the profilers' strip
/// rules drop it along with every other obs::profile:: frame.
int Backtrace(std::uintptr_t* pcs);

/// backtrace_symbols_fd of the calling thread's stack to `fd`;
/// async-signal-safe after WarmUpBacktrace. False when unavailable.
bool WriteBacktrace(int fd);

/// Symbolization below runs at dump time only, never in a signal
/// handler: it allocates freely and caches results.
///
/// Resolution goes through dladdr, so function names are only available
/// for symbols in the dynamic table; the build exports executable
/// symbols (CMAKE_ENABLE_EXPORTS / -rdynamic) precisely so the repo's
/// own hot paths — infer::DecoderPlan::Execute, the serve batcher —
/// show up by name. Unresolvable counters render as "0x<hex>".

/// Demangles an Itanium-ABI mangled name; returns `name` unchanged when
/// it is not mangled (or demangling fails).
std::string Demangle(const char* name);

/// "qualified::function" for the instruction at `pc`, or "0x<hex>".
/// Results are cached process-wide (the cache is never invalidated;
/// code does not move). `pc` should already be adjusted for
/// return-address semantics by the caller (see AdjustReturnAddress).
std::string SymbolizePc(std::uintptr_t pc);

/// Return addresses point one past the call; subtract one byte so the
/// lookup lands inside the calling function even when the call is its
/// final instruction. The leaf frame (an interrupted pc, not a return
/// address) must NOT be adjusted.
inline std::uintptr_t AdjustReturnAddress(std::uintptr_t pc) {
  return pc > 0 ? pc - 1 : pc;
}

/// Renders a leaf-first pc stack (what the stack walkers produce) as a
/// root-first folded stack string "outer;inner;leaf". Frames that
/// symbolize to the same name as their immediate parent are kept —
/// recursion is real signal in a flamegraph.
std::string FoldStack(const std::uintptr_t* pcs, std::size_t depth);

/// One aggregated, symbolized stack with its weight.
struct FoldedStack {
  std::string stack;  // "outer;inner;leaf" — root frame first.
  std::uint64_t weight = 0;
};

/// What both profilers return: folded stacks, heaviest first.
struct FoldedProfile {
  std::vector<FoldedStack> folded;

  /// Folded-stack text: one "stack <weight>" line per entry, the exact
  /// shape `tools/trace_to_folded` emits and flamegraph.pl consumes.
  std::string ToFoldedText() const;
};

/// Leaf-first raw stacks and their weights (samples or bytes).
using RawStacks = std::map<std::vector<std::uintptr_t>, std::uint64_t>;

/// Strips the profiler's own frames off the leaf end of every stack —
/// the frames `is_internal` accepts plus at most one unresolvable frame
/// among them, never the leaf itself and never the whole stack —
/// symbolizes the rest, merges stacks that fold to the same text, and
/// sorts by descending weight, then by stack.
std::vector<FoldedStack> FoldStacks(
    const RawStacks& raw, bool (*is_internal)(const std::string& frame));

}  // namespace profile
}  // namespace obs
}  // namespace p3gm

#endif  // P3GM_OBS_PROFILE_SYMBOLIZE_H_
