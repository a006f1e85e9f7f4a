#include "obs/profile/symbolize.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

#if __has_include(<execinfo.h>)
#include <execinfo.h>
#define P3GM_HAVE_EXECINFO 1
#else
#define P3GM_HAVE_EXECINFO 0
#endif

#if __has_include(<dlfcn.h>)
#include <dlfcn.h>
#define P3GM_HAVE_DLADDR 1
#else
#define P3GM_HAVE_DLADDR 0
#endif

#if __has_include(<cxxabi.h>)
#include <cxxabi.h>
#define P3GM_HAVE_CXA_DEMANGLE 1
#else
#define P3GM_HAVE_CXA_DEMANGLE 0
#endif

namespace p3gm {
namespace obs {
namespace profile {

namespace {

std::string HexPc(std::uintptr_t pc) {
  char buf[2 + 16 + 1];
  std::snprintf(buf, sizeof buf, "0x%llx",
                static_cast<unsigned long long>(pc));
  return buf;
}

// Folded-stack separators inside a frame name would corrupt the format;
// flamegraph.pl treats ';' as the frame separator and ' ' as the weight
// separator. Demangled names contain spaces ("operator()", template
// args), so both are rewritten.
std::string SanitizeFrame(std::string name) {
  for (char& c : name) {
    if (c == ';') c = ':';
    if (c == ' ' || c == '\n' || c == '\t') c = '_';
  }
  return name;
}

std::mutex g_cache_mutex;
std::map<std::uintptr_t, std::string>& Cache() {
  static auto* cache = new std::map<std::uintptr_t, std::string>();
  return *cache;
}

}  // namespace

bool WarmUpBacktrace() {
  std::uintptr_t pcs[kMaxStackDepth];
  return Backtrace(pcs) > 0;
}

int Backtrace(std::uintptr_t* pcs) {
#if P3GM_HAVE_EXECINFO
  void* frames[kMaxStackDepth];
  const int depth = ::backtrace(frames, static_cast<int>(kMaxStackDepth));
  for (int i = 0; i < depth; ++i) {
    pcs[i] = reinterpret_cast<std::uintptr_t>(frames[i]);
  }
  return depth;
#else
  (void)pcs;
  return 0;
#endif
}

bool WriteBacktrace(int fd) {
#if P3GM_HAVE_EXECINFO
  void* frames[kMaxStackDepth];
  ::backtrace_symbols_fd(
      frames, ::backtrace(frames, static_cast<int>(kMaxStackDepth)), fd);
  return true;
#else
  (void)fd;
  return false;
#endif
}

std::string Demangle(const char* name) {
  if (name == nullptr) return std::string();
#if P3GM_HAVE_CXA_DEMANGLE
  int status = 0;
  char* demangled =
      abi::__cxa_demangle(name, nullptr, nullptr, &status);
  if (status == 0 && demangled != nullptr) {
    std::string out(demangled);
    std::free(demangled);
    return out;
  }
  std::free(demangled);
#endif
  return name;
}

std::string SymbolizePc(std::uintptr_t pc) {
  {
    std::lock_guard<std::mutex> lock(g_cache_mutex);
    const auto it = Cache().find(pc);
    if (it != Cache().end()) return it->second;
  }
  std::string name;
#if P3GM_HAVE_DLADDR
  Dl_info info;
  std::memset(&info, 0, sizeof info);
  if (::dladdr(reinterpret_cast<void*>(pc), &info) != 0 &&
      info.dli_sname != nullptr) {
    name = SanitizeFrame(Demangle(info.dli_sname));
  }
#endif
  if (name.empty()) name = HexPc(pc);
  std::lock_guard<std::mutex> lock(g_cache_mutex);
  Cache().emplace(pc, name);
  return name;
}

std::string FoldStack(const std::uintptr_t* pcs, std::size_t depth) {
  std::string out;
  out.reserve(depth * 24);
  // Walkers store leaf-first; folded stacks read root-first. Frame 0 is
  // the interrupted pc, every outer frame is a return address.
  for (std::size_t i = depth; i-- > 0;) {
    const std::uintptr_t pc = i == 0 ? pcs[0] : AdjustReturnAddress(pcs[i]);
    if (!out.empty()) out += ';';
    out += SymbolizePc(pc);
  }
  return out;
}

std::string FoldedProfile::ToFoldedText() const {
  std::string out;
  for (const FoldedStack& fs : folded) {
    out += fs.stack;
    out += ' ';
    out += std::to_string(fs.weight);
    out += '\n';
  }
  return out;
}

std::vector<FoldedStack> FoldStacks(
    const RawStacks& raw, bool (*is_internal)(const std::string& frame)) {
  std::map<std::string, std::uint64_t> merged;
  for (const auto& [pcs, weight] : raw) {
    // Below the internal frames sits one frame that need not resolve:
    // the kernel's signal trampoline under the CPU handler, the
    // anonymous TrackedNew under the heap hook. A budget, not a scan:
    // any further unresolved frame is a real (static) caller.
    std::size_t begin = 0;
    int hex_budget = 1;
    while (begin < pcs.size()) {
      const std::string name = SymbolizePc(
          begin == 0 ? pcs[0] : AdjustReturnAddress(pcs[begin]));
      if (!is_internal(name)) {
        const bool hex = name.compare(0, 2, "0x") == 0;
        if (!(hex && begin > 0 && hex_budget-- > 0)) break;
      }
      ++begin;
    }
    if (begin >= pcs.size()) begin = 0;  // Keep rather than lose.
    merged[FoldStack(pcs.data() + begin, pcs.size() - begin)] += weight;
  }
  std::vector<FoldedStack> folded;
  folded.reserve(merged.size());
  for (auto& [stack, weight] : merged) {
    folded.push_back(FoldedStack{stack, weight});
  }
  std::sort(folded.begin(), folded.end(),
            [](const FoldedStack& a, const FoldedStack& b) {
              if (a.weight != b.weight) return a.weight > b.weight;
              return a.stack < b.stack;
            });
  return folded;
}

}  // namespace profile
}  // namespace obs
}  // namespace p3gm
