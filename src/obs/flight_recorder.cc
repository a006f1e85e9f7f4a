#include "obs/flight_recorder.h"

#include <fcntl.h>
#include <signal.h>
#include <string.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>

#include "obs/observability.h"
#include "obs/profile/symbolize.h"

namespace p3gm {
namespace obs {

namespace {

thread_local void* t_ring = nullptr;

// --- async-signal-safe formatting: write(2) + stack buffers only ---

void WriteRaw(int fd, const char* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::write(fd, data, len);
    if (n <= 0) return;  // Best effort; we may be mid-crash.
    data += n;
    len -= static_cast<std::size_t>(n);
  }
}

void WriteStr(int fd, const char* s) { WriteRaw(fd, s, ::strlen(s)); }

void WriteU64(int fd, std::uint64_t v) {
  char buf[24];
  char* p = buf + sizeof buf;
  do {
    *--p = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  WriteRaw(fd, p, static_cast<std::size_t>(buf + sizeof buf - p));
}

void WriteHex16(int fd, std::uint64_t v) {
  static const char* kHex = "0123456789abcdef";
  char buf[16];
  for (int i = 15; i >= 0; --i) {
    buf[i] = kHex[v & 0xf];
    v >>= 4;
  }
  WriteRaw(fd, buf, sizeof buf);
}

// Prints the 16 message-prefix bytes packed into (a, b), with
// non-printable bytes as '.'; stops at the first NUL.
void WritePackedText(int fd, std::uint64_t a, std::uint64_t b) {
  char buf[16];
  std::size_t len = 0;
  const std::uint64_t words[2] = {a, b};
  for (int w = 0; w < 2; ++w) {
    for (int i = 0; i < 8; ++i) {
      const char c = static_cast<char>((words[w] >> (8 * i)) & 0xff);
      if (c == '\0') {
        WriteRaw(fd, buf, len);
        return;
      }
      buf[len++] = (c >= 0x20 && c < 0x7f) ? c : '.';
    }
  }
  WriteRaw(fd, buf, len);
}

const char* KindName(FlightRecorder::EventKind kind) {
  switch (kind) {
    case FlightRecorder::EventKind::kLog:
      return "log";
    case FlightRecorder::EventKind::kQueueDepth:
      return "queue";
    case FlightRecorder::EventKind::kRequest:
      return "request";
  }
  return "?";
}

// --- signal handlers ---

char g_dump_path[512] = {0};
std::atomic<bool> g_in_fatal_handler{false};

void DumpWithBacktrace(int fd, int signo) {
  FlightRecorder::Global().DumpToFd(fd);
  WriteStr(fd, "signal ");
  WriteU64(fd, static_cast<std::uint64_t>(signo));
  WriteStr(fd, "\nbacktrace:\n");
  if (!profile::WriteBacktrace(fd)) {
    WriteStr(fd, "  (unavailable on this platform)\n");
  }
}

int OpenDumpFile() {
  if (g_dump_path[0] == '\0') return -1;
  return ::open(g_dump_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
}

void QuitHandler(int signo) {
  const int saved_errno = errno;
  const int fd = OpenDumpFile();
  if (fd >= 0) {
    DumpWithBacktrace(fd, signo);
    ::close(fd);
  }
  errno = saved_errno;  // Dump-and-continue: don't perturb the thread.
}

void FatalHandler(int signo) {
  // A crash inside the handler (or a second crashing thread) must not
  // recurse forever; the first one in wins and the rest die immediately.
  if (!g_in_fatal_handler.exchange(true)) {
    const int fd = OpenDumpFile();
    if (fd >= 0) {
      DumpWithBacktrace(fd, signo);
      ::close(fd);
    }
    DumpWithBacktrace(STDERR_FILENO, signo);
  }
  ::signal(signo, SIG_DFL);
  ::raise(signo);
}

}  // namespace

FlightRecorder::FlightRecorder() {
  for (auto& slot : rings_) slot.store(nullptr, std::memory_order_relaxed);
  const char* env = std::getenv("P3GM_FLIGHT_RECORDER");
  if (env != nullptr &&
      (::strcmp(env, "0") == 0 || ::strcmp(env, "off") == 0 ||
       ::strcmp(env, "false") == 0)) {
    enabled_.store(false, std::memory_order_relaxed);
  }
}

FlightRecorder& FlightRecorder::Global() {
  static FlightRecorder* global = new FlightRecorder();
  return *global;
}

FlightRecorder::Ring* FlightRecorder::RingForThisThread() {
  if (t_ring == nullptr) {
    const int index = ring_count_.fetch_add(1, std::memory_order_relaxed);
    if (index >= kMaxRings) return nullptr;  // Thread #257+: unrecorded.
    // Leaked: crash handlers walk rings forever.
    auto* ring =
        new Ring(capacity_per_thread_.load(std::memory_order_relaxed));
    rings_[index].store(ring, std::memory_order_release);
    t_ring = ring;
  }
  return static_cast<Ring*>(t_ring);
}

void FlightRecorder::Record(EventKind kind, const char* label,
                            std::uint64_t a, std::uint64_t b) {
  if (!enabled_.load(std::memory_order_relaxed)) return;
  Ring* ring = RingForThisThread();
  if (ring == nullptr) return;
  const std::uint64_t event[5] = {
      NowNs(), reinterpret_cast<std::uintptr_t>(label), a, b,
      static_cast<std::uint64_t>(kind)};
  ring->Append(event, 5);
}

void FlightRecorder::RecordLog(const char* level_label, const char* message,
                               std::size_t message_len) {
  std::uint64_t packed[2] = {0, 0};
  if (message_len > 16) message_len = 16;
  ::memcpy(packed, message, message_len);
  Record(EventKind::kLog, level_label, packed[0], packed[1]);
}

std::uint64_t FlightRecorder::RecordedCount() const {
  std::uint64_t total = 0;
  const int count = ring_count_.load(std::memory_order_relaxed);
  for (int i = 0; i < count && i < kMaxRings; ++i) {
    const Ring* ring = rings_[i].load(std::memory_order_acquire);
    if (ring != nullptr) total += ring->written();
  }
  return total;
}

std::uint64_t FlightRecorder::OverwrittenCount() const {
  std::uint64_t total = 0;
  const int count = ring_count_.load(std::memory_order_relaxed);
  for (int i = 0; i < count && i < kMaxRings; ++i) {
    const Ring* ring = rings_[i].load(std::memory_order_acquire);
    if (ring != nullptr) total += ring->lost();
  }
  return total;
}

void FlightRecorder::DumpToFd(int fd) const {
  WriteStr(fd, "=== p3gm flight recorder ===\nrecorded ");
  WriteU64(fd, RecordedCount());
  WriteStr(fd, " overwritten ");
  WriteU64(fd, OverwrittenCount());
  WriteStr(fd, "\n");
  const int count = ring_count_.load(std::memory_order_relaxed);
  for (int i = 0; i < count && i < kMaxRings; ++i) {
    const Ring* ring = rings_[i].load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    WriteStr(fd, "-- thread ");
    WriteU64(fd, static_cast<std::uint64_t>(i));
    WriteStr(fd, " events ");
    WriteU64(fd, std::min<std::uint64_t>(ring->written(), ring->capacity()));
    WriteStr(fd, "\n");
    ring->ForEach([fd](const std::uint64_t* w) {
      const auto* label = reinterpret_cast<const char*>(
          static_cast<std::uintptr_t>(w[1]));
      const std::uint64_t a = w[2];
      const std::uint64_t b = w[3];
      const auto kind = static_cast<EventKind>(w[4]);
      WriteStr(fd, "[");
      WriteU64(fd, w[0]);
      WriteStr(fd, "] ");
      WriteStr(fd, KindName(kind));
      WriteStr(fd, " ");
      WriteStr(fd, label != nullptr ? label : "(null)");
      if (kind == EventKind::kLog) {
        WriteStr(fd, " \"");
        WritePackedText(fd, a, b);
        WriteStr(fd, "\"");
      } else {
        WriteStr(fd, " a=");
        if (kind == EventKind::kQueueDepth) {
          WriteU64(fd, a);
        } else {
          WriteHex16(fd, a);
        }
        WriteStr(fd, " b=");
        WriteHex16(fd, b);
      }
      WriteStr(fd, "\n");
    });
  }
  WriteStr(fd, "=== end flight recorder ===\n");
}

bool FlightRecorder::DumpToFile(const char* path) const {
  const int fd = ::open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  DumpToFd(fd);
  ::close(fd);
  return true;
}

void FlightRecorder::SetCapacityPerThread(std::size_t capacity) {
  capacity_per_thread_.store(std::max<std::size_t>(capacity, 16),
                             std::memory_order_relaxed);
}

void InstallFlightDumpHandlers(const std::string& path) {
  ::strncpy(g_dump_path, path.c_str(), sizeof g_dump_path - 1);
  g_dump_path[sizeof g_dump_path - 1] = '\0';
  profile::WarmUpBacktrace();
  struct sigaction quit_action;
  ::memset(&quit_action, 0, sizeof quit_action);
  quit_action.sa_handler = QuitHandler;
  ::sigemptyset(&quit_action.sa_mask);
  quit_action.sa_flags = SA_RESTART;
  ::sigaction(SIGQUIT, &quit_action, nullptr);

  struct sigaction fatal_action;
  ::memset(&fatal_action, 0, sizeof fatal_action);
  fatal_action.sa_handler = FatalHandler;
  ::sigemptyset(&fatal_action.sa_mask);
  fatal_action.sa_flags = 0;
  ::sigaction(SIGSEGV, &fatal_action, nullptr);
  ::sigaction(SIGABRT, &fatal_action, nullptr);
  ::sigaction(SIGBUS, &fatal_action, nullptr);
}

const char* FlightDumpPath() { return g_dump_path; }

}  // namespace obs
}  // namespace p3gm
