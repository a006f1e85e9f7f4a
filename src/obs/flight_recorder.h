#ifndef P3GM_OBS_FLIGHT_RECORDER_H_
#define P3GM_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

#include "obs/event_ring.h"

namespace p3gm {
namespace obs {

/// Black-box flight recorder: a fixed-size per-thread ring buffer of
/// recent structured events (log records, queue-depth transitions,
/// request lifecycle) that keeps recording even when tracing is disabled,
/// so there is always a record of the last moments before a crash or
/// stall. One ring per thread keeps a thread that records heavily from
/// evicting another thread's last events.
///
/// Hot path: one obs::EventRing::Append into the calling thread's ring
/// (no locks, no allocation after a thread's first event). Dumps skip a
/// record that is still being written instead of printing it torn.
///
/// Dumping is async-signal-safe: DumpToFd formats with write(2) and
/// stack buffers only (no malloc, no stdio), so the fatal-signal
/// handlers installed by InstallFlightDumpHandlers can call it from a
/// SIGSEGV context. Labels must be string literals or interned strings
/// (stored by pointer).
///
/// Unlike the tracing and metrics instruments this is NOT gated on
/// obs::Enabled(); opt out with the P3GM_FLIGHT_RECORDER=0 env var or
/// SetEnabled(false).
class FlightRecorder {
 public:
  enum class EventKind : std::uint32_t {
    kLog = 2,         // a, b = first 16 bytes of the message
    kQueueDepth = 3,  // a = new depth, b = queue limit
    kRequest = 4,     // a = span id, b = endpoint-specific detail
  };

  /// The process-wide recorder (never destroyed; rings leak on purpose
  /// so a crash handler can always walk them).
  static FlightRecorder& Global();

  /// Appends one event to the calling thread's ring, overwriting the
  /// oldest once the ring is full. `label` is stored by pointer.
  void Record(EventKind kind, const char* label, std::uint64_t a = 0,
              std::uint64_t b = 0);

  /// Record(kLog, ...) with the message's first 16 bytes packed into
  /// the payload words so dumps show a prefix of what was logged.
  void RecordLog(const char* level_label, const char* message,
                 std::size_t message_len);

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void SetEnabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Total events recorded / lost to ring wrap, summed over threads.
  std::uint64_t RecordedCount() const;
  std::uint64_t OverwrittenCount() const;

  /// Writes a human-readable dump of every ring (oldest event first per
  /// ring) to `fd`. Async-signal-safe.
  void DumpToFd(int fd) const;

  /// DumpToFd into `path` (created/truncated, mode 0644). Also
  /// async-signal-safe. Returns false if the file cannot be opened.
  bool DumpToFile(const char* path) const;

  /// Ring size for threads that have not yet recorded (rounded up to a
  /// power of two; existing rings keep their size). Default 4096.
  void SetCapacityPerThread(std::size_t capacity);

 private:
  // One event: [0] timestamp (obs::NowNs), [1] label pointer, [2] a,
  // [3] b, [4] kind. A ring's thread number is its index in rings_.
  using Ring = EventRing<5>;
  static constexpr int kMaxRings = 256;

  FlightRecorder();
  Ring* RingForThisThread();

  std::atomic<bool> enabled_{true};
  std::atomic<std::size_t> capacity_per_thread_{4096};
  // Lock-free registration list so a signal handler can walk the rings
  // without taking a mutex: slots are published once with a release
  // store and never removed.
  std::atomic<Ring*> rings_[kMaxRings];
  std::atomic<int> ring_count_{0};
};

/// Installs signal handlers that dump the flight recorder to `path`:
/// SIGQUIT dumps and continues running (kill -QUIT = "show me the last
/// N events"); SIGSEGV / SIGABRT / SIGBUS dump, append a backtrace, and
/// re-raise with the default disposition so the process still dies (and
/// still cores, where enabled). Safe to call more than once; the last
/// path wins.
void InstallFlightDumpHandlers(const std::string& path);

/// The path registered with InstallFlightDumpHandlers ("" if none).
const char* FlightDumpPath();

}  // namespace obs
}  // namespace p3gm

#endif  // P3GM_OBS_FLIGHT_RECORDER_H_
