#ifndef P3GM_SERVE_POLLER_H_
#define P3GM_SERVE_POLLER_H_

#include <vector>

namespace p3gm {
namespace serve {

/// Readiness-notification backend for the serve event loop: a thin
/// level-triggered epoll wrapper. The daemon is Linux-only.
class Poller {
 public:
  struct Event {
    int fd = -1;
    bool readable = false;
    bool writable = false;
    bool error = false;  // HUP / ERR — the connection should be torn down.
  };

  Poller();
  ~Poller();

  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  /// False when epoll_create1 failed (errno says why); nothing else
  /// works then.
  bool ok() const { return epoll_fd_ >= 0; }

  void Add(int fd, bool want_read, bool want_write);
  void Update(int fd, bool want_read, bool want_write);
  void Remove(int fd);

  /// Blocks up to timeout_ms (-1 = forever) and appends ready events to
  /// *out (cleared first). Returns the event count, 0 on timeout, -1 on
  /// a poller error other than EINTR.
  int Wait(std::vector<Event>* out, int timeout_ms);

 private:
  void Control(int op, int fd, bool want_read, bool want_write);

  int epoll_fd_ = -1;
};

}  // namespace serve
}  // namespace p3gm

#endif  // P3GM_SERVE_POLLER_H_
