#include "serve/poller.h"

#include <cerrno>

#include <sys/epoll.h>
#include <unistd.h>

namespace p3gm {
namespace serve {

Poller::Poller() : epoll_fd_(epoll_create1(EPOLL_CLOEXEC)) {}

Poller::~Poller() {
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

void Poller::Control(int op, int fd, bool want_read, bool want_write) {
  struct epoll_event ev = {};
  ev.data.fd = fd;
  if (want_read) ev.events |= EPOLLIN;
  if (want_write) ev.events |= EPOLLOUT;
  epoll_ctl(epoll_fd_, op, fd, &ev);
}

void Poller::Add(int fd, bool want_read, bool want_write) {
  Control(EPOLL_CTL_ADD, fd, want_read, want_write);
}

void Poller::Update(int fd, bool want_read, bool want_write) {
  Control(EPOLL_CTL_MOD, fd, want_read, want_write);
}

void Poller::Remove(int fd) {
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
}

int Poller::Wait(std::vector<Event>* out, int timeout_ms) {
  out->clear();
  struct epoll_event events[64];
  const int n = epoll_wait(epoll_fd_, events, 64, timeout_ms);
  if (n < 0) return errno == EINTR ? 0 : -1;
  for (int i = 0; i < n; ++i) {
    Event ev;
    ev.fd = events[i].data.fd;
    ev.readable = (events[i].events & EPOLLIN) != 0;
    ev.writable = (events[i].events & EPOLLOUT) != 0;
    ev.error = (events[i].events & (EPOLLERR | EPOLLHUP)) != 0;
    out->push_back(ev);
  }
  return n;
}

}  // namespace serve
}  // namespace p3gm
