#include "net/poller.h"

#ifndef __linux__
#error "the serving stack is Linux-only: its event loop is epoll(7) and its wake channels are eventfd(2)"
#endif

#include <errno.h>
#include <string.h>
#include <sys/epoll.h>

#include <string>

namespace auditgame::net {

namespace {
constexpr int kMaxEventsPerWait = 256;
}  // namespace

util::StatusOr<Poller> Poller::Create() {
  Socket epoll(::epoll_create1(EPOLL_CLOEXEC));
  if (!epoll.valid()) {
    return util::InternalError("epoll_create1: " +
                               std::string(strerror(errno)));
  }
  return Poller(std::move(epoll));
}

util::Status Poller::Watch(int fd, bool read, bool write) {
  epoll_event ev;
  ev.events = 0;
  if (read) ev.events |= EPOLLIN;
  if (write) ev.events |= EPOLLOUT;
  ev.data.fd = fd;
  const auto it = watched_.find(fd);
  const bool known = it != watched_.end();
  if (known && it->second == ev.events) return util::OkStatus();
  if (::epoll_ctl(epoll_.fd(), known ? EPOLL_CTL_MOD : EPOLL_CTL_ADD, fd,
                  &ev) == 0) {
    watched_[fd] = ev.events;
    return util::OkStatus();
  }
  // The kernel's view can disagree with ours after an fd was closed and
  // its number reused (close() silently deregisters); retry with the
  // opposite op before giving up.
  const int first_errno = errno;
  if (::epoll_ctl(epoll_.fd(), known ? EPOLL_CTL_ADD : EPOLL_CTL_MOD, fd,
                  &ev) == 0) {
    watched_[fd] = ev.events;
    return util::OkStatus();
  }
  watched_.erase(fd);
  return util::InternalError("epoll_ctl(fd " + std::to_string(fd) +
                             "): " + std::string(strerror(first_errno)));
}

void Poller::Forget(int fd) {
  if (watched_.erase(fd) == 0) return;
  ::epoll_ctl(epoll_.fd(), EPOLL_CTL_DEL, fd, nullptr);
}

util::StatusOr<std::vector<PollEvent>> Poller::Wait(int timeout_ms) {
  epoll_event ready[kMaxEventsPerWait];
  int n;
  do {
    n = ::epoll_wait(epoll_.fd(), ready, kMaxEventsPerWait, timeout_ms);
    // Retry on EINTR rather than reporting an empty set: callers treat an
    // empty result as "nothing is pending" (the audit server's drain uses
    // it as the exit proof), which a signal interruption is not.
  } while (n < 0 && errno == EINTR);
  if (n < 0) {
    return util::InternalError("epoll_wait: " + std::string(strerror(errno)));
  }
  std::vector<PollEvent> events;
  events.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    PollEvent event;
    event.fd = ready[i].data.fd;
    event.readable = (ready[i].events & EPOLLIN) != 0;
    event.writable = (ready[i].events & EPOLLOUT) != 0;
    event.hangup = (ready[i].events & (EPOLLHUP | EPOLLERR)) != 0;
    events.push_back(event);
  }
  return events;
}

}  // namespace auditgame::net
