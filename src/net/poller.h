#ifndef AUDIT_GAME_NET_POLLER_H_
#define AUDIT_GAME_NET_POLLER_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/socket.h"
#include "util/status.h"
#include "util/statusor.h"

namespace auditgame::net {

/// One descriptor's readiness after a Wait().
struct PollEvent {
  int fd = -1;
  bool readable = false;
  bool writable = false;
  /// Peer hangup or socket error: the connection is dead regardless of any
  /// data still buffered (a final read drains what the kernel has).
  bool hangup = false;
};

/// Readiness notifier: the event-loop primitive behind each reactor, the
/// acceptors and the router's backend channels. One level-triggered
/// epoll(7) instance — O(ready) dispatch independent of the watched-set
/// size, where one reactor may own tens of thousands of pipelined
/// connections. A ready descriptor keeps reporting until drained, so a
/// missed wakeup costs one loop iteration, never a stall.
///
/// Not thread-safe: one Poller belongs to one event-loop thread. Move-only;
/// a default-constructed Poller is invalid until assigned from Create().
class Poller {
 public:
  Poller() = default;

  static util::StatusOr<Poller> Create();

  /// Registers `fd` or updates its interest set. `read`/`write` select the
  /// events to wake on (hangup/error always wake). Re-watching with the
  /// interest already registered is free: no syscall (a reactor re-watches
  /// after every reply). Fails when the kernel refuses the descriptor (a
  /// regular file: EPERM) — the fd is then not watched and the caller must
  /// not wait on it.
  ///
  /// Forget an fd before closing it: the poller cannot see a close, and a
  /// reused fd number with an unchanged interest would stay unregistered.
  util::Status Watch(int fd, bool read, bool write);

  /// Stops watching `fd` (no-op if unknown).
  void Forget(int fd);

  size_t watched() const { return watched_.size(); }

  /// Blocks until at least one watched descriptor is ready or `timeout_ms`
  /// elapses (-1 = forever). Returns the ready set; an empty result means
  /// the timeout genuinely expired with nothing pending (EINTR is retried
  /// internally — anything that must interrupt the wait writes to a
  /// watched descriptor, as the reactors' wake channels do).
  util::StatusOr<std::vector<PollEvent>> Wait(int timeout_ms);

 private:
  explicit Poller(Socket epoll) : epoll_(std::move(epoll)) {}

  Socket epoll_;
  /// fds we believe the kernel is watching (epoll needs ADD vs MOD), each
  /// with the epoll event mask it is registered with.
  std::unordered_map<int, uint32_t> watched_;
};

}  // namespace auditgame::net

#endif  // AUDIT_GAME_NET_POLLER_H_
