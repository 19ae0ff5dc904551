#include "net/socket.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

namespace auditgame::net {

namespace {

util::Status ErrnoError(const std::string& what) {
  return util::InternalError(what + ": " + std::string(strerror(errno)));
}

util::StatusOr<sockaddr_in> MakeAddress(const std::string& host,
                                        uint16_t port) {
  sockaddr_in addr;
  memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return util::InvalidArgumentError("not a numeric IPv4 address: " + host);
  }
  return addr;
}

}  // namespace

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

util::Status SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0) return ErrnoError("fcntl(F_GETFL)");
  if (fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return ErrnoError("fcntl(F_SETFL, O_NONBLOCK)");
  }
  return util::OkStatus();
}

util::Status SetNoDelay(int fd) {
  int one = 1;
  if (setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) < 0) {
    return ErrnoError("setsockopt(TCP_NODELAY)");
  }
  return util::OkStatus();
}

util::StatusOr<Socket> ListenTcp(const std::string& host, uint16_t port,
                                 int backlog) {
  ASSIGN_OR_RETURN(const sockaddr_in addr, MakeAddress(host, port));
  Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) return ErrnoError("socket");
  int one = 1;
  if (setsockopt(sock.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) < 0) {
    return ErrnoError("setsockopt(SO_REUSEADDR)");
  }
  if (bind(sock.fd(), reinterpret_cast<const sockaddr*>(&addr),
           sizeof(addr)) < 0) {
    return ErrnoError("bind " + host + ":" + std::to_string(port));
  }
  if (listen(sock.fd(), backlog) < 0) return ErrnoError("listen");
  RETURN_IF_ERROR(SetNonBlocking(sock.fd()));
  return sock;
}

util::StatusOr<Socket> ConnectTcp(const std::string& host, uint16_t port) {
  ASSIGN_OR_RETURN(const sockaddr_in addr, MakeAddress(host, port));
  Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) return ErrnoError("socket");
  int rc;
  do {
    rc = connect(sock.fd(), reinterpret_cast<const sockaddr*>(&addr),
                 sizeof(addr));
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) {
    return ErrnoError("connect " + host + ":" + std::to_string(port));
  }
  // Best effort: a frame is one logical message, don't let Nagle delay it.
  (void)SetNoDelay(sock.fd());
  return sock;
}

util::StatusOr<std::vector<Socket>> AcceptAll(const Socket& listener) {
  std::vector<Socket> accepted;
  for (;;) {
    const int fd = ::accept(listener.fd(), nullptr, nullptr);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return ErrnoError("accept");
    }
    Socket sock(fd);
    RETURN_IF_ERROR(SetNonBlocking(sock.fd()));
    (void)SetNoDelay(sock.fd());
    accepted.push_back(std::move(sock));
  }
  return accepted;
}

util::StatusOr<uint16_t> LocalPort(const Socket& socket) {
  sockaddr_in addr;
  socklen_t len = sizeof(addr);
  if (getsockname(socket.fd(), reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    return ErrnoError("getsockname");
  }
  return ntohs(addr.sin_port);
}

util::StatusOr<WakeChannel> WakeChannel::Make() {
  Socket eventfd(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC));
  if (!eventfd.valid()) return ErrnoError("eventfd");
  return WakeChannel(std::move(eventfd));
}

void WakeChannel::Notify() {
  if (!eventfd_.valid()) return;
  const uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(eventfd_.fd(), &one, sizeof(one));
}

void WakeChannel::Drain() {
  if (!eventfd_.valid()) return;
  // One read returns and resets the whole counter.
  uint64_t count = 0;
  [[maybe_unused]] ssize_t n = ::read(eventfd_.fd(), &count, sizeof(count));
}

}  // namespace auditgame::net
