#include "net/connection.h"

#include <errno.h>
#include <sys/socket.h>
#include <unistd.h>

namespace auditgame::net {

util::StatusOr<bool> Connection::ReadFrames(std::vector<std::string>* frames) {
  char chunk[16 * 1024];
  bool open = true;
  for (;;) {
    const ssize_t n = ::recv(socket_.fd(), chunk, sizeof(chunk), 0);
    if (n > 0) {
      decoder_.Append(chunk, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) {  // orderly peer close
      open = false;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    open = false;  // ECONNRESET and friends
    break;
  }

  // Drain every complete frame buffered so far, even when the peer already
  // closed — pipelined requests before a half-close still deserve answers.
  for (;;) {
    std::string payload;
    auto next = decoder_.Next(&payload);
    // Framing violation (oversized frame): the caller drops the connection.
    if (!next.ok()) return next.status();
    if (!*next) break;
    frames->push_back(std::move(payload));
  }
  return open;
}

bool Connection::QueueFrame(std::string_view payload) {
  const std::string frame = EncodeFrame(payload);
  if (write_buffer_.size() - write_offset_ + frame.size() >
      max_write_buffer_) {
    return false;
  }
  // Compact the flushed prefix before growing the buffer further.
  if (write_offset_ > 0 && write_offset_ * 2 >= write_buffer_.size()) {
    write_buffer_.erase(0, write_offset_);
    write_offset_ = 0;
  }
  write_buffer_ += frame;
  return true;
}

bool Connection::Flush(int64_t* sends) {
  while (wants_write()) {
    const ssize_t n =
        ::send(socket_.fd(), write_buffer_.data() + write_offset_,
               write_buffer_.size() - write_offset_, MSG_NOSIGNAL);
    if (n > 0) {
      write_offset_ += static_cast<size_t>(n);
      if (sends != nullptr) ++*sends;
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    return false;  // EPIPE / ECONNRESET: peer is gone
  }
  if (!wants_write() && !write_buffer_.empty()) {
    write_buffer_.clear();
    write_offset_ = 0;
  }
  return true;
}

}  // namespace auditgame::net
