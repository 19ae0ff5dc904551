#ifndef AUDIT_GAME_NET_CONNECTION_H_
#define AUDIT_GAME_NET_CONNECTION_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "net/frame.h"
#include "net/socket.h"
#include "util/status.h"
#include "util/statusor.h"

namespace auditgame::net {

/// One non-blocking connection — accepted by a reactor or dialed by a
/// FrameChannel: the socket plus its read decoder and write buffer. The
/// event loop calls ReadFrames() when the fd polls readable and Flush()
/// when it polls writable; both handle partial transfers (short reads,
/// EAGAIN mid-write) by construction.
///
/// Memory is bounded on both sides: the read side by the frame decoder's
/// payload cap, the write side by `max_write_buffer` — a peer that stops
/// reading while responses accumulate is disconnected rather than buffered
/// without limit (the server counts these as slow-consumer closes).
class Connection {
 public:
  Connection(Socket socket, size_t max_frame_payload,
             size_t max_write_buffer)
      : socket_(std::move(socket)),
        decoder_(max_frame_payload),
        max_write_buffer_(max_write_buffer) {}

  int fd() const { return socket_.fd(); }

  /// Reads everything currently available and appends each complete frame
  /// payload to *frames (possibly none). Returns false when the connection
  /// is finished — peer closed, fatal socket error, or a framing violation
  /// (oversized frame) — in which case the caller drops it. Frames decoded
  /// before the terminating condition are still delivered.
  util::StatusOr<bool> ReadFrames(std::vector<std::string>* frames);

  /// Queues one encoded response frame. Returns false when accepting it
  /// would exceed the write-buffer cap; the caller should close the
  /// connection (the peer is not consuming).
  bool QueueFrame(std::string_view payload);

  /// Writes as much buffered output as the socket accepts right now, and
  /// adds the number of send(2) calls that moved bytes to *sends when
  /// given. Returns false on a fatal write error (EPIPE/ECONNRESET — the
  /// connection should be dropped).
  bool Flush(int64_t* sends = nullptr);

  /// True while buffered output remains — the event loop's POLLOUT signal.
  bool wants_write() const { return write_offset_ < write_buffer_.size(); }

 private:
  Socket socket_;
  FrameDecoder decoder_;
  size_t max_write_buffer_;
  std::string write_buffer_;
  size_t write_offset_ = 0;
};

}  // namespace auditgame::net

#endif  // AUDIT_GAME_NET_CONNECTION_H_
