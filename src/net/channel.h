#ifndef AUDIT_GAME_NET_CHANNEL_H_
#define AUDIT_GAME_NET_CHANNEL_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/connection.h"
#include "net/frame.h"
#include "net/poller.h"
#include "net/socket.h"
#include "util/status.h"

namespace auditgame::net {

struct FrameChannelOptions {
  /// Max frames on the wire awaiting responses before submission queues.
  int window = 256;
  /// Total accepted-but-unanswered bound (queued + in flight); beyond it
  /// TrySubmit answers kFull — the channel's backpressure knob.
  size_t queue_capacity = 1024;
  /// No response for this long while requests are outstanding ⇒ the peer
  /// is wedged: drop the connection and let reconnect probe it. The
  /// caller's periodic pings guarantee outstanding traffic exists, so a
  /// silently dead peer (not just a closed one) is detected too.
  int response_timeout_ms = 5000;
  /// Reconnect backoff: doubles from min to max after every failed dial (a
  /// refused connect, or a peer that accepted and dropped before any
  /// response and before the backoff elapsed); resets once a connection
  /// delivers a response or outlives the backoff.
  int reconnect_backoff_min_ms = 50;
  int reconnect_backoff_max_ms = 2000;
  size_t max_frame_payload = kDefaultMaxFramePayload;
};

/// A pipelined frame client owned by its own IO thread: the building block
/// of the router's backend pool. Callers hand it raw frame payloads from
/// any thread (TrySubmit — non-blocking, bounded, never waits on the
/// network) and get every response payload back through `on_frame`, plus
/// up/down transitions through `on_state`. The channel itself is
/// correlation-agnostic: it relies only on the protocol's one-response-
/// per-request contract to track the in-flight window and response
/// timeouts by count, so it carries JSON and binary frames alike and the
/// caller owns id matching.
///
/// Lifecycle of a connection: connect (blocking, on the channel thread) →
/// `on_state(true)` → pump until error/EOF/timeout → drop everything not
/// yet answered, `on_state(false)` → backoff → reconnect. A down
/// transition means every accepted-but-unanswered submission is lost; the
/// caller resolves them at that moment (the router answers `backend_down`)
/// — the channel will not replay them.
///
/// Callbacks run on the channel thread with no channel lock held, so they
/// may call back into TrySubmit (the router's replica-retry path does).
class FrameChannel {
 public:
  enum class Submit { kAccepted, kFull, kDown };

  struct Events {
    /// One decoded response payload.
    std::function<void(std::string payload)> on_frame;
    /// Connection established (true) / lost (false). Guaranteed to
    /// alternate, starting with true.
    std::function<void(bool up)> on_state;
  };

  FrameChannel(std::string host, uint16_t port, FrameChannelOptions options,
               Events events);
  ~FrameChannel();

  FrameChannel(const FrameChannel&) = delete;
  FrameChannel& operator=(const FrameChannel&) = delete;

  /// Creates the wake channel + poller and spawns the IO thread (which
  /// starts connecting immediately). Fails, with no thread started, when
  /// either cannot be created.
  util::Status Start();

  /// Queues one frame payload for transmission. kDown while disconnected
  /// (including before the first connect), kFull when queue_capacity
  /// accepted submissions are unanswered.
  Submit TrySubmit(std::string payload);

  /// Like TrySubmit but the frame is held back for `delay_ms` before
  /// entering the send queue — the retry-with-backoff primitive. Delayed
  /// frames do not preserve order relative to later TrySubmits.
  Submit TrySubmitAfter(std::string payload, int delay_ms);

  /// Stops reconnecting, abandons queued frames and exits the IO thread.
  void BeginShutdown();
  void Join();

  bool up() const { return up_.load(std::memory_order_acquire); }

  const std::string& host() const { return host_; }
  uint16_t port() const { return port_; }

  /// --- counters (atomic; readable from any thread for stats) ---

  int64_t frames_sent() const { return Load(frames_sent_); }
  int64_t frames_received() const { return Load(frames_received_); }
  int64_t connects() const { return Load(connects_); }
  int64_t disconnects() const { return Load(disconnects_); }
  int64_t response_timeouts() const { return Load(response_timeouts_); }
  int64_t rejected_full() const { return Load(rejected_full_); }
  int64_t rejected_down() const { return Load(rejected_down_); }
  int64_t dropped_on_disconnect() const {
    return Load(dropped_on_disconnect_);
  }
  int64_t outstanding() const { return Load(outstanding_); }

 private:
  struct DelayedFrame {
    std::string payload;
    std::chrono::steady_clock::time_point due;
  };

  static int64_t Load(const std::atomic<int64_t>& counter) {
    return counter.load(std::memory_order_relaxed);
  }

  void Run();
  /// One connection's lifetime; returns when it died or shutdown began.
  void PumpConnection(Connection& conn);
  /// Clears all accepted-but-unanswered state after a connection died.
  void DropOutstanding();

  const std::string host_;
  const uint16_t port_;
  FrameChannelOptions options_;  // clamped to sane minima in the ctor
  const Events events_;

  WakeChannel wake_;
  /// Built in Start(), then owned by the IO thread.
  Poller poller_;
  std::thread thread_;

  std::mutex mutex_;
  /// Frames accepted by TrySubmit, not yet picked up by the IO thread.
  std::deque<std::string> inbox_;
  std::vector<DelayedFrame> delayed_;
  /// Accepted and unanswered (inbox + loop queue + wire) — the
  /// queue_capacity bound. Under mutex_ for the admit decision; mirrored
  /// in outstanding_ for lock-free stats.
  size_t accepted_unanswered_ = 0;
  bool connected_ = false;
  bool shutdown_ = false;

  std::atomic<bool> up_{false};

  std::atomic<int64_t> frames_sent_{0};
  std::atomic<int64_t> frames_received_{0};
  std::atomic<int64_t> connects_{0};
  std::atomic<int64_t> disconnects_{0};
  std::atomic<int64_t> response_timeouts_{0};
  std::atomic<int64_t> rejected_full_{0};
  std::atomic<int64_t> rejected_down_{0};
  std::atomic<int64_t> dropped_on_disconnect_{0};
  std::atomic<int64_t> outstanding_{0};

  // IO-thread-only state.
  std::deque<std::string> pending_;
  /// Send timestamps of in-flight frames, FIFO: each arriving response
  /// settles the oldest — the count-based window and timeout tracker.
  std::deque<std::chrono::steady_clock::time_point> in_flight_;
};

}  // namespace auditgame::net

#endif  // AUDIT_GAME_NET_CHANNEL_H_
