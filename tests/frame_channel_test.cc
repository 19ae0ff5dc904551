// FrameChannel against an in-test loopback peer that speaks the frame
// format: pins what the router's backend channels promise about responses
// that race a hangup, oversized frames and silent peers.

#include "net/channel.h"

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/time.h>

#include <chrono>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "net/frame.h"
#include "net/socket.h"

namespace auditgame::net {
namespace {

bool WaitFor(const std::function<bool()>& done, int timeout_ms = 10000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

/// One accepted connection of the peer, blocking with a receive timeout.
struct PeerConnection {
  Socket socket;
  FrameDecoder decoder;

  /// Blocks for the next complete request frame; "" on EOF or timeout.
  std::string ReadFrame() {
    std::string payload;
    for (;;) {
      auto next = decoder.Next(&payload);
      if (!next.ok()) return "";
      if (*next) return payload;
      char buf[4096];
      const ssize_t n = ::recv(socket.fd(), buf, sizeof(buf), 0);
      if (n <= 0) return "";
      decoder.Append(buf, static_cast<size_t>(n));
    }
  }

  void Write(const std::string& bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(socket.fd(), bytes.data() + sent,
                               bytes.size() - sent, MSG_NOSIGNAL);
      ASSERT_GT(n, 0);
      sent += static_cast<size_t>(n);
    }
  }
};

/// The channel's backend: a listener the test thread drives step by step.
class LoopbackPeer {
 public:
  LoopbackPeer() {
    auto listener = ListenTcp("127.0.0.1", 0);
    EXPECT_TRUE(listener.ok()) << listener.status();
    listener_ = std::move(listener).value();
    auto port = LocalPort(listener_);
    EXPECT_TRUE(port.ok());
    port_ = *port;
  }

  uint16_t port() const { return port_; }

  /// Closes every connection as soon as it is accepted, until `done`.
  bool AcceptAndCloseUntil(const std::function<bool()>& done) {
    return WaitFor([&] {
      (void)AcceptAll(listener_);  // the accepted sockets close here
      return done();
    });
  }

  /// Waits for the channel's next connection.
  PeerConnection Accept() {
    PeerConnection conn;
    WaitFor([&] {
      auto accepted = AcceptAll(listener_);
      if (!accepted.ok() || accepted->empty()) return false;
      conn.socket = std::move(accepted->front());
      return true;
    });
    EXPECT_TRUE(conn.socket.valid()) << "the channel never connected";
    if (conn.socket.valid()) {
      const int flags = fcntl(conn.socket.fd(), F_GETFL, 0);
      fcntl(conn.socket.fd(), F_SETFL, flags & ~O_NONBLOCK);
      timeval timeout{10, 0};
      setsockopt(conn.socket.fd(), SOL_SOCKET, SO_RCVTIMEO, &timeout,
                 sizeof(timeout));
    }
    return conn;
  }

 private:
  Socket listener_;
  uint16_t port_ = 0;
};

/// Collects the channel's callbacks (they run on the channel thread).
struct Recorder {
  std::mutex mutex;
  std::vector<std::string> frames;
  std::vector<bool> states;

  FrameChannel::Events Events() {
    FrameChannel::Events events;
    events.on_frame = [this](std::string payload) {
      std::lock_guard<std::mutex> lock(mutex);
      frames.push_back(std::move(payload));
    };
    events.on_state = [this](bool up) {
      std::lock_guard<std::mutex> lock(mutex);
      states.push_back(up);
    };
    return events;
  }

  std::vector<std::string> Frames() {
    std::lock_guard<std::mutex> lock(mutex);
    return frames;
  }
  std::vector<bool> States() {
    std::lock_guard<std::mutex> lock(mutex);
    return states;
  }
};

FrameChannelOptions FastOptions() {
  FrameChannelOptions options;
  options.reconnect_backoff_min_ms = 5;
  options.reconnect_backoff_max_ms = 20;
  return options;
}

TEST(FrameChannelTest, ResponsesWrittenBeforeCloseAreDelivered) {
  LoopbackPeer peer;
  Recorder recorder;
  FrameChannel channel("127.0.0.1", peer.port(), FastOptions(),
                       recorder.Events());
  ASSERT_TRUE(channel.Start().ok());
  PeerConnection conn = peer.Accept();
  ASSERT_TRUE(WaitFor([&] { return channel.up(); }));

  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(channel.TrySubmit("req-" + std::to_string(i)),
              FrameChannel::Submit::kAccepted);
  }
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(conn.ReadFrame(), "req-" + std::to_string(i));
  }
  // All three answers and the FIN leave in one burst: the channel sees
  // data and EOF together and must deliver the data before dropping.
  conn.Write(EncodeFrame("resp-0") + EncodeFrame("resp-1") +
             EncodeFrame("resp-2"));
  conn.socket.Close();

  ASSERT_TRUE(WaitFor([&] { return channel.disconnects() >= 1; }));
  EXPECT_EQ(recorder.Frames(),
            (std::vector<std::string>{"resp-0", "resp-1", "resp-2"}));
  EXPECT_EQ(channel.frames_sent(), 3);
  EXPECT_EQ(channel.frames_received(), 3);
  EXPECT_EQ(channel.dropped_on_disconnect(), 0);
  EXPECT_EQ(channel.outstanding(), 0);
  const std::vector<bool> states = recorder.States();
  ASSERT_GE(states.size(), 2u);
  EXPECT_TRUE(states[0]);
  EXPECT_FALSE(states[1]);

  channel.BeginShutdown();
  channel.Join();
}

TEST(FrameChannelTest, OversizedResponseDropsTheConnectionAndReconnects) {
  LoopbackPeer peer;
  Recorder recorder;
  FrameChannelOptions options = FastOptions();
  options.max_frame_payload = 64;
  FrameChannel channel("127.0.0.1", peer.port(), options, recorder.Events());
  ASSERT_TRUE(channel.Start().ok());
  PeerConnection first = peer.Accept();
  ASSERT_TRUE(WaitFor([&] { return channel.up(); }));

  ASSERT_EQ(channel.TrySubmit("a"), FrameChannel::Submit::kAccepted);
  ASSERT_EQ(channel.TrySubmit("b"), FrameChannel::Submit::kAccepted);
  EXPECT_EQ(first.ReadFrame(), "a");
  EXPECT_EQ(first.ReadFrame(), "b");
  // One good answer, then a header announcing one byte over the cap: the
  // stream cannot be resynchronized past it, so the connection must go —
  // after the good answer was delivered.
  const uint32_t oversized = 65;
  const char header[kFrameHeaderBytes] = {
      static_cast<char>(oversized >> 24), static_cast<char>(oversized >> 16),
      static_cast<char>(oversized >> 8), static_cast<char>(oversized)};
  first.Write(EncodeFrame("ok-a") + std::string(header, kFrameHeaderBytes));

  ASSERT_TRUE(WaitFor([&] { return channel.disconnects() >= 1; }));
  EXPECT_EQ(recorder.Frames(), std::vector<std::string>{"ok-a"});
  EXPECT_EQ(channel.frames_received(), 1);
  EXPECT_EQ(channel.dropped_on_disconnect(), 1);

  // The channel reconnects on its own and serves the new connection.
  PeerConnection second = peer.Accept();
  ASSERT_TRUE(WaitFor([&] { return channel.connects() == 2; }));
  ASSERT_TRUE(WaitFor([&] { return channel.up(); }));
  ASSERT_EQ(channel.TrySubmit("c"), FrameChannel::Submit::kAccepted);
  EXPECT_EQ(second.ReadFrame(), "c");
  second.Write(EncodeFrame("ok-c"));
  ASSERT_TRUE(WaitFor([&] { return channel.frames_received() == 2; }));
  EXPECT_EQ(recorder.Frames(), (std::vector<std::string>{"ok-a", "ok-c"}));

  channel.BeginShutdown();
  channel.Join();
}

TEST(FrameChannelTest, SilentPeerTripsTheResponseTimeout) {
  LoopbackPeer peer;
  Recorder recorder;
  FrameChannelOptions options = FastOptions();
  options.response_timeout_ms = 100;
  FrameChannel channel("127.0.0.1", peer.port(), options, recorder.Events());
  ASSERT_TRUE(channel.Start().ok());
  PeerConnection conn = peer.Accept();
  ASSERT_TRUE(WaitFor([&] { return channel.up(); }));

  ASSERT_EQ(channel.TrySubmit("ping"), FrameChannel::Submit::kAccepted);
  // The peer reads the request and never answers; the socket stays open,
  // so only the response timeout can detect it.
  EXPECT_EQ(conn.ReadFrame(), "ping");

  ASSERT_TRUE(WaitFor([&] { return channel.disconnects() >= 1; }));
  EXPECT_EQ(channel.response_timeouts(), 1);
  EXPECT_EQ(channel.dropped_on_disconnect(), 1);
  EXPECT_EQ(channel.frames_received(), 0);
  EXPECT_TRUE(recorder.Frames().empty());

  channel.BeginShutdown();
  channel.Join();
}

// A backend that accepts and at once closes never answers, so each of
// its connections counts as a failure: the channel re-dials on the
// doubling backoff schedule (default 50 ms, 100 ms, 200 ms ...), not in a
// tight loop. Each gap between dials lasts at least the 50 ms minimum
// (waited out, or lived through by a connection that outlived it), so
// four dials take at least 150 ms; a tight loop makes them in a few.
TEST(FrameChannelTest, PeerThatClosesEveryConnectionIsRedialledWithBackoff) {
  LoopbackPeer peer;
  Recorder recorder;
  FrameChannel channel("127.0.0.1", peer.port(), FrameChannelOptions(),
                       recorder.Events());
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(channel.Start().ok());
  ASSERT_TRUE(
      peer.AcceptAndCloseUntil([&] { return channel.connects() >= 4; }));
  EXPECT_GE(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(150));
  channel.BeginShutdown();
  channel.Join();
  EXPECT_EQ(channel.frames_received(), 0);
}

// A connection that outlived the backoff was healthy even though it never
// answered (an idle backend, say, with pings off): when it drops, the
// channel re-dials at once instead of waiting out the backoff.
TEST(FrameChannelTest, IdleConnectionThatOutlivedTheBackoffIsRedialledAtOnce) {
  LoopbackPeer peer;
  Recorder recorder;
  FrameChannelOptions options;
  options.reconnect_backoff_min_ms = 1000;
  options.reconnect_backoff_max_ms = 1000;
  FrameChannel channel("127.0.0.1", peer.port(), options, recorder.Events());
  ASSERT_TRUE(channel.Start().ok());
  {
    PeerConnection first = peer.Accept();
    std::this_thread::sleep_for(std::chrono::milliseconds(1100));
  }  // closes the idle connection
  const auto closed_at = std::chrono::steady_clock::now();
  ASSERT_TRUE(WaitFor([&] { return channel.connects() == 2; }));
  // Waiting out the backoff would take the full 1000 ms.
  EXPECT_LT(std::chrono::steady_clock::now() - closed_at,
            std::chrono::milliseconds(900));
  channel.BeginShutdown();
  channel.Join();
  EXPECT_EQ(channel.frames_received(), 0);
}

}  // namespace
}  // namespace auditgame::net
