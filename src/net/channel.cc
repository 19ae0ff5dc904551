#include "net/channel.h"

#include <algorithm>
#include <utility>

namespace auditgame::net {

namespace {
/// Idle loop granularity: bounds how stale the shutdown flag and delayed-
/// frame due times can get if a wake notification is lost.
constexpr int kPumpPollMs = 250;

int MillisUntil(std::chrono::steady_clock::time_point now,
                std::chrono::steady_clock::time_point when) {
  const auto ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(when - now)
          .count();
  return ms < 0 ? 0 : static_cast<int>(std::min<int64_t>(ms, kPumpPollMs));
}
}  // namespace

FrameChannel::FrameChannel(std::string host, uint16_t port,
                           FrameChannelOptions options, Events events)
    : host_(std::move(host)),
      port_(port),
      options_(options),
      events_(std::move(events)) {
  if (options_.window < 1) options_.window = 1;
  if (options_.queue_capacity < 1) options_.queue_capacity = 1;
  if (options_.reconnect_backoff_min_ms < 1)
    options_.reconnect_backoff_min_ms = 1;
  if (options_.reconnect_backoff_max_ms < options_.reconnect_backoff_min_ms)
    options_.reconnect_backoff_max_ms = options_.reconnect_backoff_min_ms;
}

FrameChannel::~FrameChannel() {
  BeginShutdown();
  Join();
}

util::Status FrameChannel::Start() {
  if (thread_.joinable()) {
    return util::FailedPreconditionError("already started");
  }
  ASSIGN_OR_RETURN(wake_, WakeChannel::Make());
  ASSIGN_OR_RETURN(poller_, Poller::Create());
  RETURN_IF_ERROR(poller_.Watch(wake_.fd(), /*read=*/true, /*write=*/false));
  thread_ = std::thread([this] { Run(); });
  return util::OkStatus();
}

FrameChannel::Submit FrameChannel::TrySubmit(std::string payload) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_ || !connected_) {
      rejected_down_.fetch_add(1, std::memory_order_relaxed);
      return Submit::kDown;
    }
    if (accepted_unanswered_ >= options_.queue_capacity) {
      rejected_full_.fetch_add(1, std::memory_order_relaxed);
      return Submit::kFull;
    }
    ++accepted_unanswered_;
    outstanding_.store(static_cast<int64_t>(accepted_unanswered_),
                       std::memory_order_relaxed);
    inbox_.push_back(std::move(payload));
  }
  wake_.Notify();
  return Submit::kAccepted;
}

FrameChannel::Submit FrameChannel::TrySubmitAfter(std::string payload,
                                                  int delay_ms) {
  if (delay_ms <= 0) return TrySubmit(std::move(payload));
  const auto due =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(delay_ms);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_ || !connected_) {
      rejected_down_.fetch_add(1, std::memory_order_relaxed);
      return Submit::kDown;
    }
    if (accepted_unanswered_ >= options_.queue_capacity) {
      rejected_full_.fetch_add(1, std::memory_order_relaxed);
      return Submit::kFull;
    }
    ++accepted_unanswered_;
    outstanding_.store(static_cast<int64_t>(accepted_unanswered_),
                       std::memory_order_relaxed);
    delayed_.push_back(DelayedFrame{std::move(payload), due});
  }
  wake_.Notify();
  return Submit::kAccepted;
}

void FrameChannel::BeginShutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  wake_.Notify();
}

void FrameChannel::Join() {
  if (thread_.joinable()) thread_.join();
}

void FrameChannel::DropOutstanding() {
  size_t dropped;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    dropped = accepted_unanswered_;
    accepted_unanswered_ = 0;
    outstanding_.store(0, std::memory_order_relaxed);
    inbox_.clear();
    delayed_.clear();
  }
  pending_.clear();
  in_flight_.clear();
  dropped_on_disconnect_.fetch_add(static_cast<int64_t>(dropped),
                                   std::memory_order_relaxed);
}

void FrameChannel::Run() {
  // The window bounds the frames on the wire, so it bounds the unsent
  // bytes too: this cap is never reached by frames within the payload cap.
  const size_t max_write_buffer =
      static_cast<size_t>(options_.window) *
      (options_.max_frame_payload + kFrameHeaderBytes);
  // The backoff doubles after every failed dial — a refused connect, or a
  // peer that accepts and drops before any response within the backoff —
  // and resets once a connection delivers a response or outlives the
  // backoff, so a backend that keeps closing fresh connections is
  // re-dialled on the backoff schedule, and a healthy idle connection that
  // drops is re-dialled at once.
  int backoff_ms = options_.reconnect_backoff_min_ms;
  const auto back_off = [this, &backoff_ms] {
    // Interruptible by BeginShutdown's wake.
    auto events = poller_.Wait(backoff_ms);
    if (events.ok()) {
      for (const PollEvent& event : *events) {
        if (event.fd == wake_.fd()) wake_.Drain();
      }
    }
    backoff_ms = std::min(backoff_ms * 2, options_.reconnect_backoff_max_ms);
  };
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (shutdown_) break;
    }
    auto socket = ConnectTcp(host_, port_);
    if (!socket.ok() || !SetNonBlocking(socket->fd()).ok()) {
      back_off();
      continue;
    }
    (void)SetNoDelay(socket->fd());
    connects_.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      connected_ = true;
    }
    up_.store(true, std::memory_order_release);
    if (events_.on_state) events_.on_state(true);

    const int64_t received_before =
        frames_received_.load(std::memory_order_relaxed);
    const auto connected_at = std::chrono::steady_clock::now();
    Connection conn(std::move(*socket), options_.max_frame_payload,
                    max_write_buffer);
    PumpConnection(conn);
    poller_.Forget(conn.fd());
    const bool healthy =
        frames_received_.load(std::memory_order_relaxed) > received_before ||
        std::chrono::steady_clock::now() - connected_at >=
            std::chrono::milliseconds(backoff_ms);

    up_.store(false, std::memory_order_release);
    bool shutting_down;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      connected_ = false;
      shutting_down = shutdown_;
    }
    DropOutstanding();
    disconnects_.fetch_add(1, std::memory_order_relaxed);
    if (events_.on_state) events_.on_state(false);
    if (shutting_down) break;
    if (healthy) {
      // A working backend dropped: reconnect at once (a refused connect
      // backs off on its own).
      backoff_ms = options_.reconnect_backoff_min_ms;
    } else {
      back_off();
    }
  }
}

void FrameChannel::PumpConnection(Connection& conn) {
  // A descriptor the poller refuses can never report: a dead connection.
  if (!poller_.Watch(conn.fd(), /*read=*/true, /*write=*/false).ok()) return;
  bool write_interest = false;
  std::vector<std::string> received;

  for (;;) {
    // Intake: adopt fresh submissions and due retries under the lock, and
    // learn the next retry due time and the shutdown flag while there.
    std::chrono::steady_clock::time_point next_due{};
    bool have_due = false;
    const auto now = std::chrono::steady_clock::now();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (shutdown_) return;
      while (!inbox_.empty()) {
        pending_.push_back(std::move(inbox_.front()));
        inbox_.pop_front();
      }
      for (size_t i = 0; i < delayed_.size();) {
        if (delayed_[i].due <= now) {
          pending_.push_back(std::move(delayed_[i].payload));
          delayed_[i] = std::move(delayed_.back());
          delayed_.pop_back();
        } else {
          if (!have_due || delayed_[i].due < next_due) {
            next_due = delayed_[i].due;
            have_due = true;
          }
          ++i;
        }
      }
    }

    // Top up the wire to the window and flush what the socket accepts.
    while (in_flight_.size() < static_cast<size_t>(options_.window) &&
           !pending_.empty()) {
      if (!conn.QueueFrame(pending_.front())) return;
      pending_.pop_front();
      in_flight_.push_back(now);
      frames_sent_.fetch_add(1, std::memory_order_relaxed);
    }
    if (!conn.Flush()) return;
    if (conn.wants_write() != write_interest) {
      write_interest = conn.wants_write();
      if (!poller_.Watch(conn.fd(), /*read=*/true, write_interest).ok()) {
        return;
      }
    }

    int timeout_ms = kPumpPollMs;
    if (!in_flight_.empty()) {
      timeout_ms = std::min(
          timeout_ms,
          MillisUntil(now, in_flight_.front() + std::chrono::milliseconds(
                                                    options_.response_timeout_ms)));
    }
    if (have_due) timeout_ms = std::min(timeout_ms, MillisUntil(now, next_due));

    auto events = poller_.Wait(timeout_ms);
    if (!events.ok()) return;
    bool dead = false;
    received.clear();
    for (const PollEvent& event : *events) {
      if (event.fd == wake_.fd()) {
        wake_.Drain();
        continue;
      }
      if (event.fd != conn.fd()) continue;
      if (event.readable || event.hangup) {
        // Responses decoded before EOF, a socket error or an oversized
        // frame are still answers: deliver them, then drop the connection.
        auto open = conn.ReadFrames(&received);
        dead = !open.ok() || !*open;
      }
    }

    if (!received.empty()) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        const size_t settled =
            std::min(received.size(), accepted_unanswered_);
        accepted_unanswered_ -= settled;
        outstanding_.store(static_cast<int64_t>(accepted_unanswered_),
                           std::memory_order_relaxed);
      }
      for (size_t i = 0; i < received.size() && !in_flight_.empty(); ++i) {
        in_flight_.pop_front();
      }
      frames_received_.fetch_add(static_cast<int64_t>(received.size()),
                                 std::memory_order_relaxed);
      // No locks held: on_frame may re-enter TrySubmit.
      if (events_.on_frame) {
        for (std::string& frame : received) {
          events_.on_frame(std::move(frame));
        }
      }
      received.clear();
    }

    if (dead) return;
    if (!in_flight_.empty() &&
        std::chrono::steady_clock::now() - in_flight_.front() >=
            std::chrono::milliseconds(options_.response_timeout_ms)) {
      response_timeouts_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
}

}  // namespace auditgame::net
