// Unit tests for the epoll Poller and the eventfd WakeChannel: the
// level-triggered contract every event loop in net/ and server/ relies on.

#include "net/poller.h"

#include <stdlib.h>
#include <sys/socket.h>
#include <unistd.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "net/socket.h"

namespace auditgame::net {
namespace {

/// A connected, non-blocking AF_UNIX stream pair.
struct SocketPair {
  SocketPair() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, fds), 0);
    a = Socket(fds[0]);
    b = Socket(fds[1]);
  }
  Socket a;
  Socket b;
};

Poller CreatePoller() {
  auto poller = Poller::Create();
  EXPECT_TRUE(poller.ok()) << poller.status();
  return std::move(poller).value();
}

std::vector<PollEvent> WaitOk(Poller& poller, int timeout_ms) {
  auto events = poller.Wait(timeout_ms);
  EXPECT_TRUE(events.ok()) << events.status();
  return events.ok() ? *events : std::vector<PollEvent>{};
}

TEST(PollerTest, ReadableKeepsReportingUntilDrained) {
  Poller poller = CreatePoller();
  SocketPair pair;
  ASSERT_TRUE(poller.Watch(pair.a.fd(), /*read=*/true, /*write=*/false).ok());
  EXPECT_EQ(poller.watched(), 1u);
  EXPECT_TRUE(WaitOk(poller, 0).empty());

  ASSERT_EQ(::write(pair.b.fd(), "xy", 2), 2);
  // Level-triggered: unread bytes report on every Wait, not just the first.
  for (int round = 0; round < 3; ++round) {
    const auto events = WaitOk(poller, 1000);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].fd, pair.a.fd());
    EXPECT_TRUE(events[0].readable);
    EXPECT_FALSE(events[0].writable);
    EXPECT_FALSE(events[0].hangup);
  }

  char buf[8];
  ASSERT_EQ(::read(pair.a.fd(), buf, sizeof(buf)), 2);
  EXPECT_TRUE(WaitOk(poller, 0).empty());
}

TEST(PollerTest, RewatchWithWriteInterestReportsWritable) {
  Poller poller = CreatePoller();
  SocketPair pair;
  ASSERT_TRUE(poller.Watch(pair.a.fd(), /*read=*/true, /*write=*/false).ok());
  EXPECT_TRUE(WaitOk(poller, 0).empty());

  ASSERT_TRUE(poller.Watch(pair.a.fd(), /*read=*/true, /*write=*/true).ok());
  EXPECT_EQ(poller.watched(), 1u);
  const auto events = WaitOk(poller, 1000);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].fd, pair.a.fd());
  EXPECT_TRUE(events[0].writable);
  EXPECT_FALSE(events[0].readable);

  // Dropping write interest again silences the (still writable) socket.
  ASSERT_TRUE(poller.Watch(pair.a.fd(), /*read=*/true, /*write=*/false).ok());
  EXPECT_TRUE(WaitOk(poller, 0).empty());
}

TEST(PollerTest, ForgetStopsReports) {
  Poller poller = CreatePoller();
  SocketPair pair;
  ASSERT_EQ(::write(pair.b.fd(), "x", 1), 1);
  ASSERT_TRUE(poller.Watch(pair.a.fd(), /*read=*/true, /*write=*/true).ok());
  EXPECT_FALSE(WaitOk(poller, 1000).empty());

  poller.Forget(pair.a.fd());
  EXPECT_EQ(poller.watched(), 0u);
  EXPECT_TRUE(WaitOk(poller, 0).empty());
  poller.Forget(pair.a.fd());  // unknown fd: no-op
  EXPECT_EQ(poller.watched(), 0u);
}

TEST(PollerTest, RepeatedWatchWithSameInterestStillReports) {
  Poller poller = CreatePoller();
  SocketPair pair;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(poller.Watch(pair.a.fd(), /*read=*/true, /*write=*/false).ok());
  }
  EXPECT_EQ(poller.watched(), 1u);
  EXPECT_TRUE(WaitOk(poller, 0).empty());
  ASSERT_EQ(::write(pair.b.fd(), "x", 1), 1);
  auto events = WaitOk(poller, 1000);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_TRUE(events[0].readable);

  // Write interest on, then back to the same read-only interest: the
  // repeated mask is skipped, the changed ones reach the kernel.
  ASSERT_TRUE(poller.Watch(pair.a.fd(), /*read=*/true, /*write=*/true).ok());
  ASSERT_TRUE(poller.Watch(pair.a.fd(), /*read=*/true, /*write=*/false).ok());
  ASSERT_TRUE(poller.Watch(pair.a.fd(), /*read=*/true, /*write=*/false).ok());
  events = WaitOk(poller, 1000);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_TRUE(events[0].readable);
  EXPECT_FALSE(events[0].writable);
}

TEST(PollerTest, ReusedFdNumberIsRegisteredAgainAfterForget) {
  Poller poller = CreatePoller();
  auto first = std::make_unique<SocketPair>();
  const int fd = first->a.fd();
  ASSERT_TRUE(poller.Watch(fd, /*read=*/true, /*write=*/false).ok());
  poller.Forget(fd);
  first.reset();  // closes both ends; the lowest free numbers are reused

  SocketPair second;
  ASSERT_EQ(second.a.fd(), fd) << "the kernel did not reuse the fd number";
  // Same number, same interest as before the Forget: it must still be
  // registered with the kernel, not skipped as unchanged.
  ASSERT_TRUE(poller.Watch(fd, /*read=*/true, /*write=*/false).ok());
  ASSERT_EQ(::write(second.b.fd(), "x", 1), 1);
  const auto events = WaitOk(poller, 1000);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].fd, fd);
  EXPECT_TRUE(events[0].readable);
}

TEST(PollerTest, PeerCloseReportsHangup) {
  Poller poller = CreatePoller();
  SocketPair pair;
  ASSERT_TRUE(poller.Watch(pair.a.fd(), /*read=*/true, /*write=*/false).ok());
  pair.b.Close();
  const auto events = WaitOk(poller, 1000);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].fd, pair.a.fd());
  EXPECT_TRUE(events[0].hangup);
}

TEST(PollerTest, WatchOfRegularFileFails) {
  std::string path = ::testing::TempDir() + "poller_test_XXXXXX";
  Socket file(::mkstemp(path.data()));
  ASSERT_TRUE(file.valid());
  ::unlink(path.c_str());

  Poller poller = CreatePoller();
  // epoll refuses regular files (EPERM): the failure must surface rather
  // than leave a descriptor that silently never reports.
  EXPECT_FALSE(poller.Watch(file.fd(), /*read=*/true, /*write=*/false).ok());
  EXPECT_EQ(poller.watched(), 0u);
  EXPECT_TRUE(WaitOk(poller, 0).empty());
}

TEST(WakeChannelTest, NotifiesFromAnotherThreadCoalesceIntoOneEvent) {
  Poller poller = CreatePoller();
  auto wake = WakeChannel::Make();
  ASSERT_TRUE(wake.ok()) << wake.status();
  ASSERT_TRUE(poller.Watch(wake->fd(), /*read=*/true, /*write=*/false).ok());

  std::thread notifier([&wake] {
    for (int i = 0; i < 100; ++i) wake->Notify();
  });
  // Wait(-1) has no timeout to fall back on: only a notification ends it.
  const auto woken = WaitOk(poller, -1);
  notifier.join();
  ASSERT_EQ(woken.size(), 1u);
  EXPECT_EQ(woken[0].fd, wake->fd());
  EXPECT_TRUE(woken[0].readable);

  // All 100 notifications are one readable descriptor, and one Drain()
  // consumes them all.
  const auto pending = WaitOk(poller, 0);
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0].fd, wake->fd());
  wake->Drain();
  EXPECT_TRUE(WaitOk(poller, 0).empty());
}

}  // namespace
}  // namespace auditgame::net
