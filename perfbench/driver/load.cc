#include "driver/load.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <limits>
#include <sstream>
#include <utility>

#include "net/client.h"
#include "server/binary_codec.h"
#include "server/protocol.h"
#include "util/flags.h"

namespace perfbench {

using namespace auditgame;  // NOLINT

namespace {

/// Re-sends of one op after `overloaded` before it is abandoned as failed.
constexpr int kMaxResends = 200;
constexpr int64_t kResendBackoffNs = 200'000;
/// A phase with no response for this long is aborted.
constexpr int64_t kStallNs = 30'000'000'000;

util::Status ErrnoStatus(const std::string& what) {
  return util::InternalError(what + ": " + std::strerror(errno));
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// ServerProcess

util::StatusOr<std::unique_ptr<ServerProcess>> ServerProcess::Spawn(
    const std::vector<std::string>& argv) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) return ErrnoStatus("pipe2");
  std::vector<char*> args;
  for (const std::string& arg : argv) args.push_back(const_cast<char*>(arg.c_str()));
  args.push_back(nullptr);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return ErrnoStatus("fork");
  }
  if (pid == 0) {
    // The server must not outlive the driver, however the driver ends.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    const int devnull = ::open("/dev/null", O_RDWR);
    ::dup2(devnull, STDIN_FILENO);
    ::dup2(devnull, STDOUT_FILENO);
    ::dup2(fds[1], STDERR_FILENO);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  ::close(fds[1]);
  std::unique_ptr<ServerProcess> server(new ServerProcess(pid, fds[0]));
  const int64_t deadline = NowNs() + 60'000'000'000;
  static constexpr std::string_view kListening = "listening on ";
  for (;;) {
    const size_t at = server->log_.find(kListening);
    const size_t end = at == std::string::npos
                           ? std::string::npos
                           : server->log_.find(' ', at + kListening.size());
    if (end != std::string::npos) {
      const std::string address =
          server->log_.substr(at + kListening.size(),
                              end - at - kListening.size());
      const size_t colon = address.rfind(':');
      auto port = util::ParseFullInt(
          colon == std::string::npos ? "" : address.substr(colon + 1));
      if (!port.ok() || *port < 1 || *port > 65535) {
        return util::InternalError("cannot parse the server's port from: " +
                                   server->log_);
      }
      server->port_ = static_cast<uint16_t>(*port);
      return server;
    }
    const int64_t left_ms = (deadline - NowNs()) / 1'000'000;
    if (left_ms <= 0) {
      return util::InternalError("server did not start listening: " +
                                 server->log_);
    }
    if (!server->ReadLog(static_cast<int>(left_ms))) {
      return util::InternalError("server exited before listening: " +
                                 server->log_);
    }
  }
}

ServerProcess::~ServerProcess() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
  }
  if (err_fd_ >= 0) ::close(err_fd_);
}

bool ServerProcess::ReadLog(int timeout_ms) {
  if (err_fd_ < 0) return false;
  pollfd pfd{err_fd_, POLLIN, 0};
  const int ready = ::poll(&pfd, 1, timeout_ms);
  if (ready <= 0) return true;  // timeout (or EINTR): nothing new yet
  char buffer[65536];
  const ssize_t n = ::read(err_fd_, buffer, sizeof(buffer));
  if (n > 0) {
    log_.append(buffer, static_cast<size_t>(n));
    return true;
  }
  if (n < 0 && errno == EINTR) return true;
  ::close(err_fd_);
  err_fd_ = -1;
  return false;
}

util::StatusOr<double> ServerProcess::PeakRssMb() const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      const double kb = std::strtod(line.c_str() + 6, nullptr);
      if (kb > 0.0) return kb / 1024.0;
      break;
    }
  }
  return util::InternalError("no VmHWM for the server process");
}

util::StatusOr<double> ServerProcess::CpuSeconds() const {
  std::ifstream stat("/proc/" + std::to_string(pid_) + "/stat");
  std::string line;
  std::getline(stat, line);
  // Fields after the parenthesised command name, which may hold spaces:
  // state is field 3, utime and stime are fields 14 and 15.
  const size_t close = line.rfind(')');
  if (close == std::string::npos) {
    return util::InternalError("cannot read the server's CPU time");
  }
  std::istringstream fields(line.substr(close + 2));
  std::string skip;
  for (int field = 3; field < 14; ++field) fields >> skip;
  double utime = 0.0;
  double stime = 0.0;
  if (!(fields >> utime >> stime)) {
    return util::InternalError("cannot read the server's CPU time");
  }
  return (utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

util::Status ServerProcess::Stop() {
  if (pid_ <= 0) return util::OkStatus();
  ::kill(pid_, SIGTERM);
  const int64_t deadline = NowNs() + 60'000'000'000;
  while (ReadLog(1000)) {
    if (NowNs() > deadline) break;
  }
  int status = 0;
  pid_t done = 0;
  while ((done = ::waitpid(pid_, &status, WNOHANG)) == 0 &&
         NowNs() < deadline) {
    ::usleep(1000);
  }
  if (done == 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    return util::InternalError("server did not drain within 60 s");
  }
  pid_ = -1;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return util::InternalError("server exited abnormally: " + log_);
  }
  return util::OkStatus();
}

util::StatusOr<std::string> FetchStats(uint16_t port) {
  ASSIGN_OR_RETURN(net::FrameClient client,
                   net::FrameClient::Connect("127.0.0.1", port, 2000));
  RETURN_IF_ERROR(client.SetReceiveTimeout(10000));
  return client.Call(server::MakeStatsRequest(0));
}

// ---------------------------------------------------------------------------
// LoadDriver

LoadDriver::LoadDriver(const Inputs& inputs, int budgets,
                       std::vector<TenantOutcome>* outcomes)
    : inputs_(inputs),
      budgets_(budgets),
      outcomes_(outcomes),
      tenants_(inputs.tenants.size()) {}

util::Status LoadDriver::Connect(uint16_t port, int connections) {
  conns_.clear();
  conns_.resize(static_cast<size_t>(connections));
  for (Conn& conn : conns_) {
    ASSIGN_OR_RETURN(conn.socket, net::ConnectTcp("127.0.0.1", port));
    RETURN_IF_ERROR(net::SetNonBlocking(conn.socket.fd()));
  }
  return util::OkStatus();
}

void LoadDriver::Disconnect() { conns_.clear(); }

void LoadDriver::Send(int tenant, int64_t due_ns, int64_t now_ns) {
  TenantState& state = tenants_[static_cast<size_t>(tenant)];
  const Op& op = inputs_.tenants[static_cast<size_t>(tenant)].ops[state.next];
  Conn& conn = conns_[static_cast<size_t>(tenant) % conns_.size()];
  conn.out.append(inputs_.Frame(op));
  ++conn.in_flight;
  state.in_flight = true;
  if (state.resends == 0) {
    state.due_ns = due_ns;
    state.sent_ns = now_ns;
    ++current_->attempted;
    current_->request_bytes += op.size;
  }
}

util::Status LoadDriver::Flush() {
  for (Conn& conn : conns_) {
    while (conn.out_sent < conn.out.size()) {
      const ssize_t n =
          ::send(conn.socket.fd(), conn.out.data() + conn.out_sent,
                 conn.out.size() - conn.out_sent, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        return ErrnoStatus("send");
      }
      conn.out_sent += static_cast<size_t>(n);
    }
    if (conn.out_sent == conn.out.size()) {
      conn.out.clear();
      conn.out_sent = 0;
    }
  }
  return util::OkStatus();
}

int LoadDriver::Handle(const std::string& payload, int64_t now_ns,
                       PhaseResult* result) {
  auto response = server::DecodeBinaryResponse(payload);
  if (!response.ok()) {
    ++result->unmatched;
    return -1;
  }
  const int64_t id = response->correlation_id;
  const int tenant = TenantOf(id);
  const size_t op_index = OpOf(id);
  if (tenant < 0 || static_cast<size_t>(tenant) >= tenants_.size() ||
      !tenants_[static_cast<size_t>(tenant)].in_flight ||
      tenants_[static_cast<size_t>(tenant)].next != op_index) {
    ++result->unmatched;
    return -1;
  }
  TenantState& state = tenants_[static_cast<size_t>(tenant)];
  --conns_[static_cast<size_t>(tenant) % conns_.size()].in_flight;
  state.in_flight = false;
  TenantOutcome& outcome = (*outcomes_)[static_cast<size_t>(tenant)];
  outcome.shard = response->shard;
  result->response_bytes +=
      static_cast<int64_t>(payload.size() + net::kFrameHeaderBytes);

  if (response->status == server::kBinaryStatusOverloaded &&
      state.resends < kMaxResends) {
    ++state.resends;
    ++result->resends;
    state.retry_at_ns = now_ns + kResendBackoffNs;
    retry_.push_back(tenant);
    return -1;
  }

  const Op& op = inputs_.tenants[static_cast<size_t>(tenant)].ops[op_index];
  bool ok = response->status == server::kBinaryStatusOk;
  if (ok && !op.ingest) {
    if (response->cycle <= outcome.last_cycle) {
      ++result->order_violations;
    } else {
      outcome.last_cycle = response->cycle;
    }
    if (response->policies.size() != static_cast<size_t>(budgets_)) {
      ok = false;
    } else {
      for (int b = 0; b < budgets_; ++b) {
        outcome.objectives[op_index * static_cast<size_t>(budgets_) +
                           static_cast<size_t>(b)] =
            response->policies[static_cast<size_t>(b)].objective;
      }
    }
  }
  outcome.status[op_index] = ok ? kOk : kFailed;
  ++(ok ? result->ok : result->failed);
  if (ok) result->ok_done_ns.push_back(now_ns);

  const int64_t start_ns = open_loop_ ? state.due_ns : state.sent_ns;
  if (open_loop_) {
    result->due_latency.emplace_back(
        state.due_ns, ok ? static_cast<double>(now_ns - state.due_ns) * 1e-9
                         : std::numeric_limits<double>::infinity());
  }
  if (spans_ != nullptr) {
    spans_->Add(id, Layer::kClient, Layer::kNone, start_ns, now_ns);
    if (ok && !op.ingest) {
      spans_->Add(id, Layer::kServerCycle, Layer::kClient, start_ns,
                  start_ns + static_cast<int64_t>(response->seconds * 1e9));
    }
  }
  state.resends = 0;
  ++state.next;
  return tenant;
}

template <typename OnDone>
util::Status LoadDriver::Pump(int64_t timeout_ns, PhaseResult* result,
                              OnDone&& on_done) {
  pollfd pfds[8];
  const size_t n = std::min<size_t>(conns_.size(), 8);
  for (size_t c = 0; c < n; ++c) {
    pfds[c].fd = conns_[c].socket.fd();
    pfds[c].events = static_cast<short>(
        POLLIN | (conns_[c].out_sent < conns_[c].out.size() ? POLLOUT : 0));
    pfds[c].revents = 0;
  }
  timespec ts{static_cast<time_t>(timeout_ns / 1'000'000'000),
              static_cast<long>(timeout_ns % 1'000'000'000)};
  const int ready = ::ppoll(pfds, n, &ts, nullptr);
  if (ready < 0) {
    if (errno == EINTR) return util::OkStatus();
    return ErrnoStatus("ppoll");
  }
  if (ready == 0) return util::OkStatus();
  char buffer[1 << 16];
  std::string payload;
  for (size_t c = 0; c < n; ++c) {
    if (pfds[c].revents & (POLLERR | POLLNVAL)) {
      return util::InternalError("connection error");
    }
    if (!(pfds[c].revents & (POLLIN | POLLHUP))) continue;
    Conn& conn = conns_[c];
    for (;;) {
      const ssize_t got = ::recv(conn.socket.fd(), buffer, sizeof(buffer), 0);
      if (got > 0) {
        conn.decoder.Append(buffer, static_cast<size_t>(got));
        if (static_cast<size_t>(got) < sizeof(buffer)) break;
        continue;
      }
      if (got == 0) return util::InternalError("server closed a connection");
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return ErrnoStatus("recv");
    }
    const int64_t now_ns = NowNs();
    for (;;) {
      ASSIGN_OR_RETURN(const bool more, conn.decoder.Next(&payload));
      if (!more) break;
      const int tenant = Handle(payload, now_ns, result);
      if (tenant >= 0) on_done(tenant, now_ns);
    }
  }
  return Flush();
}

bool LoadDriver::TakeDueRetry(int64_t now_ns, int* tenant) {
  for (size_t i = 0; i < retry_.size(); ++i) {
    if (tenants_[static_cast<size_t>(retry_[i])].retry_at_ns <= now_ns) {
      *tenant = retry_[i];
      retry_[i] = retry_.back();
      retry_.pop_back();
      return true;
    }
  }
  return false;
}

int64_t LoadDriver::NextRetryNs() const {
  int64_t next = std::numeric_limits<int64_t>::max();
  for (const int tenant : retry_) {
    next = std::min(next, tenants_[static_cast<size_t>(tenant)].retry_at_ns);
  }
  return next;
}

util::StatusOr<PhaseResult> LoadDriver::RunClosed(int phase, int window) {
  PhaseResult result;
  current_ = &result;
  open_loop_ = false;
  retry_.clear();
  const size_t begin = inputs_.phase_begin[phase];
  const size_t end = inputs_.phase_begin[phase + 1];
  const size_t num_conns = conns_.size();
  result.ok_done_ns.reserve((end - begin) * tenants_.size());
  std::vector<std::deque<int>> ready(num_conns);
  for (size_t t = 0; t < tenants_.size(); ++t) {
    tenants_[t] = TenantState();
    tenants_[t].next = begin;
    if (begin < end) ready[t % num_conns].push_back(static_cast<int>(t));
  }
  size_t active = begin < end ? tenants_.size() : 0;
  const auto on_done = [&](int tenant, int64_t) {
    if (tenants_[static_cast<size_t>(tenant)].next < end) {
      ready[static_cast<size_t>(tenant) % num_conns].push_back(tenant);
    } else {
      --active;
    }
  };
  const int64_t start_ns = NowNs();
  int64_t last_progress_ns = start_ns;
  while (active > 0) {
    const int64_t now_ns = NowNs();
    int retry = -1;
    while (TakeDueRetry(now_ns, &retry)) {
      ready[static_cast<size_t>(retry) % num_conns].push_front(retry);
    }
    for (size_t c = 0; c < num_conns; ++c) {
      while (conns_[c].in_flight < window && !ready[c].empty()) {
        const int tenant = ready[c].front();
        ready[c].pop_front();
        Send(tenant, now_ns, now_ns);
      }
    }
    RETURN_IF_ERROR(Flush());
    const int64_t before = result.ok + result.failed + result.resends;
    const int64_t next_retry = NextRetryNs();
    const int64_t wait_ns =
        next_retry == std::numeric_limits<int64_t>::max()
            ? 100'000'000
            : std::max<int64_t>(0, next_retry - NowNs());
    RETURN_IF_ERROR(Pump(wait_ns, &result, on_done));
    if (result.ok + result.failed + result.resends != before) {
      last_progress_ns = NowNs();
    } else if (NowNs() - last_progress_ns > kStallNs) {
      return util::InternalError(std::string("no response for 30 s in the ") +
                                 PhaseName(phase) + " phase");
    }
  }
  result.start_ns = start_ns;
  result.seconds = static_cast<double>(NowNs() - start_ns) * 1e-9;
  current_ = nullptr;
  return result;
}

util::StatusOr<PhaseResult> LoadDriver::RunOpen(double rate) {
  PhaseResult result;
  current_ = &result;
  open_loop_ = true;
  retry_.clear();
  const size_t begin = inputs_.phase_begin[kOpen];
  const size_t end = inputs_.phase_begin[kOpen + 1];
  const std::vector<std::pair<uint32_t, uint32_t>>& schedule =
      inputs_.open_schedule;
  const size_t total = schedule.size();
  // slot_of[t * ops + k - begin]: the slot of tenant t's op k.
  const size_t ops = end - begin;
  std::vector<uint32_t> slot_of(tenants_.size() * ops);
  for (size_t j = 0; j < total; ++j) {
    slot_of[schedule[j].first * ops + schedule[j].second - begin] =
        static_cast<uint32_t>(j);
  }
  for (TenantState& state : tenants_) {
    state = TenantState();
    state.next = begin;
  }
  const int64_t start_ns = NowNs() + 1'000'000;
  const double interval_ns = 1e9 / rate;
  const auto due = [&](size_t slot) {
    return start_ns +
           static_cast<int64_t>(std::llround(static_cast<double>(slot) *
                                             interval_ns));
  };
  size_t cursor = 0;  // slots below it are released
  size_t done = 0;
  result.lag.reserve(total);
  result.ok_done_ns.reserve(total);
  result.due_latency.reserve(total);
  // A tenant whose previous op was still in flight at its next op's due
  // time sends that op as soon as the previous one completes; its latency
  // still counts from the due time.
  const auto on_done = [&](int tenant, int64_t now_ns) {
    ++done;
    const TenantState& state = tenants_[static_cast<size_t>(tenant)];
    if (state.next >= end) return;
    const size_t slot =
        slot_of[static_cast<size_t>(tenant) * ops + state.next - begin];
    if (slot < cursor) Send(tenant, due(slot), now_ns);
  };
  int64_t last_progress_ns = NowNs();
  while (done < total) {
    const int64_t now_ns = NowNs();
    int retry = -1;
    while (TakeDueRetry(now_ns, &retry)) {
      Send(retry, tenants_[static_cast<size_t>(retry)].due_ns, now_ns);
    }
    while (cursor < total && due(cursor) <= now_ns) {
      const auto [tenant, op] = schedule[cursor];
      TenantState& state = tenants_[tenant];
      if (!state.in_flight && state.resends == 0 && state.next == op) {
        result.lag.push_back(static_cast<double>(now_ns - due(cursor)) * 1e-9);
        Send(static_cast<int>(tenant), due(cursor), now_ns);
      }
      ++cursor;
    }
    RETURN_IF_ERROR(Flush());
    int64_t wake_ns = cursor < total ? due(cursor) : now_ns + 100'000'000;
    wake_ns = std::min(wake_ns, NextRetryNs());
    const int64_t before = result.ok + result.failed + result.resends;
    RETURN_IF_ERROR(
        Pump(std::max<int64_t>(0, wake_ns - NowNs()), &result, on_done));
    if (result.ok + result.failed + result.resends != before ||
        cursor < total) {
      last_progress_ns = NowNs();
    } else if (NowNs() - last_progress_ns > kStallNs) {
      return util::InternalError("no response for 30 s in the open phase");
    }
  }
  result.start_ns = start_ns;
  result.seconds = static_cast<double>(NowNs() - start_ns) * 1e-9;
  open_loop_ = false;
  current_ = nullptr;
  return result;
}

}  // namespace perfbench
