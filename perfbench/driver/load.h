#ifndef PERFBENCH_DRIVER_LOAD_H_
#define PERFBENCH_DRIVER_LOAD_H_

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "driver/inputs.h"
#include "driver/spans.h"
#include "net/frame.h"
#include "net/socket.h"
#include "util/status.h"
#include "util/statusor.h"

namespace perfbench {

/// An audit_server child process. Its stdout goes to /dev/null, so the
/// driver's own stdout stays a clean report; its stderr is read for the
/// bound port and kept for diagnostics. The destructor kills and reaps a
/// server that was not stopped, and the child dies with the driver.
class ServerProcess {
 public:
  /// Starts `argv` (argv[0] is the binary) and waits until it prints its
  /// listening port.
  static auditgame::util::StatusOr<std::unique_ptr<ServerProcess>> Spawn(
      const std::vector<std::string>& argv);
  ~ServerProcess();

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  uint16_t port() const { return port_; }
  /// VmHWM of the live process, in MiB.
  auditgame::util::StatusOr<double> PeakRssMb() const;
  /// User + system CPU time of all the process's threads so far, seconds.
  auditgame::util::StatusOr<double> CpuSeconds() const;
  /// SIGTERM, then waits for the graceful drain; error unless it exits 0.
  auditgame::util::Status Stop();

 private:
  ServerProcess(pid_t pid, int err_fd) : pid_(pid), err_fd_(err_fd) {}
  /// Appends whatever stderr has ready, waiting up to `timeout_ms`; false
  /// once the pipe is closed.
  bool ReadLog(int timeout_ms);

  pid_t pid_ = -1;
  int err_fd_ = -1;
  uint16_t port_ = 0;
  std::string log_;
};

/// What happened to every op of a run, per tenant and op index.
enum OpStatus : uint8_t { kUnsent = 0, kOk, kFailed };

struct TenantOutcome {
  std::vector<uint8_t> status;
  /// Served objective per solve op and budget (NaN where nothing was
  /// served); ops.size() * budgets entries.
  std::vector<double> objectives;
  /// Shard that answered the tenant (from any response).
  int shard = -1;
  int64_t last_cycle = 0;
};

struct PhaseResult {
  int64_t attempted = 0;
  int64_t ok = 0;
  int64_t failed = 0;
  /// Re-sends after `overloaded`; not ops.
  int64_t resends = 0;
  int64_t order_violations = 0;
  int64_t unmatched = 0;
  int64_t start_ns = 0;
  double seconds = 0.0;
  /// When each op answered `ok` completed, in completion order.
  std::vector<int64_t> ok_done_ns;
  /// Open loop only: each op's due time and its latency from then, in
  /// seconds (infinite for an op not answered `ok`), and how late each
  /// op left.
  std::vector<std::pair<int64_t, double>> due_latency;
  std::vector<double> lag;
  int64_t request_bytes = 0;
  int64_t response_bytes = 0;
};

/// One single-threaded client over a few pipelined non-blocking
/// connections. Tenant t always uses connection t % connections, and at
/// most one request per tenant is in flight, so per-tenant order holds.
class LoadDriver {
 public:
  LoadDriver(const Inputs& inputs, int budgets,
             std::vector<TenantOutcome>* outcomes);

  /// Client spans of the following phases go to `spans` (null: none).
  void set_spans(SpanLog* spans) { spans_ = spans; }

  auditgame::util::Status Connect(uint16_t port, int connections);
  void Disconnect();

  /// Every tenant's ops of `phase`, with at most `window` requests in
  /// flight per connection; the next op leaves as soon as one completes.
  auditgame::util::StatusOr<PhaseResult> RunClosed(int phase, int window);

  /// The open-loop phase: slot j of Inputs::open_schedule is due at
  /// start + j / rate and is timed from then, even when it leaves
  /// late because its tenant's previous op is still in flight.
  auditgame::util::StatusOr<PhaseResult> RunOpen(double rate);

 private:
  struct Conn {
    auditgame::net::Socket socket;
    auditgame::net::FrameDecoder decoder;
    std::string out;
    size_t out_sent = 0;
    int in_flight = 0;
  };
  struct TenantState {
    size_t next = 0;  // next op index
    bool in_flight = false;
    /// Re-sends of the op in flight (or waiting to be re-sent).
    int resends = 0;
    int64_t due_ns = 0;   // when the op in flight was due
    int64_t sent_ns = 0;  // first send of the op in flight
    int64_t retry_at_ns = 0;
  };

  void Send(int tenant, int64_t due_ns, int64_t now_ns);
  auditgame::util::Status Flush();
  /// Waits up to `timeout_ns` for responses (0 = poll) and handles every
  /// complete frame. `on_done(tenant, now_ns)` runs after a tenant's op
  /// reached a terminal answer.
  template <typename OnDone>
  auditgame::util::Status Pump(int64_t timeout_ns, PhaseResult* result,
                               OnDone&& on_done);
  /// Processes one response payload; returns the tenant whose op reached
  /// a terminal answer, or -1 (re-send queued, or a protocol fault).
  int Handle(const std::string& payload, int64_t now_ns, PhaseResult* result);
  /// Pops one tenant whose re-send is due.
  bool TakeDueRetry(int64_t now_ns, int* tenant);
  int64_t NextRetryNs() const;

  const Inputs& inputs_;
  const int budgets_;
  std::vector<TenantOutcome>* outcomes_;
  SpanLog* spans_ = nullptr;
  std::vector<Conn> conns_;
  std::vector<TenantState> tenants_;
  PhaseResult* current_ = nullptr;
  bool open_loop_ = false;
  /// Tenants waiting to re-send after `overloaded`.
  std::vector<int> retry_;
};

/// One JSON `stats` round trip on a fresh connection; returns the raw
/// response document.
auditgame::util::StatusOr<std::string> FetchStats(uint16_t port);

int64_t NowNs();

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_LOAD_H_
