#ifndef AUDIT_GAME_SERVER_AUDIT_SERVER_H_
#define AUDIT_GAME_SERVER_AUDIT_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/game.h"
#include "net/frame.h"
#include "net/poller.h"
#include "net/socket.h"
#include "server/durability.h"
#include "server/reactor.h"
#include "server/shard.h"
#include "service/audit_service.h"
#include "util/json.h"
#include "util/status.h"

namespace auditgame::server {

struct AuditServerOptions {
  /// Numeric IPv4 bind address.
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; read it back with port() after Start().
  uint16_t port = 0;
  int num_shards = 4;
  /// IO threads. Each accepted connection is pinned to one reactor for its
  /// whole life (conn_id % num_reactors), so reactors share nothing but
  /// the accept stream and the shard queues.
  int num_reactors = 1;
  /// Per-shard request-queue bound — the backpressure knob. A full queue
  /// answers `overloaded` immediately instead of buffering.
  size_t queue_capacity = 128;
  /// Max requests one shard wakeup drains (the micro-batch size).
  size_t max_batch = 16;
  size_t max_frame_payload = net::kDefaultMaxFramePayload;
  /// Per-connection write-buffer bound; a peer further behind than this is
  /// disconnected (slow-consumer close) rather than buffered forever.
  size_t max_write_buffer = 4u << 20;
  /// Connections with no traffic for this long — and nothing owed to them
  /// — are reaped (dead clients do not hold fds forever). 0 disables.
  int idle_timeout_ms = 300000;
  /// Accept cap: beyond this many live connections new accepts are closed
  /// immediately (a graceful refusal, not a hang). 0 = unlimited.
  size_t max_connections = 0;
  /// How often the acceptor rebuilds the stats snapshot the `stats` verb
  /// answers from (reactors never lock a shard for it).
  int stats_refresh_ms = 250;
  /// How long a graceful stop waits for shards to drain and responses to
  /// flush before giving up.
  int drain_timeout_ms = 10000;
  /// Per-tenant serving configuration. Set service.num_threads < 0 for
  /// servers with many tenants (tools/audit_server does): every tenant
  /// owns a solver engine, and an engine thread pool per tenant does not
  /// scale — inline mode solves on the shard thread itself.
  service::AuditServiceOptions service;
  /// Durable state: per-shard snapshots + ingest/solve WAL under
  /// `durability.data_dir` (empty = off). Start() recovers every shard
  /// from disk before the server accepts a single connection.
  DurabilityOptions durability;
};

/// The wire-serving layer over the paper's audit loop: N shards, each a
/// single-writer AuditService host on its own thread, fronted by a pool of
/// epoll reactor IO threads speaking the
/// length-prefixed protocol of server/protocol.h in its JSON or binary
/// encoding (server/binary_codec.h). The acceptor thread — the one that
/// calls Run() — owns the listener and hands each connection to one
/// reactor for life; tenants are routed by FNV-1a hash of their id, so one
/// tenant's cycles stay ordered (same shard, FIFO queue) while tenants on
/// different shards solve concurrently. Connections pipeline freely:
/// responses are paired by correlation id and may return out of submission
/// order across tenants. See docs/DESIGN.md "Network serving".
///
/// Lifecycle: Start() binds and spawns the shard + reactor threads; Run()
/// owns the calling thread until RequestStop() (async-signal-safe,
/// callable from a SIGINT handler) — it then stops accepting, lets every
/// shard drain its accepted queue, waits for every reactor to flush the
/// resulting responses, and returns. Every accepted request is answered
/// with a policy, `overloaded`, or an error frame — nothing is dropped in
/// silence.
class AuditServer {
 public:
  /// Every tenant's game starts as a copy of `base_instance` and diverges
  /// through `ingest`.
  AuditServer(core::GameInstance base_instance, AuditServerOptions options);
  ~AuditServer();

  AuditServer(const AuditServer&) = delete;
  AuditServer& operator=(const AuditServer&) = delete;

  util::Status Start();
  util::Status Run();

  /// Signals Run() to begin the graceful drain. Async-signal-safe: one
  /// atomic store plus a write(2) to the wake channel.
  void RequestStop();

  /// The bound port (valid after Start()).
  uint16_t port() const { return port_; }

  /// Deterministic tenant routing: FNV-1a(tenant) mod num_shards. Exposed
  /// for the routing tests and capacity planning.
  static size_t ShardForTenant(const std::string& tenant, size_t num_shards);

  /// Builds a fresh stats body (server counters + per-shard snapshots) —
  /// the final-summary path for tools and tests. The `stats` verb itself
  /// is answered from the cached snapshot (see StatsSnapshotBody), so a
  /// stats request never locks a shard from a reactor thread.
  util::JsonValue::Object StatsBody();

  /// Per-shard timing-free state fingerprints (hex). Test/inspection hook:
  /// call only while the shards are quiescent (before Run() or after it
  /// returned) — it serializes live tenant state.
  std::vector<std::string> StateFingerprints();

 private:
  /// The frame handler every reactor runs; returns false to poison the
  /// connection (sticky binary-decode failure).
  bool HandleFrame(Reactor& reactor, uint64_t conn_id,
                   const std::string& payload);
  /// Routes one validated request to its shard, answering `overloaded`
  /// when the queue refuses it. `payload` is the verbatim frame body —
  /// WAL'd for state-mutating verbs when durability is on.
  void Dispatch(Reactor& reactor, uint64_t conn_id, Request request,
                const std::string& payload);
  /// Copy of the periodically refreshed stats snapshot (what the `stats`
  /// verb answers with).
  util::JsonValue::Object StatsSnapshotBody();
  void RefreshStatsSnapshot();
  void AdmitConnections(std::vector<net::Socket> sockets, bool enforce_cap);
  void BeginDrain();
  int64_t LiveConnectionEstimate() const;

  AuditServerOptions options_;
  core::GameInstance base_instance_;

  net::Socket listener_;
  net::WakeChannel wake_;
  net::Poller acceptor_poller_;
  uint16_t port_ = 0;
  bool started_ = false;

  /// Reactors are declared before shards_ so shard threads (whose
  /// responders post into reactor inboxes) are destroyed first.
  std::vector<std::unique_ptr<Reactor>> reactors_;
  std::vector<std::unique_ptr<Shard>> shards_;

  uint64_t next_conn_id_ = 0;

  std::mutex snapshot_mutex_;
  std::shared_ptr<const util::JsonValue::Object> stats_snapshot_;

  std::atomic<bool> stop_requested_{false};
  bool draining_ = false;

  // Acceptor-thread counters, reported by the stats verb.
  std::atomic<int64_t> accepted_connections_{0};
  std::atomic<int64_t> accept_rejections_{0};
};

}  // namespace auditgame::server

#endif  // AUDIT_GAME_SERVER_AUDIT_SERVER_H_
