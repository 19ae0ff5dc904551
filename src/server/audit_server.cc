#include "server/audit_server.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "server/binary_codec.h"
#include "util/hash.h"

namespace auditgame::server {

namespace {
/// Acceptor granularity: bounds how stale the stats snapshot and the
/// drain/stop checks can get if a wake notification is lost.
constexpr int kAcceptorPollMs = 250;
constexpr int kDrainPollMs = 50;
}  // namespace

AuditServer::AuditServer(core::GameInstance base_instance,
                         AuditServerOptions options)
    : options_(std::move(options)), base_instance_(std::move(base_instance)) {
  if (options_.num_shards < 1) options_.num_shards = 1;
  if (options_.num_reactors < 1) options_.num_reactors = 1;
  if (options_.queue_capacity < 1) options_.queue_capacity = 1;
  if (options_.stats_refresh_ms < 1) options_.stats_refresh_ms = 1;
}

AuditServer::~AuditServer() {
  // Stop the shard workers before the reactors die: shard responders post
  // into reactor inboxes, so shards must be joined while the reactors (and
  // the response queues they own) are still alive. On paths where Run()
  // completed this is all no-ops. Nothing can be delivered anymore, so
  // shard backlogs are discarded, not drained.
  for (auto& shard : shards_) shard->DiscardPending();
  for (auto& shard : shards_) shard->Join();
  for (auto& reactor : reactors_) reactor->Kill();
  for (auto& reactor : reactors_) reactor->Join();
}

size_t AuditServer::ShardForTenant(const std::string& tenant,
                                   size_t num_shards) {
  util::Fnv1a hasher;
  hasher.AppendString(tenant);
  return static_cast<size_t>(hasher.value() % num_shards);
}

util::Status AuditServer::Start() {
  if (started_) return util::FailedPreconditionError("already started");
  ASSIGN_OR_RETURN(listener_, net::ListenTcp(options_.host, options_.port));
  ASSIGN_OR_RETURN(port_, net::LocalPort(listener_));
  ASSIGN_OR_RETURN(wake_, net::WakeChannel::Make());
  ASSIGN_OR_RETURN(acceptor_poller_, net::Poller::Create());
  RETURN_IF_ERROR(
      acceptor_poller_.Watch(listener_.fd(), /*read=*/true, /*write=*/false));
  RETURN_IF_ERROR(
      acceptor_poller_.Watch(wake_.fd(), /*read=*/true, /*write=*/false));

  ReactorOptions reactor_options;
  reactor_options.max_frame_payload = options_.max_frame_payload;
  reactor_options.max_write_buffer = options_.max_write_buffer;
  reactor_options.idle_timeout_ms = options_.idle_timeout_ms;
  reactors_.reserve(static_cast<size_t>(options_.num_reactors));
  for (int i = 0; i < options_.num_reactors; ++i) {
    reactors_.push_back(std::make_unique<Reactor>(
        i, reactor_options,
        [this](Reactor& reactor, uint64_t conn_id,
               const std::string& payload) {
          return HandleFrame(reactor, conn_id, payload);
        }));
  }

  shards_.reserve(static_cast<size_t>(options_.num_shards));
  for (int i = 0; i < options_.num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(
        i, base_instance_, options_.service, options_.queue_capacity,
        options_.max_batch,
        [this](std::vector<Shard::Response> batch) {
          // Route each response to the reactor that owns its connection
          // (conn_id % num_reactors — valid even after a close; the owner
          // counts the orphan). One PostResponses per reactor per batch.
          const size_t n = reactors_.size();
          if (n == 1) {
            reactors_[0]->PostResponses(std::move(batch));
            return;
          }
          std::vector<std::vector<Shard::Response>> per_reactor(n);
          for (Shard::Response& response : batch) {
            per_reactor[response.conn_id % n].push_back(std::move(response));
          }
          for (size_t r = 0; r < n; ++r) {
            if (!per_reactor[r].empty()) {
              reactors_[r]->PostResponses(std::move(per_reactor[r]));
            }
          }
        },
        [this] { wake_.Notify(); },
        options_.durability.enabled()
            ? std::make_unique<ShardPersistence>(i, options_.durability)
            : nullptr));
  }

  // Recover every shard before a single connection is accepted (and before
  // the shard threads start — recovery owns the shard state exclusively).
  // A failure here aborts startup: serving from wrong state is worse than
  // not serving.
  for (auto& shard : shards_) {
    RETURN_IF_ERROR(shard->Recover());
  }

  for (auto& reactor : reactors_) {
    RETURN_IF_ERROR(reactor->Start());
  }
  for (auto& shard : shards_) shard->Start();
  RefreshStatsSnapshot();
  started_ = true;
  return util::OkStatus();
}

void AuditServer::RequestStop() {
  stop_requested_.store(true, std::memory_order_release);
  wake_.Notify();  // one async-signal-safe write(2)
}

int64_t AuditServer::LiveConnectionEstimate() const {
  // accepted − closed is exact even while adoptions are still queued in
  // reactor inboxes (both counters are monotonic), which is what the
  // accept cap needs: an accept burst may not bypass it.
  int64_t closed = 0;
  for (const auto& reactor : reactors_) closed += reactor->closed_connections();
  return accepted_connections_.load(std::memory_order_relaxed) - closed;
}

void AuditServer::AdmitConnections(std::vector<net::Socket> sockets,
                                   bool enforce_cap) {
  int64_t live = LiveConnectionEstimate();
  for (net::Socket& socket : sockets) {
    if (enforce_cap && options_.max_connections > 0 &&
        live >= static_cast<int64_t>(options_.max_connections)) {
      // Graceful refusal: close immediately instead of letting the peer
      // hang in a never-served queue. The peer sees EOF on first read.
      accept_rejections_.fetch_add(1, std::memory_order_relaxed);
      socket.Close();
      continue;
    }
    const uint64_t conn_id = ++next_conn_id_;
    accepted_connections_.fetch_add(1, std::memory_order_relaxed);
    ++live;
    reactors_[conn_id % reactors_.size()]->Adopt(std::move(socket), conn_id);
  }
}

void AuditServer::BeginDrain() {
  draining_ = true;
  if (listener_.valid()) {
    // Closing a listening socket resets every handshake-complete
    // connection still waiting in its accept queue — and those peers may
    // already have written requests. Accept them first (cap waived: they
    // are a bounded, already-handshaken backlog) so the drain can answer
    // them (with `overloaded`) instead of RST-ing them away.
    if (auto accepted = net::AcceptAll(listener_); accepted.ok()) {
      AdmitConnections(std::move(*accepted), /*enforce_cap=*/false);
    }
    acceptor_poller_.Forget(listener_.fd());
    listener_.Close();
  }
  // Close the shard queues first: from here on every frame a reactor reads
  // gets `overloaded`, so reactor in-flight counts only shrink.
  for (auto& shard : shards_) shard->BeginDrain();
  for (auto& reactor : reactors_) reactor->BeginDrain();
}

util::Status AuditServer::Run() {
  if (!started_) return util::FailedPreconditionError("Start() first");
  std::chrono::steady_clock::time_point drain_deadline;
  auto last_refresh = std::chrono::steady_clock::now();
  bool killed = false;

  for (;;) {
    if (stop_requested_.load(std::memory_order_acquire) && !draining_) {
      BeginDrain();
      drain_deadline = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(options_.drain_timeout_ms);
    }
    if (draining_) {
      const bool all_drained =
          std::all_of(reactors_.begin(), reactors_.end(),
                      [](const auto& reactor) { return reactor->drained(); });
      if (all_drained) break;
      if (!killed && std::chrono::steady_clock::now() >= drain_deadline) {
        // Deadline: abandon shard backlogs so the reactors' outstanding
        // counts can never settle, then make them exit regardless.
        for (auto& shard : shards_) shard->DiscardPending();
        for (auto& reactor : reactors_) reactor->Kill();
        killed = true;
      }
    }

    auto events = acceptor_poller_.Wait(
        draining_ ? kDrainPollMs
                  : std::min(kAcceptorPollMs, options_.stats_refresh_ms));
    RETURN_IF_ERROR(events.status());
    for (const net::PollEvent& event : *events) {
      if (event.fd == wake_.fd()) {
        wake_.Drain();
        continue;
      }
      if (listener_.valid() && event.fd == listener_.fd()) {
        auto accepted = net::AcceptAll(listener_);
        if (!accepted.ok()) continue;  // transient; the listener stays up
        AdmitConnections(std::move(*accepted), /*enforce_cap=*/true);
      }
    }

    if (!draining_) {
      const auto now = std::chrono::steady_clock::now();
      if (now - last_refresh >=
          std::chrono::milliseconds(options_.stats_refresh_ms)) {
        last_refresh = now;
        RefreshStatsSnapshot();
      }
    }
  }

  // Reclaim the worker threads: shards first (their responders post into
  // reactor inboxes), then the reactors, then count responses that raced
  // the exit and could no longer be delivered.
  for (auto& shard : shards_) shard->DiscardPending();
  for (auto& shard : shards_) shard->Join();
  for (auto& reactor : reactors_) reactor->Kill();
  util::Status status = util::OkStatus();
  for (auto& reactor : reactors_) {
    reactor->Join();
    if (status.ok()) status = reactor->status();
    reactor->DrainLeftovers();
  }
  RefreshStatsSnapshot();  // final numbers for StatsBody() callers
  return status;
}

bool AuditServer::HandleFrame(Reactor& reactor, uint64_t conn_id,
                              const std::string& payload) {
  if (IsBinaryFrame(payload)) {
    reactor.SetBinaryMode(conn_id);
    auto request = DecodeBinaryRequest(payload);
    if (!request.ok()) {
      // A payload that claims to be binary and fails to decode means the
      // peer's encoder and ours disagree; every later frame is suspect.
      // One error frame, then the connection goes (sticky).
      reactor.CountProtocolError();
      reactor.Reply(conn_id,
                    EncodeBinaryErrorResponse(BinaryCorrelationIdOf(payload),
                                              request.status().ToString()));
      reactor.Poison(conn_id);
      return false;
    }
    Dispatch(reactor, conn_id, *std::move(request), payload);
    return true;
  }

  auto doc = util::JsonValue::Parse(payload);
  if (!doc.ok()) {
    reactor.CountProtocolError();
    if (reactor.binary_mode(conn_id)) {
      // A binary-mode peer produced a frame that is neither binary nor
      // JSON: encoder desync, same sticky discipline as a bad binary frame.
      reactor.Reply(conn_id,
                    EncodeBinaryErrorResponse(-1, doc.status().ToString()));
      reactor.Poison(conn_id);
      return false;
    }
    // Malformed JSON in a well-formed frame: answer with an error frame and
    // keep the connection — the stream itself is still in sync.
    reactor.Reply(conn_id, MakeErrorResponse(-1, doc.status().ToString()));
    return true;
  }
  auto request = ParseRequest(*doc);
  if (!request.ok()) {
    reactor.CountProtocolError();
    reactor.Reply(conn_id, MakeErrorResponse(RequestIdOf(*doc),
                                             request.status().ToString()));
    return true;
  }

  if (request->verb == Verb::kStats) {
    reactor.Reply(conn_id,
                  MakeStatsResponse(request->id, StatsSnapshotBody()));
    return true;
  }

  Dispatch(reactor, conn_id, *std::move(request), payload);
  return true;
}

void AuditServer::Dispatch(Reactor& reactor, uint64_t conn_id,
                           Request request, const std::string& payload) {
  const size_t shard = ShardForTenant(request.tenant, shards_.size());
  const int64_t id = request.id;
  const bool binary = request.binary;
  const bool mutates =
      request.verb == Verb::kIngest || request.verb == Verb::kSolveCycle;
  const unsigned char binary_verb = request.verb == Verb::kIngest
                                        ? kBinaryVerbIngest
                                        : kBinaryVerbSolveCycle;
  const std::string tenant = request.tenant;
  ShardTask task{conn_id, std::move(request), {}};
  // WAL the verbatim wire bytes of state-mutating verbs: replay re-parses
  // the identical input, so recovered state matches bit-for-bit.
  if (mutates && options_.durability.enabled()) task.wal_payload = payload;
  // During a drain the queues are closed, so TrySubmit fails and the
  // client gets the same retryable `overloaded` a full queue produces.
  if (!shards_[shard]->TrySubmit(std::move(task))) {
    reactor.CountOverloaded();
    reactor.Reply(conn_id,
                  binary ? EncodeBinaryOverloadedResponse(
                               id, static_cast<int>(shard), binary_verb)
                         : MakeOverloadedResponse(id, tenant,
                                                  static_cast<int>(shard)));
    return;
  }
  reactor.OnSubmitted(conn_id);  // settled by the shard's response
}

util::JsonValue::Object AuditServer::StatsSnapshotBody() {
  std::shared_ptr<const util::JsonValue::Object> snapshot;
  {
    std::lock_guard<std::mutex> lock(snapshot_mutex_);
    snapshot = stats_snapshot_;
  }
  if (!snapshot) return util::JsonValue::Object{};
  return *snapshot;  // copy; the shared body itself is immutable
}

void AuditServer::RefreshStatsSnapshot() {
  auto body =
      std::make_shared<const util::JsonValue::Object>(StatsBody());
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  stats_snapshot_ = std::move(body);
}

util::JsonValue::Object AuditServer::StatsBody() {
  int64_t active = 0, frames_in = 0, frames_out = 0, protocol_errors = 0;
  int64_t overloaded = 0, slow_closes = 0, orphaned = 0, idle_closes = 0;
  int64_t writes = 0;
  for (const auto& reactor : reactors_) {
    active += reactor->active_connections();
    frames_in += reactor->frames_in();
    frames_out += reactor->frames_out();
    writes += reactor->writes();
    protocol_errors += reactor->protocol_errors();
    overloaded += reactor->overloaded();
    slow_closes += reactor->slow_consumer_closes();
    orphaned += reactor->orphaned_responses();
    idle_closes += reactor->idle_closes();
  }

  util::JsonValue::Object body;
  util::JsonValue::Object server;
  server["active_connections"] = static_cast<double>(active);
  server["accepted_connections"] = static_cast<double>(
      accepted_connections_.load(std::memory_order_relaxed));
  server["accept_rejections"] = static_cast<double>(
      accept_rejections_.load(std::memory_order_relaxed));
  server["frames_in"] = static_cast<double>(frames_in);
  server["frames_out"] = static_cast<double>(frames_out);
  server["writes"] = static_cast<double>(writes);
  server["protocol_errors"] = static_cast<double>(protocol_errors);
  server["overloaded"] = static_cast<double>(overloaded);
  server["slow_consumer_closes"] = static_cast<double>(slow_closes);
  server["orphaned_responses"] = static_cast<double>(orphaned);
  server["idle_closes"] = static_cast<double>(idle_closes);
  server["shards"] = static_cast<int>(shards_.size());
  server["reactors"] = static_cast<int>(reactors_.size());
  server["draining"] = draining_;
  body["server"] = std::move(server);

  util::JsonValue::Array shards;
  shards.reserve(shards_.size());
  for (const auto& shard : shards_) {
    const ShardStatsSnapshot s = shard->Snapshot();
    util::JsonValue::Object obj;
    obj["shard"] = s.shard;
    obj["queue_depth"] = static_cast<double>(s.queue_depth);
    obj["queue_capacity"] = static_cast<double>(s.queue_capacity);
    obj["tenants"] = static_cast<double>(s.tenants);
    obj["processed"] = static_cast<double>(s.processed);
    obj["batches"] = static_cast<double>(s.batches);
    obj["ingests"] = static_cast<double>(s.ingests);
    obj["solves"] = static_cast<double>(s.solves);
    obj["request_errors"] = static_cast<double>(s.request_errors);
    obj["policies_from_cache"] = static_cast<double>(s.policies_from_cache);
    obj["warm_solves"] = static_cast<double>(s.warm_solves);
    obj["cold_solves"] = static_cast<double>(s.cold_solves);
    util::JsonValue::Object cache;
    cache["hits"] = static_cast<double>(s.cache.hits);
    cache["misses"] = static_cast<double>(s.cache.misses);
    cache["insertions"] = static_cast<double>(s.cache.insertions);
    cache["evictions"] = static_cast<double>(s.cache.evictions);
    obj["policy_cache"] = std::move(cache);
    util::JsonValue::Object compile;
    compile["hits"] = static_cast<double>(s.compile.hits);
    compile["misses"] = static_cast<double>(s.compile.misses);
    obj["compile_cache"] = std::move(compile);
    obj["solve_seconds_p50"] = s.solve_seconds_p50;
    obj["solve_seconds_p90"] = s.solve_seconds_p90;
    obj["solve_seconds_p99"] = s.solve_seconds_p99;
    obj["solve_seconds_max"] = s.solve_seconds_max;
    obj["solve_samples"] = static_cast<double>(s.solve_samples);
    obj["durability"] = s.durability;
    if (s.durability) {
      obj["wal_errors"] = static_cast<double>(s.wal_errors);
      util::JsonValue::Object persistence;
      persistence["last_snapshot_seq"] =
          static_cast<double>(s.persistence.last_snapshot_seq);
      persistence["wal_records"] =
          static_cast<double>(s.persistence.wal_records);
      persistence["wal_bytes"] = static_cast<double>(s.persistence.wal_bytes);
      persistence["wal_segments"] =
          static_cast<double>(s.persistence.wal_segments);
      persistence["snapshots_written"] =
          static_cast<double>(s.persistence.snapshots_written);
      persistence["wal_syncs"] = static_cast<double>(s.persistence.wal_syncs);
      persistence["fsync_seconds_p50"] = s.persistence.fsync_seconds_p50;
      persistence["fsync_seconds_p90"] = s.persistence.fsync_seconds_p90;
      persistence["fsync_seconds_p99"] = s.persistence.fsync_seconds_p99;
      persistence["fsync_seconds_max"] = s.persistence.fsync_seconds_max;
      persistence["recovery_replayed"] =
          static_cast<double>(s.persistence.recovery_replayed);
      persistence["recovery_seconds"] = s.persistence.recovery_seconds;
      persistence["recovery_wal_lsn"] =
          static_cast<double>(s.persistence.recovery_wal_lsn);
      persistence["recovery_fingerprint"] = s.persistence.recovery_fingerprint;
      persistence["wal_sync"] = s.persistence.wal_sync;
      obj["persistence"] = std::move(persistence);
    }
    shards.push_back(std::move(obj));
  }
  body["shards"] = std::move(shards);
  return body;
}

std::vector<std::string> AuditServer::StateFingerprints() {
  std::vector<std::string> fingerprints;
  fingerprints.reserve(shards_.size());
  for (auto& shard : shards_) {
    fingerprints.push_back(shard->StateFingerprint().ToHex());
  }
  return fingerprints;
}

}  // namespace auditgame::server
