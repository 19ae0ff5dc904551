// perfbench_driver: one benchmark run against a real audit_server child
// process. It generates and encodes every request from --seed first, then
// times the set-up (spawn, listen, every tenant's cold first cycle) several
// times, an open-loop phase at a fixed arrival rate and a closed-loop phase
// with a fixed window, and checks that every op was answered, that each
// tenant's cycle numbers increase and that every served objective matches
// an in-process replay of the same requests. With --trace=1 it also times
// each layer's public calls in that replay and reports per-layer figures.
// The last line of stdout is one JSON object; perfbench/run.py is the
// command that builds, runs and reports it.
#include <signal.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "driver/inputs.h"
#include "driver/load.h"
#include "driver/replay.h"
#include "driver/spans.h"
#include "scenario/generator.h"
#include "util/flags.h"
#include "util/json.h"
#include "util/percentile.h"

namespace perfbench {
namespace {

using namespace auditgame;  // NOLINT

/// The served game and service configuration: audit_server's defaults,
/// passed to it explicitly so the replay is configured identically.
constexpr const char* kScenario = "uniform";
constexpr int kTypes = 5;
const std::vector<double> kBudgets = {6.0, 10.0};
constexpr double kEps = 0.25;
constexpr double kWarmMaxDrift = 0.25;
constexpr int kShards = 2;
constexpr int kReactors = 1;
constexpr int kConnections = 2;
/// Closed-loop requests in flight per connection.
constexpr int kWindow = 64;
/// Threads of the untraced replay, which runs after the server stopped.
constexpr int kReplayThreads = 2;
/// The server's micro-batch bound (audit_server's --batch default).
constexpr int kServerBatch = 16;
/// The stats verb serves a snapshot refreshed every 250 ms.
constexpr auto kStatsSettle = std::chrono::milliseconds(300);

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return util::NearestRankPercentileSorted(values, q);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Verbs, as the traced figures group spans.
constexpr int kIngest = 0;
constexpr int kSolveCycle = 1;
constexpr int kAnyVerb = 2;

/// Throughput and SLO attainment are medians over kWindows stretches of
/// their phase. Host stalls on a shared VM come and go within a run; the
/// median keeps the figure of the undisturbed majority of it.
constexpr size_t kWindows = 10;

/// Closed-loop throughput: the phase's completions are cut into kWindows
/// runs of equal count, and the median of their rates is reported.
double WindowedThroughput(const PhaseResult& phase) {
  const std::vector<int64_t>& done = phase.ok_done_ns;
  if (done.size() < kWindows) {
    return Ratio(static_cast<double>(done.size()), phase.seconds);
  }
  std::vector<double> rates;
  int64_t from_ns = phase.start_ns;
  for (size_t w = 1; w <= kWindows; ++w) {
    const size_t begin = (w - 1) * done.size() / kWindows;
    const size_t end = w * done.size() / kWindows;
    const int64_t to_ns = done[end - 1];
    rates.push_back(Ratio(static_cast<double>(end - begin),
                          static_cast<double>(to_ns - from_ns) * 1e-9));
    from_ns = to_ns;
  }
  return Percentile(rates, 0.50);
}

/// Open-loop SLO attainment: the ops are cut by due time into
/// kWindows stretches of equal length, and the median of the
/// stretches' shares answered `ok` within `slo_seconds` is reported, so a
/// host stall that backs up one stretch does not set the figure.
double WindowedSloRatio(const PhaseResult& open, double slo_seconds) {
  const std::vector<std::pair<int64_t, double>>& ops = open.due_latency;
  if (ops.empty()) return 0.0;
  int64_t first_ns = ops.front().first;
  int64_t last_ns = first_ns;
  for (const auto& [due_ns, seconds] : ops) {
    first_ns = std::min(first_ns, due_ns);
    last_ns = std::max(last_ns, due_ns);
  }
  const double span_ns = static_cast<double>(last_ns - first_ns) + 1.0;
  std::vector<double> within(kWindows, 0.0);
  std::vector<double> total(kWindows, 0.0);
  for (const auto& [due_ns, seconds] : ops) {
    const size_t w = static_cast<size_t>(
        static_cast<double>(due_ns - first_ns) / span_ns *
        static_cast<double>(kWindows));
    total[w] += 1.0;
    if (seconds <= slo_seconds) within[w] += 1.0;
  }
  std::vector<double> shares;
  for (size_t w = 0; w < kWindows; ++w) {
    if (total[w] > 0.0) shares.push_back(within[w] / total[w]);
  }
  return Percentile(shares, 0.50);
}

/// Shard counters summed over one `stats` response.
struct ServerCounters {
  double processed = 0.0;
  double batches = 0.0;
  double overloaded = 0.0;
};

util::StatusOr<ServerCounters> ReadCounters(uint16_t port) {
  std::this_thread::sleep_for(kStatsSettle);
  ASSIGN_OR_RETURN(const std::string reply, FetchStats(port));
  ASSIGN_OR_RETURN(const util::JsonValue doc, util::JsonValue::Parse(reply));
  const auto number = [](const util::JsonValue* obj, const char* key) {
    const util::JsonValue* v = obj == nullptr ? nullptr : obj->Find(key);
    return v != nullptr && v->is_number() ? v->as_number() : 0.0;
  };
  const util::JsonValue* shards = doc.Find("shards");
  if (shards == nullptr || !shards->is_array()) {
    return util::InternalError("stats response has no shards: " + reply);
  }
  ServerCounters counters;
  counters.overloaded = number(doc.Find("server"), "overloaded");
  for (const util::JsonValue& shard : shards->as_array()) {
    counters.processed += number(&shard, "processed");
    counters.batches += number(&shard, "batches");
  }
  return counters;
}

struct Totals {
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t order_violations = 0;
  int64_t unmatched = 0;

  void Add(const PhaseResult& phase) {
    attempted += phase.attempted;
    failed += phase.failed;
    order_violations += phase.order_violations;
    unmatched += phase.unmatched;
  }
};

int Run(int argc, char** argv) {
  util::FlagParser flags;
  flags.Define("server", "", "path of the audit_server binary");
  flags.Define("work_dir", "", "directory for the WAL measurement");
  flags.Define("seed", "1", "input seed");
  flags.Define("tenants", "256", "tenants");
  flags.Define("solves_per_ingest", "1", "solve_cycle requests per ingest");
  flags.Define("drift", "0", "per-cycle jitter amplitude");
  flags.Define("open_cycles", "1", "open-loop cycles per tenant");
  flags.Define("closed_cycles", "1", "closed-loop cycles per tenant");
  flags.Define("open_rate", "1000", "open-loop arrival rate, ops/s");
  flags.Define("slo_ms", "10", "open-loop latency limit");
  flags.Define("setup_reps", "3", "set-ups timed; the median is reported");
  flags.Define("trace", "0", "1 = traced run: per-layer figures");
  if (util::Status parsed = flags.Parse(argc, argv); !parsed.ok()) {
    std::cerr << parsed << "\n" << flags.HelpString(argv[0]);
    return 2;
  }
  signal(SIGPIPE, SIG_IGN);
  const std::string server_path = flags.GetString("server");
  const std::string work_dir = flags.GetString("work_dir");
  if (server_path.empty() || work_dir.empty()) {
    std::cerr << "--server and --work_dir are required\n";
    return 2;
  }
  const bool traced = flags.GetInt("trace") != 0;
  const int setup_reps = std::max(1, flags.GetInt("setup_reps"));
  const double slo_seconds = flags.GetDouble("slo_ms") * 1e-3;

  Shape shape;
  shape.tenants = flags.GetInt("tenants");
  shape.solves_per_ingest = flags.GetInt("solves_per_ingest");
  shape.drift = flags.GetDouble("drift");
  shape.open_cycles = flags.GetInt("open_cycles");
  shape.closed_cycles = flags.GetInt("closed_cycles");
  shape.seed = static_cast<uint64_t>(flags.GetInt("seed"));

  const auto fail = [](const std::string& what, const util::Status& status) {
    std::cerr << "perfbench_driver: " << what << ": " << status << "\n";
    return 1;
  };
  auto spec = scenario::SpecByName(kScenario);
  if (!spec.ok()) return fail("scenario", spec.status());
  spec->num_types = kTypes;
  auto game = scenario::Generate(*spec);
  if (!game.ok()) return fail("scenario", game.status());
  service::AuditServiceOptions service_options;
  service_options.budgets = kBudgets;
  service_options.solver_options.ishm.step_size = kEps;
  service_options.solver_options.cggs.pricing_threads = 1;
  service_options.warm_start_max_drift = kWarmMaxDrift;
  service_options.num_threads = -1;
  const std::vector<std::string> server_argv = {
      server_path,
      "--port=0",
      "--shards=" + std::to_string(kShards),
      "--reactors=" + std::to_string(kReactors),
      "--batch=" + std::to_string(kServerBatch),
      std::string("--scenario=") + kScenario,
      "--types=" + std::to_string(kTypes),
      "--budgets=6,10",
      "--eps=0.25",
      "--warm_max_drift=0.25",
      "--threads=-1",
      "--pricing_threads=1",
  };

  // Every request of every phase exists before anything is timed.
  auto inputs = MakeInputs(*game, shape, traced);
  if (!inputs.ok()) return fail("inputs", inputs.status());
  const int budgets = static_cast<int>(kBudgets.size());
  std::vector<TenantOutcome> outcomes(inputs->tenants.size());
  for (TenantOutcome& outcome : outcomes) {
    outcome.status.assign(inputs->OpsPerTenant(), kUnsent);
    outcome.objectives.assign(inputs->OpsPerTenant() * budgets,
                              std::numeric_limits<double>::quiet_NaN());
  }

  // Set-up, timed several times: spawn -> listening -> every tenant's
  // first ingest + solve_cycle (cold solves, per-tenant compile). The last
  // server stays up for the timed phases.
  Totals totals;
  std::vector<double> setup_seconds;
  std::unique_ptr<ServerProcess> server;
  SpanLog spans;
  LoadDriver load(*inputs, budgets, &outcomes);
  for (int rep = 0; rep < setup_reps; ++rep) {
    for (TenantOutcome& outcome : outcomes) outcome.last_cycle = 0;
    const int64_t start_ns = NowNs();
    auto spawned = ServerProcess::Spawn(server_argv);
    if (!spawned.ok()) return fail("spawn", spawned.status());
    server = std::move(*spawned);
    if (util::Status s = load.Connect(server->port(), kConnections); !s.ok()) {
      return fail("connect", s);
    }
    auto warmup = load.RunClosed(kWarmup, kWindow);
    if (!warmup.ok()) return fail("warm-up", warmup.status());
    setup_seconds.push_back(static_cast<double>(NowNs() - start_ns) * 1e-9);
    totals.Add(*warmup);
    if (rep + 1 < setup_reps) {
      load.Disconnect();
      if (util::Status s = server->Stop(); !s.ok()) return fail("stop", s);
    }
  }

  ServerCounters before;
  if (traced) {
    // Room for every client span of the traced phases (a request and its
    // server cycle), so no reallocation lands inside a timed phase, and for
    // the replay's: decode, service and encode per op, a span per solve (at
    // most two per solve_cycle, which alternates with ingest at worst), and
    // the WAL sample's appends and commits.
    const size_t traced_ops =
        inputs->tenants.size() *
        (inputs->phase_begin[kClosed] - inputs->phase_begin[kOpen] +
         inputs->phase_begin[kNumPhases] - inputs->phase_begin[kClosedTraced]);
    const size_t all_ops = inputs->tenants.size() * inputs->OpsPerTenant();
    spans.spans.reserve(2 * traced_ops + 4 * all_ops +
                        2 * ReplayConfig().wal_sample);
    auto counters = ReadCounters(server->port());
    if (!counters.ok()) return fail("stats", counters.status());
    before = *counters;
  }
  load.set_spans(traced ? &spans : nullptr);
  auto open = load.RunOpen(flags.GetDouble("open_rate"));
  if (!open.ok()) return fail("open loop", open.status());
  totals.Add(*open);
  load.set_spans(nullptr);
  auto cpu_before = server->CpuSeconds();
  if (!cpu_before.ok()) return fail("cpu time", cpu_before.status());
  auto closed = load.RunClosed(kClosed, kWindow);
  if (!closed.ok()) return fail("closed loop", closed.status());
  totals.Add(*closed);
  auto cpu_after = server->CpuSeconds();
  if (!cpu_after.ok()) return fail("cpu time", cpu_after.status());
  PhaseResult closed_traced;
  if (traced) {
    load.set_spans(&spans);
    auto repeat = load.RunClosed(kClosedTraced, kWindow);
    if (!repeat.ok()) return fail("traced closed loop", repeat.status());
    closed_traced = std::move(*repeat);
    totals.Add(closed_traced);
  }
  auto peak_rss = server->PeakRssMb();
  if (!peak_rss.ok()) return fail("rss", peak_rss.status());
  ServerCounters after;
  if (traced) {
    auto counters = ReadCounters(server->port());
    if (!counters.ok()) return fail("stats", counters.status());
    after = *counters;
  }
  load.Disconnect();
  if (util::Status s = server->Stop(); !s.ok()) return fail("stop", s);
  server.reset();

  // Correctness: every planned op answered, per-tenant cycle order, and
  // every served objective equal to the in-process replay's.
  int64_t unanswered = 0;
  for (const TenantOutcome& outcome : outcomes) {
    unanswered += std::count(outcome.status.begin(), outcome.status.end(),
                             static_cast<uint8_t>(kUnsent));
  }
  ReplayConfig replay;
  replay.game = &*game;
  replay.service = service_options;
  replay.traced = traced;
  replay.threads = traced ? 1 : kReplayThreads;
  replay.wal_dir = (std::filesystem::path(work_dir) / "wal-sample").string();
  replay.wal_batch = kServerBatch;
  ReplayCheck check;
  ReplayCounts counts;
  std::error_code ignored;
  std::filesystem::remove_all(replay.wal_dir, ignored);
  std::filesystem::create_directories(work_dir, ignored);
  const util::Status replayed =
      Replay(replay, *inputs, outcomes, &check, &counts, &spans);
  std::filesystem::remove_all(replay.wal_dir, ignored);
  if (!replayed.ok()) return fail("replay", replayed);

  util::JsonValue::Object checks;
  checks["unanswered"] = static_cast<double>(unanswered);
  checks["order_violations"] = static_cast<double>(totals.order_violations);
  checks["unmatched_responses"] = static_cast<double>(totals.unmatched);
  checks["objectives_compared"] = static_cast<double>(check.compared);
  checks["objective_mismatches"] = static_cast<double>(check.mismatches);
  checks["worst_relative_error"] = check.worst_relative_error;
  if (!check.first_mismatch.empty()) {
    checks["first_mismatch"] = check.first_mismatch;
  }
  const bool correct = unanswered == 0 && totals.order_violations == 0 &&
                       totals.unmatched == 0 && check.mismatches == 0 &&
                       check.compared > 0;

  util::JsonValue::Object metrics;
  if (!traced) {
    // Summed in tenant and op order, so the mean repeats bit for bit.
    double loss_sum = 0.0;
    int64_t loss_count = 0;
    for (const TenantOutcome& outcome : outcomes) {
      for (size_t i = inputs->phase_begin[kOpen] * budgets;
           i < outcome.objectives.size(); ++i) {
        if (std::isnan(outcome.objectives[i])) continue;
        loss_sum += outcome.objectives[i];
        ++loss_count;
      }
    }
    metrics["server_cpu_us_per_op"] =
        Ratio(*cpu_after - *cpu_before, static_cast<double>(closed->ok)) * 1e6;
    metrics["slo_ok_ratio"] = WindowedSloRatio(*open, slo_seconds);
    metrics["ok_ratio"] =
        Ratio(static_cast<double>(totals.attempted - totals.failed),
              static_cast<double>(totals.attempted));
    metrics["auditor_loss_mean"] =
        Ratio(loss_sum, static_cast<double>(loss_count));
    metrics["setup_s"] = Percentile(setup_seconds, 0.50);
    metrics["server_peak_rss_mb"] = *peak_rss;
  } else {
    // Every timing below comes from the span log. A span's request id
    // names its tenant and op, and so its phase and verb.
    const auto in = [&](int first_phase, int last_phase, int verb) {
      return [&, first_phase, last_phase, verb](int64_t id) {
        if (id < 0) return false;
        const size_t k = OpOf(id);
        const size_t tenant = static_cast<size_t>(TenantOf(id));
        const Op& op = inputs->tenants[tenant].ops[k];
        return k >= inputs->phase_begin[first_phase] &&
               k < inputs->phase_begin[last_phase + 1] &&
               (verb == kAnyVerb || op.ingest == (verb == kIngest));
      };
    };
    const auto any = [](int64_t) { return true; };
    const auto open_ops = [&](int verb) { return in(kOpen, kOpen, verb); };
    const auto timed = [&](int verb) {
      return in(kOpen, kNumPhases - 1, verb);
    };
    const auto p50 = [](const std::vector<double>& v) {
      return Percentile(v, 0.50);
    };
    const std::vector<double> client[2] = {
        spans.Seconds(Layer::kClient, open_ops(kIngest)),
        spans.Seconds(Layer::kClient, open_ops(kSolveCycle))};
    const std::vector<double> wire_wait =
        spans.Seconds(Layer::kClient, open_ops(kSolveCycle), /*self=*/true);
    std::vector<double> decode[2];
    std::vector<double> service[2];
    std::vector<double> encode[2];
    for (const int verb : {kIngest, kSolveCycle}) {
      decode[verb] = spans.Seconds(Layer::kDecode, timed(verb));
      service[verb] = spans.Seconds(verb == kIngest ? Layer::kServiceIngest
                                                    : Layer::kServiceCycle,
                                    timed(verb));
      encode[verb] = spans.Seconds(Layer::kEncode, timed(verb));
    }
    const std::vector<double> warm_solve =
        spans.Seconds(Layer::kWarmSolve, timed(kAnyVerb));
    const std::vector<double> wal_commit =
        spans.Seconds(Layer::kWalCommit, any);

    metrics["client.throughput_rps"] = WindowedThroughput(*closed);
    metrics["client.solve_p50_ms"] =
        Percentile(client[kSolveCycle], 0.50) * 1e3;
    metrics["client.solve_p99_ms"] =
        Percentile(client[kSolveCycle], 0.99) * 1e3;
    metrics["client.ingest_p50_ms"] = Percentile(client[kIngest], 0.50) * 1e3;
    metrics["client.ingest_p99_ms"] = Percentile(client[kIngest], 0.99) * 1e3;
    metrics["wire.wait_p50_us"] = Percentile(wire_wait, 0.50) * 1e6;
    metrics["wire.wait_p99_us"] = Percentile(wire_wait, 0.99) * 1e6;
    metrics["wire.request_bytes_mean"] =
        Ratio(static_cast<double>(open->request_bytes +
                                  closed_traced.request_bytes),
              static_cast<double>(open->attempted + closed_traced.attempted));
    const int64_t responses = open->ok + open->failed + open->resends +
                              closed_traced.ok + closed_traced.failed +
                              closed_traced.resends;
    metrics["wire.response_bytes_mean"] =
        Ratio(static_cast<double>(open->response_bytes +
                                  closed_traced.response_bytes),
              static_cast<double>(responses));
    metrics["shard.batch_mean"] = Ratio(after.processed - before.processed,
                                        after.batches - before.batches);
    metrics["shard.overloaded"] = after.overloaded - before.overloaded;
    metrics["codec.decode_us"] =
        p50(spans.Seconds(Layer::kDecode, timed(kAnyVerb))) * 1e6;
    metrics["codec.encode_us"] = p50(encode[kSolveCycle]) * 1e6;
    metrics["service.ingest_us"] = p50(service[kIngest]) * 1e6;
    metrics["service.cycle_self_us"] =
        p50(spans.Seconds(Layer::kServiceCycle, timed(kSolveCycle),
                          /*self=*/true)) *
        1e6;
    metrics["cache.hit_ratio"] =
        Ratio(static_cast<double>(counts.timed_cache),
              static_cast<double>(counts.timed_policies));
    metrics["service.warm_solves"] = static_cast<double>(counts.timed_warm);
    metrics["service.cold_solves"] = static_cast<double>(counts.timed_cold);
    metrics["solver.warm_solve_us_p50"] = Percentile(warm_solve, 0.50) * 1e6;
    metrics["solver.warm_solve_us_p99"] = Percentile(warm_solve, 0.99) * 1e6;
    metrics["solver.cold_solve_ms_p50"] =
        p50(spans.Seconds(Layer::kColdSolve, any)) * 1e3;
    metrics["solver.compile_hit_ratio"] =
        Ratio(static_cast<double>(counts.compile_hits),
              static_cast<double>(counts.compile_hits + counts.compile_misses));
    const double solves = static_cast<double>(counts.solves);
    metrics["solver.evaluations_per_solve"] =
        Ratio(static_cast<double>(counts.evaluations), solves);
    metrics["solver.distinct_evaluations_per_solve"] =
        Ratio(static_cast<double>(counts.distinct_evaluations), solves);
    metrics["wal.append_us"] = p50(spans.Seconds(Layer::kWalAppend, any)) * 1e6;
    metrics["wal.commit_p50_us"] = Percentile(wal_commit, 0.50) * 1e6;
    metrics["wal.commit_p99_us"] = Percentile(wal_commit, 0.99) * 1e6;
    metrics["wal.bytes_per_op"] =
        Ratio(static_cast<double>(counts.wal_record_bytes),
              static_cast<double>(counts.wal_records));
    metrics["snapshot.serialize_ms"] =
        p50(spans.Seconds(Layer::kSerialize, any)) * 1e3;
    // Reconciliation: the share of the client's median latency that the
    // layer calls' medians do not cover (transport, reactor, shard queue).
    for (const int verb : {kIngest, kSolveCycle}) {
      const double explained =
          p50(decode[verb]) + p50(service[verb]) + p50(encode[verb]);
      const double latency = p50(client[verb]);
      metrics[verb == kIngest ? "attribution.unexplained_share.ingest"
                              : "attribution.unexplained_share.solve_cycle"] =
          latency > 0.0 ? 1.0 - explained / latency : 0.0;
    }
    metrics["loadgen.lag_p99_ms"] = Percentile(open->lag, 0.99) * 1e3;
    metrics["trace.overhead_ratio"] =
        Ratio(WindowedThroughput(closed_traced), WindowedThroughput(*closed));
  }

  util::JsonValue::Object phases;
  for (const auto& [name, phase] :
       {std::pair<const char*, const PhaseResult*>{"open", &*open},
        {"closed", &*closed}}) {
    util::JsonValue::Object p;
    p["attempted"] = static_cast<double>(phase->attempted);
    p["ok"] = static_cast<double>(phase->ok);
    p["failed"] = static_cast<double>(phase->failed);
    p["resends"] = static_cast<double>(phase->resends);
    p["seconds"] = phase->seconds;
    if (!phase->due_latency.empty()) {
      std::vector<double> latency;
      for (const auto& [due_ns, seconds] : phase->due_latency) {
        latency.push_back(seconds);
      }
      p["p50_ms"] = Percentile(latency, 0.50) * 1e3;
      p["p90_ms"] = Percentile(latency, 0.90) * 1e3;
      p["p99_ms"] = Percentile(latency, 0.99) * 1e3;
    }
    phases[name] = std::move(p);
  }
  util::JsonValue::Object build;
  build["type"] = PERFBENCH_BUILD_TYPE;
  build["compiler"] = PERFBENCH_COMPILER;

  util::JsonValue::Object report;
  report["correct"] = correct;
  report["attempted"] = static_cast<double>(totals.attempted);
  report["failed"] = static_cast<double>(totals.failed);
  report["metrics"] = std::move(metrics);
  report["checks"] = std::move(checks);
  report["phases"] = std::move(phases);
  report["build"] = std::move(build);
  std::cout << util::JsonValue(std::move(report)).Dump() << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Run(argc, argv); }
