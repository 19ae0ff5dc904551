#include "driver/replay.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <thread>
#include <utility>

#include "server/binary_codec.h"
#include "server/durability.h"
#include "util/serializer.h"

namespace perfbench {

using namespace auditgame;  // NOLINT
using service::AuditService;

namespace {

/// Binary pmf decode renormalises, which moves objectives by a few ULPs.
constexpr double kRelativeTolerance = 1e-9;

void Compare(const TenantOutcome& outcome, int tenant, size_t op,
             const AuditService::CycleReport& report, ReplayCheck* check) {
  const size_t budgets = report.policies.size();
  for (size_t b = 0; b < budgets; ++b) {
    const double served = outcome.objectives[op * budgets + b];
    const double replayed = report.policies[b].result.objective;
    const double scale =
        std::max({std::fabs(served), std::fabs(replayed), 1e-300});
    const double relative = std::fabs(served - replayed) / scale;
    ++check->compared;
    if (!(relative <= kRelativeTolerance)) {
      ++check->mismatches;
      if (check->first_mismatch.empty()) {
        check->first_mismatch =
            "tenant " + std::to_string(tenant) + " op " + std::to_string(op) +
            " budget " + std::to_string(b) + ": served " +
            std::to_string(served) + ", replay " + std::to_string(replayed);
      }
    }
    if (std::isfinite(relative)) {
      check->worst_relative_error =
          std::max(check->worst_relative_error, relative);
    }
  }
}

/// One stream, replayed once for every tenant that sent it.
struct Group {
  std::vector<int> tenants;
};

util::Status ReplayGroup(const ReplayConfig& config, const Inputs& inputs,
                         const std::vector<TenantOutcome>& outcomes,
                         const Group& group, ReplayCheck* check) {
  AuditService service(*config.game, config.service);
  const int first = group.tenants.front();
  const std::vector<Op>& ops = inputs.tenants[static_cast<size_t>(first)].ops;
  for (size_t k = 0; k < ops.size(); ++k) {
    if (outcomes[static_cast<size_t>(first)].status[k] != kOk) continue;
    ASSIGN_OR_RETURN(server::Request request,
                     server::DecodeBinaryRequest(inputs.Payload(ops[k])));
    if (ops[k].ingest) {
      RETURN_IF_ERROR(service.UpdateAlertDistributions(request.distributions));
      continue;
    }
    ASSIGN_OR_RETURN(const AuditService::CycleReport report,
                     service.RunCycle());
    for (const int tenant : group.tenants) {
      Compare(outcomes[static_cast<size_t>(tenant)], tenant, k, report, check);
    }
  }
  return util::OkStatus();
}

util::Status ReplayUntraced(const ReplayConfig& config, const Inputs& inputs,
                            const std::vector<TenantOutcome>& outcomes,
                            ReplayCheck* check) {
  // Tenants whose every op was applied and whose streams are equal are
  // served identical policies; the rest are replayed one by one.
  std::map<util::Fingerprint, size_t> by_stream;
  std::vector<Group> groups;
  for (size_t t = 0; t < inputs.tenants.size(); ++t) {
    const std::vector<uint8_t>& status = outcomes[t].status;
    const bool all_ok = std::all_of(status.begin(), status.end(),
                                    [](uint8_t s) { return s == kOk; });
    if (all_ok) {
      const auto [it, added] =
          by_stream.emplace(inputs.tenants[t].stream_key, groups.size());
      if (!added) {
        groups[it->second].tenants.push_back(static_cast<int>(t));
        continue;
      }
    }
    groups.push_back(Group{{static_cast<int>(t)}});
  }

  const int threads = std::max(1, config.threads);
  std::vector<ReplayCheck> checks(static_cast<size_t>(threads));
  std::vector<util::Status> statuses(static_cast<size_t>(threads));
  std::vector<std::thread> workers;
  for (int w = 0; w < threads; ++w) {
    workers.emplace_back([&, w] {
      for (size_t g = static_cast<size_t>(w); g < groups.size();
           g += static_cast<size_t>(threads)) {
        util::Status status = ReplayGroup(config, inputs, outcomes, groups[g],
                                          &checks[static_cast<size_t>(w)]);
        if (!status.ok()) {
          statuses[static_cast<size_t>(w)] = status;
          return;
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (int w = 0; w < threads; ++w) {
    RETURN_IF_ERROR(statuses[static_cast<size_t>(w)]);
    const ReplayCheck& part = checks[static_cast<size_t>(w)];
    check->compared += part.compared;
    check->mismatches += part.mismatches;
    check->worst_relative_error =
        std::max(check->worst_relative_error, part.worst_relative_error);
    if (check->first_mismatch.empty()) {
      check->first_mismatch = part.first_mismatch;
    }
  }
  return util::OkStatus();
}

/// Appends the first `wal_sample` timed payloads to a fresh WAL, committing
/// every `wal_batch` records as a shard does per micro-batch.
util::Status MeasureWal(const ReplayConfig& config, const Inputs& inputs,
                        const std::vector<TenantOutcome>& outcomes,
                        ReplayCounts* counts, SpanLog* spans) {
  server::DurabilityOptions options;
  options.data_dir = config.wal_dir;
  options.wal_sync = server::WalSync::kBatch;
  options.snapshot_every_records = 0;
  options.snapshot_interval_seconds = 0.0;
  options.snapshot_on_drain = false;
  server::ShardPersistence wal(0, options);
  RETURN_IF_ERROR(wal.Recover(
      [](const server::SnapshotContents&) { return util::OkStatus(); },
      [](const server::WalRecord&) { return util::OkStatus(); }));
  const size_t num_tenants = inputs.tenants.size();
  size_t appended = 0;
  uint64_t lsn = 0;
  for (int phase = kOpen; phase < kNumPhases; ++phase) {
    for (size_t k = inputs.phase_begin[phase];
         k < inputs.phase_begin[phase + 1]; ++k) {
      for (size_t t = 0; t < num_tenants; ++t) {
        if (outcomes[t].status[k] != kOk) continue;
        const std::string_view payload =
            inputs.Payload(inputs.tenants[t].ops[k]);
        counts->wal_record_bytes += static_cast<int64_t>(
            server::EncodeWalRecord(++lsn, payload).size());
        ++counts->wal_records;
        if (appended >= config.wal_sample) continue;
        const int64_t id = CorrelationId(static_cast<int>(t), k);
        const int64_t a = NowNs();
        RETURN_IF_ERROR(wal.AppendWal(payload).status());
        const int64_t b = NowNs();
        spans->Add(id, Layer::kWalAppend, Layer::kNone, a, b);
        if (++appended % static_cast<size_t>(config.wal_batch) == 0 ||
            appended == config.wal_sample) {
          const int64_t c = NowNs();
          RETURN_IF_ERROR(wal.CommitBatch());
          const int64_t d = NowNs();
          spans->Add(-1, Layer::kWalCommit, Layer::kNone, c, d);
        }
      }
    }
  }
  return wal.CommitBatch();
}

util::Status ReplayTraced(const ReplayConfig& config, const Inputs& inputs,
                          const std::vector<TenantOutcome>& outcomes,
                          ReplayCheck* check, ReplayCounts* counts,
                          SpanLog* spans) {
  const size_t num_tenants = inputs.tenants.size();
  std::vector<std::unique_ptr<AuditService>> services;
  services.reserve(num_tenants);
  for (size_t t = 0; t < num_tenants; ++t) {
    services.push_back(
        std::make_unique<AuditService>(*config.game, config.service));
  }
  size_t response_bytes = 0;  // keeps the encoders' output observable

  const auto apply = [&](size_t t, size_t k, bool timed) -> util::Status {
    const TenantOutcome& outcome = outcomes[t];
    if (outcome.status[k] != kOk) return util::OkStatus();
    const Op& op = inputs.tenants[t].ops[k];
    const int64_t id = CorrelationId(static_cast<int>(t), k);
    AuditService& service = *services[t];

    const int64_t a = NowNs();
    util::StatusOr<server::Request> request =
        server::DecodeBinaryRequest(inputs.Payload(op));
    const int64_t b = NowNs();
    RETURN_IF_ERROR(request.status());
    spans->Add(id, Layer::kDecode, Layer::kNone, a, b);

    int64_t c = 0;
    int64_t d = 0;
    int64_t e = 0;
    if (op.ingest) {
      c = NowNs();
      const util::Status updated =
          service.UpdateAlertDistributions(request->distributions);
      d = NowNs();
      RETURN_IF_ERROR(updated);
      response_bytes +=
          server::EncodeBinaryIngestOkResponse(id, outcome.shard).size();
      e = NowNs();
      spans->Add(id, Layer::kServiceIngest, Layer::kNone, c, d);
    } else {
      c = NowNs();
      util::StatusOr<AuditService::CycleReport> report = service.RunCycle();
      d = NowNs();
      RETURN_IF_ERROR(report.status());
      response_bytes +=
          server::EncodeBinarySolveCycleResponse(id, outcome.shard, *report)
              .size();
      e = NowNs();
      spans->Add(id, Layer::kServiceCycle, Layer::kNone, c, d);
      Compare(outcome, static_cast<int>(t), k, *report, check);

      int64_t offset = c;
      for (const AuditService::CyclePolicy& policy : report->policies) {
        if (timed) {
          ++counts->timed_policies;
          if (policy.source == AuditService::Source::kCache) {
            ++counts->timed_cache;
          } else if (policy.source == AuditService::Source::kWarmSolve) {
            ++counts->timed_warm;
          } else {
            ++counts->timed_cold;
          }
        }
        if (policy.source == AuditService::Source::kCache) continue;
        const solver::SolveStats& stats = policy.result.stats;
        ++counts->solves;
        counts->evaluations += stats.evaluations;
        counts->distinct_evaluations += stats.distinct_evaluations;
        const int64_t solve_ns = static_cast<int64_t>(stats.seconds * 1e9);
        spans->Add(id,
                   policy.source == AuditService::Source::kColdSolve
                       ? Layer::kColdSolve
                       : Layer::kWarmSolve,
                   Layer::kServiceCycle, offset, offset + solve_ns);
        offset += solve_ns;
      }
    }
    spans->Add(id, Layer::kEncode, Layer::kNone, d, e);
    return util::OkStatus();
  };

  // The load phases' order: within a phase, op k of every tenant in turn.
  for (int phase = kWarmup; phase < kNumPhases; ++phase) {
    for (size_t k = inputs.phase_begin[phase];
         k < inputs.phase_begin[phase + 1]; ++k) {
      for (size_t t = 0; t < num_tenants; ++t) {
        RETURN_IF_ERROR(apply(t, k, phase != kWarmup));
      }
    }
  }
  if (response_bytes == 0) return util::InternalError("nothing was encoded");

  for (const auto& service : services) {
    const auto compile = service->compile_cache_stats();
    counts->compile_hits += compile.hits;
    counts->compile_misses += compile.misses;
  }

  // A snapshot body of the whole tenant population, three times.
  for (int rep = 0; rep < 3; ++rep) {
    util::Serializer writer = util::Serializer::Writer();
    const int64_t a = NowNs();
    for (const auto& service : services) service->StreamState(writer);
    const int64_t b = NowNs();
    if (writer.TakeBuffer().empty()) {
      return util::InternalError("empty snapshot body");
    }
    spans->Add(-1, Layer::kSerialize, Layer::kNone, a, b);
  }

  return MeasureWal(config, inputs, outcomes, counts, spans);
}

}  // namespace

util::Status Replay(const ReplayConfig& config, const Inputs& inputs,
                    const std::vector<TenantOutcome>& outcomes,
                    ReplayCheck* check, ReplayCounts* counts, SpanLog* spans) {
  if (!config.traced) return ReplayUntraced(config, inputs, outcomes, check);
  return ReplayTraced(config, inputs, outcomes, check, counts, spans);
}

}  // namespace perfbench
