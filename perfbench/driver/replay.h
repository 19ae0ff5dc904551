#ifndef PERFBENCH_DRIVER_REPLAY_H_
#define PERFBENCH_DRIVER_REPLAY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/game.h"
#include "driver/inputs.h"
#include "driver/load.h"
#include "driver/spans.h"
#include "service/audit_service.h"
#include "util/status.h"

namespace perfbench {

/// How the served policies compared with the replay's.
struct ReplayCheck {
  int64_t compared = 0;
  int64_t mismatches = 0;
  double worst_relative_error = 0.0;
  std::string first_mismatch;
};

/// Counts of a traced replay; its timings are spans. The "timed" counts
/// cover the open and closed phases, the per-solve counts every solve the
/// replay ran.
struct ReplayCounts {
  int64_t timed_policies = 0;
  int64_t timed_cache = 0;
  int64_t timed_warm = 0;
  int64_t timed_cold = 0;
  int64_t solves = 0;
  int64_t evaluations = 0;
  int64_t distinct_evaluations = 0;
  int64_t compile_hits = 0;
  int64_t compile_misses = 0;
  int64_t wal_record_bytes = 0;  // every timed op, as WAL records
  int64_t wal_records = 0;
};

struct ReplayConfig {
  const auditgame::core::GameInstance* game = nullptr;
  auditgame::service::AuditServiceOptions service;
  /// Untraced: tenants with identical streams are replayed once, spread
  /// over `threads` threads, untimed. Traced: every tenant on this thread,
  /// in the load phases' order, each layer call timed.
  bool traced = false;
  int threads = 1;
  /// Traced only: directory for the WAL measurement, the server's
  /// micro-batch size, and how many timed ops' payloads to append.
  std::string wal_dir;
  int wal_batch = 16;
  size_t wal_sample = 4096;
};

/// Replays every op the server applied through the public layer calls
/// (DecodeBinaryRequest, AuditService, the binary encoders) and compares
/// each served objective with the replay's. Traced runs also fill
/// `counts` and time each layer call into `spans`.
auditgame::util::Status Replay(const ReplayConfig& config,
                               const Inputs& inputs,
                               const std::vector<TenantOutcome>& outcomes,
                               ReplayCheck* check, ReplayCounts* counts,
                               SpanLog* spans);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_REPLAY_H_
