#ifndef PERFBENCH_DRIVER_INPUTS_H_
#define PERFBENCH_DRIVER_INPUTS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/game.h"
#include "util/hash.h"
#include "util/statusor.h"

namespace perfbench {

/// What one run sends: the tenant population, the op mix and the size of
/// every phase. Everything the server receives follows from it.
struct Shape {
  int tenants = 0;
  /// `solve_cycle` requests after each `ingest` (one audit cycle).
  int solves_per_ingest = 1;
  /// Jitter amplitude of each cycle's alert distributions around the
  /// game's baseline (0 = every ingest repeats the baseline).
  double drift = 0.0;
  /// Cycles per tenant in the open-loop phase and in each closed-loop
  /// phase.
  int open_cycles = 0;
  int closed_cycles = 0;
  uint64_t seed = 1;
};

/// The phases of a run, in order. Warm-up is each tenant's first ingest
/// and solve_cycle; a traced run repeats the closed loop with spans on.
enum Phase : int {
  kWarmup = 0,
  kOpen,
  kClosed,
  kClosedTraced,
  kNumPhases
};

const char* PhaseName(int phase);

struct Op {
  /// The framed request (4-byte length header + binary payload) lives at
  /// Inputs::wire[offset, offset + size).
  uint32_t offset = 0;
  uint32_t size = 0;
  bool ingest = false;
};

struct TenantInputs {
  std::string name;
  std::vector<Op> ops;
  /// Fingerprint of the tenant's ingested distributions, in order. Tenants
  /// with equal keys send the same op sequence and are served the same
  /// policies (the service ignores the tenant name).
  auditgame::util::Fingerprint stream_key;
};

/// Every request of a run, generated and encoded before anything is timed.
struct Inputs {
  std::vector<TenantInputs> tenants;
  std::string wire;
  /// Per-tenant op index at which each phase starts; the last entry is
  /// the number of ops per tenant.
  std::array<size_t, kNumPhases + 1> phase_begin{};
  /// Open-loop arrival order: slot j sends op `second` of tenant `first`.
  /// Round r holds op r - (t mod ops per cycle) of each tenant t, so every
  /// stretch of time carries the cycle's mix of ingests and solve_cycles
  /// rather than all tenants' ingests at once.
  std::vector<std::pair<uint32_t, uint32_t>> open_schedule;

  std::string_view Frame(const Op& op) const {
    return std::string_view(wire).substr(op.offset, op.size);
  }
  /// The request payload without its frame header.
  std::string_view Payload(const Op& op) const;
  size_t OpsPerTenant() const { return phase_begin[kNumPhases]; }
};

/// Correlation id of tenant `tenant`'s op `op`: unique within a run and
/// the same in the load phases and the in-process replay, so the spans of
/// one request share it.
inline int64_t CorrelationId(int tenant, size_t op) {
  return (static_cast<int64_t>(tenant) << 32) | static_cast<int64_t>(op);
}
inline int TenantOf(int64_t id) { return static_cast<int>(id >> 32); }
inline size_t OpOf(int64_t id) { return static_cast<size_t>(id & 0xffffffff); }

/// Generates each tenant's jitter stream from `shape.seed` and encodes
/// every request of every phase. `traced` adds the second closed phase.
auditgame::util::StatusOr<Inputs> MakeInputs(
    const auditgame::core::GameInstance& game, const Shape& shape,
    bool traced);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_INPUTS_H_
