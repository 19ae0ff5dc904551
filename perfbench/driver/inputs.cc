#include "driver/inputs.h"

#include <limits>
#include <utility>

#include "net/frame.h"
#include "scenario/stream.h"
#include "server/binary_codec.h"

namespace perfbench {

using namespace auditgame;  // NOLINT

const char* PhaseName(int phase) {
  switch (phase) {
    case kWarmup:
      return "warmup";
    case kOpen:
      return "open";
    case kClosed:
      return "closed";
    case kClosedTraced:
      return "closed_traced";
    default:
      return "?";
  }
}

std::string_view Inputs::Payload(const Op& op) const {
  return Frame(op).substr(net::kFrameHeaderBytes);
}

util::StatusOr<Inputs> MakeInputs(const core::GameInstance& game,
                                  const Shape& shape, bool traced) {
  if (shape.tenants < 1 || shape.solves_per_ingest < 1 ||
      shape.open_cycles < 1 || shape.closed_cycles < 1) {
    return util::InvalidArgumentError(
        "tenants, solves per ingest and cycles must all be at least 1");
  }
  const size_t per_cycle = 1 + static_cast<size_t>(shape.solves_per_ingest);
  Inputs inputs;
  inputs.phase_begin[kWarmup] = 0;
  inputs.phase_begin[kOpen] = 2;  // warm-up: one ingest, one solve_cycle
  inputs.phase_begin[kClosed] =
      inputs.phase_begin[kOpen] + per_cycle * shape.open_cycles;
  inputs.phase_begin[kClosedTraced] =
      inputs.phase_begin[kClosed] + per_cycle * shape.closed_cycles;
  inputs.phase_begin[kNumPhases] =
      inputs.phase_begin[kClosedTraced] +
      (traced ? per_cycle * shape.closed_cycles : 0);
  const size_t ops_per_tenant = inputs.phase_begin[kNumPhases];

  scenario::StreamSpec spec;
  spec.kind = scenario::StreamKind::kJitter;
  spec.drift_amplitude = shape.drift;
  spec.revisit_period = 0;
  inputs.tenants.resize(static_cast<size_t>(shape.tenants));
  for (int t = 0; t < shape.tenants; ++t) {
    TenantInputs& tenant = inputs.tenants[static_cast<size_t>(t)];
    tenant.name = "tenant-" + std::to_string(t);
    tenant.ops.reserve(ops_per_tenant);
    spec.seed = shape.seed * 1000003ull + static_cast<uint64_t>(t);
    scenario::ScenarioStream stream(game.alert_distributions, spec);
    util::FingerprintBuilder key;
    const auto append = [&](const std::string& payload, bool ingest) {
      const std::string frame = net::EncodeFrame(payload);
      Op op;
      op.offset = static_cast<uint32_t>(inputs.wire.size());
      op.size = static_cast<uint32_t>(frame.size());
      op.ingest = ingest;
      inputs.wire += frame;
      tenant.ops.push_back(op);
    };
    while (tenant.ops.size() < ops_per_tenant) {
      // Warm-up is a one-solve cycle; every later cycle polls
      // solves_per_ingest times.
      const size_t solves =
          tenant.ops.empty() ? 1 : per_cycle - 1;
      ASSIGN_OR_RETURN(std::vector<prob::CountDistribution> dists,
                       stream.Next());
      for (const prob::CountDistribution& d : dists) {
        key.AppendI64(d.min_value());
        for (double p : d.pmf_data()) key.AppendDouble(p);
      }
      append(server::EncodeBinaryIngestRequest(
                 CorrelationId(t, tenant.ops.size()), tenant.name, dists),
             /*ingest=*/true);
      for (size_t s = 0; s < solves; ++s) {
        append(server::EncodeBinarySolveCycleRequest(
                   CorrelationId(t, tenant.ops.size()), tenant.name),
               /*ingest=*/false);
      }
    }
    tenant.stream_key = key.Build();
    if (inputs.wire.size() > std::numeric_limits<uint32_t>::max()) {
      return util::InvalidArgumentError("inputs exceed 4 GiB");
    }
  }

  const size_t open_ops =
      inputs.phase_begin[kOpen + 1] - inputs.phase_begin[kOpen];
  inputs.open_schedule.reserve(open_ops * inputs.tenants.size());
  for (size_t round = 0; round < open_ops + per_cycle; ++round) {
    for (size_t t = 0; t < inputs.tenants.size(); ++t) {
      const size_t shift = t % per_cycle;
      if (round < shift || round - shift >= open_ops) continue;
      inputs.open_schedule.emplace_back(
          static_cast<uint32_t>(t),
          static_cast<uint32_t>(inputs.phase_begin[kOpen] + round - shift));
    }
  }
  return inputs;
}

}  // namespace perfbench
