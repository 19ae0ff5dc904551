#ifndef PERFBENCH_DRIVER_SPANS_H_
#define PERFBENCH_DRIVER_SPANS_H_

#include <cstdint>
#include <vector>

namespace perfbench {

/// The layer boundaries the traced run times. Client-side spans come from
/// the load phases; the rest from the in-process replay of the same
/// requests through each layer's public calls.
enum class Layer : uint8_t {
  kNone = 0,
  kClient,         // due time (open loop) or send (closed) -> response
  kServerCycle,    // the cycle `seconds` the solve_cycle response carries
  kDecode,         // server::DecodeBinaryRequest
  kServiceIngest,  // AuditService::UpdateAlertDistributions
  kServiceCycle,   // AuditService::RunCycle
  kWarmSolve,      // one warm re-solve inside RunCycle (SolveStats::seconds)
  kColdSolve,      // one cold solve inside RunCycle (SolveStats::seconds)
  kEncode,         // server::EncodeBinary*Response
  kWalAppend,      // ShardPersistence::AppendWal
  kWalCommit,      // ShardPersistence::CommitBatch
  kSerialize,      // snapshot body: StreamState into Serializer::Writer()
};

/// One timed interval. `request` is the correlation id of the request it
/// belongs to (-1 for work of no single request, like a WAL group commit);
/// `parent` is the layer of the enclosing span of the same request, which
/// is added just before its children. Spans whose layer reports only a
/// duration (solves, the server's cycle time) are laid out back to back
/// from their parent's start.
struct Span {
  int64_t request = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  Layer layer = Layer::kNone;
  Layer parent = Layer::kNone;
};

/// The traced run's record of every timed interval; the per-layer figures
/// are computed from it.
struct SpanLog {
  std::vector<Span> spans;

  void Add(int64_t request, Layer layer, Layer parent, int64_t start_ns,
           int64_t end_ns) {
    spans.push_back(Span{request, start_ns, end_ns, layer, parent});
  }

  /// Seconds spent in each span of `layer` whose request passes `keep`,
  /// less the time of its child spans (`self` true) or with it (false).
  template <typename Keep>
  std::vector<double> Seconds(Layer layer, Keep&& keep,
                              bool self = false) const {
    std::vector<double> out;
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      if (span.layer != layer || !keep(span.request)) continue;
      int64_t ns = span.end_ns - span.start_ns;
      for (size_t j = i + 1; self && j < spans.size() &&
                             spans[j].request == span.request &&
                             spans[j].parent == layer;
           ++j) {
        ns -= spans[j].end_ns - spans[j].start_ns;
      }
      out.push_back(static_cast<double>(ns) * 1e-9);
    }
    return out;
  }
};

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_SPANS_H_
