#include "core/cggs.h"

#include <algorithm>
#include <cstring>
#include <future>
#include <limits>
#include <memory>
#include <numeric>
#include <utility>

#include "core/game_lp.h"
#include "core/master_lp.h"
#include "util/arena.h"
#include "util/hash.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace auditgame::core {
namespace {

// Dual-weighted utility sum_{g,v} y_{g,v} * Ua(pal, <g,v>) — the variable
// part of a column's reduced cost (the full reduced cost subtracts the
// convexity dual). `pal` holds one entry per type; the pointer form lets
// pricing score arena-backed candidate buffers without materializing
// vectors.
double DualWeightedUtility(const CompiledGame& game,
                           const std::vector<std::vector<double>>& duals,
                           const double* pal) {
  double total = 0.0;
  for (size_t g = 0; g < game.groups.size(); ++g) {
    const auto& victims = game.groups[g].victims;
    for (size_t v = 0; v < victims.size(); ++v) {
      const double y = duals[g][v];
      if (y > 0) total += y * AdversaryUtility(victims[v], pal);
    }
  }
  return total;
}

// True iff `ordering` is a permutation of {0 .. t_count-1}. Warm-start
// orderings arrive from cached policies that may have been solved for a
// different instance shape; anything else would corrupt the master LP.
// `seen` is caller-owned scratch.
bool IsValidOrdering(const std::vector<int>& ordering, int t_count,
                     std::vector<uint8_t>& seen) {
  if (static_cast<int>(ordering.size()) != t_count) return false;
  seen.assign(static_cast<size_t>(t_count), 0);
  for (int t : ordering) {
    if (t < 0 || t >= t_count || seen[static_cast<size_t>(t)]) return false;
    seen[static_cast<size_t>(t)] = 1;
  }
  return true;
}

// Seed of the Rng that shuffles probe candidate `probe` of pricing round
// `round`: a pure function of the solve seed and the candidate's position,
// so the probe set is identical no matter which thread generates it (and
// identical between the serial and parallel paths).
uint64_t ProbeSeed(uint64_t seed, int round, int probe) {
  util::Fnv1a hash(seed);
  hash.AppendU64(static_cast<uint64_t>(round));
  hash.AppendU64(static_cast<uint64_t>(probe));
  return hash.value();
}

// Runs fn(chunk) for chunk in [0, num_chunks) — inline when `pool` is null
// or there is only one chunk, fanned across the pool otherwise. Callers
// write results into slots preassigned by chunk, so the outcome does not
// depend on scheduling; Wait-for-all happens via the futures.
template <typename Fn>
void RunChunks(util::ThreadPool* pool, int num_chunks, const Fn& fn) {
  if (pool == nullptr || num_chunks <= 1) {
    for (int chunk = 0; chunk < num_chunks; ++chunk) fn(chunk);
    return;
  }
  std::vector<std::future<void>> futures;
  futures.reserve(static_cast<size_t>(num_chunks));
  for (int chunk = 0; chunk < num_chunks; ++chunk) {
    futures.push_back(pool->Submit([&fn, chunk] { fn(chunk); }));
  }
  // Drain every chunk before propagating a failure: rethrowing from the
  // first get() would unwind the caller's slots while later chunks still
  // reference them.
  std::exception_ptr first_error;
  for (std::future<void>& future : futures) {
    try {
      future.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

// Greedy pricing (Algorithm 1, lines 4-7): grow an ordering one type at a
// time, always appending the type that minimizes the dual-weighted utility
// of the partial ordering (un-placed types contribute Pal = 0). Each step's
// per-type candidate scores are independent; with a pool they are computed
// in contiguous chunks into per-type slots (each chunk scoring against its
// own copy of the placed-prefix Pal vector, so the arithmetic per candidate
// is exactly the serial path's), then reduced to the minimum score with
// ties broken by the smallest type index.
// Every buffer is carved from `arena` up front (and rewound on return), so
// steady-state pricing rounds run with zero heap allocations: the chunk-
// local Pal copies live in rows of one block preassigned by chunk index —
// never by thread identity — which keeps the arithmetic, and therefore the
// result, bit-identical across thread counts. `prefix` and `ordering_out`
// are caller-owned scratch reused across rounds.
void GreedyOrdering(const CompiledGame& game, const DetectionModel& detection,
                    const std::vector<std::vector<double>>& duals,
                    util::ThreadPool* pool, int max_chunks,
                    util::Arena& arena, DetectionModel::Prefix& prefix,
                    std::vector<int>& ordering_out) {
  const int t_count = game.num_types;
  ordering_out.clear();
  ordering_out.reserve(static_cast<size_t>(t_count));
  const int num_chunks = pool == nullptr ? 1 : std::min(max_chunks, t_count);

  util::ArenaScope scope(arena);
  const size_t t_size = static_cast<size_t>(t_count);
  uint8_t* placed = arena.AllocateArray<uint8_t>(t_size);
  double* pal = arena.AllocateArray<double>(t_size);
  double* scores = arena.AllocateArray<double>(t_size);
  double* candidate_pals = arena.AllocateArray<double>(t_size);
  // Chunk-local Pal rows, carved before the parallel region; workers never
  // call Allocate.
  double* chunk_pals =
      arena.AllocateArray<double>(static_cast<size_t>(num_chunks) * t_size);
  std::memset(placed, 0, t_size * sizeof(uint8_t));
  for (size_t t = 0; t < t_size; ++t) pal[t] = 0.0;

  detection.ResetPrefix(prefix);
  for (int step = 0; step < t_count; ++step) {
    RunChunks(pool, num_chunks, [&](int chunk) {
      const int begin = chunk * t_count / num_chunks;
      const int end = (chunk + 1) * t_count / num_chunks;
      double* local_pal = chunk_pals + static_cast<size_t>(chunk) * t_size;
      std::memcpy(local_pal, pal, t_size * sizeof(double));
      for (int t = begin; t < end; ++t) {
        if (placed[t]) continue;
        const double candidate_pal = detection.PalGivenPrefix(prefix, t);
        candidate_pals[t] = candidate_pal;
        local_pal[t] = candidate_pal;
        scores[t] = DualWeightedUtility(game, duals, local_pal);
        local_pal[t] = 0.0;
      }
    });
    int best_type = -1;
    double best_score = std::numeric_limits<double>::infinity();
    for (int t = 0; t < t_count; ++t) {
      if (placed[t]) continue;
      if (scores[t] < best_score) {
        best_score = scores[t];
        best_type = t;
      }
    }
    placed[best_type] = 1;
    pal[best_type] = candidate_pals[best_type];
    ordering_out.push_back(best_type);
    if (step + 1 < t_count) detection.ExtendPrefix(prefix, best_type);
  }
}

}  // namespace

CggsScratch::CggsScratch() = default;
CggsScratch::~CggsScratch() = default;

util::StatusOr<CggsResult> SolveCggs(const CompiledGame& game,
                                     DetectionModel& detection,
                                     const std::vector<double>& thresholds,
                                     const CggsOptions& options) {
  CggsScratch scratch;
  ASSIGN_OR_RETURN(CggsResult result,
                   SolveCggs(game, detection, thresholds, options, scratch));
  result.columns = std::move(scratch.columns);
  return result;
}

util::StatusOr<CggsResult> SolveCggs(const CompiledGame& game,
                                     DetectionModel& detection,
                                     const std::vector<double>& thresholds,
                                     const CggsOptions& options,
                                     CggsScratch& scratch) {
  RETURN_IF_ERROR(detection.SetThresholds(thresholds));

  // One pool for the whole solve — the caller's shared pool when provided,
  // a locally owned one otherwise; null selects the inline serial path.
  // Work is chunked by pricing_threads (never by pool size), and every
  // pricing round runs the same per-candidate arithmetic and the same
  // deterministic reductions, so the result is bit-for-bit independent of
  // pricing_threads and of which pool runs it (see CggsOptions).
  util::ThreadPool* pool = nullptr;
  std::unique_ptr<util::ThreadPool> owned_pool;
  if (options.pricing_threads > 1) {
    pool = options.pricing_pool;
    if (pool == nullptr) {
      owned_pool = std::make_unique<util::ThreadPool>(options.pricing_threads);
      pool = owned_pool.get();
    }
  }

  // Scratch workspace for the whole solve — shared (caller-provided) or
  // the scratch's own. Slot 0 backs the serial sections: greedy pricing
  // buffers and the master LP's revised-simplex working memory, which
  // alternate and nest their ArenaScopes LIFO.
  util::WorkspacePool* workspace = options.workspace;
  if (workspace == nullptr) {
    if (scratch.owned_workspace == nullptr) {
      scratch.owned_workspace = std::make_unique<util::WorkspacePool>();
    }
    workspace = scratch.owned_workspace.get();
  }
  workspace->Prepare(1);
  util::Arena& arena = workspace->Get(0);

  // Q starts from the warm-start set — deduplicated, and with orderings
  // that are not permutations of this game's type set silently dropped
  // (a cached seed may predate an instance reshape) — or the identity
  // ordering when no valid seed remains.
  // Q's column buffers are recycled from the previous solve's Q: a column
  // is copied into a spare buffer, not allocated.
  std::vector<std::vector<int>>& columns = scratch.columns;
  std::vector<std::vector<int>>& spare = scratch.spare_columns;
  for (std::vector<int>& column : columns) spare.push_back(std::move(column));
  columns.clear();
  columns.reserve(static_cast<size_t>(std::max(1, options.max_columns)));
  const auto add_column = [&columns, &spare](const std::vector<int>& ordering) {
    if (spare.empty()) {
      columns.push_back(ordering);
      return;
    }
    columns.push_back(std::move(spare.back()));
    spare.pop_back();
    columns.back().assign(ordering.begin(), ordering.end());
  };
  // Membership in Q is checked by linear scan: |Q| is capped at
  // max_columns and the per-round check count is tiny next to pricing, so
  // a scan beats the per-insert node + key-copy allocations of a set.
  const auto in_columns = [&columns](const std::vector<int>& ordering) {
    for (const std::vector<int>& column : columns) {
      if (column == ordering) return true;
    }
    return false;
  };
  for (const std::vector<int>& ordering : options.initial_orderings) {
    if (!IsValidOrdering(ordering, game.num_types, scratch.seen)) continue;
    if (in_columns(ordering)) continue;
    add_column(ordering);
  }
  if (columns.empty()) {
    add_column({});
    columns.back().resize(static_cast<size_t>(game.num_types));
    std::iota(columns.back().begin(), columns.back().end(), 0);
  }

  // The restricted master lives across all pricing iterations: every new
  // column is appended to it, and (in the default incremental mode) each
  // re-solve resumes from the previous optimal basis instead of paying a
  // cold two-phase solve per round. It also outlives the solve: the
  // scratch's later solves reset it, and the next columns then refill it
  // exactly as a new one.
  if (scratch.master == nullptr) {
    RestrictedMasterLp::Options master_options;
    if (options.master_mode == CggsOptions::MasterMode::kColdDense) {
      master_options.backend = lp::SimplexBackend::kDenseTableau;
      master_options.incremental = false;
    }
    master_options.lp.workspace = workspace;
    master_options.expected_orderings = options.max_columns;
    scratch.master = std::make_unique<RestrictedMasterLp>(game, detection,
                                                         master_options);
  } else {
    scratch.master->Reset();
  }
  RestrictedMasterLp& master_lp = *scratch.master;
  for (const auto& column : columns) {
    RETURN_IF_ERROR(master_lp.AddOrdering(column));
  }

  CggsResult result;
  RestrictedLpSolution& master = scratch.solution;

  // Round-persistent scratch: candidate orderings, their reduced-cost
  // slots, and one (prefix, pal) evaluation scratch per candidate slot —
  // preassigned by candidate index, so the parallel sweep touches disjoint
  // state and steady-state rounds are allocation-free.
  const size_t num_candidates = static_cast<size_t>(1 + options.random_probes);
  std::vector<std::vector<int>>& candidates = scratch.candidates;
  candidates.resize(num_candidates);
  std::vector<uint8_t>& skip = scratch.skip;
  std::vector<double>& reduced_costs = scratch.reduced_costs;
  std::vector<util::Status>& statuses = scratch.statuses;
  std::vector<CggsScratch::CandidateEval>& eval_scratch = scratch.eval;
  eval_scratch.resize(num_candidates);
  DetectionModel::Prefix& greedy_prefix = scratch.greedy_prefix;

  for (int round = 0;; ++round) {
    RETURN_IF_ERROR(master_lp.SolveInto(master));
    ++result.lp_solves;
    if (static_cast<int>(columns.size()) >= options.max_columns) break;

    // Price candidates: the greedy ordering plus a few random probes, each
    // probe shuffled by its own pre-seeded Rng.
    util::Timer pricing_timer;
    GreedyOrdering(game, detection, master.victim_duals, pool,
                   options.pricing_threads, arena, greedy_prefix,
                   candidates[0]);
    for (int r = 0; r < options.random_probes; ++r) {
      std::vector<int>& random_ordering = candidates[static_cast<size_t>(r) + 1];
      random_ordering.resize(static_cast<size_t>(game.num_types));
      std::iota(random_ordering.begin(), random_ordering.end(), 0);
      util::Rng probe_rng(ProbeSeed(options.seed, round, r));
      probe_rng.Shuffle(random_ordering);
    }

    // Reduced costs of the novel candidates, one preassigned slot each.
    skip.assign(num_candidates, 0);
    for (size_t i = 0; i < num_candidates; ++i) {
      skip[i] = in_columns(candidates[i]) ? 1 : 0;  // already in Q
    }
    reduced_costs.assign(num_candidates, 0.0);
    statuses.assign(num_candidates, util::OkStatus());
    RunChunks(pool, static_cast<int>(num_candidates), [&](int i) {
      const size_t slot = static_cast<size_t>(i);
      if (skip[slot]) return;
      CggsScratch::CandidateEval& candidate_eval = eval_scratch[slot];
      const util::Status status = detection.DetectionProbabilitiesInto(
          candidates[slot], candidate_eval.prefix, candidate_eval.pal);
      if (!status.ok()) {
        statuses[slot] = status;
        return;
      }
      reduced_costs[slot] =
          DualWeightedUtility(game, master.victim_duals,
                              candidate_eval.pal.data()) -
          master.convexity_dual;
    });
    for (const util::Status& status : statuses) RETURN_IF_ERROR(status);

    // Deterministic reduction: strictly below the tolerance wins; exact
    // reduced-cost ties go to the lexicographically smallest ordering.
    int best_index = -1;
    double best_rc = -options.reduced_cost_tolerance;
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (skip[i]) continue;
      const double rc = reduced_costs[i];
      if (rc < best_rc || (best_index >= 0 && rc == best_rc &&
                           candidates[i] < candidates[static_cast<size_t>(
                                               best_index)])) {
        best_rc = rc;
        best_index = static_cast<int>(i);
      }
    }
    result.pricing_seconds += pricing_timer.ElapsedSeconds();
    if (best_index < 0) break;  // no improving column
    // Copied, not moved: the candidate slots keep their buffers for reuse
    // next round.
    const std::vector<int>& best_candidate =
        candidates[static_cast<size_t>(best_index)];
    RETURN_IF_ERROR(master_lp.AddOrdering(best_candidate));
    add_column(best_candidate);
    ++result.columns_generated;
  }

  result.objective = master.objective;
  result.warm_lp_solves = master_lp.stats().warm_solves;
  result.master_lp_iterations = master_lp.stats().iterations;
  result.policy.budget = detection.budget();
  result.policy.thresholds = thresholds;
  const auto in_support = [&master](size_t o) {
    return master.ordering_probs[o] > 1e-9;
  };
  size_t support = 0;
  for (size_t o = 0; o < columns.size(); ++o) support += in_support(o);
  result.policy.orderings.reserve(support);
  result.policy.probabilities.reserve(support);
  for (size_t o = 0; o < columns.size(); ++o) {
    if (in_support(o)) {
      result.policy.orderings.push_back(columns[o]);
      result.policy.probabilities.push_back(master.ordering_probs[o]);
    }
  }
  double total = 0.0;
  for (double p : result.policy.probabilities) total += p;
  if (total > 0) {
    for (double& p : result.policy.probabilities) p /= total;
  }
  return result;
}

}  // namespace auditgame::core
