#include "core/ishm.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <map>
#include <memory>
#include <set>

#include "core/game_lp.h"
#include "util/combinatorics.h"
#include "util/thread_pool.h"

namespace auditgame::core {
namespace {

// Effective thresholds: whole audits only. Keyed for memoization. Writes
// into a caller-owned buffer — the ISHM sweep calls this per candidate
// move, so it reuses one buffer instead of allocating each time.
void EffectiveThresholdsInto(const std::vector<double>& raw,
                             const std::vector<double>& costs,
                             bool floor_enabled,
                             std::vector<double>& effective) {
  effective.resize(raw.size());
  for (size_t t = 0; t < raw.size(); ++t) {
    effective[t] = floor_enabled
                       ? std::floor(raw[t] / costs[t] + 1e-9) * costs[t]
                       : raw[t];
  }
}

void CacheKeyInto(const std::vector<double>& effective,
                  std::vector<int64_t>& key) {
  key.resize(effective.size());
  for (size_t t = 0; t < effective.size(); ++t) {
    key[t] = static_cast<int64_t>(std::llround(effective[t] * 4096.0));
  }
}

}  // namespace

util::StatusOr<IshmResult> SolveIshm(const GameInstance& instance,
                                     const ThresholdEvaluator& evaluator,
                                     const IshmOptions& options) {
  // Negated comparison so NaN (which fails every ordering test, and would
  // make the ratio loop empty and the sweep spin forever) is rejected too.
  if (!(options.step_size > 0.0 && options.step_size < 1.0)) {
    return util::InvalidArgumentError("step_size must be in (0, 1)");
  }
  RETURN_IF_ERROR(instance.Validate());
  const int t_count = instance.num_types();
  const int num_ratios =
      static_cast<int>(std::ceil(1.0 / options.step_size - 1e-12));

  IshmResult result;
  result.stats = IshmStats();

  // Memoized evaluation of a raw threshold vector. The effective/key
  // buffers persist across the sweep's hundreds of candidate evaluations;
  // only a cache miss materializes a stored key. Results are handed out by
  // pointer into the memo (map nodes never move), so a revisit copies no
  // policy.
  std::map<std::vector<int64_t>, ThresholdEvaluation> cache;
  std::vector<double> effective_buf;
  std::vector<int64_t> key_buf;
  auto evaluate = [&](const std::vector<double>& raw)
      -> util::StatusOr<const ThresholdEvaluation*> {
    ++result.stats.evaluations;
    EffectiveThresholdsInto(raw, instance.audit_costs,
                            options.floor_to_audit_cost, effective_buf);
    CacheKeyInto(effective_buf, key_buf);
    auto it = cache.find(key_buf);
    if (it != cache.end()) return &it->second;
    ++result.stats.distinct_evaluations;
    ASSIGN_OR_RETURN(ThresholdEvaluation eval, evaluator(effective_buf));
    return &cache.emplace(key_buf, std::move(eval)).first->second;
  };

  // Line 1: initialize with the full-coverage upper bounds, or — warm
  // start — with the caller-provided seed clamped into [0, upper bound].
  std::vector<double> thresholds(t_count);
  for (int t = 0; t < t_count; ++t) {
    thresholds[t] =
        instance.audit_costs[t] * instance.alert_distributions[t].max_value();
  }
  const bool warm_started = !options.initial_thresholds.empty();
  if (warm_started) {
    if (static_cast<int>(options.initial_thresholds.size()) != t_count) {
      return util::InvalidArgumentError(
          "initial_thresholds must have one entry per type");
    }
    for (int t = 0; t < t_count; ++t) {
      thresholds[t] = std::min(
          thresholds[t], std::max(0.0, options.initial_thresholds[t]));
    }
  }
  const int subset_cap =
      options.max_subset_size > 0 ? std::min(options.max_subset_size, t_count)
                                  : t_count;

  double best_objective = std::numeric_limits<double>::infinity();
  const ThresholdEvaluation* best_eval = nullptr;
  if (warm_started) {
    // The seed is (near-)optimal already; evaluating it first means shrinks
    // must strictly beat it, where a cold start accepts the best first-round
    // shrink unconditionally.
    ASSIGN_OR_RETURN(best_eval, evaluate(thresholds));
    best_objective = best_eval->objective;
  }

  std::vector<double> temp;  // candidate vector, reused across the sweep
  int lh = 1;
  while (lh <= subset_cap) {
    const std::vector<std::vector<int>> combos =
        util::AllCombinations(t_count, lh);
    int progress = 0;
    bool improved = false;
    for (int i = 1; i <= num_ratios; ++i) {
      const double ratio = std::max(0.0, 1.0 - i * options.step_size);
      double round_best = std::numeric_limits<double>::infinity();
      int round_best_combo = -1;
      const ThresholdEvaluation* round_best_eval = nullptr;
      for (size_t j = 0; j < combos.size(); ++j) {
        temp.assign(thresholds.begin(), thresholds.end());
        for (int idx : combos[j]) temp[idx] *= ratio;
        ASSIGN_OR_RETURN(const ThresholdEvaluation* eval, evaluate(temp));
        if (eval->objective < round_best) {
          round_best = eval->objective;
          round_best_combo = static_cast<int>(j);
          round_best_eval = eval;
        }
      }
      if (round_best < best_objective - 1e-12) {
        best_objective = round_best;
        best_eval = round_best_eval;
        ++result.stats.improvements;
        for (int idx : combos[static_cast<size_t>(round_best_combo)]) {
          thresholds[idx] *= ratio;
        }
        improved = true;
        break;  // restart the sweep from lh = 1
      }
      progress = i;
    }
    if (improved) {
      lh = 1;
    } else if (progress == num_ratios) {
      ++lh;
    } else {
      // Unreachable with the loop structure above, but mirrors the paper's
      // pseudocode defensively.
      lh = 1;
    }
  }

  if (best_eval == nullptr) {
    // Degenerate epsilon (ratio list empty); evaluate the initial vector.
    ASSIGN_OR_RETURN(best_eval, evaluate(thresholds));
    best_objective = best_eval->objective;
  }

  result.objective = best_objective;
  result.thresholds = thresholds;
  EffectiveThresholdsInto(thresholds, instance.audit_costs,
                          options.floor_to_audit_cost,
                          result.effective_thresholds);
  result.policy = best_eval->policy;
  return result;
}

ThresholdEvaluator MakeFullLpEvaluator(const CompiledGame& game,
                                       DetectionModel& detection) {
  return [&game, &detection](const std::vector<double>& thresholds)
             -> util::StatusOr<ThresholdEvaluation> {
    ASSIGN_OR_RETURN(FullLpResult full,
                     SolveFullGameLp(game, detection, thresholds));
    ThresholdEvaluation eval;
    eval.objective = full.objective;
    eval.policy = std::move(full.policy);
    return eval;
  };
}

ThresholdEvaluator MakeCggsEvaluator(const CompiledGame& game,
                                     DetectionModel& detection,
                                     CggsOptions options) {
  // Everything an evaluation reuses from the previous one, shared by the
  // evaluator's copies.
  struct State {
    // Warm-start pool: the support of every solved LP is fed back as
    // initial columns of the next solve.
    std::set<std::vector<int>> pool;
    // One pricing thread pool for the evaluator's lifetime — ISHM submits
    // hundreds of evaluations per policy, far too many to pay a thread
    // spawn+join each (result-neutral either way; see CggsOptions).
    std::unique_ptr<util::ThreadPool> pricing_pool;
    // The caller's options, with the pool appended to its own
    // initial_orderings (the first `fixed_seeds` entries) before each solve.
    CggsOptions options;
    size_t fixed_seeds = 0;
    // One master, column set and pricing scratch — and, unless the caller
    // shares a workspace, one arena pool — for every evaluation: the first
    // solve sizes them, later ones reset them in place (bit-identical to a
    // fresh solve; see CggsScratch).
    CggsScratch scratch;
  };
  auto state = std::make_shared<State>();
  if (options.pricing_threads > 1 && options.pricing_pool == nullptr) {
    state->pricing_pool =
        std::make_unique<util::ThreadPool>(options.pricing_threads);
    options.pricing_pool = state->pricing_pool.get();
  }
  state->fixed_seeds = options.initial_orderings.size();
  state->options = std::move(options);
  return [&game, &detection, state](const std::vector<double>& thresholds)
             -> util::StatusOr<ThresholdEvaluation> {
    std::vector<std::vector<int>>& seeds = state->options.initial_orderings;
    seeds.resize(state->fixed_seeds + state->pool.size());
    std::copy(state->pool.begin(), state->pool.end(),
              seeds.begin() + static_cast<std::ptrdiff_t>(state->fixed_seeds));
    ASSIGN_OR_RETURN(CggsResult cggs,
                     SolveCggs(game, detection, thresholds, state->options,
                               state->scratch));
    for (const auto& o : cggs.policy.orderings) state->pool.insert(o);
    // Keep the pool bounded: beyond ~4x the type count the extra columns
    // slow the master LP more than they help.
    const size_t cap = static_cast<size_t>(4 * game.num_types + 8);
    while (state->pool.size() > cap) state->pool.erase(state->pool.begin());
    ThresholdEvaluation eval;
    eval.objective = cggs.objective;
    eval.policy = std::move(cggs.policy);
    return eval;
  };
}

}  // namespace auditgame::core
