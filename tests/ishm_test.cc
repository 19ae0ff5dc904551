#include "core/ishm.h"

#include <cmath>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/brute_force.h"
#include "core/game_lp.h"
#include "data/syn_a.h"
#include "scenario/generator.h"
#include "solver/solver.h"
#include "tests/test_util.h"
#include "util/serializer.h"

namespace auditgame::core {
namespace {

using testutil::MakeTinyGame;

TEST(IshmTest, RejectsBadStepSize) {
  const GameInstance instance = MakeTinyGame();
  auto evaluator = [](const std::vector<double>&)
      -> util::StatusOr<ThresholdEvaluation> {
    return ThresholdEvaluation{};
  };
  IshmOptions options;
  options.step_size = 0.0;
  EXPECT_FALSE(SolveIshm(instance, evaluator, options).ok());
  options.step_size = 1.0;
  EXPECT_FALSE(SolveIshm(instance, evaluator, options).ok());
  // NaN slips through naive range comparisons and would spin the sweep
  // forever.
  options.step_size = std::nan("");
  EXPECT_FALSE(SolveIshm(instance, evaluator, options).ok());
}

TEST(IshmTest, FindsOptimumOnTinyGame) {
  const GameInstance instance = MakeTinyGame();
  const auto compiled = Compile(instance);
  ASSERT_TRUE(compiled.ok());
  auto detection = DetectionModel::Create(instance, 3.0);
  ASSERT_TRUE(detection.ok());
  IshmOptions options;
  options.step_size = 0.25;
  const auto result = SolveIshm(
      instance, MakeFullLpEvaluator(*compiled, *detection), options);
  ASSERT_TRUE(result.ok());
  // Full deterrence is achievable (policy_test): optimal loss 0.
  EXPECT_NEAR(result->objective, 0.0, 1e-9);
  EXPECT_GT(result->stats.evaluations, 0);
  EXPECT_GE(result->stats.evaluations, result->stats.distinct_evaluations);
}

TEST(IshmTest, TracksAgainstBruteForceOnSynA) {
  const auto instance = data::MakeSynA();
  ASSERT_TRUE(instance.ok());
  const auto compiled = Compile(*instance);
  ASSERT_TRUE(compiled.ok());
  for (double budget : {6.0, 12.0}) {
    const auto brute = SolveBruteForce(*instance, budget);
    ASSERT_TRUE(brute.ok());
    auto detection = DetectionModel::Create(*instance, budget);
    ASSERT_TRUE(detection.ok());
    IshmOptions options;
    options.step_size = 0.1;
    const auto ishm = SolveIshm(
        *instance, MakeFullLpEvaluator(*compiled, *detection), options);
    ASSERT_TRUE(ishm.ok());
    // ISHM can only be worse than the optimum, and per Table VI should be
    // within ~1% at eps = 0.1.
    EXPECT_GE(ishm->objective, brute->objective - 1e-9);
    EXPECT_LE(std::fabs(ishm->objective - brute->objective),
              0.01 * std::fabs(brute->objective) + 1e-6)
        << "budget " << budget;
  }
}

TEST(IshmTest, SmallerEpsNeverFewerEvaluations) {
  const auto instance = data::MakeSynA();
  ASSERT_TRUE(instance.ok());
  const auto compiled = Compile(*instance);
  ASSERT_TRUE(compiled.ok());
  auto detection = DetectionModel::Create(*instance, 8.0);
  ASSERT_TRUE(detection.ok());
  int64_t previous = 0;
  for (double eps : {0.5, 0.25, 0.1}) {
    IshmOptions options;
    options.step_size = eps;
    const auto result = SolveIshm(
        *instance, MakeFullLpEvaluator(*compiled, *detection), options);
    ASSERT_TRUE(result.ok());
    EXPECT_GE(result->stats.evaluations, previous);
    previous = result->stats.evaluations;
  }
}

TEST(IshmTest, EffectiveThresholdsAreWholeAudits) {
  const auto instance = data::MakeSynA();
  ASSERT_TRUE(instance.ok());
  const auto compiled = Compile(*instance);
  ASSERT_TRUE(compiled.ok());
  auto detection = DetectionModel::Create(*instance, 10.0);
  ASSERT_TRUE(detection.ok());
  IshmOptions options;
  options.step_size = 0.15;
  const auto result = SolveIshm(
      *instance, MakeFullLpEvaluator(*compiled, *detection), options);
  ASSERT_TRUE(result.ok());
  for (int t = 0; t < instance->num_types(); ++t) {
    const double audits = result->effective_thresholds[static_cast<size_t>(t)] /
                          instance->audit_costs[static_cast<size_t>(t)];
    EXPECT_NEAR(audits, std::round(audits), 1e-9);
  }
}

TEST(IshmTest, CachedEvaluationsAreNotRecomputed) {
  const auto instance = data::MakeSynA();
  ASSERT_TRUE(instance.ok());
  const auto compiled = Compile(*instance);
  ASSERT_TRUE(compiled.ok());
  auto detection = DetectionModel::Create(*instance, 8.0);
  ASSERT_TRUE(detection.ok());
  int calls = 0;
  auto counting_evaluator =
      [&](const std::vector<double>& thresholds)
      -> util::StatusOr<ThresholdEvaluation> {
    ++calls;
    return MakeFullLpEvaluator(*compiled, *detection)(thresholds);
  };
  IshmOptions options;
  options.step_size = 0.2;
  const auto result = SolveIshm(*instance, counting_evaluator, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(calls, result->stats.distinct_evaluations);
  EXPECT_LT(result->stats.distinct_evaluations, result->stats.evaluations);
}

TEST(IshmTest, WarmStartRejectsWrongSizeSeed) {
  const GameInstance instance = MakeTinyGame();
  auto evaluator = [](const std::vector<double>&)
      -> util::StatusOr<ThresholdEvaluation> {
    return ThresholdEvaluation{};
  };
  IshmOptions options;
  options.initial_thresholds = {1.0};  // instance has 2 types
  EXPECT_FALSE(SolveIshm(instance, evaluator, options).ok());
}

TEST(IshmTest, WarmStartFromOptimumMatchesColdResult) {
  const auto instance = data::MakeSynA();
  ASSERT_TRUE(instance.ok());
  const auto compiled = Compile(*instance);
  ASSERT_TRUE(compiled.ok());
  auto detection = DetectionModel::Create(*instance, 10.0);
  ASSERT_TRUE(detection.ok());
  IshmOptions options;
  options.step_size = 0.2;
  const auto cold = SolveIshm(
      *instance, MakeFullLpEvaluator(*compiled, *detection), options);
  ASSERT_TRUE(cold.ok());

  // Re-solving the same instance seeded at the cold optimum with local
  // (single-type) repair must find nothing better, return the same
  // objective, and do far less work.
  IshmOptions warm_options = options;
  warm_options.initial_thresholds = cold->effective_thresholds;
  warm_options.max_subset_size = 1;
  const auto warm = SolveIshm(
      *instance, MakeFullLpEvaluator(*compiled, *detection), warm_options);
  ASSERT_TRUE(warm.ok());
  EXPECT_NEAR(warm->objective, cold->objective, 1e-9);
  EXPECT_LT(warm->stats.evaluations, cold->stats.evaluations);
}

TEST(IshmTest, WarmSeedIsEvaluatedBeforeAnyShrink) {
  const GameInstance instance = MakeTinyGame();
  std::vector<std::vector<double>> probes;
  auto recording_evaluator =
      [&probes](const std::vector<double>& thresholds)
      -> util::StatusOr<ThresholdEvaluation> {
    probes.push_back(thresholds);
    ThresholdEvaluation eval;
    eval.objective = 1.0;  // flat landscape: nothing ever improves
    return eval;
  };
  IshmOptions options;
  options.step_size = 0.5;
  options.initial_thresholds = {1.0, 2.0};
  const auto result = SolveIshm(instance, recording_evaluator, options);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(probes.empty());
  EXPECT_EQ(probes.front(), (std::vector<double>{1.0, 2.0}));
  // On a flat landscape the seed itself must be the reported optimum.
  EXPECT_EQ(result->objective, 1.0);
  EXPECT_EQ(result->effective_thresholds, (std::vector<double>{1.0, 2.0}));
}

TEST(IshmTest, WarmSeedIsClampedToUpperBounds) {
  const GameInstance instance = MakeTinyGame();  // upper bounds C_t * 2 = 2
  std::vector<double> first_probe;
  auto recording_evaluator =
      [&first_probe](const std::vector<double>& thresholds)
      -> util::StatusOr<ThresholdEvaluation> {
    if (first_probe.empty()) first_probe = thresholds;
    ThresholdEvaluation eval;
    eval.objective = 1.0;
    return eval;
  };
  IshmOptions options;
  options.step_size = 0.5;
  options.initial_thresholds = {100.0, -3.0};
  ASSERT_TRUE(SolveIshm(instance, recording_evaluator, options).ok());
  EXPECT_EQ(first_probe, (std::vector<double>{2.0, 0.0}));
}

// The CGGS evaluator as it was before it kept one master per ISHM solve:
// every probe runs the stand-alone SolveCggs (a fresh master, fresh
// scratch), with the same warm-start column pool.
ThresholdEvaluator MakeReferenceCggsEvaluator(const CompiledGame& game,
                                              DetectionModel& detection) {
  auto pool = std::make_shared<std::set<std::vector<int>>>();
  return [&game, &detection, pool](const std::vector<double>& thresholds)
             -> util::StatusOr<ThresholdEvaluation> {
    CggsOptions options;
    options.initial_orderings.assign(pool->begin(), pool->end());
    ASSIGN_OR_RETURN(CggsResult cggs,
                     SolveCggs(game, detection, thresholds, options));
    for (const auto& o : cggs.policy.orderings) pool->insert(o);
    const size_t cap = static_cast<size_t>(4 * game.num_types + 8);
    while (pool->size() > cap) pool->erase(pool->begin());
    ThresholdEvaluation eval;
    eval.objective = cggs.objective;
    eval.policy = std::move(cggs.policy);
    return eval;
  };
}

// The SolveResult the ishm-cggs backend would serve for `ishm`.
std::string ResultFingerprint(IshmResult ishm) {
  solver::SolveResult result;
  result.solver = "ishm-cggs";
  result.objective = ishm.objective;
  result.policy = std::move(ishm.policy);
  result.thresholds = std::move(ishm.effective_thresholds);
  result.stats.evaluations = ishm.stats.evaluations;
  result.stats.distinct_evaluations = ishm.stats.distinct_evaluations;
  result.stats.improvements = ishm.stats.improvements;
  return util::FingerprintState(result).ToHex();
}

// One shared master per SolveIshm (MakeCggsEvaluator) must serve exactly
// the policy that a fresh master per probe serves, cold and warm-started,
// under exact and Monte-Carlo detection.
TEST(IshmTest, SharedMasterEvaluatorMatchesFreshMasterPerProbe) {
  for (int index = 0; index < 4; ++index) {
    scenario::ScenarioSpec spec;
    spec.family = index % 2 == 0 ? scenario::Family::kUniformBaseline
                                 : scenario::Family::kZipfAlerts;
    spec.num_types = 4;
    spec.num_adversaries = 3;
    spec.victims_per_adversary = 3;
    spec.seed = static_cast<uint64_t>(900 + index);
    const auto instance = scenario::Generate(spec);
    ASSERT_TRUE(instance.ok());
    const auto compiled = Compile(*instance);
    ASSERT_TRUE(compiled.ok());
    DetectionModel::Options detection_options;
    if (index == 3) {
      detection_options.mode = DetectionModel::Mode::kMonteCarlo;
      detection_options.mc_samples = 300;
    }
    const double budget = 1.5 * instance->num_types();

    IshmOptions cold;
    cold.step_size = 0.34;
    std::string reference_cold;
    std::vector<double> seed;
    {
      auto detection =
          DetectionModel::Create(*instance, budget, detection_options);
      ASSERT_TRUE(detection.ok());
      auto ishm = SolveIshm(
          *instance, MakeReferenceCggsEvaluator(*compiled, *detection), cold);
      ASSERT_TRUE(ishm.ok()) << index;
      EXPECT_GT(ishm->stats.distinct_evaluations, 3) << index;
      seed = ishm->thresholds;
      for (double& b : seed) b *= 0.8;
      reference_cold = ResultFingerprint(*std::move(ishm));
    }
    IshmOptions warm = cold;
    warm.initial_thresholds = seed;
    warm.max_subset_size = 1;
    std::string reference_warm;
    {
      auto detection =
          DetectionModel::Create(*instance, budget, detection_options);
      ASSERT_TRUE(detection.ok());
      auto ishm = SolveIshm(
          *instance, MakeReferenceCggsEvaluator(*compiled, *detection), warm);
      ASSERT_TRUE(ishm.ok()) << index;
      reference_warm = ResultFingerprint(*std::move(ishm));
    }

    // One detection model across both runs, as a serving shard re-solves.
    auto detection =
        DetectionModel::Create(*instance, budget, detection_options);
    ASSERT_TRUE(detection.ok());
    auto shared_cold = SolveIshm(
        *instance, MakeCggsEvaluator(*compiled, *detection), cold);
    ASSERT_TRUE(shared_cold.ok()) << index;
    EXPECT_EQ(ResultFingerprint(*std::move(shared_cold)), reference_cold)
        << "game " << index;
    auto shared_warm = SolveIshm(
        *instance, MakeCggsEvaluator(*compiled, *detection), warm);
    ASSERT_TRUE(shared_warm.ok()) << index;
    EXPECT_EQ(ResultFingerprint(*std::move(shared_warm)), reference_warm)
        << "game " << index;
  }
}

TEST(IshmTest, PolicyMatchesReportedObjective) {
  const auto instance = data::MakeSynA();
  ASSERT_TRUE(instance.ok());
  const auto compiled = Compile(*instance);
  ASSERT_TRUE(compiled.ok());
  auto detection = DetectionModel::Create(*instance, 10.0);
  ASSERT_TRUE(detection.ok());
  IshmOptions options;
  options.step_size = 0.2;
  const auto result = SolveIshm(
      *instance, MakeFullLpEvaluator(*compiled, *detection), options);
  ASSERT_TRUE(result.ok());
  const auto eval = EvaluatePolicy(*compiled, *detection, result->policy);
  ASSERT_TRUE(eval.ok());
  EXPECT_NEAR(eval->auditor_loss, result->objective, 1e-6);
}

}  // namespace
}  // namespace auditgame::core
