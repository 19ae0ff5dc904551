#include "core/cggs.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "core/game_lp.h"
#include "data/syn_a.h"
#include "tests/test_util.h"

namespace auditgame::core {
namespace {

using testutil::MakeMediumGame;
using testutil::MakeTinyGame;

TEST(CggsTest, FindsTheMixOnTinyGame) {
  const GameInstance instance = MakeTinyGame();
  const auto compiled = Compile(instance);
  ASSERT_TRUE(compiled.ok());
  auto detection = DetectionModel::Create(instance, 3.0);
  ASSERT_TRUE(detection.ok());
  const auto result = SolveCggs(*compiled, *detection, {2.0, 2.0});
  ASSERT_TRUE(result.ok());
  // Full LP optimum is 0 (complete deterrence); CGGS must reach it since
  // the other ordering has negative reduced cost.
  EXPECT_NEAR(result->objective, 0.0, 1e-9);
  EXPECT_GE(result->columns_generated, 1);
}

TEST(CggsTest, InvalidWarmStartOrderingsAreDroppedNotSolved) {
  const GameInstance instance = MakeTinyGame();
  const auto compiled = Compile(instance);
  ASSERT_TRUE(compiled.ok());
  auto detection = DetectionModel::Create(instance, 3.0);
  ASSERT_TRUE(detection.ok());
  CggsOptions options;
  // A stale cached policy: wrong length, out-of-range type, a duplicate
  // type, plus one valid seed and its duplicate.
  options.initial_orderings = {{0}, {0, 5}, {1, 1}, {1, 0}, {1, 0}};
  const auto result = SolveCggs(*compiled, *detection, {2.0, 2.0}, options);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->objective, 0.0, 1e-9);
  for (const auto& column : result->columns) {
    ASSERT_EQ(column.size(), 2u);
    EXPECT_NE(column[0], column[1]);
  }
}

TEST(CggsTest, AllInvalidWarmStartsFallBackToIdentity) {
  const GameInstance instance = MakeTinyGame();
  const auto compiled = Compile(instance);
  ASSERT_TRUE(compiled.ok());
  auto detection = DetectionModel::Create(instance, 3.0);
  ASSERT_TRUE(detection.ok());
  CggsOptions options;
  options.initial_orderings = {{7, 8}, {0}};
  const auto result = SolveCggs(*compiled, *detection, {2.0, 2.0}, options);
  ASSERT_TRUE(result.ok());
  const auto cold = SolveCggs(*compiled, *detection, {2.0, 2.0});
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(result->objective, cold->objective);
}

TEST(CggsTest, NeverWorseThanInitialColumn) {
  const GameInstance instance = MakeMediumGame();
  const auto compiled = Compile(instance);
  ASSERT_TRUE(compiled.ok());
  auto detection = DetectionModel::Create(instance, 5.0);
  ASSERT_TRUE(detection.ok());
  ASSERT_TRUE(detection->SetThresholds({3.0, 3.0, 3.0}).ok());
  const auto single =
      SolveRestrictedGameLp(*compiled, *detection, {{0, 1, 2}});
  ASSERT_TRUE(single.ok());
  const auto cggs = SolveCggs(*compiled, *detection, {3.0, 3.0, 3.0});
  ASSERT_TRUE(cggs.ok());
  EXPECT_LE(cggs->objective, single->objective + 1e-9);
}

TEST(CggsTest, MatchesFullLpOnSynA) {
  // On the controlled instance, CGGS should get within a small gap of the
  // exact LP over all 24 orderings (the paper's Table IV vs Table V).
  const auto instance = data::MakeSynA();
  ASSERT_TRUE(instance.ok());
  const auto compiled = Compile(*instance);
  ASSERT_TRUE(compiled.ok());
  for (double budget : {4.0, 10.0}) {
    auto detection = DetectionModel::Create(*instance, budget);
    ASSERT_TRUE(detection.ok());
    const std::vector<double> thresholds = {3.0, 3.0, 2.0, 2.0};
    const auto full = SolveFullGameLp(*compiled, *detection, thresholds);
    const auto cggs = SolveCggs(*compiled, *detection, thresholds);
    ASSERT_TRUE(full.ok());
    ASSERT_TRUE(cggs.ok());
    EXPECT_LE(cggs->objective - full->objective, 0.05)
        << "budget " << budget;
    EXPECT_GE(cggs->objective - full->objective, -1e-6) << "budget " << budget;
  }
}

TEST(CggsTest, WarmStartColumnsAreUsed) {
  const GameInstance instance = MakeTinyGame();
  const auto compiled = Compile(instance);
  ASSERT_TRUE(compiled.ok());
  auto detection = DetectionModel::Create(instance, 3.0);
  ASSERT_TRUE(detection.ok());
  CggsOptions options;
  options.initial_orderings = {{0, 1}, {1, 0}};
  const auto result = SolveCggs(*compiled, *detection, {2.0, 2.0}, options);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->objective, 0.0, 1e-9);
  // Optimal from the warm start: no columns needed to be generated.
  EXPECT_EQ(result->columns_generated, 0);
  EXPECT_EQ(result->lp_solves, 1);
}

TEST(CggsTest, IncrementalAndColdDenseMastersAgreeOnSynA) {
  // The incremental revised-simplex master (default) against the cold
  // dense-tableau reference path: on the controlled instance both must
  // land on the same objective, and the incremental run must have warm-
  // started every re-solve after the first.
  const auto instance = data::MakeSynA();
  ASSERT_TRUE(instance.ok());
  const auto compiled = Compile(*instance);
  ASSERT_TRUE(compiled.ok());
  for (double budget : {4.0, 10.0}) {
    auto detection = DetectionModel::Create(*instance, budget);
    ASSERT_TRUE(detection.ok());
    const std::vector<double> thresholds = {3.0, 3.0, 2.0, 2.0};
    CggsOptions cold_options;
    cold_options.master_mode = CggsOptions::MasterMode::kColdDense;
    const auto cold = SolveCggs(*compiled, *detection, thresholds, cold_options);
    const auto incremental = SolveCggs(*compiled, *detection, thresholds);
    ASSERT_TRUE(cold.ok());
    ASSERT_TRUE(incremental.ok());
    EXPECT_NEAR(incremental->objective, cold->objective, 1e-6)
        << "budget " << budget;
    EXPECT_EQ(cold->warm_lp_solves, 0);
    EXPECT_EQ(incremental->warm_lp_solves, incremental->lp_solves - 1);
    EXPECT_TRUE(incremental->policy.Validate(4).ok());
  }
}

TEST(CggsTest, PolicyIsValidDistribution) {
  const GameInstance instance = MakeMediumGame();
  const auto compiled = Compile(instance);
  ASSERT_TRUE(compiled.ok());
  auto detection = DetectionModel::Create(instance, 6.0);
  ASSERT_TRUE(detection.ok());
  const auto result = SolveCggs(*compiled, *detection, {4.0, 4.0, 4.0});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->policy.Validate(3).ok());
  // Evaluating the policy reproduces the LP objective.
  const auto eval = EvaluatePolicy(*compiled, *detection, result->policy);
  ASSERT_TRUE(eval.ok());
  EXPECT_NEAR(eval->auditor_loss, result->objective, 1e-6);
}

TEST(CggsTest, MaxColumnsCapRespected) {
  const GameInstance instance = MakeMediumGame();
  const auto compiled = Compile(instance);
  ASSERT_TRUE(compiled.ok());
  auto detection = DetectionModel::Create(instance, 5.0);
  ASSERT_TRUE(detection.ok());
  CggsOptions options;
  options.max_columns = 2;
  const auto result = SolveCggs(*compiled, *detection, {3.0, 3.0, 3.0}, options);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->columns.size(), 2u);
}

uint64_t Bits(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

// One scratch reused across threshold vectors and warm-start columns (as
// the ISHM evaluator reuses it) must reproduce the stand-alone solve
// exactly, in both master modes: the first solve builds the master and
// every later one Resets it.
TEST(CggsTest, ReusedScratchMatchesStandAloneSolves) {
  const GameInstance instance = MakeMediumGame();
  const auto game = Compile(instance);
  ASSERT_TRUE(game.ok());
  auto detection = DetectionModel::Create(instance, 5.0);
  ASSERT_TRUE(detection.ok());

  const std::vector<std::vector<double>> probes = {
      {3.0, 3.0, 3.0}, {3.0, 1.0, 3.0}, {2.0, 4.0, 1.0}, {3.0, 3.0, 3.0}};
  for (const auto mode : {CggsOptions::MasterMode::kIncrementalRevised,
                          CggsOptions::MasterMode::kColdDense}) {
    CggsScratch scratch;
    for (size_t i = 0; i < probes.size(); ++i) {
      CggsOptions options;
      options.master_mode = mode;
      if (i == 1) options.initial_orderings = {{2, 1, 0}, {0, 1, 2}};
      const auto reused =
          SolveCggs(*game, *detection, probes[i], options, scratch);
      const auto alone = SolveCggs(*game, *detection, probes[i], options);
      ASSERT_TRUE(reused.ok()) << i;
      ASSERT_TRUE(alone.ok()) << i;
      EXPECT_TRUE(reused->columns.empty()) << i;
      EXPECT_EQ(scratch.columns, alone->columns) << i;
      EXPECT_EQ(Bits(reused->objective), Bits(alone->objective)) << i;
      EXPECT_EQ(reused->policy.orderings, alone->policy.orderings) << i;
      ASSERT_EQ(reused->policy.probabilities.size(),
                alone->policy.probabilities.size());
      for (size_t o = 0; o < alone->policy.probabilities.size(); ++o) {
        EXPECT_EQ(Bits(reused->policy.probabilities[o]),
                  Bits(alone->policy.probabilities[o]))
            << i;
      }
      EXPECT_EQ(reused->lp_solves, alone->lp_solves) << i;
      EXPECT_EQ(reused->warm_lp_solves, alone->warm_lp_solves) << i;
      EXPECT_EQ(reused->master_lp_iterations, alone->master_lp_iterations)
          << i;
      EXPECT_EQ(reused->columns_generated, alone->columns_generated) << i;
    }
  }
}

}  // namespace
}  // namespace auditgame::core
