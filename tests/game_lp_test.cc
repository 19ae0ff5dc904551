#include "core/game_lp.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "core/master_lp.h"
#include "tests/test_util.h"

namespace auditgame::core {
namespace {

using testutil::MakeMediumGame;
using testutil::MakeTinyGame;

TEST(GameLpTest, SingleOrderingIsPureStrategy) {
  const GameInstance instance = MakeTinyGame();
  const auto compiled = Compile(instance);
  ASSERT_TRUE(compiled.ok());
  auto detection = DetectionModel::Create(instance, 3.0);
  ASSERT_TRUE(detection.ok());
  ASSERT_TRUE(detection->SetThresholds({2.0, 2.0}).ok());
  const auto solution =
      SolveRestrictedGameLp(*compiled, *detection, {{0, 1}});
  ASSERT_TRUE(solution.ok());
  EXPECT_NEAR(solution->ordering_probs[0], 1.0, 1e-9);
  // Matches the hand-computed best response of policy_test: loss 1.
  EXPECT_NEAR(solution->objective, 1.0, 1e-9);
}

TEST(GameLpTest, TwoOrderingsAllowMixing) {
  const GameInstance instance = MakeTinyGame();
  const auto compiled = Compile(instance);
  ASSERT_TRUE(compiled.ok());
  auto detection = DetectionModel::Create(instance, 3.0);
  ASSERT_TRUE(detection.ok());
  ASSERT_TRUE(detection->SetThresholds({2.0, 2.0}).ok());
  const auto solution =
      SolveRestrictedGameLp(*compiled, *detection, {{0, 1}, {1, 0}});
  ASSERT_TRUE(solution.ok());
  // With opt-out the auditor can deter completely (see policy_test).
  EXPECT_NEAR(solution->objective, 0.0, 1e-9);
  EXPECT_NEAR(solution->ordering_probs[0] + solution->ordering_probs[1], 1.0,
              1e-9);
}

TEST(GameLpTest, ObjectiveNeverWorseWithMoreColumns) {
  const GameInstance instance = MakeMediumGame();
  const auto compiled = Compile(instance);
  ASSERT_TRUE(compiled.ok());
  auto detection = DetectionModel::Create(instance, 5.0);
  ASSERT_TRUE(detection.ok());
  ASSERT_TRUE(detection->SetThresholds({3.0, 3.0, 3.0}).ok());
  const auto restricted =
      SolveRestrictedGameLp(*compiled, *detection, {{0, 1, 2}});
  const auto wider = SolveRestrictedGameLp(
      *compiled, *detection, {{0, 1, 2}, {2, 1, 0}, {1, 2, 0}});
  ASSERT_TRUE(restricted.ok());
  ASSERT_TRUE(wider.ok());
  EXPECT_LE(wider->objective, restricted->objective + 1e-9);
}

TEST(GameLpTest, DualsHaveExpectedStructure) {
  const GameInstance instance = MakeTinyGame(/*can_opt_out=*/false);
  const auto compiled = Compile(instance);
  ASSERT_TRUE(compiled.ok());
  auto detection = DetectionModel::Create(instance, 3.0);
  ASSERT_TRUE(detection.ok());
  ASSERT_TRUE(detection->SetThresholds({2.0, 2.0}).ok());
  const auto solution =
      SolveRestrictedGameLp(*compiled, *detection, {{0, 1}, {1, 0}});
  ASSERT_TRUE(solution.ok());
  // The victim-row duals are the adversary's mixed best response: they are
  // non-negative and, per group, sum to the group weight.
  double dual_total = 0.0;
  for (double y : solution->victim_duals[0]) {
    EXPECT_GE(y, -1e-9);
    dual_total += y;
  }
  EXPECT_NEAR(dual_total, compiled->groups[0].weight, 1e-6);
}

TEST(GameLpTest, EmptyOrderingSetRejected) {
  const GameInstance instance = MakeTinyGame();
  const auto compiled = Compile(instance);
  ASSERT_TRUE(compiled.ok());
  auto detection = DetectionModel::Create(instance, 3.0);
  ASSERT_TRUE(detection.ok());
  ASSERT_TRUE(detection->SetThresholds({2.0, 2.0}).ok());
  EXPECT_FALSE(SolveRestrictedGameLp(*compiled, *detection, {}).ok());
}

TEST(FullLpTest, MatchesManualMixOnTinyGame) {
  const GameInstance instance = MakeTinyGame();
  const auto compiled = Compile(instance);
  ASSERT_TRUE(compiled.ok());
  auto detection = DetectionModel::Create(instance, 3.0);
  ASSERT_TRUE(detection.ok());
  const auto full = SolveFullGameLp(*compiled, *detection, {2.0, 2.0});
  ASSERT_TRUE(full.ok());
  EXPECT_NEAR(full->objective, 0.0, 1e-9);
  EXPECT_TRUE(full->policy.Validate(2).ok());
}

// The incremental master, growing one column per Solve(), must track the
// one-shot wrapper exactly: same objectives, same duals, and warm-started
// re-solves that skip phase 1 after the first.
TEST(RestrictedMasterLpTest, IncrementalMatchesOneShotAtEveryPrefix) {
  const GameInstance instance = MakeMediumGame();
  const auto compiled = Compile(instance);
  ASSERT_TRUE(compiled.ok());
  auto detection = DetectionModel::Create(instance, 5.0);
  ASSERT_TRUE(detection.ok());
  ASSERT_TRUE(detection->SetThresholds({3.0, 3.0, 3.0}).ok());

  const std::vector<std::vector<int>> orderings = {
      {0, 1, 2}, {2, 1, 0}, {1, 0, 2}, {0, 2, 1}, {2, 0, 1}, {1, 2, 0}};
  RestrictedMasterLp master(*compiled, *detection);
  std::vector<std::vector<int>> prefix;
  for (const auto& ordering : orderings) {
    ASSERT_TRUE(master.AddOrdering(ordering).ok());
    prefix.push_back(ordering);
    const auto incremental = master.Solve();
    const auto one_shot = SolveRestrictedGameLp(*compiled, *detection, prefix);
    ASSERT_TRUE(incremental.ok());
    ASSERT_TRUE(one_shot.ok());
    EXPECT_NEAR(incremental->objective, one_shot->objective, 1e-8)
        << "after " << prefix.size() << " columns";
    EXPECT_NEAR(incremental->convexity_dual, one_shot->convexity_dual, 1e-6)
        << "after " << prefix.size() << " columns";
    double total = 0.0;
    for (double p : incremental->ordering_probs) total += p;
    EXPECT_NEAR(total, 1.0, 1e-8);
  }
  EXPECT_EQ(master.stats().solves, static_cast<int>(orderings.size()));
  // Every re-solve after the first resumed from the previous basis.
  EXPECT_EQ(master.stats().warm_solves,
            static_cast<int>(orderings.size()) - 1);
}

std::vector<uint64_t> Bits(const std::vector<double>& values) {
  std::vector<uint64_t> bits(values.size());
  std::memcpy(bits.data(), values.data(), values.size() * sizeof(double));
  return bits;
}

uint64_t Bits(double value) { return Bits(std::vector<double>{value})[0]; }

void ExpectSameBits(const RestrictedLpSolution& got,
                    const RestrictedLpSolution& want) {
  EXPECT_EQ(Bits(got.objective), Bits(want.objective));
  EXPECT_EQ(Bits(got.ordering_probs), Bits(want.ordering_probs));
  EXPECT_EQ(Bits(got.convexity_dual), Bits(want.convexity_dual));
  ASSERT_EQ(got.victim_duals.size(), want.victim_duals.size());
  for (size_t g = 0; g < got.victim_duals.size(); ++g) {
    EXPECT_EQ(Bits(got.victim_duals[g]), Bits(want.victim_duals[g])) << g;
    EXPECT_EQ(Bits(got.group_utilities[g]), Bits(want.group_utilities[g]))
        << g;
  }
}

// A master that is Reset, re-thresholded and refilled must solve exactly
// like a freshly built one — the contract that lets CGGS keep one master
// for a whole ISHM solve.
TEST(RestrictedMasterLpTest, ResetMasterMatchesFreshMasterBitForBit) {
  const GameInstance instance = MakeMediumGame();
  const auto compiled = Compile(instance);
  ASSERT_TRUE(compiled.ok());
  auto detection = DetectionModel::Create(instance, 5.0);
  ASSERT_TRUE(detection.ok());
  RestrictedMasterLp::Options options;
  options.expected_orderings = 8;

  ASSERT_TRUE(detection->SetThresholds({3.0, 3.0, 3.0}).ok());
  RestrictedMasterLp reused(*compiled, *detection, options);
  RestrictedLpSolution before;
  for (const auto& ordering : std::vector<std::vector<int>>{
           {0, 1, 2}, {2, 1, 0}, {1, 0, 2}, {2, 0, 1}}) {
    ASSERT_TRUE(reused.AddOrdering(ordering).ok());
    ASSERT_TRUE(reused.SolveInto(before).ok());
  }

  reused.Reset();
  EXPECT_EQ(reused.num_orderings(), 0);
  EXPECT_EQ(reused.stats().solves, 0);
  EXPECT_FALSE(reused.Solve().ok());

  // As many columns as before the Reset, so a stale basis would still fit
  // the model's shape.
  ASSERT_TRUE(detection->SetThresholds({2.0, 4.0, 1.0}).ok());
  RestrictedMasterLp fresh(*compiled, *detection, options);
  const std::vector<std::vector<int>> columns = {
      {1, 2, 0}, {0, 2, 1}, {2, 1, 0}, {0, 1, 2}};
  for (const auto& ordering : columns) {
    ASSERT_TRUE(reused.AddOrdering(ordering).ok());
    ASSERT_TRUE(fresh.AddOrdering(ordering).ok());
  }
  RestrictedLpSolution got;
  RestrictedLpSolution want;
  ASSERT_TRUE(reused.SolveInto(got).ok());
  ASSERT_TRUE(fresh.SolveInto(want).ok());
  ExpectSameBits(got, want);
  EXPECT_EQ(reused.stats().warm_solves, 0);

  // The warm re-solve after one more column matches too.
  ASSERT_TRUE(reused.AddOrdering({1, 0, 2}).ok());
  ASSERT_TRUE(fresh.AddOrdering({1, 0, 2}).ok());
  ASSERT_TRUE(reused.SolveInto(got).ok());
  ASSERT_TRUE(fresh.SolveInto(want).ok());
  ExpectSameBits(got, want);
  EXPECT_EQ(reused.stats().solves, fresh.stats().solves);
  EXPECT_EQ(reused.stats().warm_solves, fresh.stats().warm_solves);
  EXPECT_EQ(reused.stats().iterations, fresh.stats().iterations);
}

TEST(RestrictedMasterLpTest, SolveWithoutColumnsIsRejected) {
  const GameInstance instance = MakeTinyGame();
  const auto compiled = Compile(instance);
  ASSERT_TRUE(compiled.ok());
  auto detection = DetectionModel::Create(instance, 3.0);
  ASSERT_TRUE(detection.ok());
  ASSERT_TRUE(detection->SetThresholds({2.0, 2.0}).ok());
  RestrictedMasterLp master(*compiled, *detection);
  EXPECT_FALSE(master.Solve().ok());
}

TEST(FullLpTest, PolicyEvaluationAgreesWithLpObjective) {
  const GameInstance instance = MakeMediumGame();
  const auto compiled = Compile(instance);
  ASSERT_TRUE(compiled.ok());
  auto detection = DetectionModel::Create(instance, 4.0);
  ASSERT_TRUE(detection.ok());
  const auto full = SolveFullGameLp(*compiled, *detection, {3.0, 3.0, 4.0});
  ASSERT_TRUE(full.ok());
  const auto eval = EvaluatePolicy(*compiled, *detection, full->policy);
  ASSERT_TRUE(eval.ok());
  EXPECT_NEAR(eval->auditor_loss, full->objective, 1e-6);
}

}  // namespace
}  // namespace auditgame::core
