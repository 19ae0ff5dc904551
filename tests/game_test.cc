#include "core/game.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace auditgame::core {
namespace {

using testutil::MakeMediumGame;
using testutil::MakeTinyGame;

TEST(GameInstanceTest, ValidInstancePasses) {
  EXPECT_TRUE(MakeTinyGame().Validate().ok());
  EXPECT_TRUE(MakeMediumGame().Validate().ok());
}

TEST(GameInstanceTest, RejectsEmptyTypes) {
  GameInstance instance;
  EXPECT_FALSE(instance.Validate().ok());
}

TEST(GameInstanceTest, RejectsSizeMismatches) {
  GameInstance instance = MakeTinyGame();
  instance.type_names.pop_back();
  EXPECT_FALSE(instance.Validate().ok());
}

TEST(GameInstanceTest, RejectsEmptyAlertDistribution) {
  GameInstance instance = MakeTinyGame();
  instance.alert_distributions[1] = prob::CountDistribution();
  EXPECT_FALSE(instance.Validate().ok());
}

TEST(GameInstanceTest, RejectsNonPositiveAuditCost) {
  GameInstance instance = MakeTinyGame();
  instance.audit_costs[0] = 0.0;
  EXPECT_FALSE(instance.Validate().ok());
}

TEST(GameInstanceTest, RejectsBadAttackProbability) {
  GameInstance instance = MakeTinyGame();
  instance.adversaries[0].attack_probability = 1.5;
  EXPECT_FALSE(instance.Validate().ok());
}

TEST(GameInstanceTest, RejectsTypeProbsSumAboveOne) {
  GameInstance instance = MakeTinyGame();
  instance.adversaries[0].victims[0].type_probs = {0.7, 0.7};
  EXPECT_FALSE(instance.Validate().ok());
}

TEST(GameInstanceTest, RejectsNegativePenalty) {
  GameInstance instance = MakeTinyGame();
  instance.adversaries[0].victims[0].penalty = -1.0;
  EXPECT_FALSE(instance.Validate().ok());
}

TEST(GameInstanceTest, RejectsVictimlessAdversaryWithoutOptOut) {
  GameInstance instance = MakeTinyGame();
  instance.adversaries[0].victims.clear();
  instance.adversaries[0].can_opt_out = false;
  EXPECT_FALSE(instance.Validate().ok());
}

TEST(AdversaryUtilityTest, MatchesEquation3) {
  VictimProfile victim;
  victim.type_probs = {0.5, 0.5};
  victim.benefit = 10.0;
  victim.penalty = 4.0;
  victim.attack_cost = 1.0;
  // Pat = 0.5*0.2 + 0.5*0.6 = 0.4.
  // Ua = -0.4*4 + 0.6*10 - 1 = -1.6 + 6 - 1 = 3.4.
  EXPECT_NEAR(AdversaryUtility(victim, {0.2, 0.6}), 3.4, 1e-12);
}

TEST(AdversaryUtilityTest, NoDetectionGivesFullBenefit) {
  VictimProfile victim;
  victim.type_probs = {1.0};
  victim.benefit = 5.0;
  victim.penalty = 7.0;
  victim.attack_cost = 0.5;
  EXPECT_NEAR(AdversaryUtility(victim, {0.0}), 4.5, 1e-12);
}

TEST(AdversaryUtilityTest, CertainDetectionGivesPenalty) {
  VictimProfile victim;
  victim.type_probs = {1.0};
  victim.benefit = 5.0;
  victim.penalty = 7.0;
  victim.attack_cost = 0.5;
  EXPECT_NEAR(AdversaryUtility(victim, {1.0}), -7.5, 1e-12);
}

TEST(AdversaryUtilityTest, BenignVictimAlwaysCostsAttackCost) {
  VictimProfile victim;
  victim.type_probs = {0.0, 0.0};
  victim.benefit = 0.0;
  victim.penalty = 4.0;
  victim.attack_cost = 0.4;
  EXPECT_NEAR(AdversaryUtility(victim, {0.9, 0.9}), -0.4, 1e-12);
}

TEST(CompileTest, MergesIdenticalAdversaries) {
  const auto compiled = Compile(MakeMediumGame());
  ASSERT_TRUE(compiled.ok());
  // Adversaries 0 and 1 merge; 2 and 3 are distinct.
  EXPECT_EQ(compiled->groups.size(), 3u);
  double total_weight = 0.0;
  size_t total_members = 0;
  for (const auto& group : compiled->groups) {
    total_weight += group.weight;
    total_members += group.members.size();
  }
  EXPECT_NEAR(total_weight, 4.0, 1e-12);
  EXPECT_EQ(total_members, 4u);
  // One group must have weight 2 (the merged pair).
  bool found_merged = false;
  for (const auto& group : compiled->groups) {
    if (group.members.size() == 2) {
      EXPECT_NEAR(group.weight, 2.0, 1e-12);
      found_merged = true;
    }
  }
  EXPECT_TRUE(found_merged);
}

TEST(CompileTest, DeduplicatesVictimsWithinAdversary) {
  GameInstance instance = MakeTinyGame();
  // Duplicate the first victim three times.
  instance.adversaries[0].victims.push_back(instance.adversaries[0].victims[0]);
  instance.adversaries[0].victims.push_back(instance.adversaries[0].victims[0]);
  const auto compiled = Compile(instance);
  ASSERT_TRUE(compiled.ok());
  ASSERT_EQ(compiled->groups.size(), 1u);
  EXPECT_EQ(compiled->groups[0].victims.size(), 2u);
}

TEST(CompileTest, DropsZeroProbabilityAdversaries) {
  GameInstance instance = MakeTinyGame();
  Adversary ghost = instance.adversaries[0];
  ghost.attack_probability = 0.0;
  instance.adversaries.push_back(ghost);
  const auto compiled = Compile(instance);
  ASSERT_TRUE(compiled.ok());
  EXPECT_EQ(compiled->groups.size(), 1u);
  EXPECT_NEAR(compiled->groups[0].weight, 1.0, 1e-12);
}

TEST(CompileTest, AllZeroProbabilityFails) {
  GameInstance instance = MakeTinyGame();
  instance.adversaries[0].attack_probability = 0.0;
  EXPECT_FALSE(Compile(instance).ok());
}

TEST(CompileTest, NumRowsCountsVictims) {
  const auto compiled = Compile(MakeMediumGame());
  ASSERT_TRUE(compiled.ok());
  EXPECT_EQ(compiled->num_rows(), 2 + 2 + 1);
}

TEST(CompileTest, OptOutDistinguishesGroups) {
  GameInstance instance = MakeTinyGame();
  Adversary no_optout = instance.adversaries[0];
  no_optout.can_opt_out = false;
  instance.adversaries.push_back(no_optout);
  const auto compiled = Compile(instance);
  ASSERT_TRUE(compiled.ok());
  EXPECT_EQ(compiled->groups.size(), 2u);
}

}  // namespace
}  // namespace auditgame::core
