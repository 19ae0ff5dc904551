// The determinism contract of the CGGS solve path: over 20 generated games
// spanning the scenario families and both detection modes, the SolveResult
// fingerprint is pinned to a golden value and is byte-identical under every
// pricing thread count. The golden values pin the served policy itself, so
// a change to the numeric kernels (math/kernels.h) or the solver that moves
// any result bit fails here; the pricing path's preassigned scratch slots
// make thread count result-neutral.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/detection.h"
#include "core/game.h"
#include "scenario/generator.h"
#include "solver/registry.h"
#include "solver/solver.h"
#include "util/serializer.h"

namespace auditgame {
namespace {

// SolveFingerprint(game, 1).ToHex() for games 0..19. Regenerate only for a
// change that is meant to alter served policies, and say so in CHANGES.md.
constexpr const char* kGoldenFingerprints[] = {
    "ccdb3ba0990710ade85c2eafe2a6725d",
    "c4a43e5efa0124792ecd677f733e2e09",
    "e234af93bada7d6fd92cf8a4017268df",
    "157b18825fe0e242f3f7107f2311c4b2",
    "a48efcf3fc3e849fc379ff9c8821a42f",
    "26b01adcf84039d3860f88443683aba3",
    "4cd23e0ce6b53172c7b646b7ff554562",
    "aed424293376515556b36277d3fb09a5",
    "45cc5e8105b1445d5cff1074cda390cd",
    "724a89919f0287ec07d87b9ab7a371fc",
    "b013bab7c61077edf9a48bae9e84189d",
    "979b7b1163cf3497594cba4a4b1149c7",
    "955f859f7e6029139f0f1489acf8a643",
    "448abf9037cc32760fd270bcce0e6246",
    "506be9ad421989db27e5e01bf441d08b",
    "d11300edbabcd6a905e9611706461b39",
    "abe900b4fd4569db15369ec3ec89c2eb",
    "fabcba30077a87986e03c222a690e648",
    "12ddb000362a0a4a7c96bc5c3077035a",
    "239ce21146375a9f734a473406da14af",
};

scenario::ScenarioSpec SpecForGame(int index) {
  scenario::ScenarioSpec spec;
  switch (index % 3) {
    case 0:
      spec.family = scenario::Family::kZipfAlerts;
      spec.base_alert_mean = 10.0;
      break;
    case 1:
      spec.family = scenario::Family::kCorrelatedGroups;
      spec.group_size = 2;
      break;
    default:
      spec.family = scenario::Family::kUniformBaseline;
      break;
  }
  spec.num_types = 4 + index % 2;
  spec.num_adversaries = 3;
  spec.victims_per_adversary = 3;
  spec.seed = static_cast<uint64_t>(500 + index);
  return spec;
}

std::vector<double> FlooredMeanThresholds(const core::GameInstance& instance) {
  std::vector<double> thresholds;
  for (const auto& dist : instance.alert_distributions) {
    thresholds.push_back(std::floor(dist.Mean()));
  }
  return thresholds;
}

// Solves game `index` with the given pricing thread count and returns the
// SolveResult fingerprint (timing fields excluded by construction).
util::Fingerprint SolveFingerprint(int index, int pricing_threads) {
  const auto instance = scenario::Generate(SpecForGame(index));
  EXPECT_TRUE(instance.ok()) << index;
  const auto compiled = core::Compile(*instance);
  EXPECT_TRUE(compiled.ok()) << index;
  const double budget = 1.5 * instance->num_types();

  core::DetectionModel::Options detection_options;
  if (index % 4 == 3) {
    // Every fourth game prices through the Monte-Carlo estimator, whose
    // detection terms take the branchy blocked-accumulator path rather
    // than the dense kernel reductions.
    detection_options.mode = core::DetectionModel::Mode::kMonteCarlo;
    detection_options.mc_samples = 400;
  }
  auto detection =
      core::DetectionModel::Create(*instance, budget, detection_options);
  EXPECT_TRUE(detection.ok()) << index;

  solver::SolverOptions options;
  options.cggs.pricing_threads = pricing_threads;
  auto cggs = solver::Create("cggs", options);
  EXPECT_TRUE(cggs.ok());
  solver::SolveRequest request;
  request.thresholds = FlooredMeanThresholds(*instance);
  auto result = (*cggs)->Solve(*compiled, *detection, request);
  EXPECT_TRUE(result.ok()) << index;
  return util::FingerprintState(*result);
}

TEST(CggsDeterminismTest, FingerprintsMatchGoldenAcrossThreads) {
  for (int game = 0; game < 20; ++game) {
    const std::string reference = SolveFingerprint(game, 1).ToHex();
    EXPECT_EQ(reference, kGoldenFingerprints[game]) << "game " << game;
    for (const int threads : {2, 4}) {
      EXPECT_EQ(reference, SolveFingerprint(game, threads).ToHex())
          << "game " << game << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace auditgame
