#include "lp/revised_simplex.h"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lp/model.h"
#include "lp/simplex.h"
#include "lp/validate.h"
#include "util/random.h"

namespace auditgame::lp {
namespace {

RevisedSolution SolveRevisedOrDie(const LpModel& model,
                                  const Basis* warm = nullptr) {
  auto solution = RevisedSimplex::Solve(model, SimplexSolver::Options(), warm);
  EXPECT_TRUE(solution.ok()) << solution.status();
  return *solution;
}

LpSolution SolveDenseOrDie(const LpModel& model) {
  auto solution = SimplexSolver::Solve(model);
  EXPECT_TRUE(solution.ok()) << solution.status();
  return *solution;
}

// Complementary slackness in the original model space: every constraint
// with a nonzero dual is tight, and every basic-looking variable (strictly
// between its bounds) has zero reduced cost.
void CheckComplementarySlackness(const LpModel& model,
                                 const LpSolution& solution) {
  for (int i = 0; i < model.num_constraints(); ++i) {
    const double slack = model.RowActivity(i, solution.primal) - model.rhs(i);
    EXPECT_NEAR(solution.dual[i] * slack, 0.0, 1e-5)
        << "row " << i << " dual " << solution.dual[i] << " slack " << slack;
  }
  for (int j = 0; j < model.num_variables(); ++j) {
    const double x = solution.primal[j];
    const double lb = model.lower_bound(j);
    const double ub = model.upper_bound(j);
    if (x > lb + 1e-6 && x < ub - 1e-6) {
      EXPECT_NEAR(solution.reduced_cost[j], 0.0, 1e-5) << "variable " << j;
    }
  }
}

TEST(RevisedSimplexTest, SimpleTwoVariableMin) {
  // min -x - 2y s.t. x + y <= 4, x in [0,3], y in [0,2]: the doubly
  // bounded variables cost the revised solver no extra rows.
  LpModel model;
  const int x = model.AddVariable(-1.0, 0.0, 3.0);
  const int y = model.AddVariable(-2.0, 0.0, 2.0);
  const int row = model.AddConstraint(Sense::kLessEqual, 4.0);
  model.AddCoefficient(row, x, 1.0);
  model.AddCoefficient(row, y, 1.0);

  const RevisedSolution result = SolveRevisedOrDie(model);
  ASSERT_EQ(result.solution.status, SolveStatus::kOptimal);
  EXPECT_NEAR(result.solution.objective, -6.0, 1e-9);
  EXPECT_NEAR(result.solution.primal[x], 2.0, 1e-9);
  EXPECT_NEAR(result.solution.primal[y], 2.0, 1e-9);
  EXPECT_TRUE(CheckOptimality(model, result.solution).ok());
}

TEST(RevisedSimplexTest, EqualityAndFreeVariable) {
  // min u s.t. u >= 3 - x, u >= x - 1, 0 <= x <= 10, u free.
  LpModel model;
  const int u = model.AddFreeVariable(1.0);
  const int x = model.AddVariable(0.0, 0.0, 10.0);
  const int r1 = model.AddConstraint(Sense::kGreaterEqual, 3.0);
  model.AddCoefficient(r1, u, 1.0);
  model.AddCoefficient(r1, x, 1.0);
  const int r2 = model.AddConstraint(Sense::kGreaterEqual, -1.0);
  model.AddCoefficient(r2, u, 1.0);
  model.AddCoefficient(r2, x, -1.0);

  const RevisedSolution result = SolveRevisedOrDie(model);
  ASSERT_EQ(result.solution.status, SolveStatus::kOptimal);
  EXPECT_NEAR(result.solution.objective, 1.0, 1e-8);
  EXPECT_NEAR(result.solution.primal[u], 1.0, 1e-8);
  EXPECT_NEAR(result.solution.primal[x], 2.0, 1e-8);
  EXPECT_TRUE(CheckOptimality(model, result.solution).ok());
}

TEST(RevisedSimplexTest, DetectsInfeasible) {
  LpModel model;
  const int x = model.AddNonNegativeVariable(1.0);
  const int r1 = model.AddConstraint(Sense::kGreaterEqual, 2.0);
  model.AddCoefficient(r1, x, 1.0);
  const int r2 = model.AddConstraint(Sense::kLessEqual, 1.0);
  model.AddCoefficient(r2, x, 1.0);

  const RevisedSolution result = SolveRevisedOrDie(model);
  EXPECT_EQ(result.solution.status, SolveStatus::kInfeasible);
}

TEST(RevisedSimplexTest, DetectsUnbounded) {
  LpModel model;
  const int x = model.AddNonNegativeVariable(-1.0);
  const int row = model.AddConstraint(Sense::kGreaterEqual, 1.0);
  model.AddCoefficient(row, x, 1.0);

  const RevisedSolution result = SolveRevisedOrDie(model);
  EXPECT_EQ(result.solution.status, SolveStatus::kUnbounded);
}

TEST(RevisedSimplexTest, NoConstraintsUsesBoundsAndKeepsCosts) {
  LpModel model;
  const int x = model.AddVariable(1.0, -2.0, 5.0);
  const int y = model.AddVariable(-1.0, 0.0, 3.0);
  const RevisedSolution result = SolveRevisedOrDie(model);
  ASSERT_EQ(result.solution.status, SolveStatus::kOptimal);
  EXPECT_NEAR(result.solution.primal[x], -2.0, 1e-12);
  EXPECT_NEAR(result.solution.primal[y], 3.0, 1e-12);
  EXPECT_NEAR(result.solution.objective, -5.0, 1e-12);
  EXPECT_EQ(result.solution.reduced_cost[x], 1.0);
  EXPECT_EQ(result.solution.reduced_cost[y], -1.0);
}

TEST(RevisedSimplexTest, NoConstraintsZeroCostRespectsNegativeBounds) {
  LpModel model;
  const int x = model.AddVariable(0.0, -kInfinity, -5.0);
  const int y = model.AddVariable(0.0, -3.0, -1.0);
  const RevisedSolution result = SolveRevisedOrDie(model);
  ASSERT_EQ(result.solution.status, SolveStatus::kOptimal);
  EXPECT_EQ(result.solution.primal[x], -5.0);
  EXPECT_EQ(result.solution.primal[y], -1.0);
  EXPECT_EQ(result.basis.structural[x], VarStatus::kAtUpper);
  EXPECT_EQ(result.basis.structural[y], VarStatus::kAtUpper);
}

TEST(RevisedSimplexTest, DegenerateProblemTerminates) {
  LpModel model;
  const int x = model.AddNonNegativeVariable(-0.75);
  const int y = model.AddNonNegativeVariable(150.0);
  const int z = model.AddNonNegativeVariable(-0.02);
  const int w = model.AddNonNegativeVariable(6.0);
  const int r1 = model.AddConstraint(Sense::kLessEqual, 0.0);
  model.AddCoefficient(r1, x, 0.25);
  model.AddCoefficient(r1, y, -60.0);
  model.AddCoefficient(r1, z, -0.04);
  model.AddCoefficient(r1, w, 9.0);
  const int r2 = model.AddConstraint(Sense::kLessEqual, 0.0);
  model.AddCoefficient(r2, x, 0.5);
  model.AddCoefficient(r2, y, -90.0);
  model.AddCoefficient(r2, z, -0.02);
  model.AddCoefficient(r2, w, 3.0);
  const int r3 = model.AddConstraint(Sense::kLessEqual, 1.0);
  model.AddCoefficient(r3, z, 1.0);

  const RevisedSolution result = SolveRevisedOrDie(model);
  ASSERT_EQ(result.solution.status, SolveStatus::kOptimal);
  EXPECT_NEAR(result.solution.objective, -0.05, 1e-8);
  EXPECT_TRUE(CheckOptimality(model, result.solution).ok());
}

TEST(RevisedSimplexTest, BackendDispatchThroughSimplexSolverOptions) {
  LpModel model;
  const int x = model.AddVariable(-1.0, 0.0, 3.0);
  const int row = model.AddConstraint(Sense::kLessEqual, 2.0);
  model.AddCoefficient(row, x, 1.0);
  SimplexSolver::Options options;
  options.backend = SimplexBackend::kRevised;
  const auto solution = SimplexSolver::Solve(model, options);
  ASSERT_TRUE(solution.ok());
  ASSERT_EQ(solution->status, SolveStatus::kOptimal);
  EXPECT_NEAR(solution->objective, -2.0, 1e-9);
}

// ---- Warm start ----------------------------------------------------------

TEST(RevisedSimplexTest, WarmStartAfterAppendingColumnSkipsPhase1) {
  // A convexity-constrained LP in the column-generation shape.
  LpModel model;
  const int p0 = model.AddNonNegativeVariable(2.0);
  const int p1 = model.AddNonNegativeVariable(1.0);
  const int conv = model.AddConstraint(Sense::kEqual, 1.0);
  model.AddCoefficient(conv, p0, 1.0);
  model.AddCoefficient(conv, p1, 1.0);

  const RevisedSolution first = SolveRevisedOrDie(model);
  ASSERT_EQ(first.solution.status, SolveStatus::kOptimal);
  EXPECT_NEAR(first.solution.objective, 1.0, 1e-9);

  // Append a cheaper column and re-solve from the previous basis: the old
  // basis stays primal-feasible, so phase 1 does no work.
  const int p2 = model.AddNonNegativeVariable(0.5);
  model.AddCoefficient(conv, p2, 1.0);
  const RevisedSolution warm = SolveRevisedOrDie(model, &first.basis);
  ASSERT_EQ(warm.solution.status, SolveStatus::kOptimal);
  EXPECT_TRUE(warm.warm_started);
  EXPECT_EQ(warm.solution.phase1_iterations, 0);
  EXPECT_NEAR(warm.solution.objective, 0.5, 1e-9);
  EXPECT_NEAR(warm.solution.primal[p2], 1.0, 1e-9);
  EXPECT_NEAR(warm.solution.primal[p0] + warm.solution.primal[p1], 0.0, 1e-9);
}

TEST(RevisedSimplexTest, IncompatibleWarmStartFallsBackToCold) {
  LpModel model;
  const int x = model.AddVariable(-1.0, 0.0, 3.0);
  const int row = model.AddConstraint(Sense::kLessEqual, 2.0);
  model.AddCoefficient(row, x, 1.0);

  Basis stale;
  stale.structural = {VarStatus::kBasic, VarStatus::kBasic};  // too many
  stale.logical = {VarStatus::kBasic, VarStatus::kBasic};     // wrong m
  const RevisedSolution result = SolveRevisedOrDie(model, &stale);
  ASSERT_EQ(result.solution.status, SolveStatus::kOptimal);
  EXPECT_FALSE(result.warm_started);
  EXPECT_NEAR(result.solution.objective, -2.0, 1e-9);
}

TEST(RevisedSimplexTest, WarmStartMatchesColdOnRepeatedSolve) {
  util::Rng rng(99);
  LpModel model;
  const int n = 6;
  for (int j = 0; j < n; ++j) model.AddVariable(rng.Uniform(-2.0, 2.0), 0.0, 4.0);
  for (int i = 0; i < 4; ++i) {
    const int row = model.AddConstraint(Sense::kLessEqual, 6.0);
    for (int j = 0; j < n; ++j) {
      model.AddCoefficient(row, j, rng.Uniform(0.0, 2.0));
    }
  }
  const RevisedSolution cold = SolveRevisedOrDie(model);
  ASSERT_EQ(cold.solution.status, SolveStatus::kOptimal);
  const RevisedSolution warm = SolveRevisedOrDie(model, &cold.basis);
  ASSERT_EQ(warm.solution.status, SolveStatus::kOptimal);
  EXPECT_TRUE(warm.warm_started);
  // Re-solving from the optimal basis is pure verification: zero pivots.
  EXPECT_EQ(warm.solution.phase1_iterations, 0);
  EXPECT_EQ(warm.solution.phase2_iterations, 0);
  EXPECT_NEAR(warm.solution.objective, cold.solution.objective, 1e-9);
}

// ---- Randomized dense-vs-revised agreement -------------------------------

// Random bounded LP mixing doubly-bounded, one-sided, and free variables
// and all three row senses, built around a known interior point so most
// instances are feasible (and both solvers must agree when they are not).
LpModel RandomBoundedLp(uint64_t seed, int n, int m) {
  util::Rng rng(seed);
  LpModel model;
  std::vector<double> x0(static_cast<size_t>(n));
  for (int j = 0; j < n; ++j) {
    const double c = rng.Uniform(-2.0, 2.0);
    const int kind = static_cast<int>(rng.UniformInt(4));
    if (kind == 0) {
      model.AddVariable(c, 0.0, rng.Uniform(1.0, 8.0));  // doubly bounded
    } else if (kind == 1) {
      model.AddVariable(c, rng.Uniform(-4.0, 0.0), kInfinity);
    } else if (kind == 2) {
      model.AddVariable(c, -2.0, 6.0);
    } else {
      model.AddFreeVariable(c);
    }
    const double lb = model.lower_bound(j);
    const double ub = model.upper_bound(j);
    const double low = lb == -kInfinity ? -2.0 : lb;
    const double high = ub == kInfinity ? low + 4.0 : ub;
    x0[static_cast<size_t>(j)] = rng.Uniform(low, high);
  }
  for (int i = 0; i < m; ++i) {
    double activity = 0.0;
    std::vector<double> coeffs(static_cast<size_t>(n));
    for (int j = 0; j < n; ++j) {
      coeffs[static_cast<size_t>(j)] = rng.Uniform(-3.0, 3.0);
      activity += coeffs[static_cast<size_t>(j)] * x0[static_cast<size_t>(j)];
    }
    const int kind = static_cast<int>(rng.UniformInt(3));
    int row;
    if (kind == 0) {
      row = model.AddConstraint(Sense::kLessEqual,
                                activity + rng.Uniform(0.0, 2.0));
    } else if (kind == 1) {
      row = model.AddConstraint(Sense::kGreaterEqual,
                                activity - rng.Uniform(0.0, 2.0));
    } else {
      row = model.AddConstraint(Sense::kEqual, activity);
    }
    for (int j = 0; j < n; ++j) {
      model.AddCoefficient(row, j, coeffs[static_cast<size_t>(j)]);
    }
  }
  return model;
}

class BackendAgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(BackendAgreementTest, DenseAndRevisedAgreeOnRandomBoundedLps) {
  util::Rng rng(static_cast<uint64_t>(GetParam()) * 6121 + 5);
  const int n = 2 + static_cast<int>(rng.UniformInt(8));
  const int m = 1 + static_cast<int>(rng.UniformInt(8));
  const LpModel model = RandomBoundedLp(rng(), n, m);

  const LpSolution dense = SolveDenseOrDie(model);
  const RevisedSolution revised = SolveRevisedOrDie(model);
  ASSERT_EQ(revised.solution.status, dense.status)
      << "dense=" << SolveStatusToString(dense.status)
      << " revised=" << SolveStatusToString(revised.solution.status);
  if (dense.status != SolveStatus::kOptimal) return;

  EXPECT_NEAR(revised.solution.objective, dense.objective,
              1e-6 * (1.0 + std::fabs(dense.objective)));
  // Primal points may differ at degenerate optima, but both must be
  // feasible, optimal, and complementary.
  for (const LpSolution* solution : {&dense, &revised.solution}) {
    const auto check = CheckOptimality(model, *solution);
    EXPECT_TRUE(check.ok()) << check.ToString();
    CheckComplementarySlackness(model, *solution);
  }
  // Objective of the revised primal point under the model must equal the
  // reported objective (guards against basis/value drift).
  EXPECT_NEAR(model.Objective(revised.solution.primal),
              revised.solution.objective, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(RandomLps, BackendAgreementTest,
                         ::testing::Range(0, 100));

// ---- Cold-solve bit patterns ---------------------------------------------

// Hex bit patterns of the objective, then the primal values, then the
// duals, separated by " | ". Bit-for-bit, so a change to the arithmetic of
// a solve (the order of a reduction, a fused multiply-add, a skipped step
// that is not exact) shows up here even when the values still agree to
// every tolerance.
std::string SolutionBitsHex(const LpSolution& solution) {
  auto hex = [](double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    char buffer[17];
    std::snprintf(buffer, sizeof(buffer), "%016llx",
                  static_cast<unsigned long long>(bits));
    return std::string(buffer);
  };
  std::string out = hex(solution.objective);
  out += " |";
  for (double v : solution.primal) out += " " + hex(v);
  out += " |";
  for (double v : solution.dual) out += " " + hex(v);
  return out;
}

struct ColdSolveGolden {
  uint64_t seed;
  int n;
  int m;
  int refactor_interval;
  const char* bits;
};

// Cold solves start from the all-logical (slack) basis; these pin their
// results bit for bit on LPs that pivot in both phases. The last one
// refactorizes every 3 pivots, so it also pins solves that leave the
// all-logical basis mid-solve.
TEST(RevisedSimplexTest, ColdSolvesMatchGoldenBits) {
  const ColdSolveGolden goldens[] = {
      {17, 6, 4, 64,
       "c048b039c8c90ad5 | 404681152bc0e21c 401611f445f4d70d "
       "3ff06dd198c19aee 0000000000000000 4048f274d2e2d418 "
       "3ff434994b56e6ea | 3cf8fbca7f9b4bc8 403752109695e853 "
       "c002cfab54649570 c0361af6cc0feafe"},
      {23, 7, 6, 64,
       "c03251b2221d1ea9 | 4018000000000000 4014f37dba9dd7de "
       "0000000000000000 4018000000000000 c02071ec819c1fbf "
       "3fe0a912ff93e13e bff46f2876419dc4 | 3fdf7c9fba4b2ce7 "
       "bfe086157af20497 bfdae80b32ab8e41 3fd6e42fcc4b5431 "
       "bcac62eda7a23e8f 3cc6976274120220"},
      {31, 8, 5, 64,
       "c012bde4eda4887e | c000000000000000 40121b6229c63f0b "
       "bfc205ea3fb4cf3c 0000000000000000 bfee4aa26a839992 "
       "0000000000000000 4004d2d3681fdea0 3fe6cb8707ca47f8 | "
       "0000000000000000 bfa4ed924e8c45f0 bfbcb26c0d11cce5 "
       "3fba0720222f5333 0000000000000000"},
      {37, 12, 10, 3,
       "c04d71303359726a | 402f77c2638852fb 400a88cbd4337edc "
       "40007889c7f9c5a7 4018000000000000 c00867e971cad1ac "
       "c01907efa2f7570c bfe820f14c695d28 400fc471cae47fe4 "
       "400904d723949105 401205fba8d1ab0a 402cc80cde76f65b "
       "c000000000000000 | bff3e4402f9c129b 0000000000000000 "
       "bfe3dcfe1aedcd28 3ff17cf3cf049edf 0000000000000000 "
       "0000000000000000 bfe28a4a2a111659 c0005ebebab3b3c3 "
       "bfe230f7f9acc493 3ca8000000000000"},
  };
  for (const ColdSolveGolden& golden : goldens) {
    const LpModel model = RandomBoundedLp(golden.seed, golden.n, golden.m);
    SimplexSolver::Options options;
    options.refactor_interval = golden.refactor_interval;
    const auto cold = RevisedSimplex::Solve(model, options, nullptr);
    ASSERT_TRUE(cold.ok()) << cold.status();
    ASSERT_EQ(cold->solution.status, SolveStatus::kOptimal)
        << "seed " << golden.seed;
    EXPECT_GT(cold->solution.phase1_iterations, 0) << "seed " << golden.seed;
    EXPECT_GT(cold->solution.phase2_iterations, 0) << "seed " << golden.seed;
    EXPECT_EQ(SolutionBitsHex(cold->solution), golden.bits)
        << "seed " << golden.seed;
  }
}

// A short refactorization interval makes the solve leave the all-logical
// basis at its first refactorization and run on real LU factors after it.
TEST(RevisedSimplexTest, ColdSolveThroughManyRefactorizationsMatchesDense) {
  SimplexSolver::Options options;
  options.refactor_interval = 2;
  for (uint64_t seed : {3u, 4u, 5u, 6u}) {
    const LpModel model = RandomBoundedLp(seed, 24, 18);
    const LpSolution dense = SolveDenseOrDie(model);
    ASSERT_EQ(dense.status, SolveStatus::kOptimal) << "seed " << seed;
    const auto revised = RevisedSimplex::Solve(model, options, nullptr);
    ASSERT_TRUE(revised.ok()) << revised.status();
    ASSERT_EQ(revised->solution.status, SolveStatus::kOptimal)
        << "seed " << seed;
    EXPECT_GT(revised->solution.phase1_iterations +
                  revised->solution.phase2_iterations,
              4 * options.refactor_interval)
        << "seed " << seed;
    EXPECT_NEAR(revised->solution.objective, dense.objective,
                1e-9 * (1.0 + std::fabs(dense.objective)))
        << "seed " << seed;
    const auto check = CheckOptimality(model, revised->solution);
    EXPECT_TRUE(check.ok()) << "seed " << seed << ": " << check.ToString();
  }
}

// A snapshot that makes every logical basic is the cold start's basis, so
// resuming from it must reproduce the cold solve bit for bit.
TEST(RevisedSimplexTest, AllLogicalWarmStartIsBitIdenticalToCold) {
  for (uint64_t seed : {17u, 23u, 31u, 41u}) {
    const LpModel model = RandomBoundedLp(seed, 8, 6);
    Basis slack;
    // kAtLower everywhere: columns without a finite lower bound are
    // repaired to their default resting bound, as on a cold start.
    slack.structural.assign(static_cast<size_t>(model.num_variables()),
                            VarStatus::kAtLower);
    slack.logical.assign(static_cast<size_t>(model.num_constraints()),
                         VarStatus::kBasic);
    const RevisedSolution cold = SolveRevisedOrDie(model);
    const RevisedSolution warm = SolveRevisedOrDie(model, &slack);
    ASSERT_EQ(warm.solution.status, cold.solution.status) << "seed " << seed;
    EXPECT_EQ(warm.solution.phase1_iterations,
              cold.solution.phase1_iterations)
        << "seed " << seed;
    EXPECT_EQ(warm.solution.phase2_iterations,
              cold.solution.phase2_iterations)
        << "seed " << seed;
    EXPECT_EQ(SolutionBitsHex(warm.solution), SolutionBitsHex(cold.solution))
        << "seed " << seed;
    EXPECT_EQ(warm.basis.structural, cold.basis.structural) << "seed " << seed;
    EXPECT_EQ(warm.basis.logical, cold.basis.logical) << "seed " << seed;
  }
}

}  // namespace
}  // namespace auditgame::lp
