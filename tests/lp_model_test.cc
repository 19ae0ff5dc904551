#include "lp/model.h"

#include <gtest/gtest.h>

#include <vector>

namespace auditgame::lp {
namespace {

TEST(LpModelTest, VariableAccessors) {
  LpModel model;
  const int x = model.AddVariable(2.5, -1.0, 4.0, "x");
  EXPECT_EQ(model.num_variables(), 1);
  EXPECT_DOUBLE_EQ(model.cost(x), 2.5);
  EXPECT_DOUBLE_EQ(model.lower_bound(x), -1.0);
  EXPECT_DOUBLE_EQ(model.upper_bound(x), 4.0);
  EXPECT_EQ(model.variable_name(x), "x");
}

TEST(LpModelTest, DefaultNamesAreGenerated) {
  LpModel model;
  model.AddNonNegativeVariable(0.0);
  model.AddFreeVariable(1.0);
  EXPECT_EQ(model.variable_name(0), "x0");
  EXPECT_EQ(model.variable_name(1), "x1");
  model.AddConstraint(Sense::kEqual, 1.0);
  EXPECT_EQ(model.constraint_name(0), "c0");
}

TEST(LpModelTest, CoefficientsAccumulate) {
  LpModel model;
  const int x = model.AddNonNegativeVariable(1.0);
  const int row = model.AddConstraint(Sense::kLessEqual, 5.0);
  model.AddCoefficient(row, x, 2.0);
  model.AddCoefficient(row, x, 3.0);
  ASSERT_EQ(model.row_vars(row).size(), 1u);
  EXPECT_DOUBLE_EQ(model.row_coeffs(row)[0], 5.0);
}

TEST(LpModelTest, RowActivityAndObjective) {
  LpModel model;
  const int x = model.AddVariable(1.0, 0.0, kInfinity);
  const int y = model.AddVariable(-2.0, 0.0, kInfinity);
  const int row = model.AddConstraint(Sense::kLessEqual, 10.0);
  model.AddCoefficient(row, x, 3.0);
  model.AddCoefficient(row, y, 1.0);
  model.AddObjectiveConstant(7.0);
  const std::vector<double> point = {2.0, 4.0};
  EXPECT_DOUBLE_EQ(model.RowActivity(row, point), 10.0);
  EXPECT_DOUBLE_EQ(model.Objective(point), 7.0 + 2.0 - 8.0);
}

TEST(LpModelTest, TruncateVariablesDropsTrailingVariablesAndTheirEntries) {
  LpModel model;
  const int x = model.AddVariable(1.0, 0.0, 2.0, "x");
  const int y = model.AddFreeVariable(-1.0, "y");
  const int z = model.AddNonNegativeVariable(3.0, "z");
  const int r0 = model.AddConstraint(Sense::kGreaterEqual, 1.0, "r0");
  const int r1 = model.AddConstraint(Sense::kEqual, 4.0, "r1");
  model.ReserveRowEntries(r0, 8);
  // Entries out of variable order: truncation must compact, not pop.
  model.AddCoefficient(r0, z, 5.0);
  model.AddCoefficient(r0, x, 2.0);
  model.AddCoefficient(r0, y, -3.0);
  model.AddCoefficient(r1, y, 1.0);
  model.AddCoefficient(r1, z, 1.0);
  const size_t r0_capacity = model.row_vars(r0).capacity();

  model.TruncateVariables(2);
  ASSERT_EQ(model.num_variables(), 2);
  EXPECT_EQ(model.num_constraints(), 2);
  EXPECT_EQ(model.row_vars(r0), (std::vector<int>{x, y}));
  EXPECT_EQ(model.row_coeffs(r0), (std::vector<double>{2.0, -3.0}));
  EXPECT_EQ(model.row_vars(r1), (std::vector<int>{y}));
  EXPECT_EQ(model.row_coeffs(r1), (std::vector<double>{1.0}));
  EXPECT_EQ(model.row_vars(r0).capacity(), r0_capacity);
  EXPECT_EQ(model.variable_name(y), "y");
  EXPECT_EQ(model.constraint_name(r1), "r1");
  EXPECT_DOUBLE_EQ(model.rhs(r1), 4.0);

  // A variable appended after truncation takes the freed index.
  const int w = model.AddNonNegativeVariable(7.0);
  EXPECT_EQ(w, 2);
  EXPECT_EQ(model.variable_name(w), "x2");
  EXPECT_DOUBLE_EQ(model.cost(w), 7.0);
  model.AddCoefficient(r1, w, 6.0);
  EXPECT_EQ(model.row_vars(r1), (std::vector<int>{y, w}));

  model.TruncateVariables(5);  // beyond the end: no-op
  EXPECT_EQ(model.num_variables(), 3);
  model.TruncateVariables(0);
  EXPECT_EQ(model.num_variables(), 0);
  EXPECT_TRUE(model.row_vars(r0).empty());
  EXPECT_TRUE(model.row_vars(r1).empty());
  EXPECT_EQ(model.num_constraints(), 2);
}

TEST(LpModelTest, ValidateAcceptsWellFormed) {
  LpModel model;
  const int x = model.AddNonNegativeVariable(1.0);
  const int row = model.AddConstraint(Sense::kGreaterEqual, 1.0);
  model.AddCoefficient(row, x, 1.0);
  EXPECT_TRUE(model.Validate().ok());
}

TEST(LpModelTest, ValidateRejectsInvertedBounds) {
  LpModel model;
  model.AddVariable(0.0, 2.0, 1.0);
  EXPECT_FALSE(model.Validate().ok());
}

TEST(LpModelTest, ValidateRejectsNonFiniteRhs) {
  LpModel model;
  model.AddNonNegativeVariable(1.0);
  model.AddConstraint(Sense::kLessEqual, kInfinity);
  EXPECT_FALSE(model.Validate().ok());
}

TEST(LpModelTest, ValidateRejectsNonFiniteCoefficient) {
  LpModel model;
  const int x = model.AddNonNegativeVariable(1.0);
  const int row = model.AddConstraint(Sense::kLessEqual, 1.0);
  model.AddCoefficient(row, x, kInfinity);
  EXPECT_FALSE(model.Validate().ok());
}

}  // namespace
}  // namespace auditgame::lp
