#include "lp/model.h"

#include <cmath>

namespace auditgame::lp {

int LpModel::AddVariable(double cost, double lower, double upper,
                         std::string name) {
  costs_.push_back(cost);
  lower_.push_back(lower);
  upper_.push_back(upper);
  if (name.empty()) name = "x" + std::to_string(costs_.size() - 1);
  var_names_.push_back(std::move(name));
  return num_variables() - 1;
}

int LpModel::AddConstraint(Sense sense, double rhs, std::string name) {
  rows_.emplace_back();
  senses_.push_back(sense);
  rhs_.push_back(rhs);
  if (name.empty()) name = "c" + std::to_string(rows_.size() - 1);
  row_names_.push_back(std::move(name));
  return num_constraints() - 1;
}

void LpModel::AddCoefficient(int row, int var, double value) {
  Row& r = rows_[row];
  // Accumulate into an existing entry if present (callers may add the same
  // variable twice, e.g. when building utility rows term by term).
  for (size_t k = 0; k < r.vars.size(); ++k) {
    if (r.vars[k] == var) {
      r.coeffs[k] += value;
      return;
    }
  }
  r.vars.push_back(var);
  r.coeffs.push_back(value);
}

void LpModel::TruncateVariables(int num_variables) {
  if (num_variables < 0) num_variables = 0;
  if (num_variables >= this->num_variables()) return;
  const size_t keep = static_cast<size_t>(num_variables);
  costs_.resize(keep);
  lower_.resize(keep);
  upper_.resize(keep);
  var_names_.resize(keep);
  for (Row& r : rows_) {
    size_t out = 0;
    for (size_t k = 0; k < r.vars.size(); ++k) {
      if (r.vars[k] >= num_variables) continue;
      r.vars[out] = r.vars[k];
      r.coeffs[out] = r.coeffs[k];
      ++out;
    }
    r.vars.resize(out);
    r.coeffs.resize(out);
  }
}

double LpModel::RowActivity(int row, const std::vector<double>& x) const {
  const Row& r = rows_[row];
  double activity = 0.0;
  for (size_t k = 0; k < r.vars.size(); ++k) {
    activity += r.coeffs[k] * x[r.vars[k]];
  }
  return activity;
}

double LpModel::Objective(const std::vector<double>& x) const {
  double obj = objective_constant_;
  for (int j = 0; j < num_variables(); ++j) obj += costs_[j] * x[j];
  return obj;
}

util::Status LpModel::Validate() const {
  for (int j = 0; j < num_variables(); ++j) {
    if (lower_[j] > upper_[j]) {
      return util::InvalidArgumentError("variable " + var_names_[j] +
                                        " has lower bound > upper bound");
    }
    if (!std::isfinite(costs_[j])) {
      return util::InvalidArgumentError("variable " + var_names_[j] +
                                        " has non-finite cost");
    }
  }
  for (int i = 0; i < num_constraints(); ++i) {
    if (!std::isfinite(rhs_[i])) {
      return util::InvalidArgumentError("constraint " + row_names_[i] +
                                        " has non-finite rhs");
    }
    for (double c : rows_[i].coeffs) {
      if (!std::isfinite(c)) {
        return util::InvalidArgumentError("constraint " + row_names_[i] +
                                          " has non-finite coefficient");
      }
    }
  }
  return util::OkStatus();
}

}  // namespace auditgame::lp
