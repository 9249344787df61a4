#include "src/rules/feature_rules.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>

#include "src/core/strings.h"

namespace emx {

bool FeaturePredicate::Holds(double value) const {
  if (std::isnan(value)) return false;
  switch (op) {
    case Op::kGt:
      return value > threshold;
    case Op::kGe:
      return value >= threshold;
    case Op::kLt:
      return value < threshold;
    case Op::kLe:
      return value <= threshold;
    case Op::kEq:
      return value == threshold;
    case Op::kNe:
      return value != threshold;
  }
  return false;
}

namespace {

Result<FeaturePredicate::Op> ParseOp(const std::string& tok) {
  using Op = FeaturePredicate::Op;
  if (tok == ">") return Op::kGt;
  if (tok == ">=") return Op::kGe;
  if (tok == "<") return Op::kLt;
  if (tok == "<=") return Op::kLe;
  if (tok == "==") return Op::kEq;
  if (tok == "!=") return Op::kNe;
  return Status::InvalidArgument("unknown operator '" + tok + "'");
}

}  // namespace

Result<FeatureRule> ParseFeatureRule(const std::string& name,
                                     const std::string& expression) {
  FeatureRule rule;
  rule.name = name;
  std::vector<std::string> tokens = SplitWhitespace(expression);
  // Grammar: predicate (AND predicate)*, predicate = ident op number.
  size_t i = 0;
  while (i < tokens.size()) {
    if (i + 2 >= tokens.size()) {
      return Status::InvalidArgument(
          "truncated predicate near token " + std::to_string(i) + " in '" +
          expression + "'");
    }
    FeaturePredicate pred;
    pred.feature = tokens[i];
    EMX_ASSIGN_OR_RETURN(pred.op, ParseOp(tokens[i + 1]));
    char* end = nullptr;
    pred.threshold = std::strtod(tokens[i + 2].c_str(), &end);
    if (end == nullptr || *end != '\0') {
      return Status::InvalidArgument("bad threshold '" + tokens[i + 2] + "'");
    }
    rule.predicates.push_back(std::move(pred));
    i += 3;
    if (i == tokens.size()) break;
    if (tokens[i] != "AND") {
      return Status::InvalidArgument("expected AND, found '" + tokens[i] +
                                     "'");
    }
    ++i;
    if (i == tokens.size()) {
      return Status::InvalidArgument("dangling AND in '" + expression + "'");
    }
  }
  if (rule.predicates.empty()) {
    return Status::InvalidArgument("empty rule expression");
  }
  return rule;
}

Status FeatureRuleMatcher::AddRule(const std::string& name,
                                   const std::string& expression) {
  EMX_ASSIGN_OR_RETURN(FeatureRule rule, ParseFeatureRule(name, expression));
  rules_.push_back(std::move(rule));
  return Status::OK();
}

Result<std::vector<int>> FeatureRuleMatcher::Predict(
    const PairBatch& batch) const {
  EMX_ASSIGN_OR_RETURN(std::vector<int> firing, FiringRule(batch));
  std::vector<int> out(firing.size());
  for (size_t i = 0; i < firing.size(); ++i) out[i] = firing[i] >= 0 ? 1 : 0;
  return out;
}

Result<std::vector<int>> FeatureRuleMatcher::FiringRule(
    const PairBatch& batch) const {
  std::vector<std::vector<std::pair<const double*, const FeaturePredicate*>>>
      bound(rules_.size());
  for (size_t r = 0; r < rules_.size(); ++r) {
    for (const FeaturePredicate& pred : rules_[r].predicates) {
      size_t col = batch.feature_names.size();
      for (size_t c = 0; c < batch.feature_names.size(); ++c) {
        if (batch.feature_names[c] == pred.feature) {
          col = c;
          break;
        }
      }
      if (col == batch.feature_names.size()) {
        return Status::NotFound("rule '" + rules_[r].name +
                                "' references unknown feature '" +
                                pred.feature + "'");
      }
      bound[r].push_back({batch.Column(col), &pred});
    }
  }

  // Rule-major over contiguous columns: rule r only claims pairs no earlier
  // rule fired on, so each pair gets the first rule whose predicates all
  // hold on its row.
  std::vector<int> out(batch.num_pairs(), -1);
  std::vector<uint8_t> holds(batch.num_pairs());
  for (size_t r = 0; r < rules_.size(); ++r) {
    std::fill(holds.begin(), holds.end(), uint8_t{1});
    for (const auto& [col, pred] : bound[r]) {
      for (size_t i = 0; i < batch.num_pairs(); ++i) {
        if (holds[i] && !pred->Holds(col[i])) holds[i] = 0;
      }
    }
    for (size_t i = 0; i < batch.num_pairs(); ++i) {
      if (holds[i] && out[i] < 0) out[i] = static_cast<int>(r);
    }
  }
  return out;
}

}  // namespace emx
