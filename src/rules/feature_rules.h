#ifndef EMX_RULES_FEATURE_RULES_H_
#define EMX_RULES_FEATURE_RULES_H_

#include <string>
#include <vector>

#include "src/core/result.h"
#include "src/feature/pair_batch.h"

namespace emx {

// PyMatcher-style declarative matching rules over *generated features*:
// conjunctions of threshold predicates, e.g.
//
//   "lc_AwardTitle_jac_ws > 0.8 AND FirstTransDate_yeardiff <= 2"
//
// A FeatureRuleMatcher holds a disjunction of such rules: a pair is
// declared a match iff ANY rule's predicates all hold. This is the
// "hand-crafted rules" half of the paper's learning+rules hybrid, in the
// form Magellan users actually write them (boolean expressions over the
// auto-generated feature table).

struct FeaturePredicate {
  enum class Op { kGt, kGe, kLt, kLe, kEq, kNe };
  std::string feature;
  Op op = Op::kGt;
  double threshold = 0.0;

  // False when `value` is NaN: a missing comparison never satisfies a
  // predicate.
  bool Holds(double value) const;
};

struct FeatureRule {
  std::string name;
  std::vector<FeaturePredicate> predicates;  // conjunction
};

// Parses "feat > 0.5 AND other <= 2" (operators: > >= < <= == !=,
// conjunction keyword AND, case-sensitive feature names). Returns
// InvalidArgument with a position hint on malformed input.
Result<FeatureRule> ParseFeatureRule(const std::string& name,
                                     const std::string& expression);

class FeatureRuleMatcher {
 public:
  FeatureRuleMatcher() = default;

  void AddRule(FeatureRule rule) { rules_.push_back(std::move(rule)); }

  // Convenience: parse-and-add.
  Status AddRule(const std::string& name, const std::string& expression);

  size_t num_rules() const { return rules_.size(); }

  // 1 for pairs where any rule fires, else 0. Fails if a rule references a
  // feature absent from `batch.feature_names`.
  Result<std::vector<int>> Predict(const PairBatch& batch) const;

  // Index of the first rule that fires per pair (-1 when none does) — rule
  // provenance for debugging. Predicates sweep contiguous feature columns
  // of the batch, rule by rule, and a pair keeps the FIRST rule that fired.
  Result<std::vector<int>> FiringRule(const PairBatch& batch) const;

 private:
  std::vector<FeatureRule> rules_;
};

}  // namespace emx

#endif  // EMX_RULES_FEATURE_RULES_H_
