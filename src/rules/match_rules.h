#ifndef EMX_RULES_MATCH_RULES_H_
#define EMX_RULES_MATCH_RULES_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/block/candidate_set.h"
#include "src/block/key_join.h"
#include "src/core/result.h"
#include "src/table/table.h"

namespace emx {

// A hand-crafted rule over a record pair. Positive rules declare sure
// matches (M1, and §10's award-number = project-number rule); negative
// rules flip predicted matches to non-matches (§12).
struct MatchRule {
  std::string name;
  std::function<bool(const Table& left, size_t left_row, const Table& right,
                     size_t right_row)>
      fires;
  // The key form, set by MakeEqualityRule: the rule fires on exactly the
  // pairs the equality join on this key emits, so ApplyRulesCartesian
  // answers it by hash lookup instead of calling `fires` on every pair.
  std::optional<EqualityKey> key = std::nullopt;
};

// --- Positive rule factories -------------------------------------------

// Fires when transform(left[left_attr]) == right[right_attr], both sides
// non-null/non-empty. With the AwardNumberSuffix transform this is exactly
// M1. Sets the rule's key form.
MatchRule MakeEqualityRule(
    const std::string& rule_name, const std::string& left_attr,
    const std::string& right_attr,
    std::function<std::string(const std::string&)> left_transform = nullptr,
    std::function<std::string(const std::string&)> right_transform = nullptr);

// M1: suffix of the UMETRICS UniqueAwardNumber equals the USDA AwardNumber.
MatchRule MakeM1AwardNumberRule(const std::string& left_award_attr,
                                const std::string& right_award_attr);

// §10 positive rule: UMETRICS award number (suffix) equals USDA project
// number.
MatchRule MakeAwardProjectNumberRule(const std::string& left_award_attr,
                                     const std::string& right_project_attr);

// Fires when LevenshteinSimilarity(transform(left), transform(right)) >=
// `min_sim`, both sides non-null/non-empty. The predicate short-circuits on
// the exact length bound (distance >= |length difference|, so a big length
// gap alone can rule the pair out with NO DP) and otherwise runs the banded
// bit-parallel kernel with an exact cutoff — the decision is identical to
// scoring the full similarity and comparing, just much cheaper on the
// non-matches that dominate rule scans.
MatchRule MakeLevenshteinRule(
    const std::string& rule_name, const std::string& left_attr,
    const std::string& right_attr, double min_sim,
    std::function<std::string(const std::string&)> left_transform = nullptr,
    std::function<std::string(const std::string&)> right_transform = nullptr);

// --- Negative rule factories -------------------------------------------

// §12 negative rule: fires (meaning NON-match) when the two attributes are
// pattern-comparable but unequal. Optional transforms mirror the positive
// rules.
MatchRule MakeComparableMismatchRule(
    const std::string& rule_name, const std::string& left_attr,
    const std::string& right_attr,
    std::function<std::string(const std::string&)> left_transform = nullptr,
    std::function<std::string(const std::string&)> right_transform = nullptr);

// --- Application helpers ------------------------------------------------

// Pairs of A × B where any rule fires. A keyed rule runs as one
// EqualityJoin on the shared executor (a rule whose key attribute is
// missing from either table never fires); only rules without a key form
// are called on all |A|×|B| pairs, and each call that does so logs their
// names and the pair count.
Result<CandidateSet> ApplyRulesCartesian(const std::vector<MatchRule>& rules,
                                         const Table& left,
                                         const Table& right);

// Pairs of `pairs` where any rule fires.
Result<CandidateSet> ApplyRulesToPairs(const std::vector<MatchRule>& rules,
                                       const Table& left, const Table& right,
                                       const CandidateSet& pairs);

// Removes from `matches` every pair where any negative rule fires;
// `flipped` (optional) receives the removed pairs.
Result<CandidateSet> FilterWithNegativeRules(
    const std::vector<MatchRule>& negative_rules, const Table& left,
    const Table& right, const CandidateSet& matches,
    CandidateSet* flipped = nullptr);

}  // namespace emx

#endif  // EMX_RULES_MATCH_RULES_H_
