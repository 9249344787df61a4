#include "src/rules/match_rules.h"

#include "src/core/logging.h"
#include "src/rules/number_pattern.h"
#include "src/text/sequence_kernel.h"

namespace emx {

namespace {

// Resolves both attribute values as (possibly transformed) strings; returns
// false when either side has no key (null or empty). Both null checks come
// before either string is built: a rule scan meets many null cells, and a
// transform costs far more than the check.
bool GetPairValues(const KeyColumn& lk, const Table& left, size_t lrow,
                   const KeyColumn& rk, const Table& right, size_t rrow,
                   std::string* lv, std::string* rv) {
  const Value& a = left.at(lrow, lk.attr);
  const Value& b = right.at(rrow, rk.attr);
  if (a.is_null() || b.is_null()) return false;
  return lk.KeyOf(a, lv) && rk.KeyOf(b, rv);
}

}  // namespace

MatchRule MakeEqualityRule(
    const std::string& rule_name, const std::string& left_attr,
    const std::string& right_attr,
    std::function<std::string(const std::string&)> left_transform,
    std::function<std::string(const std::string&)> right_transform) {
  EqualityKey key{{left_attr, std::move(left_transform)},
                  {right_attr, std::move(right_transform)}};
  MatchRule rule;
  rule.name = rule_name;
  rule.fires = [key](const Table& l, size_t lr, const Table& r, size_t rr) {
    std::string lv, rv;
    return GetPairValues(key.left, l, lr, key.right, r, rr, &lv, &rv) &&
           lv == rv;
  };
  rule.key = std::move(key);
  return rule;
}

MatchRule MakeM1AwardNumberRule(const std::string& left_award_attr,
                                const std::string& right_award_attr) {
  return MakeEqualityRule(
      "M1_award_number", left_award_attr, right_award_attr,
      [](const std::string& s) { return AwardNumberSuffix(s); }, nullptr);
}

MatchRule MakeAwardProjectNumberRule(const std::string& left_award_attr,
                                     const std::string& right_project_attr) {
  return MakeEqualityRule(
      "M4_award_eq_project_number", left_award_attr, right_project_attr,
      [](const std::string& s) { return AwardNumberSuffix(s); }, nullptr);
}

MatchRule MakeLevenshteinRule(
    const std::string& rule_name, const std::string& left_attr,
    const std::string& right_attr, double min_sim,
    std::function<std::string(const std::string&)> left_transform,
    std::function<std::string(const std::string&)> right_transform) {
  KeyColumn lk{left_attr, std::move(left_transform)};
  KeyColumn rk{right_attr, std::move(right_transform)};
  return {rule_name,
          [=](const Table& l, size_t lr, const Table& r, size_t rr) {
            std::string lv, rv;
            if (!GetPairValues(lk, l, lr, rk, r, rr, &lv, &rv)) return false;
            // Length-bound short-circuit + banded kernel: exactly
            // LevenshteinSimilarity(lv, rv) >= min_sim, without computing
            // the full distance for pairs the bound already rejects.
            return LevenshteinSimilarityAtLeast(lv, rv, min_sim);
          }};
}

MatchRule MakeComparableMismatchRule(
    const std::string& rule_name, const std::string& left_attr,
    const std::string& right_attr,
    std::function<std::string(const std::string&)> left_transform,
    std::function<std::string(const std::string&)> right_transform) {
  KeyColumn lk{left_attr, std::move(left_transform)};
  KeyColumn rk{right_attr, std::move(right_transform)};
  return {rule_name,
          [=](const Table& l, size_t lr, const Table& r, size_t rr) {
            std::string lv, rv;
            if (!GetPairValues(lk, l, lr, rk, r, rr, &lv, &rv)) return false;
            return ArePatternComparable(lv, rv) && lv != rv;
          }};
}

Result<CandidateSet> ApplyRulesCartesian(const std::vector<MatchRule>& rules,
                                         const Table& left,
                                         const Table& right) {
  CandidateSet out;
  std::vector<const MatchRule*> unkeyed;
  for (const MatchRule& rule : rules) {
    if (!rule.key) {
      unkeyed.push_back(&rule);
      continue;
    }
    // A missing attribute reads as null on every row (Table::at), so the
    // rule cannot fire.
    if (!left.schema().Contains(rule.key->left.attr) ||
        !right.schema().Contains(rule.key->right.attr)) {
      continue;
    }
    EMX_ASSIGN_OR_RETURN(
        CandidateSet joined,
        EqualityJoin(left, right, *rule.key, ExecutorContext{}));
    out = CandidateSet::Union(out, joined);
  }
  if (unkeyed.empty()) return out;

  std::string names;
  for (const MatchRule* rule : unkeyed) {
    names += (names.empty() ? "" : ", ") + rule->name;
  }
  EMX_LOG(Info) << "rules without a key form (" << names << ") scan all "
                << left.num_rows() * right.num_rows() << " pairs";
  std::vector<RecordPair> scanned;
  for (size_t l = 0; l < left.num_rows(); ++l) {
    for (size_t r = 0; r < right.num_rows(); ++r) {
      for (const MatchRule* rule : unkeyed) {
        if (rule->fires(left, l, right, r)) {
          scanned.push_back(
              {static_cast<uint32_t>(l), static_cast<uint32_t>(r)});
          break;
        }
      }
    }
  }
  return CandidateSet::Union(out, CandidateSet(std::move(scanned)));
}

Result<CandidateSet> ApplyRulesToPairs(const std::vector<MatchRule>& rules,
                                       const Table& left, const Table& right,
                                       const CandidateSet& pairs) {
  std::vector<RecordPair> out;
  for (const RecordPair& p : pairs) {
    for (const MatchRule& rule : rules) {
      if (rule.fires(left, p.left, right, p.right)) {
        out.push_back(p);
        break;
      }
    }
  }
  return CandidateSet(std::move(out));
}

Result<CandidateSet> FilterWithNegativeRules(
    const std::vector<MatchRule>& negative_rules, const Table& left,
    const Table& right, const CandidateSet& matches, CandidateSet* flipped) {
  std::vector<RecordPair> kept, removed;
  for (const RecordPair& p : matches) {
    bool fired = false;
    for (const MatchRule& rule : negative_rules) {
      if (rule.fires(left, p.left, right, p.right)) {
        fired = true;
        break;
      }
    }
    (fired ? removed : kept).push_back(p);
  }
  if (flipped != nullptr) *flipped = CandidateSet(std::move(removed));
  return CandidateSet(std::move(kept));
}

}  // namespace emx
