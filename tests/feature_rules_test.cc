#include <cmath>

#include <gtest/gtest.h>

#include "src/rules/feature_rules.h"

namespace emx {
namespace {

PairBatch MakeBatch() {
  PairBatch batch = PairBatch::FromRows({
      {0.95, 1.0, 0.9},   // strong match evidence
      {0.95, 6.0, 0.9},   // similar title, far-apart years
      {0.30, 0.0, 0.2},   // weak everything
      {std::numeric_limits<double>::quiet_NaN(), 0.0, 0.99},  // missing title
  });
  batch.feature_names = {"title_jac", "yeardiff", "name_sim"};
  return batch;
}

TEST(ParseFeatureRuleTest, ParsesConjunction) {
  auto rule = ParseFeatureRule("r", "title_jac > 0.8 AND yeardiff <= 2");
  ASSERT_TRUE(rule.ok());
  ASSERT_EQ(rule->predicates.size(), 2u);
  EXPECT_EQ(rule->predicates[0].feature, "title_jac");
  EXPECT_EQ(rule->predicates[0].op, FeaturePredicate::Op::kGt);
  EXPECT_DOUBLE_EQ(rule->predicates[0].threshold, 0.8);
  EXPECT_EQ(rule->predicates[1].op, FeaturePredicate::Op::kLe);
}

TEST(ParseFeatureRuleTest, AllOperators) {
  for (const char* op : {">", ">=", "<", "<=", "==", "!="}) {
    auto rule = ParseFeatureRule("r", std::string("f ") + op + " 1");
    EXPECT_TRUE(rule.ok()) << op;
  }
}

TEST(ParseFeatureRuleTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseFeatureRule("r", "").ok());
  EXPECT_FALSE(ParseFeatureRule("r", "f >").ok());
  EXPECT_FALSE(ParseFeatureRule("r", "f ~ 1").ok());
  EXPECT_FALSE(ParseFeatureRule("r", "f > abc").ok());
  EXPECT_FALSE(ParseFeatureRule("r", "f > 1 OR g > 2").ok());
  EXPECT_FALSE(ParseFeatureRule("r", "f > 1 AND").ok());
}

TEST(FeaturePredicateTest, NaNNeverHolds) {
  FeaturePredicate p{"f", FeaturePredicate::Op::kNe, 0.0};
  EXPECT_FALSE(p.Holds(std::numeric_limits<double>::quiet_NaN()));
  EXPECT_TRUE(p.Holds(1.0));
}

TEST(FeatureRuleMatcherTest, DisjunctionOfConjunctions) {
  FeatureRuleMatcher matcher;
  ASSERT_TRUE(matcher.AddRule("strong", "title_jac > 0.9 AND yeardiff <= 2").ok());
  ASSERT_TRUE(matcher.AddRule("by_name", "name_sim >= 0.95").ok());
  auto pred = matcher.Predict(MakeBatch());
  ASSERT_TRUE(pred.ok());
  // Row 0: strong fires. Row 1: years too far; name 0.9 < 0.95 -> no.
  // Row 2: nothing. Row 3: title NaN, but by_name fires.
  EXPECT_EQ(*pred, (std::vector<int>{1, 0, 0, 1}));
}

TEST(FeatureRuleMatcherTest, FiringRuleReportsProvenance) {
  FeatureRuleMatcher matcher;
  ASSERT_TRUE(matcher.AddRule("a", "title_jac > 0.9").ok());
  ASSERT_TRUE(matcher.AddRule("b", "name_sim > 0.95").ok());
  auto firing = matcher.FiringRule(MakeBatch());
  ASSERT_TRUE(firing.ok());
  EXPECT_EQ((*firing)[0], 0);   // first rule wins
  EXPECT_EQ((*firing)[2], -1);  // none
  EXPECT_EQ((*firing)[3], 1);   // second rule
}

TEST(FeatureRuleMatcherTest, UnknownFeatureIsNotFound) {
  FeatureRuleMatcher matcher;
  ASSERT_TRUE(matcher.AddRule("r", "no_such_feature > 0.5").ok());
  EXPECT_EQ(matcher.Predict(MakeBatch()).status().code(),
            StatusCode::kNotFound);
}

TEST(FeatureRuleMatcherTest, NoRulesPredictsNothing) {
  FeatureRuleMatcher matcher;
  auto pred = matcher.Predict(MakeBatch());
  ASSERT_TRUE(pred.ok());
  for (int v : *pred) EXPECT_EQ(v, 0);
}

}  // namespace
}  // namespace emx
