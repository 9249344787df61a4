#include <gtest/gtest.h>

#include "src/eval/corleone_estimator.h"
#include "src/ml/decision_tree.h"
#include "src/ml/random_forest.h"
#include "src/ml/threshold.h"

namespace emx {
namespace {

Dataset Blobs(size_t n_pos, size_t n_neg, uint64_t seed) {
  RandomEngine rng(seed);
  Dataset d;
  d.feature_names = {"x", "y"};
  for (size_t i = 0; i < n_pos + n_neg; ++i) {
    bool pos = i < n_pos;
    double c = pos ? 1.5 : -1.5;
    d.x.push_back({c + 0.6 * rng.NextGaussian(), c + 0.6 * rng.NextGaussian()});
    d.y.push_back(pos ? 1 : 0);
  }
  return d;
}

// --- serialization ---------------------------------------------------------

TEST(TreeSerializationTest, RoundTripPredictsIdentically) {
  Dataset d = Blobs(60, 60, 5);
  DecisionTreeMatcher tree;
  ASSERT_TRUE(tree.Fit(d).ok());
  auto restored = DecisionTreeMatcher::Deserialize(tree.Serialize());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->num_nodes(), tree.num_nodes());
  const PairBatch probe = PairBatch::FromRows(Blobs(25, 25, 6).x);
  EXPECT_EQ(restored->PredictProbaBatch(probe), tree.PredictProbaBatch(probe));
}

TEST(TreeSerializationTest, RejectsGarbage) {
  EXPECT_FALSE(DecisionTreeMatcher::Deserialize("").ok());
  EXPECT_FALSE(DecisionTreeMatcher::Deserialize("not a tree\n").ok());
  EXPECT_FALSE(DecisionTreeMatcher::Deserialize(
                   "emx_decision_tree v1 nodes=2 features=1\n0 0.5 0 1 0\n")
                   .ok());  // truncated: header claims 2 nodes
}

TEST(TreeSerializationTest, RejectsOutOfRangeChildren) {
  // An internal node pointing past the node table must not deserialize.
  std::string payload =
      "emx_decision_tree v1 nodes=1 features=1\n"
      "0 0.5 5 6 0\n";
  EXPECT_FALSE(DecisionTreeMatcher::Deserialize(payload).ok());
}

TEST(ForestSerializationTest, RoundTripPredictsIdentically) {
  Dataset d = Blobs(50, 50, 7);
  RandomForestOptions opts;
  opts.num_trees = 9;
  RandomForestMatcher forest(opts);
  ASSERT_TRUE(forest.Fit(d).ok());
  auto restored = RandomForestMatcher::Deserialize(forest.Serialize());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->num_trees(), 9u);
  const PairBatch probe = PairBatch::FromRows(Blobs(20, 20, 8).x);
  EXPECT_EQ(restored->PredictProbaBatch(probe),
            forest.PredictProbaBatch(probe));
}

TEST(ForestSerializationTest, RejectsGarbage) {
  EXPECT_FALSE(RandomForestMatcher::Deserialize("").ok());
  EXPECT_FALSE(RandomForestMatcher::Deserialize("nope\n").ok());
  EXPECT_FALSE(
      RandomForestMatcher::Deserialize("emx_random_forest v1 trees=2\n").ok());
}

// --- feature importances ------------------------------------------------------

TEST(ForestImportanceTest, InformativeFeatureDominates) {
  // Feature 0 carries all the signal; feature 1 is constant noise.
  RandomEngine rng(9);
  Dataset d;
  d.feature_names = {"signal", "noise"};
  for (int i = 0; i < 100; ++i) {
    bool pos = i % 2 == 0;
    d.x.push_back({pos ? 1.0 + 0.1 * rng.NextGaussian()
                       : -1.0 + 0.1 * rng.NextGaussian(),
                   42.0});
    d.y.push_back(pos ? 1 : 0);
  }
  RandomForestMatcher forest;
  ASSERT_TRUE(forest.Fit(d).ok());
  auto imp = forest.FeatureImportances(2);
  // With mtry=1, trees whose root draws the constant feature cannot split
  // at all, so the signal share is well below 1 — but the constant feature
  // can never be chosen.
  EXPECT_GT(imp[0], 0.3);
  EXPECT_DOUBLE_EQ(imp[1], 0.0);
  EXPECT_GT(imp[0], 10.0 * imp[1] + 0.1);
}

// --- threshold tuning -----------------------------------------------------------

TEST(SelectThresholdTest, FindsSeparatingThreshold) {
  // Scores cleanly separated at 0.35: default 0.5 would lose two positives.
  std::vector<double> proba = {0.9, 0.8, 0.45, 0.4, 0.2, 0.1, 0.05, 0.02};
  std::vector<int> y = {1, 1, 1, 1, 0, 0, 0, 0};
  ThresholdChoice choice = SelectThreshold(proba, y);
  EXPECT_LT(choice.threshold, 0.4);
  EXPECT_GT(choice.threshold, 0.2);
  EXPECT_DOUBLE_EQ(choice.metrics.F1(), 1.0);
}

TEST(SelectThresholdTest, DefaultWinsWhenAlreadyOptimal) {
  std::vector<double> proba = {0.9, 0.8, 0.2, 0.1};
  std::vector<int> y = {1, 1, 0, 0};
  ThresholdChoice choice = SelectThreshold(proba, y);
  EXPECT_DOUBLE_EQ(choice.threshold, 0.5);  // tie broken toward 0.5
  EXPECT_DOUBLE_EQ(choice.metrics.F1(), 1.0);
}

TEST(SelectThresholdTest, PrecisionAtRecallFloor) {
  // Raising the threshold to 0.75+ gives precision 1.0 but recall 0.5 —
  // below the floor, so the tuner must keep recall >= 0.9.
  std::vector<double> proba = {0.9, 0.8, 0.6, 0.55, 0.58, 0.1};
  std::vector<int> y = {1, 1, 1, 1, 0, 0};
  ThresholdChoice choice = SelectThreshold(
      proba, y, ThresholdObjective::kPrecisionAtRecallFloor, 0.9);
  EXPECT_GE(choice.metrics.Recall(), 0.9);
  // Best achievable with all positives kept: one FP at 0.58.
  EXPECT_DOUBLE_EQ(choice.metrics.Precision(), 4.0 / 5.0);
}

TEST(SelectThresholdTest, EmptyInputYieldsDefault) {
  ThresholdChoice choice = SelectThreshold({}, {});
  EXPECT_DOUBLE_EQ(choice.threshold, 0.5);
}

// --- Wilson intervals ------------------------------------------------------------

TEST(WilsonIntervalTest, NonDegenerateAtPerfectPrecision) {
  CandidateSet predicted(std::vector<RecordPair>{{0, 0}, {1, 1}});
  LabeledSet sample;
  sample.SetLabel({0, 0}, Label::kYes);
  sample.SetLabel({1, 1}, Label::kYes);
  sample.SetLabel({2, 2}, Label::kNo);
  auto wald = EstimateAccuracy(predicted, sample, 1.96, IntervalMethod::kWald);
  auto wilson =
      EstimateAccuracy(predicted, sample, 1.96, IntervalMethod::kWilson);
  ASSERT_TRUE(wald.ok() && wilson.ok());
  // Wald collapses to (1,1); Wilson keeps honest width.
  EXPECT_DOUBLE_EQ(wald->precision.lo, 1.0);
  EXPECT_LT(wilson->precision.lo, 1.0);
  EXPECT_DOUBLE_EQ(wilson->precision.hi, 1.0);
}

TEST(WilsonIntervalTest, ContainsThePointEstimate) {
  CandidateSet predicted(std::vector<RecordPair>{{0, 0}, {1, 1}, {2, 2}});
  LabeledSet sample;
  sample.SetLabel({0, 0}, Label::kYes);
  sample.SetLabel({1, 1}, Label::kNo);
  sample.SetLabel({2, 2}, Label::kYes);
  auto est = EstimateAccuracy(predicted, sample, 1.96, IntervalMethod::kWilson);
  ASSERT_TRUE(est.ok());
  EXPECT_LE(est->precision.lo, est->precision.point);
  EXPECT_GE(est->precision.hi, est->precision.point);
}

}  // namespace
}  // namespace emx
