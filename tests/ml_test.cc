#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>

#include <gtest/gtest.h>

#include "src/core/executor.h"
#include "src/core/random.h"
#include "src/ml/cross_validation.h"
#include "src/ml/decision_tree.h"
#include "src/ml/linear_regression.h"
#include "src/ml/linear_svm.h"
#include "src/ml/logistic_regression.h"
#include "src/ml/naive_bayes.h"
#include "src/ml/random_forest.h"

namespace emx {
namespace {

// Rows as the columnar batch every matcher scores.
PairBatch Batch(const std::vector<std::vector<double>>& rows) {
  return PairBatch::FromRows(rows);
}

// NaN-aware bitwise double equality.
bool BitEq(double x, double y) {
  return std::memcmp(&x, &y, sizeof(double)) == 0;
}

// --- Dataset & folds ------------------------------------------------------------

Dataset MakeDataset(size_t n_pos, size_t n_neg, uint64_t seed) {
  // Two Gaussian blobs in 3D, linearly separable with margin.
  RandomEngine rng(seed);
  Dataset d;
  d.feature_names = {"x", "y", "z"};
  for (size_t i = 0; i < n_pos + n_neg; ++i) {
    bool pos = i < n_pos;
    double center = pos ? 2.0 : -2.0;
    d.x.push_back({center + 0.5 * rng.NextGaussian(),
                   center + 0.5 * rng.NextGaussian(),
                   0.1 * rng.NextGaussian()});
    d.y.push_back(pos ? 1 : 0);
  }
  return d;
}

TEST(DatasetTest, Subset) {
  Dataset d = MakeDataset(3, 3, 1);
  Dataset s = d.Subset({0, 5});
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s.y[0], 1);
  EXPECT_EQ(s.y[1], 0);
  EXPECT_EQ(s.x[1], d.x[5]);
}

TEST(StratifiedKFoldTest, PartitionsAllIndicesOnce) {
  std::vector<int> y(50, 0);
  for (int i = 0; i < 15; ++i) y[i] = 1;
  auto folds = StratifiedKFoldIndices(y, 5, 42);
  ASSERT_EQ(folds.size(), 5u);
  std::vector<int> seen(50, 0);
  for (const auto& fold : folds) {
    for (size_t i : fold) ++seen[i];
  }
  for (int c : seen) EXPECT_EQ(c, 1);
}

TEST(StratifiedKFoldTest, PositiveRateBalancedAcrossFolds) {
  std::vector<int> y(100, 0);
  for (int i = 0; i < 30; ++i) y[i] = 1;
  auto folds = StratifiedKFoldIndices(y, 5, 42);
  for (const auto& fold : folds) {
    size_t pos = 0;
    for (size_t i : fold) pos += static_cast<size_t>(y[i]);
    EXPECT_EQ(pos, 6u);  // 30 positives over 5 folds exactly
  }
}

TEST(StratifiedSplitTest, RespectsFractionPerClass) {
  std::vector<int> y(100, 0);
  for (int i = 0; i < 40; ++i) y[i] = 1;
  TrainTestSplit split = StratifiedSplit(y, 0.25, 7);
  EXPECT_EQ(split.test.size(), 25u);
  EXPECT_EQ(split.train.size(), 75u);
  size_t test_pos = 0;
  for (size_t i : split.test) test_pos += static_cast<size_t>(y[i]);
  EXPECT_EQ(test_pos, 10u);
}

// --- metrics --------------------------------------------------------------------

TEST(MetricsTest, ConfusionCounts) {
  BinaryMetrics m = ComputeMetrics({1, 1, 0, 0, 1}, {1, 0, 0, 1, 1});
  EXPECT_EQ(m.tp, 2u);
  EXPECT_EQ(m.fn, 1u);
  EXPECT_EQ(m.fp, 1u);
  EXPECT_EQ(m.tn, 1u);
  EXPECT_DOUBLE_EQ(m.Precision(), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(m.Recall(), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(m.F1(), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(m.Accuracy(), 0.6);
}

TEST(MetricsTest, DegenerateDenominators) {
  BinaryMetrics m = ComputeMetrics({0, 0}, {0, 0});
  EXPECT_DOUBLE_EQ(m.Precision(), 0.0);
  EXPECT_DOUBLE_EQ(m.Recall(), 0.0);
  EXPECT_DOUBLE_EQ(m.F1(), 0.0);
  EXPECT_DOUBLE_EQ(m.Accuracy(), 1.0);
}

// Integer features with noisy labels: many cells hold rows of both
// classes, so tree leaves keep fractions like 2/3 and a forest's mean
// depends on the order it sums its trees in.
Dataset MakeNoisyGrid(size_t n, uint64_t seed) {
  RandomEngine rng(seed);
  Dataset d;
  d.feature_names = {"x", "y", "z"};
  for (size_t i = 0; i < n; ++i) {
    double x = std::round(rng.NextGaussian());
    double y = std::round(rng.NextGaussian());
    double z = static_cast<double>(rng.NextBelow(2));
    d.x.push_back({x, y, z});
    d.y.push_back(x + y + rng.NextGaussian() > 0 ? 1 : 0);
  }
  return d;
}

// --- every matcher family, via TEST_P --------------------------------------------

struct FamilyCase {
  std::string name;
  MatcherFactory factory;
};

class MatcherFamilyTest : public ::testing::TestWithParam<int> {
 protected:
  static std::vector<FamilyCase> Families() {
    return {
        {"decision_tree", [] { return std::make_unique<DecisionTreeMatcher>(); }},
        {"random_forest", [] { return std::make_unique<RandomForestMatcher>(); }},
        {"logistic_regression",
         [] { return std::make_unique<LogisticRegressionMatcher>(); }},
        {"naive_bayes", [] { return std::make_unique<NaiveBayesMatcher>(); }},
        {"svm", [] { return std::make_unique<LinearSvmMatcher>(); }},
        {"linear_regression",
         [] { return std::make_unique<LinearRegressionMatcher>(); }},
    };
  }
  FamilyCase Case() { return Families()[static_cast<size_t>(GetParam())]; }
};

TEST_P(MatcherFamilyTest, LearnsSeparableBlobs) {
  FamilyCase fc = Case();
  Dataset train = MakeDataset(60, 60, 11);
  Dataset test = MakeDataset(20, 20, 12);
  auto m = fc.factory();
  ASSERT_TRUE(m->Fit(train).ok()) << fc.name;
  BinaryMetrics metrics =
      ComputeMetrics(test.y, m->PredictBatch(Batch(test.x)));
  EXPECT_GE(metrics.Accuracy(), 0.95) << fc.name;
}

TEST_P(MatcherFamilyTest, ProbabilitiesInUnitInterval) {
  FamilyCase fc = Case();
  Dataset train = MakeDataset(30, 30, 13);
  auto m = fc.factory();
  ASSERT_TRUE(m->Fit(train).ok());
  for (double p : m->PredictProbaBatch(Batch(train.x))) {
    EXPECT_GE(p, 0.0) << fc.name;
    EXPECT_LE(p, 1.0) << fc.name;
  }
}

TEST_P(MatcherFamilyTest, EmptyTrainingSetFails) {
  FamilyCase fc = Case();
  auto m = fc.factory();
  EXPECT_FALSE(m->Fit(Dataset{}).ok()) << fc.name;
}

TEST_P(MatcherFamilyTest, DeterministicAcrossRefits) {
  FamilyCase fc = Case();
  Dataset train = MakeDataset(40, 40, 17);
  Dataset probe = MakeDataset(10, 10, 18);
  auto m1 = fc.factory();
  auto m2 = fc.factory();
  ASSERT_TRUE(m1->Fit(train).ok());
  ASSERT_TRUE(m2->Fit(train).ok());
  EXPECT_EQ(m1->PredictBatch(Batch(probe.x)), m2->PredictBatch(Batch(probe.x)))
      << fc.name;
}

TEST_P(MatcherFamilyTest, SingleClassTrainingPredictsThatClass) {
  FamilyCase fc = Case();
  Dataset train = MakeDataset(30, 0, 19);  // all positive
  auto m = fc.factory();
  Status s = m->Fit(train);
  if (!s.ok()) return;  // rejecting degenerate input is also acceptable
  std::vector<int> pred = m->PredictBatch(Batch(train.x));
  size_t pos = 0;
  for (int p : pred) pos += static_cast<size_t>(p);
  EXPECT_GE(pos, pred.size() - pred.size() / 10) << fc.name;
}

TEST_P(MatcherFamilyTest, PairScoreIndependentOfBatchShape) {
  // Serve scores one lookup's candidates and leave-one-out one held-out
  // row, so a pair's probability must be the same double scored alone, in
  // the full batch and in a permuted batch — NaN cells included, and for
  // the forest at 1 and 8 threads, whose walk blocks pairs in eights.
  FamilyCase fc = Case();
  Dataset train = MakeNoisyGrid(200, 53);
  Dataset probe = MakeDataset(25, 25, 54);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (size_t i = 0; i < probe.size(); i += 7) probe.x[i][i % 3] = nan;
  std::vector<size_t> perm(probe.size());
  std::iota(perm.begin(), perm.end(), size_t{0});
  RandomEngine rng(55);
  rng.Shuffle(perm);
  std::vector<std::vector<double>> permuted_rows;
  for (size_t i : perm) permuted_rows.push_back(probe.x[i]);

  Executor p1(1), p8(8);
  std::vector<double> first_pool;
  for (Executor* pool : {&p1, &p8}) {
    auto m = fc.factory();
    m->set_executor(ExecutorContext{pool});
    ASSERT_TRUE(m->Fit(train).ok()) << fc.name;
    const std::vector<double> full = m->PredictProbaBatch(Batch(probe.x));
    const std::vector<double> permuted =
        m->PredictProbaBatch(Batch(permuted_rows));
    ASSERT_EQ(full.size(), probe.size()) << fc.name;
    ASSERT_EQ(permuted.size(), probe.size()) << fc.name;
    for (size_t i = 0; i < probe.size(); ++i) {
      const std::vector<double> alone =
          m->PredictProbaBatch(Batch({probe.x[i]}));
      ASSERT_EQ(alone.size(), 1u) << fc.name;
      EXPECT_TRUE(BitEq(alone[0], full[i]))
          << fc.name << " pair " << i << ": alone " << alone[0] << ", full "
          << full[i];
      EXPECT_TRUE(BitEq(permuted[i], full[perm[i]]))
          << fc.name << " permuted slot " << i << " (pair " << perm[i] << ")";
    }
    if (first_pool.empty()) {
      first_pool = full;
    } else {
      for (size_t i = 0; i < probe.size(); ++i) {
        EXPECT_TRUE(BitEq(first_pool[i], full[i]))
            << fc.name << " pair " << i << " differs at 8 threads";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Families, MatcherFamilyTest, ::testing::Range(0, 6));

// --- decision tree specifics -------------------------------------------------------

TEST(DecisionTreeTest, SingleSplitOnCleanThreshold) {
  Dataset d;
  d.feature_names = {"f"};
  for (int i = 0; i < 10; ++i) {
    d.x.push_back({i < 5 ? 0.0 : 1.0});
    d.y.push_back(i < 5 ? 0 : 1);
  }
  DecisionTreeMatcher tree;
  ASSERT_TRUE(tree.Fit(d).ok());
  EXPECT_EQ(tree.num_nodes(), 3u);  // root + two leaves
  EXPECT_EQ(tree.PredictBatch(Batch({{0.2}, {0.9}})),
            (std::vector<int>{0, 1}));
}

TEST(DecisionTreeTest, MaxDepthLimitsGrowth) {
  Dataset d = MakeDataset(50, 50, 23);
  DecisionTreeOptions opts;
  opts.max_depth = 1;
  DecisionTreeMatcher stump(opts);
  ASSERT_TRUE(stump.Fit(d).ok());
  EXPECT_LE(stump.num_nodes(), 3u);
}

TEST(DecisionTreeTest, DebugStringNamesFeatures) {
  Dataset d;
  d.feature_names = {"title_jaccard"};
  d.x = {{0.1}, {0.9}, {0.2}, {0.8}};
  d.y = {0, 1, 0, 1};
  DecisionTreeMatcher tree;
  ASSERT_TRUE(tree.Fit(d).ok());
  std::string dump = tree.ToDebugString(d.feature_names);
  EXPECT_NE(dump.find("title_jaccard <="), std::string::npos);
  EXPECT_NE(dump.find("leaf"), std::string::npos);
}

TEST(DecisionTreeTest, FeatureSplitShares) {
  Dataset d;
  d.feature_names = {"useless", "useful"};
  d.x = {{5.0, 0.1}, {5.0, 0.9}, {5.0, 0.2}, {5.0, 0.8}};
  d.y = {0, 1, 0, 1};
  DecisionTreeMatcher tree;
  ASSERT_TRUE(tree.Fit(d).ok());
  auto shares = tree.FeatureSplitShares(2);
  EXPECT_DOUBLE_EQ(shares[0], 0.0);
  EXPECT_DOUBLE_EQ(shares[1], 1.0);
}

TEST(RandomForestTest, BuildsRequestedTreeCount) {
  RandomForestOptions opts;
  opts.num_trees = 7;
  RandomForestMatcher forest(opts);
  ASSERT_TRUE(forest.Fit(MakeDataset(20, 20, 29)).ok());
  EXPECT_EQ(forest.num_trees(), 7u);
}

TEST(RandomForestTest, DifferentSeedsDifferentModels) {
  Dataset train = MakeDataset(30, 30, 31);
  // Near-boundary probes where ensemble votes differ.
  std::vector<std::vector<double>> rows;
  RandomEngine rng(33);
  for (int i = 0; i < 200; ++i) {
    rows.push_back({rng.NextGaussian(), rng.NextGaussian(),
                    rng.NextGaussian()});
  }
  const PairBatch probes = Batch(rows);
  RandomForestOptions a_opts, b_opts;
  a_opts.seed = 1;
  b_opts.seed = 2;
  RandomForestMatcher a(a_opts), b(b_opts);
  ASSERT_TRUE(a.Fit(train).ok());
  ASSERT_TRUE(b.Fit(train).ok());
  EXPECT_NE(a.PredictProbaBatch(probes), b.PredictProbaBatch(probes));
}

TEST(RandomForestTest, ModelAndPredictionsIdenticalAtAnyThreadCount) {
  // Per-tree RNG streams are derived serially and predictions accumulate
  // in tree order, so the fitted ensemble and its probabilities must be
  // bit-identical whether training runs on 1 or 8 threads.
  Dataset train = MakeDataset(30, 30, 41);
  std::vector<std::vector<double>> rows;
  RandomEngine rng(43);
  for (int i = 0; i < 100; ++i) {
    rows.push_back({rng.NextGaussian(), rng.NextGaussian(),
                    rng.NextGaussian()});
  }
  const PairBatch probes = Batch(rows);
  Executor p1(1), p8(8);
  RandomForestMatcher serial, parallel;
  serial.set_executor(ExecutorContext{&p1});
  parallel.set_executor(ExecutorContext{&p8});
  ASSERT_TRUE(serial.Fit(train).ok());
  ASSERT_TRUE(parallel.Fit(train).ok());
  EXPECT_EQ(serial.Serialize(), parallel.Serialize());
  EXPECT_EQ(serial.PredictProbaBatch(probes),
            parallel.PredictProbaBatch(probes));
  // And both match a forest fit without any executor context (shared pool).
  RandomForestMatcher plain;
  ASSERT_TRUE(plain.Fit(train).ok());
  EXPECT_EQ(plain.Serialize(), serial.Serialize());
}

TEST(CrossValidationTest, IdenticalAtAnyThreadCount) {
  Dataset d = MakeDataset(40, 40, 47);
  auto factory = [] { return std::make_unique<RandomForestMatcher>(); };
  Executor p1(1), p8(8);
  auto serial = CrossValidate(factory, d, 5, 123, ExecutorContext{&p1});
  auto parallel = CrossValidate(factory, d, 5, 123, ExecutorContext{&p8});
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(serial->mean_precision, parallel->mean_precision);
  EXPECT_EQ(serial->mean_recall, parallel->mean_recall);
  EXPECT_EQ(serial->mean_f1, parallel->mean_f1);
  ASSERT_EQ(serial->fold_metrics.size(), parallel->fold_metrics.size());
  for (size_t i = 0; i < serial->fold_metrics.size(); ++i) {
    EXPECT_EQ(serial->fold_metrics[i].tp, parallel->fold_metrics[i].tp);
    EXPECT_EQ(serial->fold_metrics[i].fp, parallel->fold_metrics[i].fp);
    EXPECT_EQ(serial->fold_metrics[i].fn, parallel->fold_metrics[i].fn);
    EXPECT_EQ(serial->fold_metrics[i].tn, parallel->fold_metrics[i].tn);
  }
}

// --- linear algebra --------------------------------------------------------------

TEST(CholeskyTest, SolvesKnownSystem) {
  // A = [[4,2],[2,3]], b = [10, 8] -> x = [1.75, 1.5]
  std::vector<double> a = {4, 2, 2, 3};
  std::vector<double> b = {10, 8};
  ASSERT_TRUE(CholeskySolve(a, b, 2).ok());
  EXPECT_NEAR(b[0], 1.75, 1e-12);
  EXPECT_NEAR(b[1], 1.5, 1e-12);
}

TEST(CholeskyTest, RejectsNonSpd) {
  std::vector<double> a = {0, 0, 0, 0};
  std::vector<double> b = {1, 1};
  EXPECT_FALSE(CholeskySolve(a, b, 2).ok());
}

// --- cross-validation ---------------------------------------------------------------

TEST(CrossValidationTest, PerfectSeparationScoresPerfect) {
  Dataset d = MakeDataset(40, 40, 37);
  auto result = CrossValidate(
      [] { return std::make_unique<DecisionTreeMatcher>(); }, d, 5, 41);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->fold_metrics.size(), 5u);
  EXPECT_GT(result->mean_f1, 0.95);
  EXPECT_EQ(result->matcher_name, "decision_tree");
}

TEST(CrossValidationTest, RejectsBadK) {
  Dataset d = MakeDataset(10, 10, 39);
  EXPECT_FALSE(CrossValidate(
                   [] { return std::make_unique<DecisionTreeMatcher>(); }, d,
                   1, 41)
                   .ok());
  EXPECT_FALSE(CrossValidate(
                   [] { return std::make_unique<DecisionTreeMatcher>(); }, d,
                   100, 41)
                   .ok());
}

TEST(SelectMatcherTest, RanksByMeanF1Descending) {
  Dataset d = MakeDataset(40, 40, 43);
  std::vector<MatcherFactory> factories = {
      [] { return std::make_unique<DecisionTreeMatcher>(); },
      [] { return std::make_unique<NaiveBayesMatcher>(); },
      [] { return std::make_unique<LogisticRegressionMatcher>(); },
  };
  auto ranked = SelectMatcher(factories, d, 5, 47);
  ASSERT_TRUE(ranked.ok());
  ASSERT_EQ(ranked->size(), 3u);
  for (size_t i = 1; i < ranked->size(); ++i) {
    EXPECT_GE((*ranked)[i - 1].mean_f1, (*ranked)[i].mean_f1);
  }
}

TEST(LeaveOneOutTest, FlagsPlantedLabelError) {
  // Clean separable data with ONE deliberately flipped label: LOO must
  // predict the true class for that row (the §8 debugging mechanism).
  Dataset d;
  d.feature_names = {"f"};
  for (int i = 0; i < 20; ++i) {
    d.x.push_back({i < 10 ? 0.0 + 0.01 * i : 1.0 + 0.01 * i});
    d.y.push_back(i < 10 ? 0 : 1);
  }
  d.y[5] = 1;  // planted mistake: feature says 0-class
  auto loo = LeaveOneOutPredictions(
      [] { return std::make_unique<DecisionTreeMatcher>(); }, d);
  ASSERT_TRUE(loo.ok());
  EXPECT_EQ((*loo)[5], 0) << "LOO should contradict the planted label";
  // Most other rows agree with their labels.
  size_t agree = 0;
  for (size_t i = 0; i < d.size(); ++i) {
    if ((*loo)[i] == d.y[i]) ++agree;
  }
  EXPECT_GE(agree, 18u);
}

}  // namespace
}  // namespace emx
