#ifndef EMX_ML_RANDOM_FOREST_H_
#define EMX_ML_RANDOM_FOREST_H_

#include <memory>
#include <string>
#include <vector>

#include "src/ml/decision_tree.h"
#include "src/ml/forest_flat.h"
#include "src/ml/matcher.h"

namespace emx {

struct RandomForestOptions {
  size_t num_trees = 50;
  int max_depth = 12;
  size_t min_samples_leaf = 1;
  // 0 = sqrt(num_features), the standard default.
  size_t max_features = 0;
  uint64_t seed = 7;
};

// Bagged ensemble of CART trees with per-split feature subsampling;
// predicted probability is the mean of tree leaf probabilities.
class RandomForestMatcher : public MlMatcher {
 public:
  explicit RandomForestMatcher(RandomForestOptions options = {});

  Status Fit(const Dataset& data) override;

  // Scores through the flattened forest (rebuilt on every Fit/Deserialize);
  // bit-identical to PredictProbaTreeWalk below. An unfitted forest's flat
  // form is empty and scores every pair 0, like the tree walk.
  std::vector<double> PredictProbaBatch(const PairBatch& batch) const override;
  std::string name() const override { return "random_forest"; }

  // The original pointer-walking ensemble prediction, retained as the
  // equivalence oracle and the baseline bench_matchers measures the
  // flattened representation against.
  std::vector<double> PredictProbaTreeWalk(const PairBatch& batch) const;

  const FlatForest& flat_forest() const { return flat_; }

  size_t num_trees() const { return trees_.size(); }

  // Mean per-tree split share of each feature — the importance signal used
  // when debugging which evidence the ensemble actually relies on.
  std::vector<double> FeatureImportances(size_t num_features) const;

  // Text round-trip of the whole ensemble (see DecisionTreeMatcher).
  std::string Serialize() const;
  static Result<RandomForestMatcher> Deserialize(const std::string& text);

 private:
  RandomForestOptions options_;
  std::vector<DecisionTreeMatcher> trees_;
  FlatForest flat_;
};

}  // namespace emx

#endif  // EMX_ML_RANDOM_FOREST_H_
