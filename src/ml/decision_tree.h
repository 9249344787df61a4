#ifndef EMX_ML_DECISION_TREE_H_
#define EMX_ML_DECISION_TREE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/result.h"
#include "src/ml/matcher.h"

namespace emx {

struct DecisionTreeOptions {
  int max_depth = 12;
  size_t min_samples_split = 2;
  size_t min_samples_leaf = 1;
  // Features considered per split: 0 = all; otherwise a random subset of
  // this size (random forests pass sqrt(num_features)).
  size_t max_features = 0;
  uint64_t seed = 7;
};

// CART classification tree with Gini impurity and axis-aligned threshold
// splits on continuous features (the paper's finally-selected matcher, §9).
class DecisionTreeMatcher : public MlMatcher {
 public:
  explicit DecisionTreeMatcher(DecisionTreeOptions options = {});

  Status Fit(const Dataset& data) override;
  std::vector<double> PredictProbaBatch(const PairBatch& batch) const override;
  std::string name() const override { return "decision_tree"; }

  // Number of nodes in the fitted tree (0 before Fit).
  size_t num_nodes() const { return nodes_.size(); }

  // Indented textual rendering of the fitted tree, for debugging — the
  // paper's "decision tree matcher debugger" inspects exactly this.
  std::string ToDebugString(const std::vector<std::string>& feature_names = {}) const;

  // Fraction of splits that use each feature, a crude importance signal.
  std::vector<double> FeatureSplitShares(size_t num_features) const;

  // Serializes the fitted tree to a compact, versioned text format — the
  // §12 "package the matcher so they could move it into the repository"
  // requirement. Deserialize() restores a tree that predicts identically.
  std::string Serialize() const;
  static Result<DecisionTreeMatcher> Deserialize(const std::string& text);

 private:
  // FlatForest re-lays fitted trees into its contiguous inference format.
  friend class FlatForest;

  struct Node {
    int feature = -1;          // -1 for leaves
    double threshold = 0.0;    // go left if x[feature] <= threshold
    int left = -1;
    int right = -1;
    double positive_rate = 0.0;  // leaf probability of class 1
  };

  int BuildNode(const std::vector<std::vector<double>>& x,
                const std::vector<int>& y, std::vector<size_t>& indices,
                size_t begin, size_t end, int depth, RandomEngine& rng);

  DecisionTreeOptions options_;
  std::vector<Node> nodes_;
  size_t num_features_ = 0;
};

}  // namespace emx

#endif  // EMX_ML_DECISION_TREE_H_
