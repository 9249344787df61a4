#ifndef EMX_ML_FOREST_FLAT_H_
#define EMX_ML_FOREST_FLAT_H_

#include <cstdint>
#include <vector>

#include "src/core/executor.h"
#include "src/feature/pair_batch.h"
#include "src/ml/decision_tree.h"

namespace emx {

// QuickScorer-style flattened ensemble representation for inference.
//
// The fitted DecisionTreeMatcher keeps its nodes as a vector of 40-byte
// records addressed through int left/right fields in build order — every
// step of a prediction walk is a dependent load at an unpredictable offset.
// FlatForest re-lays the whole ensemble into one contiguous array of
// 16-byte nodes in breadth-first order per tree, with the two children of
// every split adjacent (right child == left child + 1). That shrinks the
// working set 2.5x, keeps the top levels of every tree — where all walks
// go — packed into a few cache lines, and turns the branch
// `(v <= thr) ? left : right` into the branchless `left + !(v <= thr)`.
// Leaves are encoded so that the SAME step function parks on them
// (threshold = NaN fails every comparison, left = self - 1, so the step
// re-selects the leaf); leaf probabilities live in a parallel leaf_value_
// array. A walk is therefore pure straight-line code with no leaf test,
// which lets the blocked scorer overlap eight pairs' dependent-load chains.
// There is one walk, over the columns of a PairBatch.
//
// Inference semantics are exactly the pointer walk's: NaN feature values
// fail `v <= thr` and go right, leaves contribute their positive rate, and
// the ensemble mean accumulates IN TREE ORDER before one divide — so flat
// predictions are bit-identical to RandomForestMatcher::PredictProbaTreeWalk,
// the retained oracle (asserted by the equivalence suite in pair_batch_test).
class FlatForest {
 public:
  struct Node {
    double threshold = 0.0;  // splits: split threshold; leaves: NaN
    int32_t feature = 0;     // splits: feature index; leaves: 0 (dummy read)
    uint32_t left = 0;       // left child (right is left + 1); leaves: self - 1
  };

  // (Re)builds from fitted trees. An ensemble member with no nodes predicts
  // 0.0, matching the pointer walk on an empty tree.
  void Build(const std::vector<DecisionTreeMatcher>& trees);
  void Clear();

  bool empty() const { return roots_.empty(); }
  size_t num_trees() const { return roots_.size(); }
  size_t num_nodes() const { return nodes_.size(); }

  // Mean leaf probability over all trees, per pair of `batch`. Pairs score
  // in parallel chunks on `ctx`'s executor and each output slot is a pure
  // function of its pair's row, so results are identical at any thread
  // count. An empty forest scores every pair 0.
  std::vector<double> PredictBatch(const PairBatch& batch,
                                   const ExecutorContext& ctx) const;

 private:
  std::vector<Node> nodes_;
  std::vector<double> leaf_value_;  // per-node leaf payload (0 for splits)
  std::vector<uint32_t> roots_;     // per-tree root index into nodes_
  std::vector<uint32_t> depths_;    // per-tree max depth (0 = leaf-only tree)
};

}  // namespace emx

#endif  // EMX_ML_FOREST_FLAT_H_
