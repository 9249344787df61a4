#include "src/ml/random_forest.h"

#include <cmath>
#include <cstdio>

#include "src/core/strings.h"

namespace emx {

RandomForestMatcher::RandomForestMatcher(RandomForestOptions options)
    : options_(options) {}

Status RandomForestMatcher::Fit(const Dataset& data) {
  if (data.size() == 0) {
    return Status::InvalidArgument("RandomForest: empty training set");
  }
  trees_.clear();
  size_t mtry = options_.max_features;
  if (mtry == 0) {
    mtry = static_cast<size_t>(
        std::max(1.0, std::floor(std::sqrt(
                          static_cast<double>(data.num_features())))));
  }
  // Fork() advances the parent engine, so per-tree RNG derivation is part
  // of the model definition and stays serial; everything downstream of a
  // tree's engine is independent of every other tree, which is what lets
  // the trees train in parallel while the ensemble stays bit-identical to
  // the single-threaded build.
  RandomEngine rng(options_.seed);
  std::vector<RandomEngine> tree_rngs;
  tree_rngs.reserve(options_.num_trees);
  for (size_t t = 0; t < options_.num_trees; ++t) {
    tree_rngs.push_back(rng.Fork(t));
  }

  std::vector<DecisionTreeMatcher> trees(options_.num_trees);
  std::vector<Status> statuses(options_.num_trees);
  executor_context().get().ParallelFor(
      0, options_.num_trees, /*grain=*/1, [&](size_t lo, size_t hi) {
        for (size_t t = lo; t < hi; ++t) {
          RandomEngine tree_rng = tree_rngs[t];
          // Bootstrap sample of the training rows.
          std::vector<size_t> sample(data.size());
          for (auto& s : sample) {
            s = static_cast<size_t>(tree_rng.NextBelow(data.size()));
          }
          Dataset boot = data.Subset(sample);
          DecisionTreeOptions tree_opts;
          tree_opts.max_depth = options_.max_depth;
          tree_opts.min_samples_leaf = options_.min_samples_leaf;
          tree_opts.max_features = mtry;
          tree_opts.seed = tree_rng.NextUint64();
          DecisionTreeMatcher tree(tree_opts);
          statuses[t] = tree.Fit(boot);
          if (statuses[t].ok()) trees[t] = std::move(tree);
        }
      });
  for (const Status& s : statuses) {
    EMX_RETURN_IF_ERROR(s);
  }
  trees_ = std::move(trees);
  flat_.Build(trees_);
  return Status::OK();
}

std::vector<double> RandomForestMatcher::FeatureImportances(
    size_t num_features) const {
  std::vector<double> out(num_features, 0.0);
  if (trees_.empty()) return out;
  for (const auto& tree : trees_) {
    std::vector<double> shares = tree.FeatureSplitShares(num_features);
    for (size_t f = 0; f < num_features; ++f) out[f] += shares[f];
  }
  for (double& v : out) v /= static_cast<double>(trees_.size());
  return out;
}

std::string RandomForestMatcher::Serialize() const {
  std::string out =
      StrFormat("emx_random_forest v1 trees=%zu\n", trees_.size());
  for (const auto& tree : trees_) out += tree.Serialize();
  return out;
}

Result<RandomForestMatcher> RandomForestMatcher::Deserialize(
    const std::string& text) {
  size_t header_end = text.find('\n');
  if (header_end == std::string::npos) {
    return Status::ParseError("empty random-forest payload");
  }
  size_t tree_count = 0;
  if (std::sscanf(text.substr(0, header_end).c_str(),
                  "emx_random_forest v1 trees=%zu", &tree_count) != 1) {
    return Status::ParseError("bad random-forest header");
  }
  RandomForestMatcher forest;
  size_t pos = header_end + 1;
  for (size_t t = 0; t < tree_count; ++t) {
    // Each tree payload spans its header line plus `nodes` node lines.
    size_t tree_header_end = text.find('\n', pos);
    if (tree_header_end == std::string::npos) {
      return Status::ParseError("truncated forest payload");
    }
    size_t nodes = 0, feats = 0;
    if (std::sscanf(text.substr(pos, tree_header_end - pos).c_str(),
                    "emx_decision_tree v1 nodes=%zu features=%zu", &nodes,
                    &feats) != 2) {
      return Status::ParseError("bad embedded tree header");
    }
    size_t end = tree_header_end + 1;
    for (size_t n = 0; n < nodes; ++n) {
      end = text.find('\n', end);
      if (end == std::string::npos) {
        return Status::ParseError("truncated embedded tree");
      }
      ++end;
    }
    EMX_ASSIGN_OR_RETURN(
        DecisionTreeMatcher tree,
        DecisionTreeMatcher::Deserialize(text.substr(pos, end - pos)));
    forest.trees_.push_back(std::move(tree));
    pos = end;
  }
  forest.flat_.Build(forest.trees_);
  return forest;
}

std::vector<double> RandomForestMatcher::PredictProbaTreeWalk(
    const PairBatch& batch) const {
  std::vector<double> out(batch.num_pairs(), 0.0);
  if (trees_.empty()) return out;
  // Trees predict in parallel; the accumulation stays serial IN TREE ORDER
  // so the floating-point sum is bit-identical to the one-thread engine.
  ExecutorContext ctx = executor_context();
  std::vector<std::vector<double>> per_tree = ctx.get().ParallelMap(
      trees_.size(), /*grain=*/1,
      [&](size_t t) { return trees_[t].PredictProbaBatch(batch); });
  for (const std::vector<double>& p : per_tree) {
    for (size_t i = 0; i < out.size(); ++i) out[i] += p[i];
  }
  for (double& v : out) v /= static_cast<double>(trees_.size());
  return out;
}

std::vector<double> RandomForestMatcher::PredictProbaBatch(
    const PairBatch& batch) const {
  // The flat walk accumulates each pair's leaf probabilities in the same
  // tree order before one divide, so the doubles match the tree walk bit
  // for bit — only the memory layout and the parallel axis (pairs, not
  // trees) change.
  return flat_.PredictBatch(batch, executor_context());
}

}  // namespace emx
