#include "src/ml/decision_tree.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "src/core/strings.h"

namespace emx {

namespace {

double Gini(size_t pos, size_t total) {
  if (total == 0) return 0.0;
  double p = static_cast<double>(pos) / static_cast<double>(total);
  return 2.0 * p * (1.0 - p);
}

}  // namespace

DecisionTreeMatcher::DecisionTreeMatcher(DecisionTreeOptions options)
    : options_(options) {}

Status DecisionTreeMatcher::Fit(const Dataset& data) {
  if (data.size() == 0) {
    return Status::InvalidArgument("DecisionTree: empty training set");
  }
  nodes_.clear();
  num_features_ = data.num_features();
  std::vector<size_t> indices(data.size());
  for (size_t i = 0; i < indices.size(); ++i) indices[i] = i;
  RandomEngine rng(options_.seed);
  BuildNode(data.x, data.y, indices, 0, indices.size(), 0, rng);
  return Status::OK();
}

int DecisionTreeMatcher::BuildNode(const std::vector<std::vector<double>>& x,
                                   const std::vector<int>& y,
                                   std::vector<size_t>& indices, size_t begin,
                                   size_t end, int depth, RandomEngine& rng) {
  const size_t n = end - begin;
  size_t pos = 0;
  for (size_t i = begin; i < end; ++i) pos += static_cast<size_t>(y[indices[i]]);

  int node_id = static_cast<int>(nodes_.size());
  nodes_.push_back({});
  nodes_[node_id].positive_rate =
      n == 0 ? 0.0 : static_cast<double>(pos) / static_cast<double>(n);

  bool stop = depth >= options_.max_depth || n < options_.min_samples_split ||
              pos == 0 || pos == n;
  if (stop) return node_id;

  // Choose the candidate feature set for this split.
  std::vector<size_t> features;
  if (options_.max_features == 0 || options_.max_features >= num_features_) {
    features.resize(num_features_);
    for (size_t f = 0; f < num_features_; ++f) features[f] = f;
  } else {
    features = rng.SampleWithoutReplacement(num_features_,
                                            options_.max_features);
    std::sort(features.begin(), features.end());  // determinism
  }

  // Best split search: sort the index range per feature and sweep.
  double parent_gini = Gini(pos, n);
  double best_gain = 1e-12;
  int best_feature = -1;
  double best_threshold = 0.0;

  std::vector<size_t> work(indices.begin() + begin, indices.begin() + end);
  for (size_t f : features) {
    std::sort(work.begin(), work.end(), [&](size_t a, size_t b) {
      return x[a][f] < x[b][f];
    });
    size_t left_pos = 0;
    for (size_t i = 0; i + 1 < n; ++i) {
      left_pos += static_cast<size_t>(y[work[i]]);
      double v = x[work[i]][f], next = x[work[i + 1]][f];
      if (v == next) continue;  // can't split between equal values
      size_t left_n = i + 1, right_n = n - left_n;
      if (left_n < options_.min_samples_leaf ||
          right_n < options_.min_samples_leaf) {
        continue;
      }
      double weighted =
          (static_cast<double>(left_n) * Gini(left_pos, left_n) +
           static_cast<double>(right_n) * Gini(pos - left_pos, right_n)) /
          static_cast<double>(n);
      double gain = parent_gini - weighted;
      if (gain > best_gain) {
        best_gain = gain;
        best_feature = static_cast<int>(f);
        best_threshold = 0.5 * (v + next);
      }
    }
  }

  if (best_feature < 0) return node_id;  // no useful split found

  // Partition the range in place around the chosen split.
  auto mid_it = std::partition(
      indices.begin() + begin, indices.begin() + end, [&](size_t i) {
        return x[i][static_cast<size_t>(best_feature)] <= best_threshold;
      });
  size_t mid = static_cast<size_t>(mid_it - indices.begin());
  if (mid == begin || mid == end) return node_id;  // degenerate partition

  nodes_[node_id].feature = best_feature;
  nodes_[node_id].threshold = best_threshold;
  int left = BuildNode(x, y, indices, begin, mid, depth + 1, rng);
  int right = BuildNode(x, y, indices, mid, end, depth + 1, rng);
  nodes_[node_id].left = left;
  nodes_[node_id].right = right;
  return node_id;
}

std::vector<double> DecisionTreeMatcher::PredictProbaBatch(
    const PairBatch& batch) const {
  std::vector<double> out(batch.num_pairs(), 0.0);
  if (nodes_.empty()) return out;
  for (size_t i = 0; i < batch.num_pairs(); ++i) {
    int node = 0;
    while (nodes_[static_cast<size_t>(node)].feature >= 0) {
      const Node& nd = nodes_[static_cast<size_t>(node)];
      double v = batch.At(i, static_cast<size_t>(nd.feature));
      node = (v <= nd.threshold) ? nd.left : nd.right;
    }
    out[i] = nodes_[static_cast<size_t>(node)].positive_rate;
  }
  return out;
}

std::string DecisionTreeMatcher::ToDebugString(
    const std::vector<std::string>& feature_names) const {
  std::ostringstream os;
  // Iterative preorder with depth tracking.
  std::vector<std::pair<int, int>> stack;  // (node, depth)
  if (!nodes_.empty()) stack.push_back({0, 0});
  while (!stack.empty()) {
    auto [id, depth] = stack.back();
    stack.pop_back();
    const Node& nd = nodes_[static_cast<size_t>(id)];
    os << std::string(static_cast<size_t>(depth) * 2, ' ');
    if (nd.feature < 0) {
      os << "leaf p(match)=" << nd.positive_rate << "\n";
    } else {
      std::string fname =
          static_cast<size_t>(nd.feature) < feature_names.size()
              ? feature_names[static_cast<size_t>(nd.feature)]
              : "f" + std::to_string(nd.feature);
      os << fname << " <= " << nd.threshold << " ?\n";
      stack.push_back({nd.right, depth + 1});
      stack.push_back({nd.left, depth + 1});
    }
  }
  return os.str();
}

std::string DecisionTreeMatcher::Serialize() const {
  std::string out = StrFormat("emx_decision_tree v1 nodes=%zu features=%zu\n",
                              nodes_.size(), num_features_);
  for (const Node& nd : nodes_) {
    // %.17g round-trips doubles exactly.
    out += StrFormat("%d %.17g %d %d %.17g\n", nd.feature, nd.threshold,
                     nd.left, nd.right, nd.positive_rate);
  }
  return out;
}

Result<DecisionTreeMatcher> DecisionTreeMatcher::Deserialize(
    const std::string& text) {
  std::vector<std::string> lines = Split(text, '\n');
  if (lines.empty()) {
    return Status::ParseError("empty decision-tree payload");
  }
  size_t node_count = 0, feature_count = 0;
  if (std::sscanf(lines[0].c_str(),
                  "emx_decision_tree v1 nodes=%zu features=%zu", &node_count,
                  &feature_count) != 2) {
    return Status::ParseError("bad decision-tree header: " + lines[0]);
  }
  DecisionTreeMatcher tree;
  tree.num_features_ = feature_count;
  tree.nodes_.reserve(node_count);
  for (size_t i = 1; i <= node_count; ++i) {
    if (i >= lines.size()) {
      return Status::ParseError("truncated decision-tree payload");
    }
    Node nd;
    if (std::sscanf(lines[i].c_str(), "%d %lg %d %d %lg", &nd.feature,
                    &nd.threshold, &nd.left, &nd.right,
                    &nd.positive_rate) != 5) {
      return Status::ParseError("bad node line: " + lines[i]);
    }
    // Child indices must stay inside the node table (leaves are -1).
    if (nd.feature >= 0 &&
        (nd.left < 0 || nd.right < 0 ||
         static_cast<size_t>(nd.left) >= node_count ||
         static_cast<size_t>(nd.right) >= node_count)) {
      return Status::ParseError("node children out of range: " + lines[i]);
    }
    tree.nodes_.push_back(nd);
  }
  return tree;
}

std::vector<double> DecisionTreeMatcher::FeatureSplitShares(
    size_t num_features) const {
  std::vector<double> shares(num_features, 0.0);
  size_t splits = 0;
  for (const Node& nd : nodes_) {
    if (nd.feature >= 0 && static_cast<size_t>(nd.feature) < num_features) {
      shares[static_cast<size_t>(nd.feature)] += 1.0;
      ++splits;
    }
  }
  if (splits > 0) {
    for (double& s : shares) s /= static_cast<double>(splits);
  }
  return shares;
}

}  // namespace emx
