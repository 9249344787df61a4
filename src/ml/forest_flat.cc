#include "src/ml/forest_flat.h"

#include <limits>

namespace emx {

namespace {

// Pairs are walked through every tree in blocks of kWalkBlock cursors. One
// pair's walk is a chain of dependent loads (each node read decides the next
// index), so a single cursor runs at memory latency; eight cursors are
// independent chains the core overlaps, which is where the flat scorer's
// speedup over the pointer walk comes from. Eight is enough to cover L1
// latency without spilling the cursor array out of registers.
constexpr size_t kWalkBlock = 8;

}  // namespace

void FlatForest::Clear() {
  nodes_.clear();
  leaf_value_.clear();
  roots_.clear();
  depths_.clear();
}

void FlatForest::Build(const std::vector<DecisionTreeMatcher>& trees) {
  Clear();
  roots_.reserve(trees.size());
  size_t total = 0;
  for (const DecisionTreeMatcher& t : trees) {
    total += t.nodes_.empty() ? 1 : t.nodes_.size();
  }
  nodes_.reserve(total);
  leaf_value_.reserve(total);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // Breadth-first renumbering per tree: a queue of source-node indices in
  // visit order, with both children of a split allocated adjacently the
  // moment the split is visited. Level k of the tree ends up contiguous,
  // so the first few cache lines of a tree cover the levels every single
  // walk traverses.
  std::vector<int> queue;
  std::vector<uint32_t> qdepth;
  for (const DecisionTreeMatcher& t : trees) {
    roots_.push_back(static_cast<uint32_t>(nodes_.size()));
    if (t.nodes_.empty()) {
      // Empty tree -> single 0.0 leaf, matching the pointer walk.
      nodes_.push_back(Node{nan, 0, static_cast<uint32_t>(nodes_.size()) - 1});
      leaf_value_.push_back(0.0);
      depths_.push_back(0);
      continue;
    }
    queue.clear();
    queue.push_back(0);
    qdepth.clear();
    qdepth.push_back(0);
    uint32_t max_depth = 0;
    size_t base = nodes_.size();
    nodes_.emplace_back();
    leaf_value_.push_back(0.0);
    for (size_t q = 0; q < queue.size(); ++q) {
      const auto& src = t.nodes_[static_cast<size_t>(queue[q])];
      const uint32_t self = static_cast<uint32_t>(base + q);
      Node& dst = nodes_[base + q];
      if (src.feature < 0) {
        // A leaf is a node the step function cannot leave: threshold NaN
        // makes `v <= threshold` false for EVERY v (including NaN), so the
        // step always takes left + 1, and left = self - 1 (uint32 wrap is
        // fine at index 0) lands back on the leaf. The walk needs no leaf
        // test at all; the payload lives in leaf_value_[self].
        dst.threshold = nan;
        dst.feature = 0;
        dst.left = self - 1;
        leaf_value_[self] = src.positive_rate;
        if (qdepth[q] > max_depth) max_depth = qdepth[q];
      } else {
        dst.threshold = src.threshold;
        dst.feature = src.feature;
        dst.left = static_cast<uint32_t>(base + queue.size());
        queue.push_back(src.left);
        queue.push_back(src.right);
        qdepth.push_back(qdepth[q] + 1);
        qdepth.push_back(qdepth[q] + 1);
        nodes_.emplace_back();
        nodes_.emplace_back();
        leaf_value_.push_back(0.0);
        leaf_value_.push_back(0.0);
      }
    }
    depths_.push_back(max_depth);
  }
}

namespace {

// Cell (i, f) of a column-major batch whose column 0 starts at `cells`.
inline double Cell(const double* cells, size_t stride, int32_t feature,
                   size_t i) {
  return cells[static_cast<size_t>(static_cast<uint32_t>(feature)) * stride +
               i];
}

// Walks pairs [lo, hi) through every tree, kWalkBlock pairs at a time. A
// blocked cursor and a tail pair take the same steps and accumulate in the
// same tree order, so a pair's probability does not depend on where it
// falls in the batch; only the interleaving (tree-outer over a block of
// cursors) differs.
void WalkBlockRange(const FlatForest::Node* nodes, const double* leaf_value,
                    const uint32_t* roots, const uint32_t* depths,
                    size_t num_trees, const double* cells, size_t stride,
                    size_t lo, size_t hi, double* out) {
  const double trees = static_cast<double>(num_trees);
  size_t i = lo;
  for (; i + kWalkBlock <= hi; i += kWalkBlock) {
    const double* block = cells + i;  // folds the pair offset into one pointer
    double sum[kWalkBlock] = {0};
    uint32_t idx[kWalkBlock];
    for (size_t t = 0; t < num_trees; ++t) {
      for (size_t r = 0; r < kWalkBlock; ++r) idx[r] = roots[t];
      // The step body is straight-line: load node, load feature, compare,
      // add. Leaves are self-loops (NaN threshold, see Build), so a cursor
      // that reached its leaf early keeps re-selecting it with the same
      // stepping as an interior move — no per-cursor leaf branch for the
      // core to mispredict, and eight independent chains to overlap.
      for (uint32_t d = 0; d < depths[t]; ++d) {
        uint32_t moved = 0;
        for (size_t r = 0; r < kWalkBlock; ++r) {
          const FlatForest::Node nd = nodes[idx[r]];
          const double v = Cell(block, stride, nd.feature, r);
          // NaN fails the comparison and goes right, like the pointer walk.
          const uint32_t next =
              nd.left + static_cast<uint32_t>(!(v <= nd.threshold));
          moved |= next ^ idx[r];
          idx[r] = next;
        }
        // One predictable branch per LEVEL (not per cursor): stop when the
        // whole block is parked, so a lone deep branch in the tree doesn't
        // cost every pair its max depth.
        if (!moved) break;
      }
      for (size_t r = 0; r < kWalkBlock; ++r) sum[r] += leaf_value[idx[r]];
    }
    for (size_t r = 0; r < kWalkBlock; ++r) out[i + r] = sum[r] / trees;
  }
  for (; i < hi; ++i) {
    double sum = 0.0;
    for (size_t t = 0; t < num_trees; ++t) {
      uint32_t idx = roots[t];
      for (uint32_t d = 0; d < depths[t]; ++d) {
        const FlatForest::Node nd = nodes[idx];
        const double v = Cell(cells, stride, nd.feature, i);
        const uint32_t next =
            nd.left + static_cast<uint32_t>(!(v <= nd.threshold));
        if (next == idx) break;  // parked on a leaf
        idx = next;
      }
      sum += leaf_value[idx];
    }
    out[i] = sum / trees;
  }
}

}  // namespace

std::vector<double> FlatForest::PredictBatch(const PairBatch& batch,
                                             const ExecutorContext& ctx) const {
  std::vector<double> out(batch.num_pairs(), 0.0);
  if (empty()) return out;
  const size_t stride = batch.num_pairs();
  const double* cells = batch.num_features() > 0 ? batch.Column(0) : nullptr;
  ctx.get().ParallelFor(
      0, batch.num_pairs(), /*grain=*/0, [&](size_t lo, size_t hi) {
        WalkBlockRange(nodes_.data(), leaf_value_.data(), roots_.data(),
                       depths_.data(), roots_.size(), cells, stride, lo, hi,
                       out.data());
      });
  return out;
}

}  // namespace emx
