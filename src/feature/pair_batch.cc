#include "src/feature/pair_batch.h"

namespace emx {

PairBatch PairBatch::FromRows(const std::vector<std::vector<double>>& rows) {
  PairBatch batch;
  const size_t n = rows.size();
  const size_t width = n == 0 ? 0 : rows[0].size();
  batch.Reset(n, width);
  for (size_t i = 0; i < n; ++i) {
    for (size_t f = 0; f < width; ++f) batch.At(i, f) = rows[i][f];
  }
  return batch;
}

FeatureMatrix PairBatch::ToMatrix() const {
  FeatureMatrix m;
  m.feature_names = feature_names;
  m.rows.resize(num_pairs_);
  for (size_t i = 0; i < num_pairs_; ++i) {
    m.rows[i].resize(num_features_);
    RowTo(i, m.rows[i].data());
  }
  return m;
}

}  // namespace emx
