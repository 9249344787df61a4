#include "src/ml/linear_svm.h"

#include <cmath>

namespace emx {

LinearSvmMatcher::LinearSvmMatcher(LinearSvmOptions options)
    : options_(options) {}

Status LinearSvmMatcher::Fit(const Dataset& data) {
  if (data.size() == 0) {
    return Status::InvalidArgument("LinearSvm: empty training set");
  }
  scaler_.Fit(data.x);
  std::vector<std::vector<double>> x = scaler_.Transform(data.x);
  const size_t n = x.size(), w = data.num_features();
  w_.assign(w, 0.0);
  b_ = 0.0;
  RandomEngine rng(options_.seed);
  size_t t = 0;
  for (size_t epoch = 0; epoch < options_.epochs; ++epoch) {
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i) order[i] = i;
    rng.Shuffle(order);
    for (size_t i : order) {
      ++t;
      double eta = 1.0 / (options_.lambda * static_cast<double>(t));
      double yi = data.y[i] == 1 ? 1.0 : -1.0;
      double margin = b_;
      for (size_t c = 0; c < w; ++c) margin += w_[c] * x[i][c];
      margin *= yi;
      // Pegasos update: always shrink, add the example when it violates the
      // margin.
      double shrink = 1.0 - eta * options_.lambda;
      for (size_t c = 0; c < w; ++c) w_[c] *= shrink;
      if (margin < 1.0) {
        for (size_t c = 0; c < w; ++c) w_[c] += eta * yi * x[i][c];
        b_ += eta * yi;
      }
    }
  }
  return Status::OK();
}

std::vector<double> LinearSvmMatcher::PredictProbaBatch(
    const PairBatch& batch) const {
  std::vector<double> out(batch.num_pairs());
  for (size_t i = 0; i < batch.num_pairs(); ++i) {
    double z = b_;
    for (size_t c = 0; c < w_.size() && c < batch.num_features(); ++c) {
      z += w_[c] * scaler_.Scale(c, batch.At(i, c));
    }
    out[i] = 1.0 / (1.0 + std::exp(-2.0 * z));
  }
  return out;
}

}  // namespace emx
