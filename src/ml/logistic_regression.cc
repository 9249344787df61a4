#include "src/ml/logistic_regression.h"

#include <cmath>

namespace emx {

namespace {
double Sigmoid(double z) { return 1.0 / (1.0 + std::exp(-z)); }
}  // namespace

LogisticRegressionMatcher::LogisticRegressionMatcher(
    LogisticRegressionOptions options)
    : options_(options) {}

Status LogisticRegressionMatcher::Fit(const Dataset& data) {
  if (data.size() == 0) {
    return Status::InvalidArgument("LogisticRegression: empty training set");
  }
  scaler_.Fit(data.x);
  std::vector<std::vector<double>> x = scaler_.Transform(data.x);
  const size_t n = x.size(), w = data.num_features();
  w_.assign(w, 0.0);
  b_ = 0.0;
  std::vector<double> grad(w);
  for (size_t epoch = 0; epoch < options_.epochs; ++epoch) {
    std::fill(grad.begin(), grad.end(), 0.0);
    double grad_b = 0.0;
    for (size_t i = 0; i < n; ++i) {
      double z = b_;
      for (size_t c = 0; c < w; ++c) z += w_[c] * x[i][c];
      double err = Sigmoid(z) - static_cast<double>(data.y[i]);
      for (size_t c = 0; c < w; ++c) grad[c] += err * x[i][c];
      grad_b += err;
    }
    double inv_n = 1.0 / static_cast<double>(n);
    for (size_t c = 0; c < w; ++c) {
      w_[c] -= options_.learning_rate * (grad[c] * inv_n + options_.l2 * w_[c]);
    }
    b_ -= options_.learning_rate * grad_b * inv_n;
  }
  return Status::OK();
}

std::vector<double> LogisticRegressionMatcher::PredictProbaBatch(
    const PairBatch& batch) const {
  std::vector<double> out(batch.num_pairs());
  for (size_t i = 0; i < batch.num_pairs(); ++i) {
    double z = b_;
    for (size_t c = 0; c < w_.size() && c < batch.num_features(); ++c) {
      z += w_[c] * scaler_.Scale(c, batch.At(i, c));
    }
    out[i] = Sigmoid(z);
  }
  return out;
}

}  // namespace emx
