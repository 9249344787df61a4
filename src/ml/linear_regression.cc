#include "src/ml/linear_regression.h"

#include <algorithm>
#include <cmath>

namespace emx {

Status CholeskySolve(std::vector<double>& a, std::vector<double>& b,
                     size_t n) {
  // Decompose a = L·Lᵀ in place (lower triangle).
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j <= i; ++j) {
      double sum = a[i * n + j];
      for (size_t k = 0; k < j; ++k) sum -= a[i * n + k] * a[j * n + k];
      if (i == j) {
        if (sum <= 0.0) {
          return Status::Internal("CholeskySolve: matrix not SPD");
        }
        a[i * n + j] = std::sqrt(sum);
      } else {
        a[i * n + j] = sum / a[j * n + j];
      }
    }
  }
  // Forward substitution: L·z = b.
  for (size_t i = 0; i < n; ++i) {
    double sum = b[i];
    for (size_t k = 0; k < i; ++k) sum -= a[i * n + k] * b[k];
    b[i] = sum / a[i * n + i];
  }
  // Back substitution: Lᵀ·x = z.
  for (size_t ii = n; ii > 0; --ii) {
    size_t i = ii - 1;
    double sum = b[i];
    for (size_t k = i + 1; k < n; ++k) sum -= a[k * n + i] * b[k];
    b[i] = sum / a[i * n + i];
  }
  return Status::OK();
}

LinearRegressionMatcher::LinearRegressionMatcher(
    LinearRegressionOptions options)
    : options_(options) {}

Status LinearRegressionMatcher::Fit(const Dataset& data) {
  if (data.size() == 0) {
    return Status::InvalidArgument("LinearRegression: empty training set");
  }
  const size_t w = data.num_features() + 1;  // +1 intercept
  std::vector<double> xtx(w * w, 0.0);
  std::vector<double> xty(w, 0.0);
  std::vector<double> row(w);
  for (size_t i = 0; i < data.size(); ++i) {
    row[0] = 1.0;
    for (size_t c = 1; c < w; ++c) row[c] = data.x[i][c - 1];
    for (size_t a = 0; a < w; ++a) {
      xty[a] += row[a] * static_cast<double>(data.y[i]);
      for (size_t b = 0; b <= a; ++b) xtx[a * w + b] += row[a] * row[b];
    }
  }
  // Mirror the lower triangle and add the ridge.
  for (size_t a = 0; a < w; ++a) {
    for (size_t b = a + 1; b < w; ++b) xtx[a * w + b] = xtx[b * w + a];
    xtx[a * w + a] += options_.ridge;
  }
  EMX_RETURN_IF_ERROR(CholeskySolve(xtx, xty, w));
  w_ = std::move(xty);
  return Status::OK();
}

std::vector<double> LinearRegressionMatcher::PredictProbaBatch(
    const PairBatch& batch) const {
  std::vector<double> out(batch.num_pairs(), 0.0);
  if (w_.empty()) return out;
  for (size_t i = 0; i < batch.num_pairs(); ++i) {
    double z = w_[0];
    for (size_t c = 0; c + 1 < w_.size() && c < batch.num_features(); ++c) {
      z += w_[c + 1] * batch.At(i, c);
    }
    out[i] = std::clamp(z, 0.0, 1.0);
  }
  return out;
}

}  // namespace emx
