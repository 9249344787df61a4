#ifndef EMX_ML_STANDARDIZER_H_
#define EMX_ML_STANDARDIZER_H_

#include <cmath>
#include <vector>

namespace emx {

// Per-feature (mean, stddev) standardization shared by the gradient-based
// linear matchers; zero-variance features pass through centered.
class Standardizer {
 public:
  void Fit(const std::vector<std::vector<double>>& x) {
    size_t w = x.empty() ? 0 : x[0].size();
    mean_.assign(w, 0.0);
    std_.assign(w, 1.0);
    if (x.empty()) return;
    for (const auto& row : x) {
      for (size_t c = 0; c < w; ++c) mean_[c] += row[c];
    }
    for (size_t c = 0; c < w; ++c) mean_[c] /= static_cast<double>(x.size());
    std::vector<double> var(w, 0.0);
    for (const auto& row : x) {
      for (size_t c = 0; c < w; ++c) {
        double d = row[c] - mean_[c];
        var[c] += d * d;
      }
    }
    for (size_t c = 0; c < w; ++c) {
      double v = var[c] / static_cast<double>(x.size());
      std_[c] = v > 1e-12 ? std::sqrt(v) : 1.0;
    }
  }

  // Standardized value of feature c; c must be a fitted column.
  double Scale(size_t c, double v) const { return (v - mean_[c]) / std_[c]; }

  std::vector<std::vector<double>> Transform(
      const std::vector<std::vector<double>>& x) const {
    std::vector<std::vector<double>> out = x;
    for (auto& row : out) {
      for (size_t c = 0; c < row.size() && c < mean_.size(); ++c) {
        row[c] = Scale(c, row[c]);
      }
    }
    return out;
  }

 private:
  std::vector<double> mean_;
  std::vector<double> std_;
};

}  // namespace emx

#endif  // EMX_ML_STANDARDIZER_H_
