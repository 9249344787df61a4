#ifndef EMX_ML_LINEAR_REGRESSION_H_
#define EMX_ML_LINEAR_REGRESSION_H_

#include <string>
#include <vector>

#include "src/ml/matcher.h"

namespace emx {

struct LinearRegressionOptions {
  // Ridge term keeping the normal equations well-conditioned.
  double ridge = 1e-6;
};

// Least-squares regression on 0/1 targets, solved exactly via the normal
// equations (Cholesky); predictions are clamped to [0,1] and thresholded at
// 0.5 like PyMatcher's linear-regression matcher.
class LinearRegressionMatcher : public MlMatcher {
 public:
  explicit LinearRegressionMatcher(LinearRegressionOptions options = {});

  Status Fit(const Dataset& data) override;
  std::vector<double> PredictProbaBatch(const PairBatch& batch) const override;
  std::string name() const override { return "linear_regression"; }

 private:
  LinearRegressionOptions options_;
  std::vector<double> w_;  // includes intercept at index 0
};

// Solves the symmetric positive definite system a·x = b in place via
// Cholesky decomposition; `a` is row-major n×n. Exposed for testing.
Status CholeskySolve(std::vector<double>& a, std::vector<double>& b, size_t n);

}  // namespace emx

#endif  // EMX_ML_LINEAR_REGRESSION_H_
