#ifndef EMX_ML_LOGISTIC_REGRESSION_H_
#define EMX_ML_LOGISTIC_REGRESSION_H_

#include <string>
#include <vector>

#include "src/ml/matcher.h"
#include "src/ml/standardizer.h"

namespace emx {

struct LogisticRegressionOptions {
  double learning_rate = 0.5;
  double l2 = 1e-4;
  size_t epochs = 300;
};

// L2-regularized logistic regression trained by full-batch gradient descent
// on standardized features.
class LogisticRegressionMatcher : public MlMatcher {
 public:
  explicit LogisticRegressionMatcher(LogisticRegressionOptions options = {});

  Status Fit(const Dataset& data) override;
  std::vector<double> PredictProbaBatch(const PairBatch& batch) const override;
  std::string name() const override { return "logistic_regression"; }

  const std::vector<double>& weights() const { return w_; }

 private:
  LogisticRegressionOptions options_;
  Standardizer scaler_;
  std::vector<double> w_;
  double b_ = 0.0;
};

}  // namespace emx

#endif  // EMX_ML_LOGISTIC_REGRESSION_H_
