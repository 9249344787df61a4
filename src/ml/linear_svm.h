#ifndef EMX_ML_LINEAR_SVM_H_
#define EMX_ML_LINEAR_SVM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/ml/matcher.h"
#include "src/ml/standardizer.h"

namespace emx {

struct LinearSvmOptions {
  double lambda = 1e-3;  // L2 regularization strength
  size_t epochs = 40;    // passes over the data
  uint64_t seed = 7;
};

// Linear SVM trained with the Pegasos stochastic sub-gradient algorithm on
// standardized features. Scoring maps the margin through a logistic
// squashing so the ensemble/threshold machinery stays uniform.
class LinearSvmMatcher : public MlMatcher {
 public:
  explicit LinearSvmMatcher(LinearSvmOptions options = {});

  Status Fit(const Dataset& data) override;
  std::vector<double> PredictProbaBatch(const PairBatch& batch) const override;
  std::string name() const override { return "svm"; }

 private:
  LinearSvmOptions options_;
  Standardizer scaler_;
  std::vector<double> w_;
  double b_ = 0.0;
};

}  // namespace emx

#endif  // EMX_ML_LINEAR_SVM_H_
