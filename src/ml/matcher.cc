#include "src/ml/matcher.h"

namespace emx {

std::vector<int> MlMatcher::PredictBatch(const PairBatch& batch) const {
  std::vector<double> proba = PredictProbaBatch(batch);
  std::vector<int> out(proba.size());
  for (size_t i = 0; i < proba.size(); ++i) {
    out[i] = proba[i] >= 0.5 ? 1 : 0;
  }
  return out;
}

}  // namespace emx
