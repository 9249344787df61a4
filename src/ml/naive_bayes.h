#ifndef EMX_ML_NAIVE_BAYES_H_
#define EMX_ML_NAIVE_BAYES_H_

#include <string>
#include <vector>

#include "src/ml/matcher.h"

namespace emx {

// Gaussian naive Bayes: per-class, per-feature normal likelihoods with
// variance smoothing, combined with class priors in log space.
class NaiveBayesMatcher : public MlMatcher {
 public:
  NaiveBayesMatcher() = default;

  Status Fit(const Dataset& data) override;
  std::vector<double> PredictProbaBatch(const PairBatch& batch) const override;
  std::string name() const override { return "naive_bayes"; }

 private:
  struct ClassStats {
    double log_prior = 0.0;
    std::vector<double> mean;
    std::vector<double> var;
  };
  // Log prior plus the Gaussian log density of pair i of `batch`.
  double LogLikelihood(const ClassStats& cs, const PairBatch& batch,
                       size_t i) const;

  ClassStats pos_, neg_;
  bool fitted_ = false;
};

}  // namespace emx

#endif  // EMX_ML_NAIVE_BAYES_H_
