#include "src/ml/naive_bayes.h"

#include <cmath>

namespace emx {

namespace {
constexpr double kVarSmoothing = 1e-9;
}  // namespace

Status NaiveBayesMatcher::Fit(const Dataset& data) {
  if (data.size() == 0) {
    return Status::InvalidArgument("NaiveBayes: empty training set");
  }
  const size_t w = data.num_features();
  auto fit_class = [&](int label, ClassStats& cs) {
    cs.mean.assign(w, 0.0);
    cs.var.assign(w, 0.0);
    size_t n = 0;
    for (size_t i = 0; i < data.size(); ++i) {
      if (data.y[i] != label) continue;
      ++n;
      for (size_t c = 0; c < w; ++c) cs.mean[c] += data.x[i][c];
    }
    // Laplace-style prior smoothing keeps single-class training sets sane.
    cs.log_prior = std::log((static_cast<double>(n) + 1.0) /
                            (static_cast<double>(data.size()) + 2.0));
    if (n == 0) {
      cs.var.assign(w, 1.0);
      return;
    }
    for (size_t c = 0; c < w; ++c) cs.mean[c] /= static_cast<double>(n);
    for (size_t i = 0; i < data.size(); ++i) {
      if (data.y[i] != label) continue;
      for (size_t c = 0; c < w; ++c) {
        double d = data.x[i][c] - cs.mean[c];
        cs.var[c] += d * d;
      }
    }
    for (size_t c = 0; c < w; ++c) {
      cs.var[c] = cs.var[c] / static_cast<double>(n) + kVarSmoothing;
    }
  };
  fit_class(1, pos_);
  fit_class(0, neg_);
  fitted_ = true;
  return Status::OK();
}

double NaiveBayesMatcher::LogLikelihood(const ClassStats& cs,
                                        const PairBatch& batch,
                                        size_t i) const {
  double ll = cs.log_prior;
  for (size_t c = 0; c < cs.mean.size() && c < batch.num_features(); ++c) {
    double d = batch.At(i, c) - cs.mean[c];
    ll += -0.5 * (std::log(2.0 * M_PI * cs.var[c]) + d * d / cs.var[c]);
  }
  return ll;
}

std::vector<double> NaiveBayesMatcher::PredictProbaBatch(
    const PairBatch& batch) const {
  std::vector<double> out(batch.num_pairs(), 0.0);
  if (!fitted_) return out;
  for (size_t i = 0; i < batch.num_pairs(); ++i) {
    double lp = LogLikelihood(pos_, batch, i);
    double ln = LogLikelihood(neg_, batch, i);
    double mx = std::max(lp, ln);
    double pp = std::exp(lp - mx);
    double pn = std::exp(ln - mx);
    out[i] = pp / (pp + pn);
  }
  return out;
}

}  // namespace emx
