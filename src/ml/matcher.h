#ifndef EMX_ML_MATCHER_H_
#define EMX_ML_MATCHER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/executor.h"
#include "src/core/status.h"
#include "src/feature/pair_batch.h"
#include "src/ml/dataset.h"

namespace emx {

// A trainable binary matcher over feature vectors — the C++ analogue of the
// six scikit-learn matchers PyMatcher wraps (§9). Implementations are
// deterministic given their seed options — INCLUDING across thread counts:
// a matcher that parallelizes Fit or scoring on the configured executor
// must produce bit-identical models and predictions at any pool size.
class MlMatcher {
 public:
  virtual ~MlMatcher() = default;

  // Trains on `data`. Fails on empty or single-class degenerate input only
  // where the model genuinely cannot fit (e.g. no rows).
  virtual Status Fit(const Dataset& data) = 0;

  // Match probability per pair of a columnar batch, in [0, 1]; the one
  // scoring path. Requires a successful Fit. Pair i's probability reads
  // only row i, so it is the same double whether the pair is scored alone
  // (serve, leave-one-out), in a full batch or in a permuted one.
  virtual std::vector<double> PredictProbaBatch(
      const PairBatch& batch) const = 0;

  // 0/1 labels for a columnar batch at the 0.5 threshold.
  std::vector<int> PredictBatch(const PairBatch& batch) const;

  virtual std::string name() const = 0;

  // Executor the matcher's internal data-parallel loops run on (ensemble
  // members, per-row prediction). Default: the shared pool. Set before Fit;
  // not to be changed while a Fit or a scoring call is in flight.
  void set_executor(const ExecutorContext& ctx) { exec_ctx_ = ctx; }
  const ExecutorContext& executor_context() const { return exec_ctx_; }

 private:
  ExecutorContext exec_ctx_;
};

// Factory used by model selection / cross-validation to build a fresh,
// untrained model per fold.
using MatcherFactory = std::function<std::unique_ptr<MlMatcher>()>;

}  // namespace emx

#endif  // EMX_ML_MATCHER_H_
