#include "src/ml/cross_validation.h"

#include <algorithm>

namespace emx {

Result<CvResult> CrossValidate(const MatcherFactory& factory,
                               const Dataset& data, size_t k, uint64_t seed,
                               const ExecutorContext& ctx) {
  if (k < 2) return Status::InvalidArgument("CrossValidate: k must be >= 2");
  if (data.size() < k) {
    return Status::InvalidArgument("CrossValidate: fewer rows than folds");
  }
  auto folds = StratifiedKFoldIndices(data.y, k, seed);

  // Each fold trains a disjoint fresh model and writes only its own slots;
  // the aggregation below walks the slots in fold order, so the averages
  // accumulate in the same sequence as the serial loop.
  std::string matcher_name;
  std::vector<BinaryMetrics> fold_metrics(k);
  std::vector<Status> statuses(k);
  ctx.get().ParallelFor(0, k, /*grain=*/1, [&](size_t lo, size_t hi) {
    for (size_t fold = lo; fold < hi; ++fold) {
      std::vector<size_t> train_idx;
      for (size_t f = 0; f < k; ++f) {
        if (f == fold) continue;
        train_idx.insert(train_idx.end(), folds[f].begin(), folds[f].end());
      }
      Dataset train = data.Subset(train_idx);
      Dataset test = data.Subset(folds[fold]);
      std::unique_ptr<MlMatcher> model = factory();
      model->set_executor(ctx);
      if (fold == 0) matcher_name = model->name();
      statuses[fold] = model->Fit(train);
      if (!statuses[fold].ok()) continue;
      fold_metrics[fold] = ComputeMetrics(
          test.y, model->PredictBatch(PairBatch::FromRows(test.x)));
    }
  });
  for (const Status& s : statuses) {
    EMX_RETURN_IF_ERROR(s);
  }

  CvResult result;
  result.matcher_name = std::move(matcher_name);
  for (const BinaryMetrics& m : fold_metrics) {
    result.fold_metrics.push_back(m);
    result.mean_precision += m.Precision();
    result.mean_recall += m.Recall();
    result.mean_f1 += m.F1();
  }
  double inv_k = 1.0 / static_cast<double>(k);
  result.mean_precision *= inv_k;
  result.mean_recall *= inv_k;
  result.mean_f1 *= inv_k;
  return result;
}

Result<std::vector<CvResult>> SelectMatcher(
    const std::vector<MatcherFactory>& factories, const Dataset& data,
    size_t k, uint64_t seed, const ExecutorContext& ctx) {
  std::vector<CvResult> results;
  for (const auto& factory : factories) {
    EMX_ASSIGN_OR_RETURN(CvResult r,
                         CrossValidate(factory, data, k, seed, ctx));
    results.push_back(std::move(r));
  }
  std::stable_sort(results.begin(), results.end(),
                   [](const CvResult& a, const CvResult& b) {
                     return a.mean_f1 > b.mean_f1;
                   });
  return results;
}

Result<std::vector<int>> LeaveOneOutPredictions(const MatcherFactory& factory,
                                                const Dataset& data,
                                                const ExecutorContext& ctx) {
  if (data.size() < 2) {
    return Status::InvalidArgument("LeaveOneOut: need at least 2 rows");
  }
  std::vector<int> out(data.size(), 0);
  std::vector<Status> statuses(data.size());
  ctx.get().ParallelFor(0, data.size(), /*grain=*/0, [&](size_t lo,
                                                         size_t hi) {
    std::vector<size_t> train_idx;
    train_idx.reserve(data.size() - 1);
    for (size_t i = lo; i < hi; ++i) {
      train_idx.clear();
      for (size_t j = 0; j < data.size(); ++j) {
        if (j != i) train_idx.push_back(j);
      }
      Dataset train = data.Subset(train_idx);
      std::unique_ptr<MlMatcher> model = factory();
      model->set_executor(ctx);
      statuses[i] = model->Fit(train);
      if (!statuses[i].ok()) continue;
      // A one-pair batch scores row i exactly as it scores in any batch.
      out[i] = model->PredictBatch(PairBatch::FromRows({data.x[i]}))[0];
    }
  });
  for (const Status& s : statuses) {
    EMX_RETURN_IF_ERROR(s);
  }
  return out;
}

}  // namespace emx
