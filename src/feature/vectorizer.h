#ifndef EMX_FEATURE_VECTORIZER_H_
#define EMX_FEATURE_VECTORIZER_H_

#include <memory>

#include "src/block/candidate_set.h"
#include "src/core/executor.h"
#include "src/core/result.h"
#include "src/feature/feature_gen.h"
#include "src/feature/pair_batch.h"
#include "src/table/table.h"
#include "src/text/tokenizer.h"

namespace emx {

// How a feature's prepared evaluator needs both its columns prepped:
// lowercase from the spec, never punctuation stripping, and the spec's
// tokenizer (null for text-only prep). The batch vectorizer and
// MatchService both bind features through this one mapping.
struct FeaturePrep {
  PrepOptions options;
  std::shared_ptr<Tokenizer> tokenizer;
};
FeaturePrep PrepForFeature(const FeaturePrepSpec& spec);

// One feature's operands for EvaluateFeatures. Pair (l, r) reads row l on
// the left and row r on the right. A feature with a prepared evaluator
// reads the two prepared columns (from one PrepCache); any other calls its
// Value fn on the two attribute columns.
struct FeatureInputs {
  const std::vector<Value>* left = nullptr;
  const std::vector<Value>* right = nullptr;
  const PreparedColumn* left_prep = nullptr;  // null: the Value fn
  const PreparedColumn* right_prep = nullptr;
};

// Writes feature i of pairs[k] to batch->Column(i)[k] for k in [lo, hi),
// feature-major: each feature sweeps the range before the next starts. A
// prepared feature with a batch kernel scores the range's non-null lanes
// in one kernel call (a null side scores NaN); a token feature calls its
// prep_fn per pair. The batch vectorizer calls this once per executor
// chunk and MatchService::Lookup once over its (query, record) pairs, so
// both compute the same doubles. Feature fns must be thread-safe.
void EvaluateFeatures(const FeatureSet& features,
                      const std::vector<FeatureInputs>& inputs,
                      const std::vector<RecordPair>& pairs, size_t lo,
                      size_t hi, PairBatch* batch);

// Converts each candidate record pair into a feature vector by evaluating
// every feature of `features` on the pair's attribute values (§9: "we used
// these features to convert each record pair into a feature vector").
// Row i of the result corresponds to pairs[i]; missing comparisons are NaN.
// InvalidArgument, naming the side and the row, when a pair indexes past
// its table.
//
// Before the pair loop, each (column, prep spec) a feature references is
// bound once through `cache` (or a call-local cache when null) with
// PrepCache::GetRows: the cache's whole column when it holds one (a
// blocker's), otherwise a column with only the rows the pairs touch
// prepped — normalization, tokenization, and token-id spans are computed
// once per touched RECORD, not per (pair × feature) as the legacy path did,
// and never for a row no pair reads. The evaluation loop is then
// allocation-free merge kernels over the prepared spans. Results are
// bit-identical to the legacy path and to whole-column prep (asserted by
// token_kernel_test).
//
// Rows are filled in parallel on `ctx`'s executor — each row is an
// independent pure computation over (pairs[i], features), so the matrix is
// identical at any thread count. Feature fns must be thread-safe (all
// built-in similarity features are pure).
Result<FeatureMatrix> VectorizePairs(const Table& left, const Table& right,
                                     const CandidateSet& pairs,
                                     const FeatureSet& features,
                                     const ExecutorContext& ctx = {},
                                     PrepCache* cache = nullptr);

// The columnar hot path: same prep and the same doubles as VectorizePairs
// (bit for bit), but the result is a structure-of-arrays PairBatch filled
// by EvaluateFeatures once per executor chunk — features with a batch
// kernel (the character-sequence measures) score a whole chunk's worth of
// contiguous lanes per call through batch_kernel.h instead of one pair at
// a time. VectorizePairs is a thin transpose over this.
Result<PairBatch> VectorizePairsBatch(const Table& left, const Table& right,
                                      const CandidateSet& pairs,
                                      const FeatureSet& features,
                                      const ExecutorContext& ctx = {},
                                      PrepCache* cache = nullptr);

// Forces every feature through its legacy per-pair Value fn, bypassing
// prepared columns entirely. Equivalence oracle for tests and the
// before/after measurement in bench_vectorize — not a production path.
Result<FeatureMatrix> VectorizePairsUnprepared(const Table& left,
                                               const Table& right,
                                               const CandidateSet& pairs,
                                               const FeatureSet& features,
                                               const ExecutorContext& ctx = {});

// Mean imputation fitted on a training matrix, applied to any matrix with
// the same feature columns — PyMatcher fills missing feature values with
// the column mean before scikit-learn sees them (§9).
class MeanImputer {
 public:
  MeanImputer() = default;

  // Learns per-column means over non-NaN entries. Columns that are all-NaN
  // get mean 0. The PairBatch overload accumulates each column in the same
  // ascending-pair order as the row-major walk — identical means.
  void Fit(const FeatureMatrix& matrix);
  void Fit(const PairBatch& batch);

  // Replaces NaNs with the fitted means, in place. Fails if widths differ.
  Status Transform(FeatureMatrix& matrix) const;
  Status Transform(PairBatch& batch) const;

  const std::vector<double>& means() const { return means_; }

 private:
  std::vector<double> means_;
};

}  // namespace emx

#endif  // EMX_FEATURE_VECTORIZER_H_
