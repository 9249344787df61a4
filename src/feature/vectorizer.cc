#include "src/feature/vectorizer.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <utility>

#include "src/text/tokenizer.h"

namespace emx {

FeaturePrep PrepForFeature(const FeaturePrepSpec& spec) {
  FeaturePrep out;
  out.options = {spec.lowercase, /*strip_punctuation=*/false,
                 /*token_rows=*/false};
  if (spec.tokenize && spec.qgram > 0) {
    out.tokenizer = std::make_shared<QgramTokenizer>(spec.qgram);
  } else if (spec.tokenize) {
    // Word tokens: Monge-Elkan reads their token rows.
    out.tokenizer = std::make_shared<WhitespaceTokenizer>();
    out.options.token_rows = true;
  }
  return out;
}

void EvaluateFeatures(const FeatureSet& features,
                      const std::vector<FeatureInputs>& inputs,
                      const std::vector<RecordPair>& pairs, size_t lo,
                      size_t hi, PairBatch* batch) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  // Gather/scatter staging for the batch kernels, reused across features
  // and calls on this thread.
  thread_local std::vector<std::string_view> ga, gb;
  thread_local std::vector<double> scores;
  thread_local std::vector<uint32_t> lanes;
  for (size_t i = 0; i < features.features.size(); ++i) {
    const Feature& f = features.features[i];
    const FeatureInputs& in = inputs[i];
    double* col = batch->Column(i);
    if (in.left_prep != nullptr && f.has_batch()) {
      // Null lanes score NaN directly; the rest gather into contiguous
      // view arrays for one batch-kernel call over the whole range.
      ga.clear();
      gb.clear();
      lanes.clear();
      for (size_t k = lo; k < hi; ++k) {
        const RecordPair& p = pairs[k];
        if (in.left_prep->is_null(p.left) || in.right_prep->is_null(p.right)) {
          col[k] = kNaN;
        } else {
          lanes.push_back(static_cast<uint32_t>(k));
          ga.push_back(in.left_prep->text(p.left));
          gb.push_back(in.right_prep->text(p.right));
        }
      }
      scores.resize(ga.size());
      f.batch_fn(ga.data(), gb.data(), ga.size(), scores.data());
      for (size_t j = 0; j < lanes.size(); ++j) col[lanes[j]] = scores[j];
    } else if (in.left_prep != nullptr) {
      for (size_t k = lo; k < hi; ++k) {
        const RecordPair& p = pairs[k];
        col[k] = f.prep_fn(*in.left_prep, p.left, *in.right_prep, p.right);
      }
    } else {
      for (size_t k = lo; k < hi; ++k) {
        const RecordPair& p = pairs[k];
        col[k] = f.fn((*in.left)[p.left], (*in.right)[p.right]);
      }
    }
  }
}

namespace {

// Features bound to a table pair; `preps` keeps alive the prepared columns
// `inputs` point into.
struct BoundFeatures {
  std::vector<FeatureInputs> inputs;
  std::vector<std::shared_ptr<const PreparedColumn>> preps;
};

// The ascending unique rows `pairs` read on one side. InvalidArgument,
// naming the side and the row, when the largest is past the table's
// `num_rows`.
Result<std::vector<uint32_t>> TouchedRows(const CandidateSet& pairs,
                                          bool left_side, size_t num_rows) {
  std::vector<uint32_t> rows;
  rows.reserve(pairs.size());
  for (const RecordPair& p : pairs) {
    rows.push_back(left_side ? p.left : p.right);
  }
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  if (!rows.empty() && rows.back() >= num_rows) {
    return Status::InvalidArgument(
        std::string("vectorize: a pair reads ") +
        (left_side ? "left" : "right") + " row " +
        std::to_string(rows.back()) + " of a table with " +
        std::to_string(num_rows) + " rows");
  }
  return rows;
}

// One (table column, prep) that prepared features bind, and the rows they
// read in it: one side's, or the union of both sides' when a self-join
// binds the same table's column on both.
struct PrepFamily {
  const Table* table;
  const std::string* attr;
  FeaturePrep prep;
  std::string prep_key;  // PrepKey of `prep`
  const std::vector<uint32_t>* rows;
};

// Resolves every feature's attribute columns (NotFound when one is
// missing). With `prepared`, each feature with a prepared evaluator also
// binds its columns' prepared forms: one per (table column, PrepKey)
// family of the call, through `cache`, prepping only the rows its family
// reads. Each touched record is prepped once no matter how many pairs and
// features read it.
Result<BoundFeatures> BindFeatures(const Table& left, const Table& right,
                                   const std::vector<uint32_t>& left_rows,
                                   const std::vector<uint32_t>& right_rows,
                                   const FeatureSet& features,
                                   PrepCache& cache, bool prepared) {
  BoundFeatures out;
  out.inputs.reserve(features.features.size());
  std::vector<PrepFamily> families;
  std::vector<uint32_t> both_rows;  // built on first need
  auto family_of = [&](const Table& table, const std::string& attr,
                       const FeaturePrep& prep, const std::string& prep_key,
                       const std::vector<uint32_t>* rows) {
    size_t i = 0;
    while (i < families.size() &&
           !(families[i].table == &table && *families[i].attr == attr &&
             families[i].prep_key == prep_key)) {
      ++i;
    }
    if (i == families.size()) {
      families.push_back({&table, &attr, prep, prep_key, rows});
    } else if (families[i].rows != rows) {
      if (both_rows.empty()) {
        std::set_union(left_rows.begin(), left_rows.end(), right_rows.begin(),
                       right_rows.end(), std::back_inserter(both_rows));
      }
      families[i].rows = &both_rows;
    }
    return i;
  };
  // Per input, its (left, right) family; only prepared features have one.
  std::vector<std::optional<std::pair<size_t, size_t>>> sides;
  for (const Feature& f : features.features) {
    FeatureInputs in;
    EMX_ASSIGN_OR_RETURN(in.left, left.ColumnByName(f.left_attr));
    EMX_ASSIGN_OR_RETURN(in.right, right.ColumnByName(f.right_attr));
    sides.emplace_back();
    if (prepared && f.has_prep()) {
      const FeaturePrep prep = PrepForFeature(f.prep);
      const std::string prep_key = PrepKey(prep.options, prep.tokenizer.get());
      sides.back().emplace(
          family_of(left, f.left_attr, prep, prep_key, &left_rows),
          family_of(right, f.right_attr, prep, prep_key, &right_rows));
    }
    out.inputs.push_back(in);
  }
  for (const PrepFamily& fam : families) {
    EMX_ASSIGN_OR_RETURN(
        std::shared_ptr<const PreparedColumn> column,
        cache.GetRows(*fam.table, *fam.attr, *fam.rows, fam.prep.options,
                      fam.prep.tokenizer.get()));
    out.preps.push_back(std::move(column));
  }
  for (size_t i = 0; i < sides.size(); ++i) {
    if (!sides[i]) continue;
    out.inputs[i].left_prep = out.preps[sides[i]->first].get();
    out.inputs[i].right_prep = out.preps[sides[i]->second].get();
  }
  return out;
}

// Feature-major within each executor chunk. Chunks are disjoint pair
// ranges, so any thread count writes the same cells with the same values.
Result<PairBatch> Vectorize(const Table& left, const Table& right,
                            const CandidateSet& pairs,
                            const FeatureSet& features,
                            const ExecutorContext& ctx, PrepCache* cache,
                            bool prepared) {
  EMX_ASSIGN_OR_RETURN(std::vector<uint32_t> left_rows,
                       TouchedRows(pairs, /*left_side=*/true, left.num_rows()));
  EMX_ASSIGN_OR_RETURN(
      std::vector<uint32_t> right_rows,
      TouchedRows(pairs, /*left_side=*/false, right.num_rows()));
  PrepCache local_cache;
  PrepCache& prep_cache = cache != nullptr ? *cache : local_cache;
  EMX_ASSIGN_OR_RETURN(BoundFeatures bound,
                       BindFeatures(left, right, left_rows, right_rows,
                                    features, prep_cache, prepared));
  PairBatch batch(pairs.size(), features.features.size());
  batch.feature_names = features.names();
  ctx.get().ParallelFor(0, pairs.size(), /*grain=*/0,
                        [&](size_t lo, size_t hi) {
                          EvaluateFeatures(features, bound.inputs,
                                           pairs.pairs(), lo, hi, &batch);
                        });
  return batch;
}

}  // namespace

Result<PairBatch> VectorizePairsBatch(const Table& left, const Table& right,
                                      const CandidateSet& pairs,
                                      const FeatureSet& features,
                                      const ExecutorContext& ctx,
                                      PrepCache* cache) {
  return Vectorize(left, right, pairs, features, ctx, cache,
                   /*prepared=*/true);
}

Result<FeatureMatrix> VectorizePairs(const Table& left, const Table& right,
                                     const CandidateSet& pairs,
                                     const FeatureSet& features,
                                     const ExecutorContext& ctx,
                                     PrepCache* cache) {
  EMX_ASSIGN_OR_RETURN(
      PairBatch batch,
      VectorizePairsBatch(left, right, pairs, features, ctx, cache));
  return batch.ToMatrix();
}

Result<FeatureMatrix> VectorizePairsUnprepared(const Table& left,
                                               const Table& right,
                                               const CandidateSet& pairs,
                                               const FeatureSet& features,
                                               const ExecutorContext& ctx) {
  EMX_ASSIGN_OR_RETURN(PairBatch batch,
                       Vectorize(left, right, pairs, features, ctx,
                                 /*cache=*/nullptr, /*prepared=*/false));
  return batch.ToMatrix();
}

void MeanImputer::Fit(const FeatureMatrix& matrix) {
  size_t w = matrix.num_features();
  means_.assign(w, 0.0);
  std::vector<size_t> counts(w, 0);
  for (const auto& row : matrix.rows) {
    for (size_t c = 0; c < w; ++c) {
      if (!std::isnan(row[c])) {
        means_[c] += row[c];
        ++counts[c];
      }
    }
  }
  for (size_t c = 0; c < w; ++c) {
    means_[c] = counts[c] > 0 ? means_[c] / static_cast<double>(counts[c]) : 0.0;
  }
}

void MeanImputer::Fit(const PairBatch& batch) {
  size_t w = batch.num_features();
  means_.assign(w, 0.0);
  for (size_t c = 0; c < w; ++c) {
    const double* col = batch.Column(c);
    double sum = 0.0;
    size_t count = 0;
    for (size_t i = 0; i < batch.num_pairs(); ++i) {
      if (!std::isnan(col[i])) {
        sum += col[i];
        ++count;
      }
    }
    means_[c] = count > 0 ? sum / static_cast<double>(count) : 0.0;
  }
}

Status MeanImputer::Transform(FeatureMatrix& matrix) const {
  if (matrix.num_features() != means_.size()) {
    return Status::InvalidArgument(
        "MeanImputer: matrix width " + std::to_string(matrix.num_features()) +
        " != fitted width " + std::to_string(means_.size()));
  }
  for (auto& row : matrix.rows) {
    for (size_t c = 0; c < row.size(); ++c) {
      if (std::isnan(row[c])) row[c] = means_[c];
    }
  }
  return Status::OK();
}

Status MeanImputer::Transform(PairBatch& batch) const {
  if (batch.num_features() != means_.size()) {
    return Status::InvalidArgument(
        "MeanImputer: batch width " + std::to_string(batch.num_features()) +
        " != fitted width " + std::to_string(means_.size()));
  }
  for (size_t c = 0; c < batch.num_features(); ++c) {
    double* col = batch.Column(c);
    for (size_t i = 0; i < batch.num_pairs(); ++i) {
      if (std::isnan(col[i])) col[i] = means_[c];
    }
  }
  return Status::OK();
}

}  // namespace emx
