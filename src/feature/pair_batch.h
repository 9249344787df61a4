#ifndef EMX_FEATURE_PAIR_BATCH_H_
#define EMX_FEATURE_PAIR_BATCH_H_

#include <cstddef>
#include <string>
#include <vector>

#include "src/feature/feature_gen.h"

namespace emx {

// Structure-of-arrays feature storage for a batch of candidate pairs: one
// contiguous column of `num_pairs` doubles per feature, laid out
// column-major (`data[f * num_pairs + i]`). The row-major FeatureMatrix
// stores each pair as its own heap vector — fine for looking at one pair,
// hostile to the hot path, where every stage sweeps one FEATURE across all
// pairs (a batch similarity kernel fills a column, the imputer patches a
// column's NaNs with that column's mean, flattened-forest inference reads
// one threshold's feature column per node visit). Columns keep those sweeps
// on contiguous memory with zero per-pair allocation.
//
// It is the one type matchers and feature rules score: there is no
// row-major scoring path. FromRows (training rows into a batch, for
// cross-validation folds) and ToMatrix (a batch out to the row-major
// FeatureMatrix that training still reads) are pure copies, so cell (i, f)
// holds exactly the double rows[i][f] does.
class PairBatch {
 public:
  PairBatch() = default;
  // Explicit, so a braced row list such as {{1.0}, {2.0}} can never become
  // a 1x2 batch by accident.
  explicit PairBatch(size_t num_pairs, size_t num_features) {
    Reset(num_pairs, num_features);
  }

  // Reshapes to num_pairs x num_features. Cell contents are unspecified
  // after a reset; every producer (vectorizer, FromRows) writes all cells.
  void Reset(size_t num_pairs, size_t num_features) {
    num_pairs_ = num_pairs;
    num_features_ = num_features;
    data_.resize(num_pairs * num_features);
  }

  size_t num_pairs() const { return num_pairs_; }
  size_t num_features() const { return num_features_; }
  bool empty() const { return num_pairs_ == 0; }

  // Contiguous column of feature f: num_pairs() doubles, entry i is pair i.
  double* Column(size_t f) { return data_.data() + f * num_pairs_; }
  const double* Column(size_t f) const {
    return data_.data() + f * num_pairs_;
  }

  double At(size_t i, size_t f) const { return data_[f * num_pairs_ + i]; }
  double& At(size_t i, size_t f) { return data_[f * num_pairs_ + i]; }

  // Copies row i (pair i's feature vector) into out[0..num_features).
  void RowTo(size_t i, double* out) const {
    for (size_t f = 0; f < num_features_; ++f) out[f] = At(i, f);
  }

  // Transposing conversions. Rows must be rectangular; FromRows infers the
  // width from the first row. ToMatrix keeps the feature names.
  static PairBatch FromRows(const std::vector<std::vector<double>>& rows);
  FeatureMatrix ToMatrix() const;

  // Column names, parallel to the feature axis (may be empty when the batch
  // was built from unnamed rows, e.g. in cross-validation).
  std::vector<std::string> feature_names;

 private:
  size_t num_pairs_ = 0;
  size_t num_features_ = 0;
  std::vector<double> data_;
};

}  // namespace emx

#endif  // EMX_FEATURE_PAIR_BATCH_H_
