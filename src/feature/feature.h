#ifndef EMX_FEATURE_FEATURE_H_
#define EMX_FEATURE_FEATURE_H_

#include <functional>
#include <string>
#include <vector>

#include "src/prep/prepared_column.h"
#include "src/table/value.h"

namespace emx {

// What a feature needs prepped per column to evaluate through the cached
// path: the normalization, and (for token features) the tokenization.
struct FeaturePrepSpec {
  bool lowercase = false;
  bool tokenize = false;  // token-level feature (set kernels / Monge-Elkan)
  int qgram = 0;          // when tokenizing: <= 0 whitespace, else q-grams
};

// One pairwise feature: compares a left-table attribute against a
// right-table attribute and yields a double (NaN when either side is null —
// downstream, the Imputer fills NaNs with column means, exactly the paper's
// missing-value handling in §9).
//
// Every feature carries the legacy per-pair `fn` (re-normalizes and
// re-tokenizes both values on every call — still the right tool for
// one-off evaluations, rules, and tests). String/token features
// ADDITIONALLY carry the `prep` spec of the PreparedColumns they read and
// an evaluator over them — `batch_fn` for character-sequence features,
// `prep_fn` (whose two columns must share one interner) for token
// features: VectorizePairs preps each referenced column once per spec, and
// the doubles equal fn's bit for bit, with no per-pair allocation.
struct Feature {
  // Columnar scorer: out[i] = score of (a[i], b[i]) for n contiguous lanes
  // of already-normalized text. Plain function pointer — every batch kernel
  // is a stateless free function from src/text/batch_kernel.h.
  using BatchScoreFn = void (*)(const std::string_view* a,
                                const std::string_view* b, size_t n,
                                double* out);

  std::string name;        // e.g. "AwardTitle_jac_ws"
  std::string left_attr;
  std::string right_attr;
  std::function<double(const Value&, const Value&)> fn;
  FeaturePrepSpec prep;    // meaningful only when has_prep()
  std::function<double(const PreparedColumn&, size_t, const PreparedColumn&,
                       size_t)>
      prep_fn;             // set for token features
  BatchScoreFn batch_fn = nullptr;  // set for character-sequence features;
                                    // bit-identical to fn per lane

  // Numeric and date features only have fn.
  bool has_prep() const { return prep_fn || batch_fn != nullptr; }
  bool has_batch() const { return batch_fn != nullptr; }
};

// Named similarity-function factories. `lowercase` pre-lowercases both
// sides — the "case fix" features added while debugging the matcher in §9.
Feature MakeExactMatchFeature(const std::string& left_attr,
                              const std::string& right_attr,
                              bool lowercase = false);
Feature MakeLevenshteinFeature(const std::string& left_attr,
                               const std::string& right_attr,
                               bool lowercase = false);
Feature MakeJaroFeature(const std::string& left_attr,
                        const std::string& right_attr,
                        bool lowercase = false);
Feature MakeJaroWinklerFeature(const std::string& left_attr,
                               const std::string& right_attr,
                               bool lowercase = false);
Feature MakeNeedlemanWunschFeature(const std::string& left_attr,
                                   const std::string& right_attr,
                                   bool lowercase = false);
Feature MakeSmithWatermanFeature(const std::string& left_attr,
                                 const std::string& right_attr,
                                 bool lowercase = false);
// Affine-gap alignment (Gotoh) — the only sequence measure that scores a
// single long insertion ("Smith, J" vs "Smith, John R") above scattered
// edits; useful for person-name attributes. Scratch-backed like the rest of
// the sequence kernels.
Feature MakeAffineGapFeature(const std::string& left_attr,
                             const std::string& right_attr,
                             bool lowercase = false);

// Token-set features; `qgram` <= 0 means whitespace tokens, otherwise
// character q-grams of that size.
Feature MakeJaccardFeature(const std::string& left_attr,
                           const std::string& right_attr, int qgram = 0,
                           bool lowercase = false);
Feature MakeCosineFeature(const std::string& left_attr,
                          const std::string& right_attr, int qgram = 0,
                          bool lowercase = false);
Feature MakeDiceFeature(const std::string& left_attr,
                        const std::string& right_attr, int qgram = 0,
                        bool lowercase = false);
Feature MakeOverlapCoefficientFeature(const std::string& left_attr,
                                      const std::string& right_attr,
                                      int qgram = 0, bool lowercase = false);
Feature MakeMongeElkanFeature(const std::string& left_attr,
                              const std::string& right_attr,
                              bool lowercase = false);

// Numeric features.
Feature MakeAbsDiffFeature(const std::string& left_attr,
                           const std::string& right_attr);
Feature MakeRelativeSimFeature(const std::string& left_attr,
                               const std::string& right_attr);
Feature MakeNumericExactFeature(const std::string& left_attr,
                                const std::string& right_attr);

// Year difference between two date-like strings (leading 4-digit year or
// trailing 4-digit year); NaN if either year cannot be extracted. Used for
// the D3 label-debugging rule ("transaction dates within a few years", §8).
Feature MakeYearDiffFeature(const std::string& left_attr,
                            const std::string& right_attr);

}  // namespace emx

#endif  // EMX_FEATURE_FEATURE_H_
