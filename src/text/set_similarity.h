#ifndef EMX_TEXT_SET_SIMILARITY_H_
#define EMX_TEXT_SET_SIMILARITY_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/text/token_interner.h"

namespace emx {

// Token-set similarity measures (§7 of the paper uses overlap size,
// overlap coefficient, and Jaccard). Inputs are token vectors as produced by
// a Tokenizer with unique() set; duplicate tokens in the input are treated
// as a set (deduplicated internally).
//
// Each measure has two forms:
//  - the legacy string form over std::vector<std::string>, which builds
//    hash sets per call (kept for standalone use and as the equivalence
//    oracle in tests);
//  - an id-span form over sorted IdSpans from one shared TokenInterner,
//    which intersects by linear merge with ZERO allocation per call. Both
//    forms reduce to the same (|A|, |B|, |A ∩ B|) integer triple, so their
//    double results are bit-identical.

// |A ∩ B|.
size_t OverlapSize(const std::vector<std::string>& a,
                   const std::vector<std::string>& b);

// |A ∩ B| / |A ∪ B|; two empty sets score 1.
double JaccardSimilarity(const std::vector<std::string>& a,
                         const std::vector<std::string>& b);

// |A ∩ B| / min(|A|, |B|); two empty sets score 1, one empty scores 0.
double OverlapCoefficient(const std::vector<std::string>& a,
                          const std::vector<std::string>& b);

// 2|A ∩ B| / (|A| + |B|).
double DiceSimilarity(const std::vector<std::string>& a,
                      const std::vector<std::string>& b);

// |A ∩ B| / sqrt(|A|·|B|) (set cosine).
double CosineSimilarity(const std::vector<std::string>& a,
                        const std::vector<std::string>& b);

// Id-span forms. Spans MUST be sorted ascending and use ids from the same
// interner on both sides; duplicates (possible only when a tokenizer had
// unique() unset) are deduplicated on the fly during the merge, matching
// the string forms' set semantics exactly.
size_t OverlapSize(IdSpan a, IdSpan b);
double JaccardSimilarity(IdSpan a, IdSpan b);
double OverlapCoefficient(IdSpan a, IdSpan b);
double DiceSimilarity(IdSpan a, IdSpan b);
double CosineSimilarity(IdSpan a, IdSpan b);

// Monge-Elkan: mean over tokens of A of the best Jaro-Winkler score against
// any token of B. Asymmetric; MongeElkanSimilarity symmetrizes by averaging
// both directions.
double MongeElkanAsymmetric(const std::vector<std::string>& a,
                            const std::vector<std::string>& b);
double MongeElkanSimilarity(const std::vector<std::string>& a,
                            const std::vector<std::string>& b);

// Span forms over contiguous token-view arrays (PreparedColumn keeps the
// deduplicated tokens of a row contiguous in first-occurrence order, which
// preserves the legacy summation order — floating-point results are
// bit-identical to the vector forms).
double MongeElkanAsymmetric(const std::string_view* a, size_t na,
                            const std::string_view* b, size_t nb);
double MongeElkanSimilarity(const std::string_view* a, size_t na,
                            const std::string_view* b, size_t nb);

// The production form, over rows whose ids come from one interner and
// whose signatures were built at prep (PreparedColumn::token_row). Exact,
// keeping nothing between calls but per-thread scratch; bit-identical to
// the span form above, which stays the oracle. For each token a_i of one
// side, in emission order:
//  - a_i whose id occurs on the other side scores 1.0, which is exactly
//    JW of two equal strings and no JW exceeds it;
//  - otherwise the other side's tokens are visited in descending order of
//    JaroWinklerUpperBound, scored with TokenJaroWinkler, and the visit
//    stops at the first bound <= the running best, which no later token
//    can beat.
// The best scores are summed in emission order, and a max does not depend
// on the order it is taken in, so every double matches the span form.
double MongeElkanSimilarity(const TokenRow& a, const TokenRow& b);

// An upper bound on JaroWinklerSimilarity(x, y) for any x, y with these
// signatures, in either argument order. Jaro is at most
// (m/|x| + m/|y| + 1)/3, where the match count m is at most min(|x|, |y|)
// and at most the histograms' summed per-bucket minima; disjoint masks mean
// no match at all (JW = 0). The Winkler term uses the exact common prefix
// (up to 4), and a 1e-12 margin covers rounding.
double JaroWinklerUpperBound(const TokenSignature& x, const TokenSignature& y);

// JaroWinklerSimilarity(a, b), bit for bit. Tokens of at most 64 bytes run
// a bit-parallel match scan: with a per-byte position mask PM of b, the
// scalar scan's first unmatched equal byte in a[i]'s window is the lowest
// set bit of PM[a[i]] & ~matched & window, so the match and transposition
// counts, and the double built from them, are the scalar ones. Longer
// tokens call JaroWinklerSimilarity.
double TokenJaroWinkler(std::string_view a, std::string_view b);

// TF-IDF weighted cosine over a fixed corpus vocabulary. Build once from all
// strings of both tables, then score token vectors. Unknown tokens get
// idf = log(N + 1) (treated as if they occur in no document).
class TfIdfScorer {
 public:
  TfIdfScorer() = default;

  // `documents` is the token list of each corpus string.
  explicit TfIdfScorer(const std::vector<std::vector<std::string>>& documents);

  double Similarity(const std::vector<std::string>& a,
                    const std::vector<std::string>& b) const;

  size_t corpus_size() const { return num_documents_; }

 private:
  double Idf(const std::string& token) const;

  std::unordered_map<std::string, size_t> document_frequency_;
  size_t num_documents_ = 0;
};

}  // namespace emx

#endif  // EMX_TEXT_SET_SIMILARITY_H_
