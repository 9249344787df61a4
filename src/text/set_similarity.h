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

// As the span form, but with the tokens' interner ids (`aid[i]` is the id
// of `a[i]`) so the inner token-level Jaro-Winkler calls are memoized per
// (interner_uid, left id, right id) in a thread-local table. A memo hit
// returns the exact double the miss computed from the same two strings, and
// the summation order is untouched, so results stay bit-identical to the
// unmemoized forms — this only removes the re-scoring of the same token
// pair across the thousands of candidate pairs that share records.
// `interner_uid` must be TokenInterner::uid() of the interner that assigned
// BOTH sides' ids (PreparedColumn::interner_uid()).
double MongeElkanSimilarityMemo(const std::string_view* a, const uint32_t* aid,
                                size_t na, const std::string_view* b,
                                const uint32_t* bid, size_t nb,
                                uint64_t interner_uid);

// Hard cap on entries in each thread's Jaro-Winkler memo. When a lookup
// finds the table above the cap it is flushed before inserting — a
// pathological vocabulary (e.g. every row a unique long token) costs
// re-scoring, never unbounded memory.
inline constexpr size_t kMongeElkanMemoMaxEntries = size_t{1} << 20;

// Flushes every thread's Jaro-Winkler memo (lazily: each thread drops its
// table on its next MongeElkanSimilarityMemo call). PrepCache::Clear() calls
// this so memo entries never outlive the prepared columns whose interner
// assigned their ids. Safe to call concurrently with scoring — in-flight
// calls finish against whichever generation they started with, and scores
// are identical either way.
void ClearMongeElkanMemo();

// The memo's current generation counter (bumped by every
// ClearMongeElkanMemo). Observability hook: MatchService's tests use it to
// prove which code paths flush the memo — a batch PipelineRunner::Run in
// the same process bumps it (its per-run PrepCache::Clear), while service
// lookups never do.
uint64_t MongeElkanMemoGeneration();

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
