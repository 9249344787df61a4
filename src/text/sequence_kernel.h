#ifndef EMX_TEXT_SEQUENCE_KERNEL_H_
#define EMX_TEXT_SEQUENCE_KERNEL_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace emx {

// Reusable dynamic-programming scratch for the character-sequence kernels.
//
// Every sequence measure (Levenshtein, Jaro, Needleman-Wunsch,
// Smith-Waterman, affine gap) needs a handful of flat working buffers whose
// size depends only on the input lengths. Instead of heap-allocating them on
// every call, each kernel borrows typed lanes from one DpScratch. Buffers are
// GROW-ONLY: a request never shrinks a lane, so after the first call at the
// high-water-mark size, no sequence measure allocates at all.
//
// Lifetime rules:
//  - Kernels take their buffers fresh from lane offset 0 on every call; the
//    previous call's contents are dead the moment the next call starts. A
//    kernel must therefore finish with a lane before any other kernel runs
//    on the same scratch (no pointers may be retained across calls).
//  - Kernels never call other scratch-backed kernels while holding a lane
//    (Jaro-Winkler wraps Jaro, but takes no buffer of its own; Monge-Elkan
//    keeps its bookkeeping in its own thread-local scratch, never here).
//  - One scratch per thread: Tls() hands out a thread_local instance, so the
//    kernels are safe to call from any number of executor threads without
//    locking, and the arena's high-water mark is per thread.
//
// Returned buffers are UNINITIALIZED (they hold whatever the previous call
// left); each kernel writes before it reads.
class DpScratch {
 public:
  DpScratch() = default;
  DpScratch(const DpScratch&) = delete;
  DpScratch& operator=(const DpScratch&) = delete;

  uint8_t* Bytes(size_t n) { return Lane(&bytes_, n); }
  int* Ints(size_t n) { return Lane(&ints_, n); }
  double* Doubles(size_t n) { return Lane(&doubles_, n); }
  uint64_t* Words(size_t n) { return Lane(&words_, n); }

  // Number of times any lane had to (re)allocate. The allocation-counting
  // test hook: warm the scratch at the corpus' maximum lengths, snapshot
  // this, score the whole corpus again, and assert it did not move.
  size_t grow_count() const { return grow_count_; }

  // This thread's scratch (thread_local; created on first use).
  static DpScratch& Tls();

 private:
  template <typename T>
  T* Lane(std::vector<T>* lane, size_t n) {
    if (lane->size() < n) {
      ++grow_count_;
      // Geometric growth so a slowly rising high-water mark settles after
      // O(log max) grows instead of reallocating per call.
      lane->resize(n < 2 * lane->size() ? 2 * lane->size() : n);
    }
    return lane->data();
  }

  size_t grow_count_ = 0;
  std::vector<uint8_t> bytes_;
  std::vector<int> ints_;
  std::vector<double> doubles_;
  std::vector<uint64_t> words_;
};

// Myers' bit-parallel Levenshtein distance (Myers 1999, JACM; Hyyrö's
// formulation). Computes the EXACT unit-cost edit distance — bit-identical
// to the classic row DP — in O(ceil(min/64) * max) word operations: the
// shorter string becomes the pattern whose DP column lives in machine words
// (one word when the pattern is <= 64 chars, the blocked multi-word variant
// beyond). Operates on bytes; UTF-8 multi-byte sequences are compared
// bytewise exactly like the scalar oracle. Allocation-free: the blocked
// variant borrows its Peq table and vertical-delta words from `scratch`.
int MyersLevenshtein(std::string_view a, std::string_view b,
                     DpScratch* scratch);

// Banded Levenshtein with an exact cutoff (Ukkonen): returns the exact
// distance d when d <= limit, and limit + 1 when the distance provably
// exceeds `limit`. Only the diagonal band |i - j| <= limit is evaluated
// (cells outside it have distance > limit by the length-difference bound),
// and the scan stops early once a whole band row exceeds the limit. Used by
// threshold predicates that do not need the full distance.
int BoundedLevenshtein(std::string_view a, std::string_view b, int limit,
                       DpScratch* scratch);

// Exact upper bound on LevenshteinSimilarity from lengths alone:
// d >= |len_a - len_b|, so sim <= 1 - |len_a - len_b| / max. Lets callers
// with a threshold skip the DP entirely when even the bound falls short.
double LevenshteinSimilarityUpperBound(size_t len_a, size_t len_b);

// Exactly LevenshteinSimilarity(a, b) >= min_sim, but short-circuits: the
// length bound above rejects without any DP, and the banded kernel stops as
// soon as the distance provably pushes the similarity below `min_sim`. When
// the band completes, the comparison is performed on the identical double
// LevenshteinSimilarity would have produced, so the decision never differs
// from scoring first and comparing after.
bool LevenshteinSimilarityAtLeast(std::string_view a, std::string_view b,
                                  double min_sim);

}  // namespace emx

#endif  // EMX_TEXT_SEQUENCE_KERNEL_H_
