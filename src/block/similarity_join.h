#ifndef EMX_BLOCK_SIMILARITY_JOIN_H_
#define EMX_BLOCK_SIMILARITY_JOIN_H_

#include <memory>
#include <string>

#include "src/block/blocker.h"
#include "src/block/overlap_blocker.h"
#include "src/text/tokenizer.h"

namespace emx {

// Filter-selectivity accounting for one Block call, returned explicitly
// instead of stashed in blocker state (the previous `mutable size_t
// last_verified_` made `const Block()` a data race once blockers ran on
// several threads — and silently wrong when one blocker instance served
// two concurrent workflows).
struct BlockStats {
  // Candidate pairs that survived the prefix+size filters and were
  // verified with an exact similarity computation.
  size_t verified = 0;
};

// Jaccard similarity-join blocker with prefix filtering — the string-
// filtering machinery footnote 4 alludes to ("PyMatcher's blocking methods
// use string filtering techniques where appropriate").
//
// A pair survives iff jaccard(tokens(a), tokens(b)) >= threshold. Instead
// of comparing all pairs, each record indexes only its PREFIX: with
// |x| tokens and threshold t, any pair meeting t must share a token among
// the first |x| - ceil(t·|x|) + 1 tokens under a global token ordering
// (rarest-first, so prefixes carry the most selective tokens). Candidates
// that share a prefix token are then verified exactly. Block is
// InvalidArgument unless 0 < threshold <= 1.
class JaccardJoinBlocker : public Blocker {
 public:
  JaccardJoinBlocker(OverlapBlockerOptions options, double threshold,
                     std::shared_ptr<Tokenizer> tokenizer = nullptr);

  using Blocker::Block;
  Result<CandidateSet> Block(const Table& left, const Table& right,
                             const ExecutorContext& ctx) const override;

  // As Block, but also reports filter selectivity (per-chunk counts are
  // accumulated into `stats`, which may not be null) — used by the
  // ablation bench and the filter-lossless property test.
  Result<CandidateSet> BlockWithStats(const Table& left, const Table& right,
                                      BlockStats* stats,
                                      const ExecutorContext& ctx = {}) const;

  std::string name() const override;

  void set_prep_cache(std::shared_ptr<PrepCache> cache) override {
    prep_cache_ = std::move(cache);
  }

 private:
  OverlapBlockerOptions options_;
  double threshold_;
  std::shared_ptr<Tokenizer> tokenizer_;
  std::shared_ptr<PrepCache> prep_cache_;  // optional, workflow-scoped
};

// Sorted-neighborhood blocker: sort both tables by a key expression and
// slide a window of size `window` over the merged order; records from
// opposite tables within a window become candidates. The classic
// alternative blocking family (surveyed in [7] of the paper).
class SortedNeighborhoodBlocker : public Blocker {
 public:
  SortedNeighborhoodBlocker(std::string left_attr, std::string right_attr,
                            size_t window, bool lowercase = true);

  using Blocker::Block;
  Result<CandidateSet> Block(const Table& left, const Table& right,
                             const ExecutorContext& ctx) const override;

  std::string name() const override {
    return "sorted_neighborhood(" + left_attr_ + ",w=" +
           std::to_string(window_) + ")";
  }

 private:
  std::string left_attr_;
  std::string right_attr_;
  size_t window_;
  bool lowercase_;
};

}  // namespace emx

#endif  // EMX_BLOCK_SIMILARITY_JOIN_H_
