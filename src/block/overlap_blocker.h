#ifndef EMX_BLOCK_OVERLAP_BLOCKER_H_
#define EMX_BLOCK_OVERLAP_BLOCKER_H_

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/block/blocker.h"
#include "src/prep/prepared_column.h"
#include "src/text/tokenizer.h"

namespace emx {

// Shared options for token-overlap-style blockers: which attribute to
// tokenize and how to normalize it first (the paper lowercases and strips
// special characters before overlap blocking, §7 steps 2-3).
struct OverlapBlockerOptions {
  std::string left_attr;
  std::string right_attr;
  bool lowercase = true;
  bool strip_punctuation = true;

  // Peak working-set budget for the blocking index + probe scratch, in
  // bytes (the CLI's --block-mem-budget). 0 = unbounded: a single partition
  // covering the whole right table. Any positive value routes the join
  // through the partitioned engine (see partitioned_blocker.h); the
  // candidate set is bit-identical at every budget.
  size_t mem_budget_bytes = 0;
};

namespace internal_block {

// The string oracle's predicate: `keep(left_size, right_size, overlap)`
// decides whether a probed pair becomes a candidate; sizes are token counts
// (per-occurrence, i.e. set sizes under unique tokenizers).
using OverlapKeepFn = std::function<bool(size_t, size_t, size_t)>;

// Normalizes and tokenizes every value of `column` according to `options`.
// Legacy string-token representation — superseded by PrepCache in the hot
// path, kept as the equivalence oracle for tests and before/after benches.
std::vector<std::vector<std::string>> TokenizeColumn(
    const std::vector<Value>& column, const OverlapBlockerOptions& options,
    const Tokenizer& tokenizer);

// Legacy string-keyed overlap join (unordered_map inverted index,
// per-probe hashing). Equivalence oracle only.
CandidateSet OverlapJoinStrings(
    const std::vector<std::vector<std::string>>& left_tokens,
    const std::vector<std::vector<std::string>>& right_tokens,
    const OverlapKeepFn& keep, const ExecutorContext& ctx);

// PrepOptions equivalent of a blocker-options normalization.
inline PrepOptions ToPrepOptions(const OverlapBlockerOptions& options) {
  return {options.lowercase, options.strip_punctuation};
}

}  // namespace internal_block

// A blocker that keeps a pair when the token multisets of its two
// attribute values overlap enough. Both columns are prepped once into
// sorted token-id spans (via the shared PrepCache when one is installed),
// then the partitioned blocking engine streams right-table partitions,
// each a PostingIndex probed per left record (partitioned_blocker.h),
// within the options' memory budget; never the full Cartesian product, and
// no per-probe hashing or allocation. Left records with fewer than
// min_left_tokens() tokens are pruned before probing.
//
// The predicate is data: a pair whose rows hold x and y tokens and share
// `overlap` token occurrences is kept when x >= min_left_tokens,
// overlap >= min_overlap and double(overlap) >= min_share * double(min(x,
// y)), i.e. when the overlap reaches a minimum that is a function of
// (x, y). The left gate stays separate because under a bag tokenizer the
// per-occurrence overlap can exceed x.
//
// Blockers that read one prepared column pair (the same left and right
// attribute under one PrepKey, i.e. normalization and tokenizer) merge
// into one (Group), which holds every member's predicate and keeps a pair
// when some member's does. Probing left rows with at least the smallest
// member min_left_tokens, under the smallest bounded member budget, its
// one join emits exactly the union of the members' own candidate sets (the
// join's output does not depend on its budget). MatchService answers a
// merged blocker from one delta index.
class TokenOverlapBlocker : public Blocker {
 public:
  using Blocker::Block;
  Result<CandidateSet> Block(const Table& left, const Table& right,
                             const ExecutorContext& ctx) const override;

  // A merged blocker's name joins its members' names with '+'.
  std::string name() const override { return name_; }

  void set_prep_cache(std::shared_ptr<PrepCache> cache) override {
    prep_cache_ = std::move(cache);
  }

  // The grouping rule, shared by EmWorkflow::RunBlocking and
  // MatchService::Create: `blockers` in registration order, with the
  // token-overlap blockers on each prepared column pair merged into one
  // new blocker (a copy, for a lone one) at the first one's position.
  // Other blockers are returned as they are.
  static std::vector<std::shared_ptr<Blocker>> Group(
      const std::vector<std::shared_ptr<Blocker>>& blockers);

  // A merged blocker's mem_budget_bytes is its smallest nonzero member
  // budget, or 0 when no member is bounded.
  const OverlapBlockerOptions& options() const { return options_; }
  const std::shared_ptr<Tokenizer>& tokenizer() const { return tokenizer_; }
  // Left records with fewer tokens than this cannot satisfy Keep().
  size_t min_left_tokens() const { return min_left_tokens_; }
  // 1, or how many blockers Group merged into this one.
  size_t members() const { return predicates_.size(); }

  // Whether some member keeps a pair whose rows hold `left_size` and
  // `right_size` tokens and share `overlap` token occurrences.
  bool Keep(size_t left_size, size_t right_size, size_t overlap) const {
    const double shorter =
        static_cast<double>(std::min(left_size, right_size));
    for (const Predicate& p : predicates_) {
      if (left_size >= p.min_left_tokens && overlap >= p.min_overlap &&
          static_cast<double>(overlap) >= p.min_share * shorter) {
        return true;
      }
    }
    return false;
  }

 protected:
  // A null tokenizer means WhitespaceTokenizer. The name is
  // `kind(left_attr,tokenizer,parameter)`.
  TokenOverlapBlocker(OverlapBlockerOptions options,
                      std::shared_ptr<Tokenizer> tokenizer,
                      const std::string& kind, const std::string& parameter,
                      size_t min_left_tokens, size_t min_overlap,
                      double min_share);

 private:
  // One member blocker's predicate (see the class comment).
  struct Predicate {
    size_t min_left_tokens;
    size_t min_overlap;
    double min_share;
  };

  // Merges `b` into this blocker: its predicate, budget and name.
  void Merge(const TokenOverlapBlocker& b);

  OverlapBlockerOptions options_;
  std::shared_ptr<Tokenizer> tokenizer_;
  std::string name_;
  size_t min_left_tokens_;
  std::vector<Predicate> predicates_;
  std::shared_ptr<PrepCache> prep_cache_;  // optional, workflow-scoped
};

// Overlap blocker: a pair survives iff its token sets share at least
// `min_overlap` tokens (§7 step 2, threshold K; K=3 in the paper).
class OverlapBlocker : public TokenOverlapBlocker {
 public:
  OverlapBlocker(OverlapBlockerOptions options, size_t min_overlap,
                 std::shared_ptr<Tokenizer> tokenizer = nullptr);
};

// Overlap-coefficient blocker: survives iff
// |A ∩ B| / min(|A|, |B|) >= threshold (§7 step 3; 0.7 in the paper).
// Unlike the raw-overlap blocker this admits very short titles.
class OverlapCoefficientBlocker : public TokenOverlapBlocker {
 public:
  OverlapCoefficientBlocker(OverlapBlockerOptions options, double threshold,
                            std::shared_ptr<Tokenizer> tokenizer = nullptr);
};

}  // namespace emx

#endif  // EMX_BLOCK_OVERLAP_BLOCKER_H_
