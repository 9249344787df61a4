#include "src/block/overlap_blocker.h"

#include <algorithm>
#include <unordered_map>

#include "src/block/partitioned_blocker.h"
#include "src/core/strings.h"

namespace emx {

namespace internal_block {

std::vector<std::vector<std::string>> TokenizeColumn(
    const std::vector<Value>& column, const OverlapBlockerOptions& options,
    const Tokenizer& tokenizer) {
  std::vector<std::vector<std::string>> out;
  out.reserve(column.size());
  for (const Value& v : column) {
    if (v.is_null()) {
      out.emplace_back();
      continue;
    }
    std::string s = v.AsString();
    if (options.lowercase) s = AsciiToLower(s);
    if (options.strip_punctuation) s = StripPunctuation(s);
    out.push_back(tokenizer.Tokenize(s));
  }
  return out;
}

namespace {

// Builds token -> list of right-record ids (legacy string-keyed form).
std::unordered_map<std::string, std::vector<uint32_t>> BuildInvertedIndex(
    const std::vector<std::vector<std::string>>& right_tokens) {
  std::unordered_map<std::string, std::vector<uint32_t>> index;
  size_t total = 0;
  for (const auto& tokens : right_tokens) total += tokens.size();
  // Most tokens repeat across records; half the posting count is a decent
  // distinct-token estimate that avoids the worst rehash cascades.
  index.reserve(total / 2 + 1);
  for (size_t r = 0; r < right_tokens.size(); ++r) {
    for (const auto& t : right_tokens[r]) {
      index[t].push_back(static_cast<uint32_t>(r));
    }
  }
  return index;
}

}  // namespace

// Legacy shared core: for every left record, counts shared tokens with each
// right record via the string inverted index, then keeps pairs passing
// `keep`. Retained as the equivalence oracle for PartitionedOverlapJoin.
CandidateSet OverlapJoinStrings(
    const std::vector<std::vector<std::string>>& left_tokens,
    const std::vector<std::vector<std::string>>& right_tokens,
    const OverlapKeepFn& keep, const ExecutorContext& ctx) {
  auto index = BuildInvertedIndex(right_tokens);
  std::vector<RecordPair> pairs = ctx.get().ParallelFlatMap(
      left_tokens.size(), /*grain=*/0,
      [&](size_t lo, size_t hi) {
        std::vector<RecordPair> out;
        std::unordered_map<uint32_t, size_t> counts;
        for (size_t l = lo; l < hi; ++l) {
          counts.clear();
          for (const auto& t : left_tokens[l]) {
            auto it = index.find(t);
            if (it == index.end()) continue;
            for (uint32_t r : it->second) ++counts[r];
          }
          for (const auto& [r, overlap] : counts) {
            if (keep(left_tokens[l].size(), right_tokens[r].size(), overlap)) {
              out.push_back({static_cast<uint32_t>(l), r});
            }
          }
        }
        return out;
      });
  return CandidateSet(std::move(pairs));
}

}  // namespace internal_block

TokenOverlapBlocker::TokenOverlapBlocker(OverlapBlockerOptions options,
                                         std::shared_ptr<Tokenizer> tokenizer,
                                         internal_block::OverlapKeepFn keep,
                                         size_t min_left_tokens)
    : options_(std::move(options)),
      tokenizer_(tokenizer ? std::move(tokenizer)
                           : std::make_shared<WhitespaceTokenizer>()),
      keep_(std::move(keep)),
      min_left_tokens_(min_left_tokens) {}

Result<CandidateSet> TokenOverlapBlocker::Block(
    const Table& left, const Table& right, const ExecutorContext& ctx) const {
  // Both sides prep through the installed workflow cache, or a local one
  // for standalone Block calls — either way one interner, so their id
  // spans are directly comparable.
  PrepCache local;
  PrepCache& cache = prep_cache_ ? *prep_cache_ : local;
  PrepOptions prep = internal_block::ToPrepOptions(options_);
  EMX_ASSIGN_OR_RETURN(
      std::shared_ptr<const PreparedColumn> lp,
      cache.Get(left, options_.left_attr, prep, tokenizer_.get()));
  EMX_ASSIGN_OR_RETURN(
      std::shared_ptr<const PreparedColumn> rp,
      cache.Get(right, options_.right_attr, prep, tokenizer_.get()));
  internal_block::BlockBudget budget;
  budget.mem_budget_bytes = options_.mem_budget_bytes;
  return internal_block::PartitionedOverlapJoin(*lp, *rp, keep_,
                                                min_left_tokens_, budget, ctx);
}

OverlapBlocker::OverlapBlocker(OverlapBlockerOptions options,
                               size_t min_overlap,
                               std::shared_ptr<Tokenizer> tokenizer)
    : TokenOverlapBlocker(
          std::move(options), std::move(tokenizer),
          [min_overlap](size_t, size_t, size_t overlap) {
            return overlap >= min_overlap;
          },
          /*min_left_tokens=*/min_overlap) {}

std::string OverlapBlocker::name() const {
  return "overlap(" + options().left_attr + "," + tokenizer()->name() +
         ",K=" + std::to_string(min_left_tokens()) + ")";
}

OverlapCoefficientBlocker::OverlapCoefficientBlocker(
    OverlapBlockerOptions options, double threshold,
    std::shared_ptr<Tokenizer> tokenizer)
    : TokenOverlapBlocker(
          std::move(options), std::move(tokenizer),
          [threshold](size_t la, size_t lb, size_t overlap) {
            size_t mn = std::min(la, lb);
            if (mn == 0) return false;
            return static_cast<double>(overlap) >=
                   threshold * static_cast<double>(mn);
          },
          /*min_left_tokens=*/1),
      threshold_(threshold) {}

std::string OverlapCoefficientBlocker::name() const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", threshold_);
  return "overlap_coeff(" + options().left_attr + "," + tokenizer()->name() +
         ",t=" + buf + ")";
}

}  // namespace emx
