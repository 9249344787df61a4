#include "src/block/overlap_blocker.h"

#include <algorithm>
#include <optional>
#include <tuple>
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
                                         const std::string& kind,
                                         const std::string& parameter,
                                         size_t min_left_tokens,
                                         size_t min_overlap, double min_share)
    : options_(std::move(options)),
      tokenizer_(tokenizer ? std::move(tokenizer)
                           : std::make_shared<WhitespaceTokenizer>()),
      name_(kind + "(" + options_.left_attr + "," + tokenizer_->name() + "," +
            parameter + ")"),
      min_left_tokens_(min_left_tokens),
      predicates_{{min_left_tokens, min_overlap, min_share}} {}

void TokenOverlapBlocker::Merge(const TokenOverlapBlocker& b) {
  size_t& budget = options_.mem_budget_bytes;
  const size_t add = b.options_.mem_budget_bytes;
  if (budget == 0 || (add != 0 && add < budget)) budget = add;
  min_left_tokens_ = std::min(min_left_tokens_, b.min_left_tokens_);
  predicates_.insert(predicates_.end(), b.predicates_.begin(),
                     b.predicates_.end());
  name_ += "+" + b.name_;
}

std::vector<std::shared_ptr<Blocker>> TokenOverlapBlocker::Group(
    const std::vector<std::shared_ptr<Blocker>>& blockers) {
  // A token-overlap blocker's prepared column pair; none for the others.
  using Columns = std::tuple<std::string, std::string, std::string>;
  auto columns = [](const Blocker* b) -> std::optional<Columns> {
    const auto* t = dynamic_cast<const TokenOverlapBlocker*>(b);
    if (t == nullptr) return std::nullopt;
    return Columns{t->options_.left_attr, t->options_.right_attr,
                   PrepKey(internal_block::ToPrepOptions(t->options_),
                           t->tokenizer_.get())};
  };
  std::vector<std::shared_ptr<Blocker>> out;
  std::vector<TokenOverlapBlocker*> merged;  // out[i] if Group made it
  for (const std::shared_ptr<Blocker>& b : blockers) {
    const std::optional<Columns> key = columns(b.get());
    if (!key) {
      out.push_back(b);
      merged.push_back(nullptr);
      continue;
    }
    const auto& tb = static_cast<const TokenOverlapBlocker&>(*b);
    auto it = std::find_if(out.begin(), out.end(), [&](const auto& o) {
      return columns(o.get()) == key;
    });
    if (it == out.end()) {
      auto copy = std::make_shared<TokenOverlapBlocker>(tb);
      merged.push_back(copy.get());
      out.push_back(std::move(copy));
    } else {
      merged[it - out.begin()]->Merge(tb);
    }
  }
  return out;
}

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
  return internal_block::PartitionedOverlapJoin(
      *lp, *rp,
      [this](size_t left_size, size_t right_size, size_t overlap) {
        return Keep(left_size, right_size, overlap);
      },
      min_left_tokens_, budget, ctx);
}

// K keeps pairs sharing K tokens, so a left row needs K of its own.
OverlapBlocker::OverlapBlocker(OverlapBlockerOptions options,
                               size_t min_overlap,
                               std::shared_ptr<Tokenizer> tokenizer)
    : TokenOverlapBlocker(std::move(options), std::move(tokenizer), "overlap",
                          "K=" + std::to_string(min_overlap),
                          /*min_left_tokens=*/min_overlap, min_overlap,
                          /*min_share=*/0.0) {}

// t of the shorter side, over pairs that share a token at all.
OverlapCoefficientBlocker::OverlapCoefficientBlocker(
    OverlapBlockerOptions options, double threshold,
    std::shared_ptr<Tokenizer> tokenizer)
    : TokenOverlapBlocker(std::move(options), std::move(tokenizer),
                          "overlap_coeff", StrFormat("t=%.2f", threshold),
                          /*min_left_tokens=*/1, /*min_overlap=*/1,
                          threshold) {}

}  // namespace emx
