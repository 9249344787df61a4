#include "src/block/similarity_join.h"

#include <algorithm>
#include <cmath>

#include "src/block/partitioned_blocker.h"
#include "src/core/strings.h"
#include "src/text/set_similarity.h"

namespace emx {

JaccardJoinBlocker::JaccardJoinBlocker(OverlapBlockerOptions options,
                                       double threshold,
                                       std::shared_ptr<Tokenizer> tokenizer)
    : options_(std::move(options)),
      threshold_(threshold),
      tokenizer_(tokenizer ? std::move(tokenizer)
                           : std::make_shared<WhitespaceTokenizer>()) {}

Result<CandidateSet> JaccardJoinBlocker::Block(const Table& left,
                                               const Table& right,
                                               const ExecutorContext& ctx) const {
  BlockStats stats;
  return BlockWithStats(left, right, &stats, ctx);
}

Result<CandidateSet> JaccardJoinBlocker::BlockWithStats(
    const Table& left, const Table& right, BlockStats* stats,
    const ExecutorContext& ctx) const {
  // Prep both columns once into id spans over a shared interner (the
  // workflow cache when installed, else a call-local one — kept alive here
  // because the token-string snapshot below views into its interner).
  std::shared_ptr<PrepCache> cache =
      prep_cache_ ? prep_cache_ : std::make_shared<PrepCache>();
  PrepOptions prep = internal_block::ToPrepOptions(options_);
  EMX_ASSIGN_OR_RETURN(
      auto lp, cache->Get(left, options_.left_attr, prep, tokenizer_.get()));
  EMX_ASSIGN_OR_RETURN(
      auto rp,
      cache->Get(right, options_.right_attr, prep, tokenizer_.get()));
  std::vector<std::string_view> token_strings = cache->TokenStringsSnapshot();

  // Global token frequency over both sides; prefixes are ordered
  // rarest-first so they discriminate maximally. Ties break on the token
  // STRING (not the scheduling-dependent id), reproducing the legacy
  // global order exactly — prefix sets, and therefore the verified-pair
  // count, are identical to the string-path implementation.
  std::vector<size_t> freq(token_strings.size(), 0);
  for (size_t l = 0; l < lp->rows(); ++l) {
    for (uint32_t id : lp->ids(l)) ++freq[id];
  }
  for (size_t r = 0; r < rp->rows(); ++r) {
    for (uint32_t id : rp->ids(r)) ++freq[id];
  }
  auto ordered_ids = [&](const PreparedColumn& col) {
    std::vector<std::vector<uint32_t>> out(col.rows());
    for (size_t i = 0; i < col.rows(); ++i) {
      IdSpan s = col.ids(i);
      out[i].assign(s.begin(), s.end());
      std::sort(out[i].begin(), out[i].end(),
                [&](uint32_t a, uint32_t b) {
                  if (freq[a] != freq[b]) return freq[a] < freq[b];
                  return token_strings[a] < token_strings[b];
                });
    }
    return out;
  };
  std::vector<std::vector<uint32_t>> lt = ordered_ids(*lp);
  std::vector<std::vector<uint32_t>> rt = ordered_ids(*rp);

  // Prefix length for jaccard t and set size s: s - ceil(t*s) + 1.
  auto prefix_len = [this](size_t s) -> size_t {
    if (s == 0) return 0;
    size_t need = static_cast<size_t>(
        std::ceil(threshold_ * static_cast<double>(s)));
    return s - need + 1;
  };
  auto prefixes = [&](const std::vector<std::vector<uint32_t>>& rows) {
    return [&rows, &prefix_len](size_t i) {
      return IdSpan{rows[i].data(),
                    static_cast<uint32_t>(prefix_len(rows[i].size()))};
    };
  };

  // The partitioned join indexes and probes the prefixes, so a pair is
  // touched when its prefixes share a token; each touched pair passes the
  // size filter and is then verified exactly with the allocation-free
  // merge kernel over the id-sorted spans. A left row is probed on one
  // thread at a time, so its verify count needs no atomic, and the total is
  // the same at every budget and thread count.
  std::vector<uint32_t> verified(lt.size(), 0);
  internal_block::BlockBudget budget;
  budget.mem_budget_bytes = options_.mem_budget_bytes;
  CandidateSet out = internal_block::PartitionedJoin(
      lt.size(), prefixes(lt), rt.size(), prefixes(rt),
      [&](uint32_t l, uint32_t r, uint32_t) {
        // Size filter: |x|·t <= |y| <= |x|/t is necessary for jaccard >= t.
        double ls = static_cast<double>(lt[l].size());
        double rs = static_cast<double>(rt[r].size());
        if (rs < ls * threshold_ || rs > ls / threshold_) return false;
        ++verified[l];
        return JaccardSimilarity(lp->ids(l), rp->ids(r)) >= threshold_;
      },
      budget, ctx);
  for (uint32_t v : verified) stats->verified += v;
  return out;
}

std::string JaccardJoinBlocker::name() const {
  return StrFormat("jaccard_join(%s,t=%.2f)", options_.left_attr.c_str(),
                   threshold_);
}

SortedNeighborhoodBlocker::SortedNeighborhoodBlocker(std::string left_attr,
                                                     std::string right_attr,
                                                     size_t window,
                                                     bool lowercase)
    : left_attr_(std::move(left_attr)),
      right_attr_(std::move(right_attr)),
      window_(window == 0 ? 1 : window),
      lowercase_(lowercase) {}

Result<CandidateSet> SortedNeighborhoodBlocker::Block(
    const Table& left, const Table& right,
    const ExecutorContext& /*ctx*/) const {
  // Window sliding over one global sort order is inherently sequential;
  // this blocker runs on the calling thread regardless of executor.
  EMX_ASSIGN_OR_RETURN(const std::vector<Value>* lcol,
                       left.ColumnByName(left_attr_));
  EMX_ASSIGN_OR_RETURN(const std::vector<Value>* rcol,
                       right.ColumnByName(right_attr_));

  struct Entry {
    std::string key;
    uint32_t row;
    bool from_left;
  };
  std::vector<Entry> merged;
  merged.reserve(lcol->size() + rcol->size());
  auto add = [&](const std::vector<Value>& col, bool from_left) {
    for (size_t i = 0; i < col.size(); ++i) {
      if (col[i].is_null()) continue;
      std::string key = col[i].AsString();
      if (lowercase_) key = AsciiToLower(key);
      merged.push_back({std::move(key), static_cast<uint32_t>(i), from_left});
    }
  };
  add(*lcol, true);
  add(*rcol, false);
  std::sort(merged.begin(), merged.end(), [](const Entry& a, const Entry& b) {
    if (a.key != b.key) return a.key < b.key;
    if (a.from_left != b.from_left) return a.from_left;
    return a.row < b.row;
  });

  std::vector<RecordPair> out;
  for (size_t i = 0; i < merged.size(); ++i) {
    size_t hi = std::min(merged.size(), i + window_);
    for (size_t j = i + 1; j < hi; ++j) {
      if (merged[i].from_left == merged[j].from_left) continue;
      const Entry& l = merged[i].from_left ? merged[i] : merged[j];
      const Entry& r = merged[i].from_left ? merged[j] : merged[i];
      out.push_back({l.row, r.row});
    }
  }
  return CandidateSet(std::move(out));
}

}  // namespace emx
