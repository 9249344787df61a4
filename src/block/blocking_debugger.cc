#include "src/block/blocking_debugger.h"

#include <algorithm>
#include <queue>

#include "src/prep/prepared_column.h"
#include "src/text/set_similarity.h"
#include "src/text/tokenizer.h"

namespace emx {

namespace {

// One attribute of one side, prepped once: word and padded 3-gram id spans
// for the two Jaccards, and the normalized text for Jaro-Winkler.
struct DebugColumns {
  std::shared_ptr<const PreparedColumn> words;
  std::shared_ptr<const PreparedColumn> qgrams;
  std::shared_ptr<const PreparedColumn> text;
};

Result<DebugColumns> PrepDebugColumns(PrepCache& cache, const Table& table,
                                      const std::string& attr,
                                      const PrepOptions& options) {
  WhitespaceTokenizer ws;
  QgramTokenizer qg(3);
  DebugColumns out;
  EMX_ASSIGN_OR_RETURN(out.words, cache.Get(table, attr, options, &ws));
  EMX_ASSIGN_OR_RETURN(out.qgrams, cache.Get(table, attr, options, &qg));
  EMX_ASSIGN_OR_RETURN(out.text, cache.Get(table, attr, options, nullptr));
  return out;
}

// An attribute's score: (word Jaccard + 3-gram Jaccard + Jaro-Winkler) / 3,
// or 0 when either text is empty. With `bound`, Jaro-Winkler's maximum of
// 1 stands in for it, which gives a score at least the exact one: IEEE
// addition and division round monotonically.
double ScorePair(const DebugColumns& a, uint32_t l, const DebugColumns& b,
                 uint32_t r, bool bound) {
  std::string_view ta = a.text->text(l);
  std::string_view tb = b.text->text(r);
  if (ta.empty() || tb.empty()) return 0.0;
  double s = JaccardSimilarity(a.words->ids(l), b.words->ids(r)) +
             JaccardSimilarity(a.qgrams->ids(l), b.qgrams->ids(r)) +
             (bound ? 1.0 : TokenJaroWinkler(ta, tb));
  return s / 3.0;
}

}  // namespace

Result<std::vector<DebuggerFinding>> DebugBlocking(
    const Table& left, const Table& right, const CandidateSet& candidates,
    const BlockingDebuggerOptions& options) {
  if (options.attrs.empty()) {
    return Status::InvalidArgument("DebugBlocking: no attributes configured");
  }
  if (options.top_k == 0) return std::vector<DebuggerFinding>();
  // One cache, so both sides' spans share one interner.
  PrepCache cache;
  const PrepOptions prep{options.lowercase};
  std::vector<DebugColumns> lcols, rcols;
  for (const auto& [la, ra] : options.attrs) {
    EMX_ASSIGN_OR_RETURN(DebugColumns lc,
                         PrepDebugColumns(cache, left, la, prep));
    EMX_ASSIGN_OR_RETURN(DebugColumns rc,
                         PrepDebugColumns(cache, right, ra, prep));
    lcols.push_back(std::move(lc));
    rcols.push_back(std::move(rc));
  }

  // Min-heap of the best `top_k` findings seen so far.
  auto cmp = [](const DebuggerFinding& a, const DebuggerFinding& b) {
    return a.score > b.score;
  };
  std::priority_queue<DebuggerFinding, std::vector<DebuggerFinding>,
                      decltype(cmp)>
      heap(cmp);

  for (uint32_t l = 0; l < left.num_rows(); ++l) {
    for (uint32_t r = 0; r < right.num_rows(); ++r) {
      RecordPair p{l, r};
      if (candidates.Contains(p)) continue;
      auto score = [&](bool bound) {
        double sum = 0.0;
        for (size_t a = 0; a < lcols.size(); ++a) {
          sum += ScorePair(lcols[a], l, rcols[a], r, bound);
        }
        return sum / static_cast<double>(lcols.size());
      };
      // Jaro-Winkler is most of a pair's cost: a full heap first checks
      // that the pair's bound beats its minimum.
      const bool full = heap.size() == options.top_k;
      if (full && !(score(/*bound=*/true) > heap.top().score)) continue;
      double s = score(/*bound=*/false);
      if (!full) {
        heap.push({p, s});
      } else if (s > heap.top().score) {
        heap.pop();
        heap.push({p, s});
      }
    }
  }

  std::vector<DebuggerFinding> out;
  out.reserve(heap.size());
  while (!heap.empty()) {
    out.push_back(heap.top());
    heap.pop();
  }
  std::reverse(out.begin(), out.end());  // descending by score
  return out;
}

}  // namespace emx
