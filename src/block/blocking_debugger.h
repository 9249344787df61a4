#ifndef EMX_BLOCK_BLOCKING_DEBUGGER_H_
#define EMX_BLOCK_BLOCKING_DEBUGGER_H_

#include <string>
#include <vector>

#include "src/block/candidate_set.h"
#include "src/core/result.h"
#include "src/table/table.h"

namespace emx {

// A pair excluded by blocking, with the debugger's match-likelihood score.
struct DebuggerFinding {
  RecordPair pair;
  double score;
};

struct BlockingDebuggerOptions {
  // Attribute pairs to compare; scores are averaged over them.
  std::vector<std::pair<std::string, std::string>> attrs;
  // How many top-scored excluded pairs to return.
  size_t top_k = 100;
  bool lowercase = true;
};

// MatchCatcher-style blocking debugger (paper §7 step 4, [23]): scans the
// pairs of A × B *not* in the candidate set, scores each with a cheap
// similarity ensemble (word Jaccard + 3-gram Jaccard + Jaro-Winkler over the
// configured attributes), and returns the `top_k` most match-like. If the
// user sees no true matches among them, blocking likely killed few matches.
//
// Each attribute is prepped once per side through one PrepCache (word and
// padded 3-gram id spans, and the normalized text), so the scan is
// O(|A|·|B|) allocation-free span merges and bit-parallel Jaro-Winkler
// calls (TokenJaroWinkler). Both Jaccard forms share one formula, and
// TokenJaroWinkler equals JaroWinklerSimilarity, so every score equals the
// string forms' bit for bit.
Result<std::vector<DebuggerFinding>> DebugBlocking(
    const Table& left, const Table& right, const CandidateSet& candidates,
    const BlockingDebuggerOptions& options);

}  // namespace emx

#endif  // EMX_BLOCK_BLOCKING_DEBUGGER_H_
