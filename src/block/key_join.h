#ifndef EMX_BLOCK_KEY_JOIN_H_
#define EMX_BLOCK_KEY_JOIN_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/block/candidate_set.h"
#include "src/core/executor.h"
#include "src/core/result.h"
#include "src/table/table.h"

namespace emx {

// Rewrites an attribute's string form into its key (e.g. the suffix of a
// UMETRICS award number).
using KeyTransform = std::function<std::string(const std::string&)>;

// One side of an equality key: an attribute and an optional transform of
// its string form.
struct KeyColumn {
  std::string attr;
  KeyTransform transform;  // null → the string form itself

  // Writes the key of `cell` to `*key`. False when the cell has no key:
  // it is null, or its (transformed) string is empty. Such a cell never
  // joins. Defined here so that rule scans, which call it on every pair,
  // inline it.
  bool KeyOf(const Value& cell, std::string* key) const {
    if (cell.is_null()) return false;
    *key = cell.AsString();
    if (transform) *key = transform(*key);
    return !key->empty();
  }
};

// An equality key over a (left, right) table pair: a pair joins iff both
// of its cells have a key and the two keys are equal.
struct EqualityKey {
  KeyColumn left;
  KeyColumn right;
};

// Hash index over one column: key → ascending record ids. The batch join
// builds one per call; MatchService keeps one per AE blocker resident and
// maintains it through Insert and Remove.
class KeyIndex {
 public:
  explicit KeyIndex(KeyColumn column) : column_(std::move(column)) {}

  const KeyColumn& column() const { return column_; }

  // Indexes `record` under the key of `cell`; a no-op when it has none.
  // Records arrive in ascending id order.
  void Add(uint32_t record, const Value& cell);
  // Drops `record`, which was added with the same `cell`.
  void Remove(uint32_t record, const Value& cell);
  // The records whose key equals `key`, ascending; null when none.
  const std::vector<uint32_t>* Find(const std::string& key) const;

 private:
  KeyColumn column_;
  std::unordered_map<std::string, std::vector<uint32_t>> records_;
};

// The equality join of `left` and `right` on `key`: every (l, r) whose keys
// are equal, never the Cartesian product. Hashes the smaller column once,
// then probes the other's rows in chunks on `ctx`; the result is identical
// at any thread count. NotFound when either table lacks its key attribute.
Result<CandidateSet> EqualityJoin(const Table& left, const Table& right,
                                  const EqualityKey& key,
                                  const ExecutorContext& ctx);

}  // namespace emx

#endif  // EMX_BLOCK_KEY_JOIN_H_
