#include "src/block/key_join.h"

#include <algorithm>

namespace emx {

void KeyIndex::Add(uint32_t record, const Value& cell) {
  std::string key;
  if (column_.KeyOf(cell, &key)) records_[std::move(key)].push_back(record);
}

void KeyIndex::Remove(uint32_t record, const Value& cell) {
  std::string key;
  if (!column_.KeyOf(cell, &key)) return;
  auto it = records_.find(key);
  if (it == records_.end()) return;
  std::vector<uint32_t>& ids = it->second;
  auto pos = std::lower_bound(ids.begin(), ids.end(), record);
  if (pos != ids.end() && *pos == record) ids.erase(pos);
  if (ids.empty()) records_.erase(it);
}

const std::vector<uint32_t>* KeyIndex::Find(const std::string& key) const {
  auto it = records_.find(key);
  return it == records_.end() ? nullptr : &it->second;
}

Result<CandidateSet> EqualityJoin(const Table& left, const Table& right,
                                  const EqualityKey& key,
                                  const ExecutorContext& ctx) {
  EMX_ASSIGN_OR_RETURN(const std::vector<Value>* lcol,
                       left.ColumnByName(key.left.attr));
  EMX_ASSIGN_OR_RETURN(const std::vector<Value>* rcol,
                       right.ColumnByName(key.right.attr));
  // Hash the smaller side, then probe the other in chunks; the index is
  // read-only while they run.
  const bool build_left = lcol->size() < rcol->size();
  const std::vector<Value>& build = build_left ? *lcol : *rcol;
  const std::vector<Value>& probe = build_left ? *rcol : *lcol;
  const KeyColumn& probe_key = build_left ? key.right : key.left;
  KeyIndex index(build_left ? key.left : key.right);
  for (size_t b = 0; b < build.size(); ++b) {
    index.Add(static_cast<uint32_t>(b), build[b]);
  }
  std::vector<RecordPair> pairs = ctx.get().ParallelFlatMap(
      probe.size(), /*grain=*/0, [&](size_t lo, size_t hi) {
        std::vector<RecordPair> out;
        std::string k;
        for (size_t p = lo; p < hi; ++p) {
          if (!probe_key.KeyOf(probe[p], &k)) continue;
          const std::vector<uint32_t>* hits = index.Find(k);
          if (hits == nullptr) continue;
          const auto row = static_cast<uint32_t>(p);
          for (uint32_t b : *hits) {
            out.push_back(build_left ? RecordPair{b, row} : RecordPair{row, b});
          }
        }
        return out;
      });
  return CandidateSet(std::move(pairs));
}

}  // namespace emx
