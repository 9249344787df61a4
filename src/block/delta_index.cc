#include "src/block/delta_index.h"

namespace emx {

uint32_t DeltaTokenIndex::Add(IdSpan sorted_ids) {
  uint32_t record = static_cast<uint32_t>(rows());
  arena_.insert(arena_.end(), sorted_ids.begin(), sorted_ids.end());
  offsets_.push_back(arena_.size());
  live_.push_back(1);
  ++live_rows_;
  for (uint32_t id : sorted_ids) {
    if (id >= delta_.size()) delta_.resize(id + 1);
    delta_[id].push_back(record);
  }
  delta_postings_ += sorted_ids.size;
  MaybeCompact();
  return record;
}

void DeltaTokenIndex::Remove(uint32_t record) {
  if (record >= rows() || live_[record] == 0) return;
  live_[record] = 0;
  --live_rows_;
  // Whether the record's postings sit in the snapshot or in a delta list,
  // they are now dead weight the next compaction reclaims.
  dead_postings_ += offsets_[record + 1] - offsets_[record];
  MaybeCompact();
}

void DeltaTokenIndex::Compact() {
  snapshot_ = PostingIndex(0, rows(), [this](size_t r) {
    return live_[r] ? record_ids(static_cast<uint32_t>(r)) : IdSpan{};
  });
  delta_.clear();
  delta_postings_ = 0;
  dead_postings_ = 0;
  ++compactions_;
}

void DeltaTokenIndex::MaybeCompact() {
  if (compact_threshold_ == 0) return;
  if (delta_postings_ + dead_postings_ > compact_threshold_) Compact();
}

}  // namespace emx
