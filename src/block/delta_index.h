#ifndef EMX_BLOCK_DELTA_INDEX_H_
#define EMX_BLOCK_DELTA_INDEX_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/block/posting_index.h"
#include "src/text/token_interner.h"

namespace emx {

// Mutable token inverted index for the resident MatchService: a
// PostingIndex snapshot over the records live at the last compaction, plus
// per-token delta posting lists for records added since, plus a tombstone
// bitmap for deletes. Lookups probe snapshot + delta and filter tombstones
// at emit, so at EVERY compaction state a probe sees exactly the live
// record set — bit-identical to a from-scratch rebuild (the property the
// fuzz test in tests/delta_index_property_test.cc asserts after every op).
//
// Probe semantics match the batch overlap join's, since both count through
// PostingIndex::Count: posting lists are PER-OCCURRENCE (a record holding
// token t k times contributes k postings for t), and every occurrence of t
// in the query counts each posting, so the emitted overlap is
// sum_v mult_query(v) * mult_record(v). Keep predicates (overlap >= K,
// coefficient thresholds) layer on top exactly as they do in batch.
//
// Record ids are dense, assigned by Add in arrival order, and stable for
// the index's lifetime — tombstoned ids are never reused, so candidate
// pairs referencing them stay meaningful across compactions.
//
// Thread-safety: Probe is const and takes caller-owned scratch, so any
// number of concurrent probes are safe against each other. Mutations
// (Add/Remove/Compact) require external exclusion against probes AND each
// other (MatchService holds a shared_mutex: lookups shared, ingest
// unique).
class DeltaTokenIndex {
 public:
  // Compaction folds deltas + tombstones back into the CSR snapshot when
  // delta_postings() + dead_postings() exceeds `compact_threshold` (checked
  // after each Add/Remove). 0 disables auto-compaction (manual Compact()
  // only — what the property test uses to hit every interleaving point).
  explicit DeltaTokenIndex(size_t compact_threshold = 4096)
      : compact_threshold_(compact_threshold) {}

  // Bulk-load idiom: build with threshold 0, Add every base record, call
  // Compact() once, then restore the serving threshold — avoids the
  // O(n²/threshold) re-compaction cascade a naive bulk Add would trigger.
  void set_compact_threshold(size_t t) { compact_threshold_ = t; }

  DeltaTokenIndex(const DeltaTokenIndex&) = delete;
  DeltaTokenIndex& operator=(const DeltaTokenIndex&) = delete;

  // Registers a record whose token ids are `sorted_ids` (sorted, duplicates
  // preserved — exactly PreparedColumn::ids form) and returns its id.
  uint32_t Add(IdSpan sorted_ids);

  // Tombstones a live record; its postings stop being emitted immediately
  // and are physically dropped at the next compaction. No-op if already
  // dead.
  void Remove(uint32_t record);

  // Rebuilds the CSR snapshot over the live record set and clears deltas
  // and tombstone debt. Probe results are unchanged by construction.
  void Compact();

  size_t rows() const { return offsets_.size() - 1; }
  size_t live_rows() const { return live_rows_; }
  bool live(uint32_t record) const { return live_[record] != 0; }
  IdSpan record_ids(uint32_t record) const {
    return {arena_.data() + offsets_[record],
            static_cast<uint32_t>(offsets_[record + 1] - offsets_[record])};
  }

  // Maintenance counters (bench_serve exports these; tests assert
  // compaction actually triggered).
  uint64_t delta_postings() const { return delta_postings_; }
  uint64_t dead_postings() const { return dead_postings_; }
  uint64_t compactions() const { return compactions_; }

  // Dense per-record overlap counters + touched list, owned by the prober
  // so concurrent Probes never share state.
  using ProbeScratch = PostingIndex::ProbeScratch;

  // Calls emit(record, overlap) for every LIVE record sharing at least one
  // token occurrence with `query` (sorted ids, duplicates preserved), in
  // ascending record-id order. `overlap` is the per-occurrence multiset
  // overlap described above.
  template <typename Emit>
  void Probe(IdSpan query, ProbeScratch* scratch, Emit&& emit) const {
    scratch->counts.resize(rows(), 0);
    scratch->touched.clear();
    snapshot_.Count(query, scratch, [this](uint32_t id) {
      if (id >= delta_.size()) return IdSpan{};
      const std::vector<uint32_t>& rows = delta_[id];
      return IdSpan{rows.data(), static_cast<uint32_t>(rows.size())};
    });
    // Ascending-id emit keeps downstream candidate lists deterministic
    // regardless of posting layout (snapshot vs delta) — part of the
    // rebuild-equivalence contract.
    std::sort(scratch->touched.begin(), scratch->touched.end());
    for (uint32_t r : scratch->touched) {
      uint32_t overlap = scratch->counts[r];
      scratch->counts[r] = 0;
      if (live_[r]) emit(r, overlap);
    }
  }

 private:
  void MaybeCompact();

  size_t compact_threshold_;

  // All records ever added, id-indexed (tombstoned rows keep their ids).
  std::vector<uint32_t> arena_;     // flat sorted-id runs
  std::vector<uint64_t> offsets_ = {0};  // rows+1
  std::vector<uint8_t> live_;
  size_t live_rows_ = 0;

  // Postings of records live at the last compaction (some may have died
  // since — filtered at emit).
  PostingIndex snapshot_;

  // Per-token postings of records added after the snapshot, append-ordered
  // (record ids ascend within each list by construction).
  std::vector<std::vector<uint32_t>> delta_;

  uint64_t delta_postings_ = 0;
  uint64_t dead_postings_ = 0;
  uint64_t compactions_ = 0;
};

}  // namespace emx

#endif  // EMX_BLOCK_DELTA_INDEX_H_
