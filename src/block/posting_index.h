#ifndef EMX_BLOCK_POSTING_INDEX_H_
#define EMX_BLOCK_POSTING_INDEX_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/text/token_interner.h"

namespace emx {

// CSR inverted index over the token-id spans of one row range
// [row_begin, row_end): postings(id) lists the LOCAL offsets
// (row - row_begin) of the rows holding id, ascending, once per
// occurrence. It is the one index under token blocking: each partition of
// the partitioned join (over the overlap blockers' token spans or the
// Jaccard join's prefixes), and the serving index's snapshot.
//
// Offsets are 64-bit: at 1M x 1M a hot-token corpus can exceed 4B
// postings in the unbounded single-partition layout, and the cumulative
// sums here are exactly the counters a uint32 would wrap. Postings stay
// uint32 because a range is row-bounded.
class PostingIndex {
 public:
  PostingIndex() = default;

  // `row_ids(r)` returns row r's token ids as an IdSpan, in any order; an
  // empty span leaves the row out of the index.
  template <typename RowIds>
  PostingIndex(size_t row_begin, size_t row_end, RowIds&& row_ids) {
    for (size_t r = row_begin; r < row_end; ++r) {
      for (uint32_t id : row_ids(r)) {
        if (size_t{id} + 1 >= offsets_.size()) {
          offsets_.resize(size_t{id} + 2);
        }
        ++offsets_[id + 1];
      }
    }
    for (size_t i = 1; i < offsets_.size(); ++i) {
      offsets_[i] += offsets_[i - 1];
    }
    postings_.resize(offsets_.back());
    std::vector<uint64_t> fill(offsets_.begin(), offsets_.end() - 1);
    for (size_t r = row_begin; r < row_end; ++r) {
      for (uint32_t id : row_ids(r)) {
        postings_[fill[id]++] = static_cast<uint32_t>(r - row_begin);
      }
    }
  }

  uint32_t num_ids() const {
    return static_cast<uint32_t>(offsets_.size() - 1);
  }
  uint64_t frequency(uint32_t id) const {
    return id < num_ids() ? offsets_[id + 1] - offsets_[id] : 0;
  }
  IdSpan postings(uint32_t id) const {
    if (id >= num_ids()) return {};
    return {postings_.data() + offsets_[id],
            static_cast<uint32_t>(offsets_[id + 1] - offsets_[id])};
  }

  // Bytes held, for budget accounting and the bench's peak report.
  size_t bytes() const {
    return offsets_.size() * sizeof(uint64_t) +
           postings_.size() * sizeof(uint32_t);
  }

  // Caller-owned probe state, so concurrent probes share nothing. `counts`
  // is indexed by local row, sized by the caller, and all zero between
  // probes: the caller zeroes each touched slot after reading it, so a
  // reset costs what the probe touched, not the range size.
  struct ProbeScratch {
    std::vector<uint32_t> counts;
    std::vector<uint32_t> touched;  // rows counted, in first-touch order
    std::vector<uint32_t> order;    // the query's ids, rarest first
  };

  // The rare-token-first count/touched probe. For every occurrence of
  // every id in `query`, adds one to counts[r] for each local row r posted
  // under it here and then in `more(id)` (further local rows as an IdSpan;
  // the serving index passes its delta lists), and appends r to touched on
  // its first count. So counts[r] ends as the per-occurrence overlap
  // sum_v mult_query(v) * mult_row(v). Ids are visited by ascending
  // (frequency here, id): short lists fill the touched list before
  // frequent tokens rescan mostly-warm slots. Counts do not depend on the
  // order.
  template <typename More>
  void Count(IdSpan query, ProbeScratch* s, More&& more) const {
    s->order.assign(query.begin(), query.end());
    std::sort(s->order.begin(), s->order.end(),
              [this](uint32_t a, uint32_t b) {
                uint64_t fa = frequency(a);
                uint64_t fb = frequency(b);
                if (fa != fb) return fa < fb;
                return a < b;
              });
    uint32_t* counts = s->counts.data();
    std::vector<uint32_t>& touched = s->touched;
    auto count = [counts, &touched](IdSpan rows) {
      for (uint32_t r : rows) {
        if (counts[r]++ == 0) touched.push_back(r);
      }
    };
    for (uint32_t id : s->order) {
      count(postings(id));
      count(more(id));
    }
  }
  void Count(IdSpan query, ProbeScratch* s) const {
    Count(query, s, [](uint32_t) { return IdSpan{}; });
  }

 private:
  std::vector<uint64_t> offsets_ = {0};  // num_ids + 1
  std::vector<uint32_t> postings_;       // local rows
};

}  // namespace emx

#endif  // EMX_BLOCK_POSTING_INDEX_H_
