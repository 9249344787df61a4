#include "src/block/similarity_join.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "src/block/partitioned_blocker.h"
#include "src/block/posting_index.h"
#include "src/core/logging.h"
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
  EMX_ASSIGN_OR_RETURN(const std::vector<Value>* lcol,
                       left.ColumnByName(options_.left_attr));
  EMX_ASSIGN_OR_RETURN(const std::vector<Value>* rcol,
                       right.ColumnByName(options_.right_attr));
  // Prep both columns once into id spans over a shared interner (the
  // workflow cache when installed, else a call-local one — kept alive here
  // because the token-string snapshot below views into its interner).
  std::shared_ptr<PrepCache> cache =
      prep_cache_ ? prep_cache_ : std::make_shared<PrepCache>();
  PrepOptions prep = internal_block::ToPrepOptions(options_);
  auto lp = cache->Get(*lcol, prep, tokenizer_.get());
  auto rp = cache->Get(*rcol, prep, tokenizer_.get());
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

  // Partition the right side so one partition's prefix index plus the
  // per-chunk seen/touched scratch stays inside the options' memory budget
  // (0 = one partition, the monolithic layout). Membership of a pair
  // depends only on its two records, so the candidate set AND the verified
  // count are bit-identical at every budget and thread count.
  size_t num_right = rp->rows();
  size_t prefix_postings = 0;
  for (size_t r = 0; r < rt.size(); ++r) prefix_postings += prefix_len(rt[r].size());
  internal_block::BlockBudget budget;
  budget.mem_budget_bytes = options_.mem_budget_bytes;
  internal_block::PartitionPlan plan = internal_block::PlanPartitions(
      num_right, prefix_postings, token_strings.size(), budget);

  std::atomic<size_t> verified{0};
  const bool loud = lt.size() >= 100000 || num_right >= 100000;
  std::vector<RecordPair> out;
  for (size_t part = 0; part < plan.num_partitions; ++part) {
    size_t part_lo = part * plan.rows_per_partition;
    size_t part_hi = std::min(num_right, part_lo + plan.rows_per_partition);
    size_t part_rows = part_hi - part_lo;
    // Prefix index over this partition (LOCAL postings in r order).
    PostingIndex index(part_lo, part_hi, [&](size_t r) {
      return IdSpan{rt[r].data(),
                    static_cast<uint32_t>(prefix_len(rt[r].size()))};
    });

    // Probe with left prefixes in parallel chunks; verify candidates
    // exactly with the allocation-free merge kernel over the id-sorted
    // spans. The per-left-record `seen` hash set becomes a dense stamp
    // array (partition-sized) with a touched-list reset. Each chunk counts
    // its own verifications; the per-chunk counts sum into `stats` after
    // the merge, so the total is thread-count independent.
    std::vector<RecordPair> pairs = ctx.get().ParallelFlatMap(
        lt.size(), /*grain=*/0,
        [&](size_t lo, size_t hi) {
          std::vector<RecordPair> chunk;
          std::vector<uint8_t> seen(part_rows, 0);
          std::vector<uint32_t> touched;
          size_t chunk_verified = 0;
          for (size_t l = lo; l < hi; ++l) {
            size_t p = prefix_len(lt[l].size());
            for (size_t i = 0; i < p; ++i) {
              for (uint32_t local : index.postings(lt[l][i])) {
                if (seen[local]) continue;
                seen[local] = 1;
                touched.push_back(local);
                uint32_t r = static_cast<uint32_t>(part_lo + local);
                // Size filter: |x|·t <= |y| <= |x|/t is necessary for
                // jaccard >= t.
                double ls = static_cast<double>(lt[l].size());
                double rs = static_cast<double>(rt[r].size());
                if (rs < ls * threshold_ || rs > ls / threshold_) continue;
                ++chunk_verified;
                if (JaccardSimilarity(lp->ids(l), rp->ids(r)) >= threshold_) {
                  chunk.push_back({static_cast<uint32_t>(l), r});
                }
              }
            }
            for (uint32_t local : touched) seen[local] = 0;
            touched.clear();
          }
          verified.fetch_add(chunk_verified, std::memory_order_relaxed);
          return chunk;
        });
    out.insert(out.end(), pairs.begin(), pairs.end());
    if (plan.num_partitions > 1) {
      if (loud) {
        EMX_LOG(Info) << "jaccard_join: partition " << (part + 1) << "/"
                      << plan.num_partitions << " done (" << out.size()
                      << " candidates so far)";
      } else {
        EMX_LOG(Debug) << "jaccard_join: partition " << (part + 1) << "/"
                       << plan.num_partitions << " done";
      }
    }
  }
  stats->verified += verified.load();
  return CandidateSet(std::move(out));
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
