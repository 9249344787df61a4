#ifndef EMX_BLOCK_PARTITIONED_BLOCKER_H_
#define EMX_BLOCK_PARTITIONED_BLOCKER_H_

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/block/candidate_set.h"
#include "src/block/posting_index.h"
#include "src/core/executor.h"
#include "src/prep/prepared_column.h"

namespace emx {
namespace internal_block {

// Out-of-core candidate generation: the right table is split into record
// partitions sized so one partition's CSR inverted index — plus the dense
// per-right-record count/touched working set — fits a caller-supplied
// memory budget. Partitions are indexed and probed one at a time (probing
// parallelizes over left-table chunks on the executor); per-partition pair
// vectors concatenate in partition order before the order-insensitive
// CandidateSet canonicalization, so the output is BIT-IDENTICAL to the
// single-partition join (budget 0) at any budget, partition size, and
// thread count: whether a pair (l, r) survives depends only on the two
// records (their spans and the keep predicate), never on which partition
// r landed in.
struct BlockBudget {
  // Peak working-set bytes for the index + probe scratch. 0 = unbounded:
  // one partition covering the whole right table (the monolithic layout).
  size_t mem_budget_bytes = 0;

  // Partition-size floor. A budget smaller than the per-partition fixed
  // cost (the id-space offset array) degrades to this many rows per
  // partition rather than failing — logged, not fatal.
  size_t min_partition_rows = 1024;
};

struct PartitionPlan {
  size_t rows_per_partition = 0;  // == right rows when num_partitions == 1
  size_t num_partitions = 1;
  // The estimate the plan was derived from, for logging/bench reporting.
  size_t estimated_partition_bytes = 0;
};

// Derives the plan from the right side's shape: `right_rows` records
// carrying `token_occurrences` postings over `distinct_ids` token ids.
// Deterministic — depends only on these sizes and the budget (NOT the
// thread count), so a given (corpus, budget) always partitions identically.
PartitionPlan PlanPartitions(size_t right_rows, size_t token_occurrences,
                             size_t distinct_ids, const BlockBudget& budget);

// Per-run observability for the bench harness: per-partition wall times
// (p50/p99 in BENCH_scale.json) and the peak index working set.
struct PartitionedJoinStats {
  size_t num_partitions = 0;
  size_t peak_index_bytes = 0;
  std::vector<double> partition_ms;
};

// Reports partition `p` of `plan` done, `candidates` pairs so far and
// `seconds` into the join: at Info for a join with a side of 100k rows or
// more, else at Debug; nothing for a one-partition plan.
void LogPartitionDone(size_t p, const PartitionPlan& plan, size_t left_rows,
                      size_t right_rows, size_t candidates, double seconds);

// The partitioned join, the one partition/probe loop of token blocking.
// `probe(l)` and `index(r)` return a left and a right row's token ids as
// an IdSpan, in any order; an empty span leaves the row out (it probes or
// indexes nothing). Each partition is a PostingIndex over the index spans
// of its right rows, probed with every left row's probe span
// (PostingIndex::Count, in parallel left chunks), and a touched pair
// (l, r) is kept when `keep(l, r, overlap)` holds, where `overlap` is
// sum_v mult_probe(v) * mult_index(v). `keep` runs on every probing thread
// at once, but never for one left row on two threads at a time. The plan
// comes from the index spans' postings and largest id. `stats` may be
// null.
template <typename Probe, typename Index, typename Keep>
CandidateSet PartitionedJoin(size_t left_rows, const Probe& probe,
                             size_t right_rows, const Index& index,
                             const Keep& keep, const BlockBudget& budget,
                             const ExecutorContext& ctx,
                             PartitionedJoinStats* stats = nullptr) {
  using Clock = std::chrono::steady_clock;
  size_t total_tokens = 0;
  uint32_t distinct = 0;
  for (size_t r = 0; r < right_rows; ++r) {
    IdSpan s = index(r);
    total_tokens += s.size;
    for (uint32_t id : s) distinct = std::max(distinct, id + 1);
  }
  PartitionPlan plan =
      PlanPartitions(right_rows, total_tokens, distinct, budget);
  if (stats != nullptr) {
    stats->num_partitions = plan.num_partitions;
    stats->partition_ms.clear();
    stats->peak_index_bytes = 0;
  }
  const Clock::time_point run_start = Clock::now();
  std::vector<RecordPair> all;
  for (size_t p = 0; p < plan.num_partitions; ++p) {
    const Clock::time_point part_start = Clock::now();
    const size_t lo = p * plan.rows_per_partition;
    const size_t hi = std::min(right_rows, lo + plan.rows_per_partition);
    PostingIndex part(lo, hi, index);
    std::vector<RecordPair> pairs = ctx.get().ParallelFlatMap(
        left_rows, /*grain=*/0, [&](size_t chunk_lo, size_t chunk_hi) {
          std::vector<RecordPair> out;
          PostingIndex::ProbeScratch scratch;
          scratch.counts.assign(hi - lo, 0);
          for (size_t l = chunk_lo; l < chunk_hi; ++l) {
            part.Count(probe(l), &scratch);
            const uint32_t left = static_cast<uint32_t>(l);
            for (uint32_t local : scratch.touched) {
              const uint32_t right = static_cast<uint32_t>(lo + local);
              if (keep(left, right, scratch.counts[local])) {
                out.push_back({left, right});
              }
              scratch.counts[local] = 0;
            }
            scratch.touched.clear();
          }
          return out;
        });
    all.insert(all.end(), pairs.begin(), pairs.end());
    if (stats != nullptr) {
      stats->partition_ms.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() -
                                                    part_start)
              .count());
      stats->peak_index_bytes =
          std::max(stats->peak_index_bytes, part.bytes());
    }
    LogPartitionDone(
        p, plan, left_rows, right_rows, all.size(),
        std::chrono::duration<double>(Clock::now() - run_start).count());
  }
  return CandidateSet(std::move(all));
}

// The overlap join over two prepared columns: PartitionedJoin of their id
// spans, keeping (l, r) when `keep(left_size, right_size, overlap)` holds,
// with sizes in token occurrences; the result equals OverlapJoinStrings
// (the string-keyed oracle) over the same tokenization. Left records with
// fewer than `min_left_tokens` tokens probe nothing: pass the least left
// size `keep` can accept (the overlap blocker's K, or 1 when only empty
// rows are prunable).
template <typename Keep>
CandidateSet PartitionedOverlapJoin(const PreparedColumn& left,
                                    const PreparedColumn& right,
                                    const Keep& keep, size_t min_left_tokens,
                                    const BlockBudget& budget,
                                    const ExecutorContext& ctx,
                                    PartitionedJoinStats* stats = nullptr) {
  auto sizes = [](const PreparedColumn& col) {
    std::vector<uint32_t> out(col.rows());
    for (size_t i = 0; i < out.size(); ++i) out[i] = col.ids(i).size;
    return out;
  };
  const std::vector<uint32_t> left_sizes = sizes(left);
  const std::vector<uint32_t> right_sizes = sizes(right);
  return PartitionedJoin(
      left.rows(),
      [&left, min_left_tokens](size_t l) {
        IdSpan ids = left.ids(l);
        return ids.size < min_left_tokens ? IdSpan{} : ids;
      },
      right.rows(), [&right](size_t r) { return right.ids(r); },
      [&](uint32_t l, uint32_t r, uint32_t overlap) {
        return keep(left_sizes[l], right_sizes[r], overlap);
      },
      budget, ctx, stats);
}

}  // namespace internal_block
}  // namespace emx

#endif  // EMX_BLOCK_PARTITIONED_BLOCKER_H_
