#include "src/block/partitioned_blocker.h"

#include <algorithm>
#include <chrono>

#include "src/block/posting_index.h"
#include "src/core/logging.h"
#include "src/core/strings.h"

namespace emx {
namespace internal_block {

namespace {

// Working-set model, mirrored in DESIGN.md §11:
//   fixed per partition:  offsets (8B * (distinct_ids + 1))
//                         + build cursors (8B * distinct_ids, transient)
//   per partitioned row:  postings (4B * avg tokens/row)
//                         + probe counts (4B) + touched list (4B)
size_t FixedPartitionBytes(size_t distinct_ids) {
  return 16 * distinct_ids + 8;
}

size_t PerRowBytes(size_t right_rows, size_t token_occurrences) {
  size_t avg_tokens =
      right_rows == 0 ? 0 : (token_occurrences + right_rows - 1) / right_rows;
  return 4 * avg_tokens + 8;
}

}  // namespace

PartitionPlan PlanPartitions(size_t right_rows, size_t token_occurrences,
                             size_t distinct_ids, const BlockBudget& budget) {
  PartitionPlan plan;
  plan.rows_per_partition = std::max<size_t>(1, right_rows);
  plan.num_partitions = 1;
  size_t per_row = PerRowBytes(right_rows, token_occurrences);
  plan.estimated_partition_bytes =
      FixedPartitionBytes(distinct_ids) + right_rows * per_row;
  if (budget.mem_budget_bytes == 0 || right_rows == 0 ||
      plan.estimated_partition_bytes <= budget.mem_budget_bytes) {
    return plan;
  }
  size_t fixed = FixedPartitionBytes(distinct_ids);
  size_t min_rows = std::max<size_t>(1, budget.min_partition_rows);
  size_t rows;
  if (budget.mem_budget_bytes <= fixed) {
    // The id-space offset array alone exceeds the budget; partitioning
    // can't shrink it (ids are global), so degrade to the floor.
    EMX_LOG(Warning) << "block budget " << budget.mem_budget_bytes
                     << "B is below the fixed index cost (" << fixed
                     << "B for " << distinct_ids
                     << " token ids); using min_partition_rows";
    rows = min_rows;
  } else {
    rows = std::max(min_rows, (budget.mem_budget_bytes - fixed) / per_row);
  }
  rows = std::min(rows, right_rows);
  plan.rows_per_partition = rows;
  plan.num_partitions = (right_rows + rows - 1) / rows;
  plan.estimated_partition_bytes = fixed + rows * per_row;
  return plan;
}

CandidateSet PartitionedOverlapJoin(const PreparedColumn& left,
                                    const PreparedColumn& right,
                                    const OverlapKeepFn& keep,
                                    size_t min_left_tokens,
                                    const BlockBudget& budget,
                                    const ExecutorContext& ctx,
                                    PartitionedJoinStats* stats) {
  size_t total_tokens = 0;
  for (size_t r = 0; r < right.rows(); ++r) total_tokens += right.ids(r).size;
  uint32_t distinct = 0;
  for (size_t r = 0; r < right.rows(); ++r) {
    IdSpan s = right.ids(r);
    if (s.size > 0) distinct = std::max(distinct, s.data[s.size - 1] + 1);
  }
  PartitionPlan plan =
      PlanPartitions(right.rows(), total_tokens, distinct, budget);
  if (stats != nullptr) {
    stats->num_partitions = plan.num_partitions;
    stats->partition_ms.clear();
    stats->peak_index_bytes = 0;
  }
  const bool loud = left.rows() >= 100000 || right.rows() >= 100000;
  auto run_start = std::chrono::steady_clock::now();

  std::vector<RecordPair> all;
  for (size_t p = 0; p < plan.num_partitions; ++p) {
    auto part_start = std::chrono::steady_clock::now();
    size_t lo = p * plan.rows_per_partition;
    size_t hi = std::min(right.rows(), lo + plan.rows_per_partition);
    PostingIndex index(lo, hi, [&right](size_t r) { return right.ids(r); });
    size_t part_rows = hi - lo;
    std::vector<RecordPair> pairs = ctx.get().ParallelFlatMap(
        left.rows(), /*grain=*/0,
        [&](size_t chunk_lo, size_t chunk_hi) {
          std::vector<RecordPair> out;
          PostingIndex::ProbeScratch scratch;
          scratch.counts.assign(part_rows, 0);
          for (size_t l = chunk_lo; l < chunk_hi; ++l) {
            IdSpan ids = left.ids(l);
            // Length pruning: overlap can never exceed the left token
            // count, so rows below the keep threshold skip the index
            // entirely (bit-identical — they could only emit pairs that
            // `keep` rejects).
            if (ids.size < min_left_tokens) continue;
            index.Count(ids, &scratch);
            for (uint32_t r : scratch.touched) {
              if (keep(ids.size, right.ids(lo + r).size, scratch.counts[r])) {
                out.push_back({static_cast<uint32_t>(l),
                               static_cast<uint32_t>(lo + r)});
              }
              scratch.counts[r] = 0;
            }
            scratch.touched.clear();
          }
          return out;
        });
    all.insert(all.end(), pairs.begin(), pairs.end());
    double part_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - part_start)
                         .count();
    if (stats != nullptr) {
      stats->partition_ms.push_back(part_ms);
      stats->peak_index_bytes =
          std::max(stats->peak_index_bytes, index.bytes());
    }
    if (plan.num_partitions > 1) {
      double secs = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - run_start)
                        .count();
      double rate = secs > 0 ? static_cast<double>((p + 1) * left.rows()) /
                                   secs
                             : 0;
      if (loud) {
        EMX_LOG(Info) << "blocking: partition " << (p + 1) << "/"
                      << plan.num_partitions << " done ("
                      << StrFormat("%.0f", rate) << " probe records/s, "
                      << all.size() << " candidates so far)";
      } else {
        EMX_LOG(Debug) << "blocking: partition " << (p + 1) << "/"
                       << plan.num_partitions << " done (" << all.size()
                       << " candidates so far)";
      }
    }
  }
  return CandidateSet(std::move(all));
}

}  // namespace internal_block
}  // namespace emx
