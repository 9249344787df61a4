#include "src/block/partitioned_blocker.h"

#include <algorithm>

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

void LogPartitionDone(size_t p, const PartitionPlan& plan, size_t left_rows,
                      size_t right_rows, size_t candidates, double seconds) {
  if (plan.num_partitions <= 1) return;
  if (left_rows >= 100000 || right_rows >= 100000) {
    double rate =
        seconds > 0 ? static_cast<double>((p + 1) * left_rows) / seconds : 0;
    EMX_LOG(Info) << "blocking: partition " << (p + 1) << "/"
                  << plan.num_partitions << " done ("
                  << StrFormat("%.0f", rate) << " probe records/s, "
                  << candidates << " candidates so far)";
  } else {
    EMX_LOG(Debug) << "blocking: partition " << (p + 1) << "/"
                   << plan.num_partitions << " done (" << candidates
                   << " candidates so far)";
  }
}

}  // namespace internal_block
}  // namespace emx
