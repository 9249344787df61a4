#ifndef EMX_BLOCK_PARTITIONED_BLOCKER_H_
#define EMX_BLOCK_PARTITIONED_BLOCKER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/block/candidate_set.h"
#include "src/block/overlap_blocker.h"
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
// records' token spans, never on which partition r landed in.
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

// The partitioned overlap join: each partition is a PostingIndex over its
// right rows, probed per left record with PostingIndex::Count.
// `keep(left_size, right_size, overlap)` decides survival, with sizes in
// token occurrences; the result equals OverlapJoinStrings (the string-keyed
// oracle) over the same tokenization. `min_left_tokens` prunes left records
// whose token count makes `keep` unsatisfiable (overlap <= |left| — pass
// the overlap blocker's K, or 1 when only empty rows are prunable). `stats`
// may be null.
CandidateSet PartitionedOverlapJoin(const PreparedColumn& left,
                                    const PreparedColumn& right,
                                    const OverlapKeepFn& keep,
                                    size_t min_left_tokens,
                                    const BlockBudget& budget,
                                    const ExecutorContext& ctx,
                                    PartitionedJoinStats* stats = nullptr);

}  // namespace internal_block
}  // namespace emx

#endif  // EMX_BLOCK_PARTITIONED_BLOCKER_H_
