// Million-row-scale workload harness for the sharded datagen + partitioned
// blocking engine.
//
// Full mode generates scale-factor corpora (SF 1/10/100 by default; pass
// --sf=N to run a single SF, e.g. 1000 for the 1M+1M configuration) and
// times each phase:
//   - datagen:   sharded GenerateScaleCorpus on all host threads
//   - prep:      cold PrepCache tokenize/intern pass over both title columns
//   - blocking:  the K=3 overlap join — monolithic single-thread reference,
//                then the partitioned engine under a fixed memory budget
//                swept across 1/2/4/8 threads
// Per SF it records the partition count, peak index bytes, and the
// p50/p99 per-partition wall times from the engine's stats, and HARD-FAILS
// if the partitioned candidate set diverges from the monolithic oracle.
// Emits BENCH_scale.json in the working directory. host_cpus and
// sweep_reliable are recorded because thread-sweep speedups are meaningless
// on a 1-core host; the single-thread partitioned-vs-monolithic ratio is
// hardware-independent and is what the CI smoke gate checks.
//
// Usage:
//   bench_scale                   full bench, writes BENCH_scale.json
//   bench_scale --sf=N            full bench at one scale factor only
//   bench_scale --smoke BASELINE  tiny corpus, budget forced to >=4
//                                 partitions; verifies partitioned ==
//                                 monolithic and compares the measured
//                                 "partitioned_vs_monolithic" ratio against
//                                 BASELINE, exiting 1 on a >2x regression

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/smoke_gate.h"
#include "src/block/overlap_blocker.h"
#include "src/block/partitioned_blocker.h"
#include "src/core/executor.h"
#include "src/datagen/scale_corpus.h"
#include "src/prep/prepared_column.h"
#include "src/text/tokenizer.h"

namespace {

using namespace emx;

// Scale stages run once, not best-of-3: each is seconds long at SF>=100,
// so scheduler noise is small relative to the measurement and repeats
// would triple an already long run.
double OnceMs(const std::function<void()>& fn) {
  auto t0 = std::chrono::steady_clock::now();
  fn();
  auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t idx = static_cast<size_t>(p * static_cast<double>(v.size() - 1));
  return v[idx];
}

// K=3 title-overlap keep, the paper's blocking threshold.
constexpr size_t kOverlapK = 3;
bool KeepK(size_t, size_t, size_t overlap) { return overlap >= kOverlapK; }

struct PreppedCorpus {
  std::shared_ptr<const PreparedColumn> left;
  std::shared_ptr<const PreparedColumn> right;
  std::shared_ptr<PrepCache> cache;  // owns the interner the spans view
};

PreppedCorpus Prep(const ScaleCorpus& corpus) {
  PreppedCorpus out;
  out.cache = std::make_shared<PrepCache>();
  WhitespaceTokenizer tok;
  PrepOptions opts{/*lowercase=*/true, /*strip_punctuation=*/true};
  auto left = out.cache->Get(corpus.left, "AwardTitle", opts, &tok);
  auto right = out.cache->Get(corpus.right, "AwardTitle", opts, &tok);
  if (!left.ok() || !right.ok()) std::abort();
  out.left = *left;
  out.right = *right;
  return out;
}

struct SfResult {
  double sf = 0;
  size_t rows_per_side = 0;
  double datagen_ms = 0;
  double prep_ms = 0;
  double block_mono_ms = 0;  // 1 thread, unbounded single partition
  size_t candidates = 0;
  size_t num_partitions = 0;
  size_t peak_index_bytes = 0;
  double partition_p50_ms = 0;
  double partition_p99_ms = 0;
  std::vector<std::pair<size_t, double>> sweep;  // (threads, partitioned ms)
  double speedup_8t() const {
    double t1 = 0, t8 = 0;
    for (auto& [t, ms] : sweep) {
      if (t == 1) t1 = ms;
      if (t == 8) t8 = ms;
    }
    return t8 > 0 ? t1 / t8 : 0;
  }
};

// Peak working-set budget for the partitioned sweep. 2 MiB: well below the
// single-partition footprint at SF>=100 (~3.4 MB at SF=100, ~10x that at
// SF=1000, so the out-of-core path genuinely engages at scale) while
// keeping SF 1/10 in one partition.
constexpr size_t kMemBudgetBytes = 2ull << 20;

SfResult RunSf(double sf) {
  SfResult res;
  res.sf = sf;

  ScaleCorpusOptions opts;
  opts.scale_factor = sf;
  res.rows_per_side = internal_datagen::ScaleRows(opts);

  ScaleCorpus corpus;
  res.datagen_ms = OnceMs([&] {
    auto c = GenerateScaleCorpus(opts);
    if (!c.ok()) std::abort();
    corpus = std::move(*c);
  });

  PreppedCorpus prepped;
  res.prep_ms = OnceMs([&] { prepped = Prep(corpus); });

  Executor pool1(1);
  ExecutorContext ctx1{&pool1};
  internal_block::BlockBudget unbounded;  // 0 = monolithic single partition
  CandidateSet mono;
  res.block_mono_ms = OnceMs([&] {
    mono = internal_block::PartitionedOverlapJoin(
        *prepped.left, *prepped.right, KeepK, kOverlapK, unbounded, ctx1);
  });
  res.candidates = mono.size();

  internal_block::BlockBudget budget;
  budget.mem_budget_bytes = kMemBudgetBytes;
  for (size_t t : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    Executor pool(t);
    ExecutorContext ctx{&pool};
    internal_block::PartitionedJoinStats stats;
    CandidateSet part;
    double ms = OnceMs([&] {
      part = internal_block::PartitionedOverlapJoin(
          *prepped.left, *prepped.right, KeepK, kOverlapK, budget, ctx,
          &stats);
    });
    if (!(part == mono)) {
      std::fprintf(stderr,
                   "FATAL: partitioned blocking diverged from monolithic at "
                   "sf=%g threads=%zu (%zu vs %zu pairs)\n",
                   sf, t, part.size(), mono.size());
      std::abort();
    }
    res.sweep.push_back({t, ms});
    res.num_partitions = stats.num_partitions;
    res.peak_index_bytes = stats.peak_index_bytes;
    res.partition_p50_ms = Percentile(stats.partition_ms, 0.50);
    res.partition_p99_ms = Percentile(stats.partition_ms, 0.99);
  }
  return res;
}

int RunFull(const std::vector<double>& sfs) {
  unsigned host_cpus = std::thread::hardware_concurrency();
  bool sweep_reliable = host_cpus > 1;
  std::printf("host_cpus=%u%s\n", host_cpus,
              sweep_reliable ? "" : "  (1 CPU: thread sweep UNRELIABLE)");

  std::vector<SfResult> results;
  for (double sf : sfs) {
    SfResult r = RunSf(sf);
    std::printf(
        "sf=%-6g rows/side=%-8zu datagen=%.0fms prep=%.0fms "
        "block_mono@1t=%.0fms candidates=%zu partitions=%zu "
        "peak_index=%.1fMB part_p50=%.1fms part_p99=%.1fms\n",
        r.sf, r.rows_per_side, r.datagen_ms, r.prep_ms, r.block_mono_ms,
        r.candidates, r.num_partitions,
        static_cast<double>(r.peak_index_bytes) / (1 << 20),
        r.partition_p50_ms, r.partition_p99_ms);
    for (auto& [t, ms] : r.sweep) {
      std::printf("  partitioned @%zu threads: %10.1f ms\n", t, ms);
    }
    std::printf("  speedup @8 threads: %.2fx\n", r.speedup_8t());
    results.push_back(std::move(r));
  }

  std::FILE* f = std::fopen("BENCH_scale.json", "w");
  if (!f) return 1;
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"host_cpus\": %u,\n", host_cpus);
  std::fprintf(f, "  \"sweep_reliable\": %s,\n",
               sweep_reliable ? "true" : "false");
  std::fprintf(f, "  \"block_mem_budget_bytes\": %zu,\n", kMemBudgetBytes);
  std::fprintf(f, "  \"results\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const SfResult& r = results[i];
    std::fprintf(f, "    {\"sf\": %g, \"rows_per_side\": %zu,\n", r.sf,
                 r.rows_per_side);
    std::fprintf(f,
                 "     \"datagen_ms\": %.1f, \"prep_ms\": %.1f, "
                 "\"block_mono_ms\": %.1f, \"candidates\": %zu,\n",
                 r.datagen_ms, r.prep_ms, r.block_mono_ms, r.candidates);
    std::fprintf(f,
                 "     \"num_partitions\": %zu, \"peak_index_bytes\": %zu, "
                 "\"partition_p50_ms\": %.2f, \"partition_p99_ms\": %.2f,\n",
                 r.num_partitions, r.peak_index_bytes, r.partition_p50_ms,
                 r.partition_p99_ms);
    std::fprintf(f, "     \"speedup_8t\": %.2f, \"sweep\": [", r.speedup_8t());
    for (size_t j = 0; j < r.sweep.size(); ++j) {
      std::fprintf(f, "{\"threads\": %zu, \"wall_ms\": %.1f}%s",
                   r.sweep[j].first, r.sweep[j].second,
                   j + 1 == r.sweep.size() ? "" : ", ");
    }
    std::fprintf(f, "]}%s\n", i + 1 == results.size() ? "" : ",");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote BENCH_scale.json\n");
  return 0;
}

// --- smoke mode ------------------------------------------------------------

int RunSmoke(const char* baseline_path) {
  double baseline = 0;
  if (!bench::ReadBaseline(baseline_path, "partitioned_vs_monolithic",
                           &baseline)) {
    return 1;
  }

  // SF=2 corpus (2000 rows per side) with the partition floor lowered so a
  // small budget genuinely exercises the multi-partition path in CI.
  ScaleCorpusOptions opts;
  opts.scale_factor = 2.0;
  auto corpus = GenerateScaleCorpus(opts);
  if (!corpus.ok()) return 1;
  PreppedCorpus prepped = Prep(*corpus);

  Executor pool1(1);
  ExecutorContext ctx1{&pool1};
  internal_block::BlockBudget unbounded;
  CandidateSet mono;
  // Best of 3 here: smoke corpora are milliseconds-scale, where the min is
  // the least scheduler-noisy estimate.
  double mono_ms = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    mono_ms = std::min(mono_ms, OnceMs([&] {
      mono = internal_block::PartitionedOverlapJoin(
          *prepped.left, *prepped.right, KeepK, kOverlapK, unbounded, ctx1);
    }));
  }

  // A 1-byte budget is below the fixed index cost, so the plan degrades to
  // the floor (logged) — 500-row partitions, exactly 4 over the SF=2
  // corpus, independent of the corpus' vocabulary shape.
  internal_block::BlockBudget tight;
  tight.min_partition_rows = 500;
  tight.mem_budget_bytes = 1;
  internal_block::PartitionedJoinStats stats;
  CandidateSet part;
  double part_ms = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    part_ms = std::min(part_ms, OnceMs([&] {
      part = internal_block::PartitionedOverlapJoin(
          *prepped.left, *prepped.right, KeepK, kOverlapK, tight, ctx1,
          &stats);
    }));
  }
  if (stats.num_partitions < 4) {
    std::fprintf(stderr, "smoke: FAIL — expected >=4 partitions, got %zu\n",
                 stats.num_partitions);
    return 1;
  }
  if (!(part == mono)) {
    std::fprintf(stderr,
                 "smoke: FAIL — partitioned blocking diverged from "
                 "monolithic (%zu vs %zu pairs)\n",
                 part.size(), mono.size());
    return 1;
  }

  double measured = part_ms > 0 ? mono_ms / part_ms : 0;
  unsigned host_cpus = std::thread::hardware_concurrency();
  std::printf("host_cpus=%u\n", host_cpus);
  std::printf(
      "smoke: rows/side=%zu candidates=%zu partitions=%zu mono=%.2fms "
      "partitioned=%.2fms\n",
      corpus->left.num_rows(), mono.size(), stats.num_partitions, mono_ms,
      part_ms);
  std::printf("smoke: measured partitioned_vs_monolithic %.2fx, baseline %.2fx\n",
              measured, baseline);
  return bench::SmokeGate(measured, baseline, "partitioned/monolithic ratio",
                          "partitioned engine regressed >2x");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 3 && std::strcmp(argv[1], "--smoke") == 0) {
    return RunSmoke(argv[2]);
  }
  if (argc == 2 && std::strncmp(argv[1], "--sf=", 5) == 0) {
    double sf = std::atof(argv[1] + 5);
    if (sf <= 0) {
      std::fprintf(stderr, "bad --sf\n");
      return 2;
    }
    return RunFull({sf});
  }
  if (argc != 1) {
    std::fprintf(stderr, "usage: %s [--sf=N | --smoke BASELINE.json]\n",
                 argv[0]);
    return 2;
  }
  return RunFull({1, 10, 100});
}
