// Million-row-scale subsystem tests: the sharded scale-factor generator's
// determinism contract (bit-identical corpora at any thread count and shard
// size) and the partitioned blocking engine's equivalence to the monolithic
// join (bit-identical candidate sets at any memory budget and thread count,
// on both the case-study corpus and a generated scale corpus).

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/block/overlap_blocker.h"
#include "src/block/partitioned_blocker.h"
#include "src/block/similarity_join.h"
#include "src/cli/cli.h"
#include "src/core/executor.h"
#include "src/datagen/case_study.h"
#include "src/datagen/preprocess.h"
#include "src/datagen/scale_corpus.h"
#include "src/prep/prepared_column.h"
#include "src/table/csv.h"
#include "src/text/tokenizer.h"

namespace emx {
namespace {

// --- scale-factor datagen ----------------------------------------------------

ScaleCorpus MustGenerate(const ScaleCorpusOptions& options,
                         const ExecutorContext& ctx = {}) {
  auto corpus = GenerateScaleCorpus(options, ctx);
  EXPECT_TRUE(corpus.ok()) << corpus.status().ToString();
  return std::move(*corpus);
}

TEST(ScaleCorpusTest, DeterministicAcrossThreadsAndShardSizes) {
  ScaleCorpusOptions base;
  base.scale_factor = 1.0;
  ScaleCorpus reference = MustGenerate(base);
  std::string ref_left = WriteCsvString(reference.left);
  std::string ref_right = WriteCsvString(reference.right);

  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    for (size_t shard_rows : {size_t{7}, size_t{256}, size_t{4096}}) {
      Executor pool(threads);
      ExecutorContext ctx{&pool};
      ScaleCorpusOptions opts = base;
      opts.shard_rows = shard_rows;
      ScaleCorpus corpus = MustGenerate(opts, ctx);
      EXPECT_EQ(WriteCsvString(corpus.left), ref_left)
          << "threads=" << threads << " shard_rows=" << shard_rows;
      EXPECT_EQ(WriteCsvString(corpus.right), ref_right)
          << "threads=" << threads << " shard_rows=" << shard_rows;
      EXPECT_TRUE(corpus.gold == reference.gold)
          << "threads=" << threads << " shard_rows=" << shard_rows;
    }
  }
}

TEST(ScaleCorpusTest, SeedSelectsDistinctCorpora) {
  ScaleCorpusOptions a;
  a.scale_factor = 0.1;  // 100 rows per side
  ScaleCorpusOptions b = a;
  b.seed = a.seed + 1;
  ScaleCorpus ca = MustGenerate(a);
  ScaleCorpus cb = MustGenerate(b);
  EXPECT_NE(WriteCsvString(ca.left), WriteCsvString(cb.left));
  EXPECT_NE(WriteCsvString(ca.right), WriteCsvString(cb.right));
}

TEST(ScaleCorpusTest, ShapeAndGoldRate) {
  ScaleCorpusOptions opts;
  opts.scale_factor = 1.0;
  ScaleCorpus corpus = MustGenerate(opts);
  EXPECT_EQ(corpus.left.num_rows(), 1000u);
  EXPECT_EQ(corpus.right.num_rows(), 1000u);
  // match_rate=0.3 is a per-row Bernoulli; 1000 draws stay well inside
  // [0.2, 0.4] for any reasonable seed.
  EXPECT_GE(corpus.gold.size(), 200u);
  EXPECT_LE(corpus.gold.size(), 400u);
  for (const RecordPair& p : corpus.gold) {
    EXPECT_LT(p.left, corpus.left.num_rows());
    EXPECT_LT(p.right, corpus.right.num_rows());
  }
}

TEST(ScaleCorpusTest, GoldMostlySurvivesOverlapBlocking) {
  ScaleCorpusOptions opts;
  opts.scale_factor = 1.0;
  ScaleCorpus corpus = MustGenerate(opts);
  OverlapBlockerOptions bopts;
  bopts.left_attr = "AwardTitle";
  bopts.right_attr = "AwardTitle";
  OverlapBlocker blocker(bopts, 3);
  auto candidates = blocker.Block(corpus.left, corpus.right);
  ASSERT_TRUE(candidates.ok());
  size_t recovered = 0;
  for (const RecordPair& p : corpus.gold) {
    if (candidates->Contains(p)) ++recovered;
  }
  // Matched titles drift (token drops/swaps/typos) but keep most of the
  // 5-11 source tokens, so K=3 overlap must recover nearly all gold.
  EXPECT_GE(recovered * 10, corpus.gold.size() * 9)
      << recovered << " of " << corpus.gold.size() << " gold pairs blocked";
}

TEST(ScaleCorpusTest, RejectsDegenerateOptions) {
  ScaleCorpusOptions opts;
  opts.scale_factor = 0;
  EXPECT_FALSE(GenerateScaleCorpus(opts).ok());
  opts = ScaleCorpusOptions();
  opts.vocab_size = opts.hot_ranks;  // no cold tail left
  EXPECT_FALSE(GenerateScaleCorpus(opts).ok());
  opts = ScaleCorpusOptions();
  opts.min_title_tokens = 9;
  opts.max_title_tokens = 5;
  EXPECT_FALSE(GenerateScaleCorpus(opts).ok());
}

// --- partition planning ------------------------------------------------------

TEST(PartitionPlanTest, UnboundedIsOnePartition) {
  internal_block::BlockBudget budget;  // 0 bytes = unbounded
  auto plan = internal_block::PlanPartitions(10000, 80000, 5000, budget);
  EXPECT_EQ(plan.num_partitions, 1u);
  EXPECT_EQ(plan.rows_per_partition, 10000u);
}

TEST(PartitionPlanTest, BudgetSplitsAndCoversAllRows) {
  internal_block::BlockBudget budget;
  budget.mem_budget_bytes = 200 * 1024;
  budget.min_partition_rows = 16;
  auto plan = internal_block::PlanPartitions(10000, 80000, 5000, budget);
  EXPECT_GT(plan.num_partitions, 1u);
  EXPECT_GE(plan.rows_per_partition * plan.num_partitions, 10000u);
  EXPECT_LE(plan.estimated_partition_bytes, budget.mem_budget_bytes);
}

TEST(PartitionPlanTest, BudgetBelowFixedCostDegradesToFloor) {
  internal_block::BlockBudget budget;
  budget.mem_budget_bytes = 1;  // below the offsets array alone
  budget.min_partition_rows = 64;
  auto plan = internal_block::PlanPartitions(1000, 8000, 5000, budget);
  EXPECT_EQ(plan.rows_per_partition, 64u);
  EXPECT_EQ(plan.num_partitions, (1000u + 63u) / 64u);
}

TEST(PartitionPlanTest, DeterministicForGivenShape) {
  internal_block::BlockBudget budget;
  budget.mem_budget_bytes = 123456;
  auto a = internal_block::PlanPartitions(9999, 77777, 4321, budget);
  auto b = internal_block::PlanPartitions(9999, 77777, 4321, budget);
  EXPECT_EQ(a.num_partitions, b.num_partitions);
  EXPECT_EQ(a.rows_per_partition, b.rows_per_partition);
}

// --- partitioned == monolithic ----------------------------------------------

// Both title columns, prepped and as the legacy string tokens the
// string-keyed oracle joins.
struct Prepped {
  std::shared_ptr<PrepCache> cache;
  std::shared_ptr<const PreparedColumn> left;
  std::shared_ptr<const PreparedColumn> right;
  std::vector<std::vector<std::string>> left_tokens;
  std::vector<std::vector<std::string>> right_tokens;
};

Prepped PrepTitles(const Table& left, const Table& right) {
  Prepped out;
  out.cache = std::make_shared<PrepCache>();
  auto lcol = left.ColumnByName("AwardTitle");
  auto rcol = right.ColumnByName("AwardTitle");
  EXPECT_TRUE(lcol.ok() && rcol.ok());
  WhitespaceTokenizer tok;
  PrepOptions opts{/*lowercase=*/true, /*strip_punctuation=*/true};
  out.left = out.cache->Get(left, "AwardTitle", opts, &tok).value();
  out.right = out.cache->Get(right, "AwardTitle", opts, &tok).value();
  OverlapBlockerOptions legacy;
  legacy.lowercase = true;
  legacy.strip_punctuation = true;
  out.left_tokens = internal_block::TokenizeColumn(**lcol, legacy, tok);
  out.right_tokens = internal_block::TokenizeColumn(**rcol, legacy, tok);
  return out;
}

// Sweeps the partitioned engine over budgets x thread counts and demands
// bit-identical output to the string-keyed oracle under `keep`.
void ExpectPartitionedMatchesMonolithic(const Prepped& p,
                                        const internal_block::OverlapKeepFn& keep,
                                        size_t min_left_tokens) {
  Executor pool1(1);
  ExecutorContext ctx1{&pool1};
  CandidateSet oracle = internal_block::OverlapJoinStrings(
      p.left_tokens, p.right_tokens, keep, ctx1);

  // Budget 1B degrades to the min-rows floor (many small partitions);
  // 300KB yields a few mid-sized ones; 0 is the single-partition layout.
  struct Config {
    size_t budget;
    size_t floor;
  };
  for (Config cfg : {Config{0, 1024}, Config{1, 97}, Config{300 * 1024, 256}}) {
    internal_block::BlockBudget budget;
    budget.mem_budget_bytes = cfg.budget;
    budget.min_partition_rows = cfg.floor;
    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      Executor pool(threads);
      ExecutorContext ctx{&pool};
      internal_block::PartitionedJoinStats stats;
      CandidateSet got = internal_block::PartitionedOverlapJoin(
          *p.left, *p.right, keep, min_left_tokens, budget, ctx, &stats);
      EXPECT_TRUE(got == oracle)
          << "budget=" << cfg.budget << " threads=" << threads << " ("
          << got.size() << " vs " << oracle.size() << " pairs, "
          << stats.num_partitions << " partitions)";
      EXPECT_EQ(stats.partition_ms.size(), stats.num_partitions);
      if (cfg.budget == 1) {
        EXPECT_GT(stats.num_partitions, 1u);
      }
    }
  }
}

TEST(PartitionedBlockerTest, MatchesMonolithicOnCaseStudyOverlapK3) {
  auto data = GenerateCaseStudy();
  ASSERT_TRUE(data.ok());
  auto tables = PreprocessCaseStudy(*data);
  ASSERT_TRUE(tables.ok());
  Prepped p = PrepTitles(tables->umetrics, tables->usda);
  ExpectPartitionedMatchesMonolithic(
      p, [](size_t, size_t, size_t overlap) { return overlap >= 3; },
      /*min_left_tokens=*/3);
}

TEST(PartitionedBlockerTest, MatchesMonolithicOnCaseStudyCoefficient) {
  auto data = GenerateCaseStudy();
  ASSERT_TRUE(data.ok());
  auto tables = PreprocessCaseStudy(*data);
  ASSERT_TRUE(tables.ok());
  Prepped p = PrepTitles(tables->umetrics, tables->usda);
  ExpectPartitionedMatchesMonolithic(
      p,
      [](size_t la, size_t lb, size_t overlap) {
        size_t mn = la < lb ? la : lb;
        return mn > 0 && static_cast<double>(overlap) >=
                             0.7 * static_cast<double>(mn);
      },
      /*min_left_tokens=*/1);
}

TEST(PartitionedBlockerTest, MatchesMonolithicOnScaleCorpusSf10) {
  ScaleCorpusOptions opts;
  opts.scale_factor = 10.0;  // 10k rows per side
  ScaleCorpus corpus = MustGenerate(opts);
  Prepped p = PrepTitles(corpus.left, corpus.right);
  ExpectPartitionedMatchesMonolithic(
      p, [](size_t, size_t, size_t overlap) { return overlap >= 3; },
      /*min_left_tokens=*/3);
}

TEST(PartitionedBlockerTest, OverlapBlockerHonorsMemBudgetOption) {
  ScaleCorpusOptions opts;
  opts.scale_factor = 2.0;
  ScaleCorpus corpus = MustGenerate(opts);
  OverlapBlockerOptions unbounded;
  unbounded.left_attr = "AwardTitle";
  unbounded.right_attr = "AwardTitle";
  OverlapBlockerOptions bounded = unbounded;
  bounded.mem_budget_bytes = 64 * 1024;
  OverlapBlocker a(unbounded, 3);
  OverlapBlocker b(bounded, 3);
  auto ca = a.Block(corpus.left, corpus.right);
  auto cb = b.Block(corpus.left, corpus.right);
  ASSERT_TRUE(ca.ok() && cb.ok());
  EXPECT_TRUE(*ca == *cb);
  EXPECT_FALSE(ca->empty());
}

TEST(JaccardJoinTest, BudgetInvariantCandidatesAndVerifiedCount) {
  auto data = GenerateCaseStudy();
  ASSERT_TRUE(data.ok());
  auto tables = PreprocessCaseStudy(*data);
  ASSERT_TRUE(tables.ok());
  OverlapBlockerOptions unbounded;
  unbounded.left_attr = "AwardTitle";
  unbounded.right_attr = "AwardTitle";
  OverlapBlockerOptions bounded = unbounded;
  bounded.mem_budget_bytes = 100 * 1024;
  JaccardJoinBlocker a(unbounded, 0.7);
  JaccardJoinBlocker b(bounded, 0.7);
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    Executor pool(threads);
    ExecutorContext ctx{&pool};
    BlockStats sa, sb;
    auto ca = a.BlockWithStats(tables->umetrics, tables->usda, &sa, ctx);
    auto cb = b.BlockWithStats(tables->umetrics, tables->usda, &sb, ctx);
    ASSERT_TRUE(ca.ok() && cb.ok());
    EXPECT_TRUE(*ca == *cb) << "threads=" << threads;
    EXPECT_EQ(sa.verified, sb.verified) << "threads=" << threads;
    EXPECT_FALSE(ca->empty());
  }
}

// --- CLI surface -------------------------------------------------------------

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(CliScaleTest, DatagenWritesIdenticalCsvsAtAnyThreadCount) {
  std::string dir = ::testing::TempDir();
  std::string l1 = dir + "/emx_scale_l1.csv", r1 = dir + "/emx_scale_r1.csv";
  std::string g1 = dir + "/emx_scale_g1.csv";
  std::string l8 = dir + "/emx_scale_l8.csv", r8 = dir + "/emx_scale_r8.csv";
  std::string g8 = dir + "/emx_scale_g8.csv";
  std::string out, err;
  ASSERT_EQ(RunCli({"datagen", "--sf=0.2", "--threads=1",
                    "--out-left=" + l1, "--out-right=" + r1,
                    "--out-gold=" + g1},
                   out, err), 0) << err;
  ASSERT_EQ(RunCli({"datagen", "--sf=0.2", "--threads=8", "--shard-rows=13",
                    "--out-left=" + l8, "--out-right=" + r8,
                    "--out-gold=" + g8},
                   out, err), 0) << err;
  EXPECT_EQ(ReadFileOrDie(l1), ReadFileOrDie(l8));
  EXPECT_EQ(ReadFileOrDie(r1), ReadFileOrDie(r8));
  EXPECT_EQ(ReadFileOrDie(g1), ReadFileOrDie(g8));
}

TEST(CliScaleTest, BlockMemBudgetFlagPreservesOutput) {
  std::string dir = ::testing::TempDir();
  std::string l = dir + "/emx_scale_bl.csv", r = dir + "/emx_scale_br.csv";
  std::string out, err;
  ASSERT_EQ(RunCli({"datagen", "--sf=0.5", "--out-left=" + l,
                    "--out-right=" + r},
                   out, err), 0) << err;
  std::string p0 = dir + "/emx_scale_p0.csv", p1 = dir + "/emx_scale_p1.csv";
  out.clear();
  err.clear();
  ASSERT_EQ(RunCli({"block", l, r, "--method=overlap",
                    "--left-attr=AwardTitle", "--k=3", "--out=" + p0},
                   out, err), 0) << err;
  out.clear();
  err.clear();
  ASSERT_EQ(RunCli({"block", l, r, "--method=overlap",
                    "--left-attr=AwardTitle", "--k=3",
                    "--block-mem-budget=32k", "--out=" + p1},
                   out, err), 0) << err;
  EXPECT_EQ(ReadFileOrDie(p0), ReadFileOrDie(p1));
}

TEST(CliScaleTest, BlockMemBudgetRejectsMalformedSize) {
  std::string dir = ::testing::TempDir();
  std::string l = dir + "/emx_scale_el.csv", r = dir + "/emx_scale_er.csv";
  std::string out, err;
  ASSERT_EQ(RunCli({"datagen", "--sf=0.01", "--out-left=" + l,
                    "--out-right=" + r},
                   out, err), 0) << err;
  out.clear();
  err.clear();
  EXPECT_NE(RunCli({"block", l, r, "--method=overlap",
                    "--left-attr=AwardTitle", "--block-mem-budget=lots"},
                   out, err), 0);
  EXPECT_NE(err.find("block-mem-budget"), std::string::npos) << err;
}

}  // namespace
}  // namespace emx
