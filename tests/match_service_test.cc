// MatchService oracle suite: a resident service's point lookups must be
// BIT-IDENTICAL to the batch pipeline restricted to one left record — same
// candidate counts, same matched records, same provenance — for every
// record of the case-study and scale corpora and under the paper's full
// Figure-10 workflow, at 1/2/8 threads and at the scalar SIMD fallback.
// Plus: incremental ingest equivalence, the zero-re-prep residency
// contract, and the PipelineRunner::Clear audit.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdlib>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/block/attr_equivalence_blocker.h"
#include "src/block/overlap_blocker.h"
#include "src/block/rule_blocker.h"
#include "src/core/executor.h"
#include "src/core/strings.h"
#include "src/datagen/case_study.h"
#include "src/datagen/scale_corpus.h"
#include "src/ml/decision_tree.h"
#include "src/serve/match_service.h"
#include "src/table/csv.h"
#include "src/table/table_ops.h"
#include "src/text/batch_kernel.h"
#include "src/workflow/em_workflow.h"
#include "src/workflow/pipeline_runner.h"

// ---------- allocation-counting hook (unsanitized builds only) ----------
//
// Same global operator new replacement as sequence_kernel_test.cc: counts
// heap allocations made while the calling thread has armed the counter.
// The steady-state regression below asserts a warm lookup allocates
// exactly what the previous warm lookup did — a reintroduced per-lookup
// column re-prep would blow the count up by O(corpus).
#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__) && \
    !defined(ADDRESS_SANITIZER) && !defined(THREAD_SANITIZER)
#if defined(__has_feature)
#if !__has_feature(address_sanitizer) && !__has_feature(thread_sanitizer)
#define EMX_COUNT_ALLOCATIONS 1
#endif
#else
#define EMX_COUNT_ALLOCATIONS 1
#endif
#endif

namespace {
thread_local bool t_count_allocs = false;
thread_local size_t t_alloc_count = 0;
}  // namespace

#ifdef EMX_COUNT_ALLOCATIONS
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t n) {
  if (t_count_allocs) ++t_alloc_count;
  void* p = std::malloc(n ? n : 1);
  if (!p) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
#endif

namespace emx {
namespace {

// --- oracle machinery ------------------------------------------------------------

// The batch run's answer for one left record: matched right records with
// provenance, plus the candidate and sure counts the service also reports.
struct PerRecordOracle {
  std::map<uint32_t, std::string> matches;  // right record -> provenance
  size_t candidates = 0;
  size_t sure = 0;
};

std::vector<PerRecordOracle> SliceByLeft(const WorkflowRunResult& run,
                                         size_t left_rows) {
  std::vector<PerRecordOracle> out(left_rows);
  for (const RecordPair& p : run.final_matches) {
    out[p.left].matches[p.right] = run.provenance.ProvenanceOf(p);
  }
  for (const RecordPair& p : run.candidates) ++out[p.left].candidates;
  for (const RecordPair& p : run.sure_matches) ++out[p.left].sure;
  return out;
}

// One lookup vs its batch slice. Also checks the result-ordering contract:
// sure matches first (ascending id, score 1.0), then ml by (score
// descending, id ascending) with every score >= 0.5.
void ExpectLookupMatchesOracle(const MatchService& svc, const Table& left,
                               size_t q, const PerRecordOracle& oracle) {
  auto result = svc.Lookup(left, q);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->num_candidates, oracle.candidates) << "left row " << q;
  EXPECT_EQ(result->num_sure, oracle.sure) << "left row " << q;
  std::map<uint32_t, std::string> got;
  for (const RankedMatch& m : result->matches) got[m.record] = m.provenance;
  EXPECT_EQ(got, oracle.matches) << "left row " << q;
  for (size_t i = 0; i < result->matches.size(); ++i) {
    const RankedMatch& m = result->matches[i];
    if (i < result->num_sure) {
      EXPECT_EQ(m.provenance, "sure_rule");
      EXPECT_DOUBLE_EQ(m.score, 1.0);
      if (i > 0) EXPECT_GT(m.record, result->matches[i - 1].record);
    } else {
      EXPECT_EQ(m.provenance, "ml");
      EXPECT_GE(m.score, 0.5);
      if (i > result->num_sure) {
        const RankedMatch& prev = result->matches[i - 1];
        EXPECT_TRUE(m.score < prev.score ||
                    (m.score == prev.score && m.record > prev.record));
      }
    }
  }
}

// Two services agree on one lookup: same candidates, and the same matches
// in the same order with the same scores and provenance.
void ExpectSameLookup(const MatchService& a, const MatchService& b,
                      const Table& left, size_t q) {
  auto ra = a.Lookup(left, q);
  auto rb = b.Lookup(left, q);
  ASSERT_TRUE(ra.ok() && rb.ok());
  EXPECT_EQ(ra->num_candidates, rb->num_candidates) << "left row " << q;
  EXPECT_EQ(ra->num_sure, rb->num_sure) << "left row " << q;
  ASSERT_EQ(ra->matches.size(), rb->matches.size()) << "left row " << q;
  for (size_t i = 0; i < ra->matches.size(); ++i) {
    EXPECT_EQ(ra->matches[i].record, rb->matches[i].record);
    EXPECT_DOUBLE_EQ(ra->matches[i].score, rb->matches[i].score);
    EXPECT_EQ(ra->matches[i].provenance, rb->matches[i].provenance);
  }
}

// --- case-study fixture ----------------------------------------------------------
//
// The §7-§12 pipeline without the AE blocker (the variant the end-to-end
// benchmark serves): the two token blockers on AwardTitle, the V2 positive
// rules (whose M1 covers the AE blocker's pairs), the §9 trained matcher,
// and the §12 negative rules.
struct CaseStudyFixture {
  CaseStudyData data;
  ProjectedTables tables;
  TrainedMatcher trained;
  EmWorkflow wf;
  WorkflowRunResult run;
  std::vector<PerRecordOracle> oracle;
};

EmWorkflow BuildServableCaseStudyWorkflow(const TrainedMatcher& trained) {
  EmWorkflow wf;
  for (const MatchRule& r : PositiveRulesV2()) wf.AddPositiveRule(r);
  wf.AddBlocker(MakeTitleOverlapBlocker(3));
  wf.AddBlocker(MakeTitleOverlapCoefficientBlocker(0.7));
  wf.SetMatcher(trained.matcher, trained.features, trained.imputer);
  for (const MatchRule& r : NegativeRules()) wf.AddNegativeRule(r);
  return wf;
}

const CaseStudyFixture& CaseStudy() {
  static const CaseStudyFixture& fx = *[] {
    auto* f = new CaseStudyFixture();
    f->data = std::move(*GenerateCaseStudy());
    f->tables = std::move(*PreprocessCaseStudy(f->data));
    auto blocks = RunStandardBlocking(f->tables.umetrics, f->tables.usda);
    OracleLabeler oracle = MakeOracle(f->data.gold, f->data.ambiguous);
    LabeledSet labels = CollectCorrectedLabels(oracle, blocks->c, 3, 100, 100);
    f->trained = std::move(*TrainBestMatcher(f->tables.umetrics,
                                             f->tables.usda, labels,
                                             PositiveRulesV1(),
                                             /*case_fix=*/true));
    f->wf = BuildServableCaseStudyWorkflow(f->trained);
    f->run = std::move(*f->wf.Run(f->tables.umetrics, f->tables.usda));
    f->oracle = SliceByLeft(f->run, f->tables.umetrics.num_rows());
    return f;
  }();
  return fx;
}

// Served workflows holding the AE blocker, with their batch oracles: the
// paper's own Figure-10 workflow (BuildCaseStudyWorkflow), and the AE
// blocker alone with the matcher and negative rules. The title blockers
// also emit every AE hit of the case study, so only the second workflow
// exposes an AE hit the service fails to return; in it nothing is sure
// and the matcher scores every hit.
struct WorkflowFixture {
  EmWorkflow wf;
  std::vector<PerRecordOracle> oracle;
};

const WorkflowFixture* MakeWorkflowFixture(EmWorkflow wf) {
  const CaseStudyFixture& cs = CaseStudy();
  auto* f = new WorkflowFixture{std::move(wf), {}};
  f->oracle = SliceByLeft(*f->wf.Run(cs.tables.umetrics, cs.tables.usda),
                          cs.tables.umetrics.num_rows());
  return f;
}

const WorkflowFixture& Figure10() {
  static const WorkflowFixture& fx = *MakeWorkflowFixture(
      BuildCaseStudyWorkflow(PositiveRulesV2(), CaseStudy().trained,
                             /*with_negative_rules=*/true));
  return fx;
}

const WorkflowFixture& AeOnly() {
  static const WorkflowFixture& fx = *[] {
    const TrainedMatcher& t = CaseStudy().trained;
    EmWorkflow wf;
    wf.AddBlocker(MakeM1EquivalenceBlocker());
    wf.SetMatcher(t.matcher, t.features, t.imputer);
    for (const MatchRule& r : NegativeRules()) wf.AddNegativeRule(r);
    return MakeWorkflowFixture(std::move(wf));
  }();
  return fx;
}

// Keyed M1 plus a title rule without a key form: batch joins the first
// and serve probes its key index, and both scan for the second; the sure
// matches are the union of both.
const WorkflowFixture& KeyedAndScannedRules() {
  static const WorkflowFixture& fx = *[] {
    const TrainedMatcher& t = CaseStudy().trained;
    auto lower = [](const std::string& s) { return AsciiToLower(s); };
    EmWorkflow wf;
    wf.AddPositiveRule(MakeM1AwardNumberRule("AwardNumber", "AwardNumber"));
    wf.AddPositiveRule(MakeLevenshteinRule("title", "AwardTitle",
                                           "AwardTitle", 0.9, lower, lower));
    wf.AddBlocker(MakeTitleOverlapBlocker(3));
    wf.SetMatcher(t.matcher, t.features, t.imputer);
    for (const MatchRule& r : NegativeRules()) wf.AddNegativeRule(r);
    return MakeWorkflowFixture(std::move(wf));
  }();
  return fx;
}

// --- scale fixture ---------------------------------------------------------------
//
// SF corpus (AwardTitle with NURand token skew) under a blocker+ML
// workflow: overlap K=3 + coefficient 0.7 (sharing one delta index) and a
// title-Jaccard tree matcher. No positive rules — every lookup goes
// through the block → vectorize → score path.
struct ScaleFixture {
  ScaleCorpus corpus;
  EmWorkflow wf;
  WorkflowRunResult run;
  std::vector<PerRecordOracle> oracle;
};

// A tree over one lowercased title-Jaccard feature: it reads AwardTitle
// and nothing else.
void SetTitleJaccardMatcher(EmWorkflow* wf) {
  FeatureSet features;
  // Lowercased: scale-corpus left titles are UPPERCASE, right mixed-case.
  features.features.push_back(
      MakeJaccardFeature("AwardTitle", "AwardTitle", /*qgram=*/0,
                         /*lowercase=*/true));
  Dataset d;
  d.feature_names = features.names();
  d.x = {{1.0}, {0.8}, {0.3}, {0.0}};
  d.y = {1, 1, 0, 0};
  FeatureMatrix m;
  m.feature_names = d.feature_names;
  m.rows = d.x;
  MeanImputer imputer;
  imputer.Fit(m);
  auto tree = std::make_shared<DecisionTreeMatcher>();
  EXPECT_TRUE(tree->Fit(d).ok());
  wf->SetMatcher(std::move(tree), std::move(features), std::move(imputer));
}

EmWorkflow BuildScaleWorkflow() {
  EmWorkflow wf;
  OverlapBlockerOptions opts;
  opts.left_attr = "AwardTitle";
  opts.right_attr = "AwardTitle";
  opts.lowercase = true;
  wf.AddBlocker(std::make_shared<OverlapBlocker>(opts, 3));
  wf.AddBlocker(std::make_shared<OverlapCoefficientBlocker>(opts, 0.7));
  SetTitleJaccardMatcher(&wf);
  return wf;
}

// The case study's V2 positive rules, title blockers and negative rules
// around the title-Jaccard tree, so a table that lacks a rule's key
// attribute still vectorizes.
EmWorkflow KeyedRulesTitleWorkflow() {
  EmWorkflow wf;
  for (const MatchRule& r : PositiveRulesV2()) wf.AddPositiveRule(r);
  wf.AddBlocker(MakeTitleOverlapBlocker(3));
  wf.AddBlocker(MakeTitleOverlapCoefficientBlocker(0.7));
  SetTitleJaccardMatcher(&wf);
  for (const MatchRule& r : NegativeRules()) wf.AddNegativeRule(r);
  return wf;
}

// An overlap K=3 title blocker and a tree over the one feature `f`.
EmWorkflow OneFeatureWorkflow(const Feature& f) {
  EmWorkflow wf;
  OverlapBlockerOptions opts;
  opts.left_attr = "AwardTitle";
  opts.right_attr = "AwardTitle";
  wf.AddBlocker(std::make_shared<OverlapBlocker>(opts, 3));
  FeatureSet features;
  features.features.push_back(f);
  Dataset d;
  d.feature_names = features.names();
  d.x = {{0.0}, {9.0}};
  d.y = {1, 0};
  FeatureMatrix m;
  m.feature_names = d.feature_names;
  m.rows = d.x;
  MeanImputer imputer;
  imputer.Fit(m);
  auto tree = std::make_shared<DecisionTreeMatcher>();
  EXPECT_TRUE(tree->Fit(d).ok());
  wf.SetMatcher(std::move(tree), std::move(features), std::move(imputer));
  return wf;
}

const ScaleFixture& Scale() {
  static const ScaleFixture& fx = *[] {
    auto* f = new ScaleFixture();
    ScaleCorpusOptions options;
    options.scale_factor = 10.0;  // 10k rows per side
    f->corpus = std::move(*GenerateScaleCorpus(options));
    f->wf = BuildScaleWorkflow();
    f->run = std::move(*f->wf.Run(f->corpus.left, f->corpus.right));
    f->oracle = SliceByLeft(f->run, f->corpus.left.num_rows());
    return f;
  }();
  return fx;
}

// --- lookup-vs-batch oracle ------------------------------------------------------

TEST(MatchServiceOracleTest, CaseStudyEveryRecordMatchesBatch) {
  const CaseStudyFixture& fx = CaseStudy();
  auto svc = MatchService::Create(fx.wf, fx.tables.usda);
  ASSERT_TRUE(svc.ok()) << svc.status().ToString();
  for (size_t q = 0; q < fx.tables.umetrics.num_rows(); ++q) {
    ExpectLookupMatchesOracle(**svc, fx.tables.umetrics, q, fx.oracle[q]);
  }
}

// Serve hosts the workflow the paper evaluates: the AE blocker reads its
// key index, and its hits join the blocked candidates.
TEST(MatchServiceOracleTest, Figure10WorkflowEveryRecordMatchesBatch) {
  const CaseStudyFixture& cs = CaseStudy();
  for (const WorkflowFixture* fx : {&Figure10(), &AeOnly()}) {
    auto svc = MatchService::Create(fx->wf, cs.tables.usda);
    ASSERT_TRUE(svc.ok()) << svc.status().ToString();
    for (size_t q = 0; q < cs.tables.umetrics.num_rows(); ++q) {
      ExpectLookupMatchesOracle(**svc, cs.tables.umetrics, q, fx->oracle[q]);
    }
  }
}

TEST(MatchServiceOracleTest, KeyedAndScannedRulesEveryRecordMatchesBatch) {
  const CaseStudyFixture& cs = CaseStudy();
  const WorkflowFixture& fx = KeyedAndScannedRules();
  auto svc = MatchService::Create(fx.wf, cs.tables.usda);
  ASSERT_TRUE(svc.ok()) << svc.status().ToString();
  for (size_t q = 0; q < cs.tables.umetrics.num_rows(); ++q) {
    ExpectLookupMatchesOracle(**svc, cs.tables.umetrics, q, fx.oracle[q]);
  }
}

TEST(MatchServiceOracleTest, ScaleEveryRecordMatchesBatch) {
  const ScaleFixture& fx = Scale();
  auto svc = MatchService::Create(fx.wf, fx.corpus.right);
  ASSERT_TRUE(svc.ok()) << svc.status().ToString();
  for (size_t q = 0; q < fx.corpus.left.num_rows(); ++q) {
    ExpectLookupMatchesOracle(**svc, fx.corpus.left, q, fx.oracle[q]);
  }
}

// The batch oracle is computed once on the shared pool; services running
// on private 1/2/8-thread executors must answer identically (the executor
// is pure wall-clock — chunk-order concatenation keeps outputs fixed).
TEST(MatchServiceOracleTest, ThreadCountInvariant) {
  const CaseStudyFixture& cs = CaseStudy();
  const ScaleFixture& sc = Scale();
  for (size_t threads : {1u, 2u, 8u}) {
    Executor pool(threads);
    ExecutorContext ctx{&pool};
    auto csvc = MatchService::Create(cs.wf, cs.tables.usda, {}, ctx);
    ASSERT_TRUE(csvc.ok()) << csvc.status().ToString();
    for (size_t q = 0; q < cs.tables.umetrics.num_rows(); q += 9) {
      ExpectLookupMatchesOracle(**csvc, cs.tables.umetrics, q, cs.oracle[q]);
    }
    auto ssvc = MatchService::Create(sc.wf, sc.corpus.right, {}, ctx);
    ASSERT_TRUE(ssvc.ok()) << ssvc.status().ToString();
    for (size_t q = 0; q < sc.corpus.left.num_rows(); q += 19) {
      ExpectLookupMatchesOracle(**ssvc, sc.corpus.left, q, sc.oracle[q]);
    }
  }
}

// Forcing the scalar kernel tier must not change a single answer (the
// SIMD tiers are bit-equal by contract; this drives the whole serve path
// through the fallback on AVX2 hosts). The batch oracle is recomputed
// under the same forced level so both sides run the tier being tested.
TEST(MatchServiceOracleTest, ScalarSimdInvariant) {
  const CaseStudyFixture& fx = CaseStudy();
  ForceSimdLevel(SimdLevel::kScalar);
  auto run = fx.wf.Run(fx.tables.umetrics, fx.tables.usda);
  ASSERT_TRUE(run.ok());
  std::vector<PerRecordOracle> oracle =
      SliceByLeft(*run, fx.tables.umetrics.num_rows());
  auto svc = MatchService::Create(fx.wf, fx.tables.usda);
  ASSERT_TRUE(svc.ok()) << svc.status().ToString();
  for (size_t q = 0; q < fx.tables.umetrics.num_rows(); q += 7) {
    ExpectLookupMatchesOracle(**svc, fx.tables.umetrics, q, oracle[q]);
  }
  ResetSimdLevel();
  // And the scalar-tier oracle equals the native-tier oracle (kernel
  // equivalence seen end to end).
  for (size_t q = 0; q < fx.tables.umetrics.num_rows(); ++q) {
    EXPECT_EQ(oracle[q].matches, fx.oracle[q].matches) << "left row " << q;
    EXPECT_EQ(oracle[q].candidates, fx.oracle[q].candidates);
  }
}

// --- incremental ingest ----------------------------------------------------------

// A service grown record by record (with an aggressive compaction
// threshold forcing mid-sequence snapshots) must answer exactly like a
// service Created over the final corpus — the "never rebuilds from
// scratch" index is indistinguishable from the rebuild it replaced.
TEST(MatchServiceIngestTest, InsertDeleteEquivalentToFreshService) {
  const ScaleFixture& fx = Scale();
  // Small slice: base = first 150 right rows, then insert 50 more, then
  // tombstone every 7th record.
  ScaleCorpusOptions options;
  options.scale_factor = 0.2;  // 200 rows per side
  auto small = GenerateScaleCorpus(options);
  ASSERT_TRUE(small.ok());
  const Table& right = small->right;
  const size_t base = 150;
  Table base_table(right.schema());
  for (size_t r = 0; r < base; ++r) {
    ASSERT_TRUE(base_table.AppendRow(right.Row(r)).ok());
  }

  MatchServiceOptions grow_opts;
  grow_opts.compact_threshold = 16;  // compact early and often
  auto grown = MatchService::Create(fx.wf, base_table, grow_opts);
  ASSERT_TRUE(grown.ok()) << grown.status().ToString();
  for (size_t r = base; r < right.num_rows(); ++r) {
    auto id = (*grown)->Insert(right.Row(r));
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    EXPECT_EQ(*id, r);
  }
  auto fresh = MatchService::Create(fx.wf, right);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  for (uint32_t r = 0; r < right.num_rows(); r += 7) {
    ASSERT_TRUE((*grown)->Remove(r).ok());
    ASSERT_TRUE((*fresh)->Remove(r).ok());
  }
  // Double-remove is NotFound, not silent corruption.
  EXPECT_EQ((*grown)->Remove(0).code(), StatusCode::kNotFound);

  MatchServiceStats grown_stats = (*grown)->Stats();
  EXPECT_GT(grown_stats.compactions, 1u)
      << "threshold 16 over 50 inserts must compact mid-sequence";

  for (size_t q = 0; q < small->left.num_rows(); ++q) {
    ExpectSameLookup(**grown, **fresh, small->left, q);
  }
  // Compacting everything changes nothing further.
  (*grown)->Compact();
  for (size_t q = 0; q < small->left.num_rows(); q += 11) {
    ExpectSameLookup(**grown, **fresh, small->left, q);
  }
}

// The same on the case-study corpus under the full Figure-10 workflow, so
// the key indexes of the AE blocker and of both positive rules must
// follow every Insert and Remove exactly. The corpus is reordered so that
// every third USDA row arrives by Insert (datagen writes matched rows
// first).
TEST(MatchServiceIngestTest, CaseStudyKeyIndexesTrackInsertAndRemove) {
  const CaseStudyFixture& cs = CaseStudy();
  const WorkflowFixture& fx = Figure10();
  const Table& usda = cs.tables.usda;
  std::vector<uint32_t> order;  // corpus record id → USDA row
  for (uint32_t r = 0; r < usda.num_rows(); ++r) {
    if (r % 3 != 0) order.push_back(r);
  }
  const size_t base = order.size();
  for (uint32_t r = 0; r < usda.num_rows(); r += 3) order.push_back(r);
  std::vector<uint32_t> record_of(usda.num_rows());
  Table corpus(usda.schema());
  for (uint32_t id = 0; id < order.size(); ++id) {
    record_of[order[id]] = id;
    ASSERT_TRUE(corpus.AppendRow(usda.Row(order[id])).ok());
  }
  Table base_table(usda.schema());
  for (size_t id = 0; id < base; ++id) {
    ASSERT_TRUE(base_table.AppendRow(corpus.Row(id)).ok());
  }

  MatchServiceOptions grow_opts;
  grow_opts.compact_threshold = 64;
  auto grown = MatchService::Create(fx.wf, base_table, grow_opts);
  ASSERT_TRUE(grown.ok()) << grown.status().ToString();
  for (size_t id = base; id < corpus.num_rows(); ++id) {
    auto got = (*grown)->Insert(corpus.Row(id));
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, id);
  }
  auto fresh = MatchService::Create(fx.wf, corpus);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  for (uint32_t id = 0; id < corpus.num_rows(); id += 7) {
    ASSERT_TRUE((*grown)->Remove(id).ok());
    ASSERT_TRUE((*fresh)->Remove(id).ok());
  }

  // Sure matches are the batch ones on live records; batch sure matches
  // land on inserted and on removed records, so both paths are exercised.
  size_t sure_on_inserted = 0, sure_on_removed = 0;
  for (size_t q = 0; q < cs.tables.umetrics.num_rows(); ++q) {
    ExpectSameLookup(**grown, **fresh, cs.tables.umetrics, q);
    std::vector<uint32_t> want_sure, got_sure;
    for (const auto& [row, provenance] : fx.oracle[q].matches) {
      if (provenance != "sure_rule") continue;
      const uint32_t id = record_of[row];
      sure_on_inserted += id >= base;
      sure_on_removed += id % 7 == 0;
      if (id % 7 != 0) want_sure.push_back(id);
    }
    std::sort(want_sure.begin(), want_sure.end());
    auto got = (*grown)->Lookup(cs.tables.umetrics, q);
    ASSERT_TRUE(got.ok());
    for (const RankedMatch& m : got->matches) {
      EXPECT_NE(m.record % 7, 0u) << "removed record served, left row " << q;
      if (m.provenance == "sure_rule") got_sure.push_back(m.record);
    }
    EXPECT_EQ(got_sure, want_sure) << "left row " << q;
  }
  EXPECT_GT(sure_on_inserted, 0u);
  EXPECT_GT(sure_on_removed, 0u);
}

// Removed records disappear from lookups immediately (before any
// compaction) and reappear in no stage.
TEST(MatchServiceIngestTest, RemoveHidesRecordImmediately) {
  const ScaleFixture& fx = Scale();
  ScaleCorpusOptions options;
  options.scale_factor = 0.1;
  auto small = GenerateScaleCorpus(options);
  ASSERT_TRUE(small.ok());
  auto svc = MatchService::Create(fx.wf, small->right);
  ASSERT_TRUE(svc.ok());
  // Find a query with at least one match, remove the matched record.
  for (size_t q = 0; q < small->left.num_rows(); ++q) {
    auto before = (*svc)->Lookup(small->left, q);
    ASSERT_TRUE(before.ok());
    if (before->matches.empty()) continue;
    uint32_t victim = before->matches[0].record;
    ASSERT_TRUE((*svc)->Remove(victim).ok());
    EXPECT_FALSE((*svc)->record_live(victim));
    auto after = (*svc)->Lookup(small->left, q);
    ASSERT_TRUE(after.ok());
    for (const RankedMatch& m : after->matches) {
      EXPECT_NE(m.record, victim);
    }
    EXPECT_EQ(after->matches.size(), before->matches.size() - 1);
    return;
  }
  FAIL() << "no query with matches found";
}

// --- residency / ownership -------------------------------------------------------

// The zero-re-prep contract: after Create, corpus prep work NEVER happens
// on the lookup path. 1000 repeated lookups, alternating a record that
// reaches the matcher and one that does not, leave the corpus_preps
// counter untouched and (on plain builds) settle to an exactly constant
// per-lookup allocation count on the calling thread for each record. The
// lookup that reaches no matcher preps fewer query specs and allocates
// less. And a warm lookup allocates a handful of blocks whatever the
// corpus size: sure matches come from key probes, where a rule scan over
// the corpus made about 5,900 allocations per lookup.
TEST(MatchServiceResidencyTest, RepeatedLookupsDoZeroRePrepWork) {
  const CaseStudyFixture& fx = CaseStudy();
  auto svc = MatchService::Create(fx.wf, fx.tables.usda);
  ASSERT_TRUE(svc.ok());
  const uint64_t preps_after_create = (*svc)->Stats().corpus_preps;
  EXPECT_GT(preps_after_create, 0u);

  auto one_lookup = [&](size_t q) {
    auto r = (*svc)->Lookup(fx.tables.umetrics, q);
    ASSERT_TRUE(r.ok());
  };
  auto reaches_matcher = [&](size_t q) {
    auto r = (*svc)->Lookup(fx.tables.umetrics, q);
    EXPECT_TRUE(r.ok());
    return r.ok() && r->num_candidates > r->num_sure;
  };
  const size_t no_ml_row = 17;  // every candidate of it is a sure match
  ASSERT_FALSE(reaches_matcher(no_ml_row));
  size_t ml_row = 0;
  while (ml_row < fx.tables.umetrics.num_rows() && !reaches_matcher(ml_row)) {
    ++ml_row;
  }
  ASSERT_LT(ml_row, fx.tables.umetrics.num_rows());
  auto query_preps_of = [&](size_t q) {
    const uint64_t before = (*svc)->Stats().query_preps;
    one_lookup(q);
    return (*svc)->Stats().query_preps - before;
  };
  EXPECT_LT(query_preps_of(no_ml_row), query_preps_of(ml_row));
  for (int i = 0; i < 3; ++i) {  // warm thread-local scratch
    one_lookup(ml_row);
    one_lookup(no_ml_row);
  }

#ifdef EMX_COUNT_ALLOCATIONS
  auto count_allocs = [&](size_t q) {
    t_alloc_count = 0;
    t_count_allocs = true;
    one_lookup(q);
    t_count_allocs = false;
    return t_alloc_count;
  };
  const size_t warm = count_allocs(ml_row);
  const size_t warm_no_ml = count_allocs(no_ml_row);
  EXPECT_LT(warm_no_ml, warm);
  EXPECT_LT(warm, 256u) << "a lookup that reaches the matcher allocates "
                           "per corpus record";
  EXPECT_LT(warm_no_ml, 64u) << "a lookup that reaches no matcher "
                                "allocates per corpus record";
  RecordProperty("warm_allocs_ml", std::to_string(warm));
  RecordProperty("warm_allocs_no_ml", std::to_string(warm_no_ml));
#endif

  for (int i = 0; i < 500; ++i) {
    one_lookup(ml_row);
    one_lookup(no_ml_row);
  }

#ifdef EMX_COUNT_ALLOCATIONS
  EXPECT_EQ(count_allocs(ml_row), warm)
      << "a late lookup allocates more than an early one: per-lookup state "
         "is being rebuilt";
  EXPECT_EQ(count_allocs(no_ml_row), warm_no_ml)
      << "a late lookup that reaches no matcher allocates more than an "
         "early one";
#endif
  MatchServiceStats stats = (*svc)->Stats();
  EXPECT_EQ(stats.corpus_preps, preps_after_create)
      << "lookups re-prepped corpus columns";
  // 6 warm + 1000 steady-state; the counting lookups exist only on
  // unsanitized builds.
  EXPECT_GE(stats.lookups, 1006u);
  EXPECT_GT(stats.query_preps, 0u);
}

// The service preps its corpus into its own resident columns over its own
// interner and shares no PrepCache with any workflow, so an unrelated
// batch run in the same process must not change service answers or
// re-trigger corpus prep.
TEST(MatchServiceResidencyTest, SurvivesPipelineRunnerClearingCaches) {
  const CaseStudyFixture& fx = CaseStudy();
  auto svc = MatchService::Create(fx.wf, fx.tables.usda);
  ASSERT_TRUE(svc.ok());
  auto before = (*svc)->Lookup(fx.tables.umetrics, 42);
  ASSERT_TRUE(before.ok());
  const uint64_t preps_before = (*svc)->Stats().corpus_preps;

  // An independent batch pipeline runs to completion in-process, prepping
  // through its own workflow's cache.
  EmWorkflow batch_wf = BuildServableCaseStudyWorkflow(fx.trained);
  PipelineRunner runner(&batch_wf, PipelineOptions{});
  auto run = runner.Run(fx.tables.umetrics, fx.tables.usda);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  auto after = (*svc)->Lookup(fx.tables.umetrics, 42);
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after->matches.size(), before->matches.size());
  for (size_t i = 0; i < after->matches.size(); ++i) {
    EXPECT_EQ(after->matches[i].record, before->matches[i].record);
    EXPECT_DOUBLE_EQ(after->matches[i].score, before->matches[i].score);
  }
  EXPECT_EQ((*svc)->Stats().corpus_preps, preps_before);
}

// --- construction / error surface ------------------------------------------------

TEST(MatchServiceCreateTest, RejectsNonTokenBlocker) {
  const CaseStudyFixture& fx = CaseStudy();
  EmWorkflow wf;
  // A black-box predicate has no index that could answer it.
  wf.AddBlocker(std::make_shared<RuleBlocker>(
      "any", [](const Table&, size_t, const Table&, size_t) { return true; }));
  wf.SetMatcher(fx.trained.matcher, fx.trained.features, fx.trained.imputer);
  auto svc = MatchService::Create(wf, fx.tables.usda);
  EXPECT_FALSE(svc.ok());
  EXPECT_EQ(svc.status().code(), StatusCode::kInvalidArgument);
}

TEST(MatchServiceCreateTest, RejectsMissingCorpusColumn) {
  const CaseStudyFixture& fx = CaseStudy();
  Table tiny = *ReadCsvString("NotTitle\nfoo\n");
  auto svc = MatchService::Create(fx.wf, tiny);
  EXPECT_FALSE(svc.ok());
  EXPECT_EQ(svc.status().code(), StatusCode::kInvalidArgument);
}

TEST(MatchServiceLookupTest, MissingQueryColumnIsError) {
  const ScaleFixture& fx = Scale();
  ScaleCorpusOptions options;
  options.scale_factor = 0.05;
  auto small = GenerateScaleCorpus(options);
  ASSERT_TRUE(small.ok());
  auto svc = MatchService::Create(fx.wf, small->right);
  ASSERT_TRUE(svc.ok());
  Table bogus = *ReadCsvString("WrongColumn\nsome text\n");
  EXPECT_FALSE((*svc)->Lookup(bogus, 0).ok());
  EXPECT_FALSE((*svc)->Lookup(small->left, small->left.num_rows()).ok());

  // Without its key column the AE blocker fails as in batch (NotFound).
  auto fig10 = MatchService::Create(Figure10().wf, CaseStudy().tables.usda);
  ASSERT_TRUE(fig10.ok()) << fig10.status().ToString();
  Table titles_only = *ReadCsvString("AwardTitle\nmaize genome study\n");
  EXPECT_EQ((*fig10)->Lookup(titles_only, 0).status().code(),
            StatusCode::kNotFound);

  // Without a Value-fn feature's column, the matcher's input fails to
  // vectorize as in batch (NotFound), instead of scoring a null.
  EmWorkflow numeric;
  OverlapBlockerOptions opts;
  opts.left_attr = "AwardTitle";
  opts.right_attr = "AwardTitle";
  numeric.AddBlocker(std::make_shared<OverlapBlocker>(opts, 3));
  FeatureSet features;
  features.features.push_back(MakeAbsDiffFeature("StartYear", "StartYear"));
  Dataset d;
  d.feature_names = features.names();
  d.x = {{0.0}, {9.0}};
  d.y = {1, 0};
  FeatureMatrix m;
  m.feature_names = d.feature_names;
  m.rows = d.x;
  MeanImputer imputer;
  imputer.Fit(m);
  auto tree = std::make_shared<DecisionTreeMatcher>();
  ASSERT_TRUE(tree->Fit(d).ok());
  numeric.SetMatcher(std::move(tree), features, std::move(imputer));
  auto svc_numeric = MatchService::Create(numeric, small->right);
  ASSERT_TRUE(svc_numeric.ok()) << svc_numeric.status().ToString();
  Table no_year(Schema({{"AwardTitle", DataType::kString}}));
  ASSERT_TRUE(no_year.AppendRow({small->right.at(0, "AwardTitle")}).ok());
  EXPECT_EQ(VectorizePairsBatch(no_year, small->right,
                                CandidateSet({{0, 0}}), features)
                .status()
                .code(),
            StatusCode::kNotFound);
  EXPECT_EQ((*svc_numeric)->Lookup(no_year, 0).status().code(),
            StatusCode::kNotFound);

  // A feature's missing column fails exactly when some record reaches the
  // matcher, as batch binds features only for a non-empty ML input, for a
  // prepared feature and a Value-fn feature alike: one title shares the
  // blocker's K=3 tokens with corpus record 0, the other shares none.
  for (const Feature& f :
       {MakeJaccardFeature("PIName", "Director"),
        MakeAbsDiffFeature("StartYear", "StartYear")}) {
    EmWorkflow one = OneFeatureWorkflow(f);
    auto svc_one = MatchService::Create(one, small->right);
    ASSERT_TRUE(svc_one.ok()) << svc_one.status().ToString();
    for (const std::string& title :
         {small->right.at(0, "AwardTitle").AsString(),
          std::string("zzqx florp")}) {
      Table titles(Schema({{"AwardTitle", DataType::kString}}));
      ASSERT_TRUE(titles.AppendRow({Value(title)}).ok());
      // A fresh workflow per run: its prep cache keys on column addresses,
      // which the previous iteration's freed table may share.
      auto batch = OneFeatureWorkflow(f).Run(titles, small->right);
      auto served = (*svc_one)->Lookup(titles, 0);
      EXPECT_EQ(served.status().code(), batch.status().code())
          << f.name << " / '" << title << "'";
      EXPECT_EQ(served.status().code(), title == "zzqx florp"
                                            ? StatusCode::kOk
                                            : StatusCode::kNotFound)
          << f.name << " / '" << title << "'";
    }
  }

  // A keyed positive rule whose attribute one side lacks fires on nothing,
  // as in batch: a query table without AwardNumber gets no sure match and
  // no error, and a corpus without ProjectNumber still serves, with M4
  // never firing. Every row is compared with EmWorkflow::Run on the same
  // tables (a fresh workflow per run, for the address-keyed prep cache).
  const CaseStudyFixture& cs = CaseStudy();
  auto without = [](const Table& t, const std::string& attr) {
    std::vector<std::string> keep = t.schema().names();
    keep.erase(std::find(keep.begin(), keep.end(), attr));
    return *Project(t, keep);
  };
  const Table no_award = without(cs.tables.umetrics, "AwardNumber");
  const Table no_project = without(cs.tables.usda, "ProjectNumber");
  auto m1_only = ApplyRulesCartesian(PositiveRulesV1(), cs.tables.umetrics,
                                     cs.tables.usda);
  auto v2 = ApplyRulesCartesian(PositiveRulesV2(), cs.tables.umetrics,
                                cs.tables.usda);
  ASSERT_TRUE(m1_only.ok() && v2.ok());
  ASSERT_LT(m1_only->size(), v2->size()) << "M4 adds no sure match";
  const std::pair<const Table*, const Table*> cases[] = {
      {&no_award, &cs.tables.usda}, {&cs.tables.umetrics, &no_project}};
  for (const auto& [left, corpus] : cases) {
    SCOPED_TRACE(left == &no_award ? "query without AwardNumber"
                                   : "corpus without ProjectNumber");
    auto run = KeyedRulesTitleWorkflow().Run(*left, *corpus);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_FALSE(run->after_rules.empty());
    if (left == &no_award) {
      EXPECT_TRUE(run->sure_matches.empty());
    } else {
      EXPECT_EQ(run->sure_matches, *m1_only);
    }
    const std::vector<PerRecordOracle> oracle =
        SliceByLeft(*run, left->num_rows());
    auto svc = MatchService::Create(KeyedRulesTitleWorkflow(), *corpus);
    ASSERT_TRUE(svc.ok()) << svc.status().ToString();
    for (size_t q = 0; q < left->num_rows(); ++q) {
      ExpectLookupMatchesOracle(**svc, *left, q, oracle[q]);
    }
  }
}


// --- read-only query prep --------------------------------------------------------

// A lowercase word of 4-9 random letters: no generated corpus holds one.
std::string RandomWord(std::mt19937_64& rng) {
  std::uniform_int_distribution<int> len(4, 9), letter(0, 25);
  std::string w(static_cast<size_t>(len(rng)), 'a');
  for (char& c : w) c = static_cast<char>('a' + letter(rng));
  return w;
}

// `count` query records: row i copies left row (7 i) mod |left| with a new
// `attr` value. The values cycle through every way a query token can be
// unknown to the service's interner, or known: a corpus value; random
// words; the row's own value with random letter case; a corpus value with
// a novel word and a known word each repeated; a value shorter than a
// q-gram; the empty value; null; and corpus words interleaved with random
// ones, some repeated.
Table NovelTokenQueries(const Table& left, const Table& corpus,
                        const std::string& attr, size_t count) {
  std::mt19937_64 rng(20190326);
  const size_t col = static_cast<size_t>(left.schema().IndexOf(attr));
  auto corpus_value = [&] {
    std::uniform_int_distribution<size_t> row(0, corpus.num_rows() - 1);
    return corpus.at(row(rng), attr).AsString();
  };
  auto words_of = [](const std::string& s) {
    std::vector<std::string> out;
    std::istringstream in(s);
    for (std::string w; in >> w;) out.push_back(w);
    return out;
  };
  Table out(left.schema());
  for (size_t i = 0; i < count; ++i) {
    std::vector<Value> row = left.Row((7 * i) % left.num_rows());
    std::string v;
    switch (i % 8) {
      case 0:
        v = corpus_value();
        break;
      case 1:
        for (int k = 0; k < 5; ++k) v += RandomWord(rng) + " ";
        break;
      case 2:
        v = row[col].is_null() ? corpus_value() : row[col].AsString();
        for (char& c : v) {
          if (rng() % 2) c = static_cast<char>(std::toupper(c));
          else c = static_cast<char>(std::tolower(c));
        }
        break;
      case 3: {
        const std::string novel = RandomWord(rng);
        v = corpus_value();
        const std::vector<std::string> words = words_of(v);
        const std::string known = words.empty() ? "the" : words[0];
        v += " " + novel + " " + known + " " + novel;
        break;
      }
      case 4:
        v = std::string(1 + rng() % 2, static_cast<char>('a' + rng() % 26));
        break;
      case 5:
        break;  // empty
      case 6:
        row[col] = Value::Null();
        break;
      case 7: {
        for (const std::string& w : words_of(corpus_value())) {
          v += w + " ";
          if (rng() % 2) v += RandomWord(rng) + " ";
        }
        const std::string novel = RandomWord(rng);
        v += novel + " " + novel;
        break;
      }
    }
    if (i % 8 != 6) row[col] = Value(v);
    EXPECT_TRUE(out.AppendRow(std::move(row)).ok());
  }
  return out;
}

// Every lookup of NovelTokenQueries(attr) equals the batch workflow run
// over the query table: matches, provenance, candidate and sure counts,
// and each ML match's score equals the batch probability of its pair. The
// lookups intern nothing. `wf` must be freshly built: its prep cache keys
// on column addresses, which an earlier call's freed query table may
// share.
void ExpectNovelTokenLookupsMatchBatch(const EmWorkflow& wf,
                                       const Table& left, const Table& corpus,
                                       const std::string& attr) {
  const Table queries = NovelTokenQueries(left, corpus, attr, 400);
  auto run = wf.Run(queries, corpus);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const std::vector<PerRecordOracle> oracle =
      SliceByLeft(*run, queries.num_rows());
  std::map<std::pair<uint32_t, uint32_t>, double> proba;
  if (!run->ml_input.empty()) {
    auto batch = VectorizePairsBatch(queries, corpus, run->ml_input,
                                     wf.features());
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    ASSERT_TRUE(wf.imputer().Transform(*batch).ok());
    const std::vector<double> p = wf.matcher()->PredictProbaBatch(*batch);
    for (size_t i = 0; i < p.size(); ++i) {
      proba[{run->ml_input[i].left, run->ml_input[i].right}] = p[i];
    }
  }
  auto svc = MatchService::Create(wf, corpus);
  ASSERT_TRUE(svc.ok()) << svc.status().ToString();
  const size_t interned = (*svc)->Stats().interned_tokens;
  size_t ml_matches = 0;
  for (size_t q = 0; q < queries.num_rows(); ++q) {
    ExpectLookupMatchesOracle(**svc, queries, q, oracle[q]);
    auto got = (*svc)->Lookup(queries, q);
    ASSERT_TRUE(got.ok());
    for (const RankedMatch& m : got->matches) {
      if (m.provenance != "ml") continue;
      auto it = proba.find({static_cast<uint32_t>(q), m.record});
      ASSERT_NE(it, proba.end()) << "left row " << q;
      EXPECT_EQ(m.score, it->second) << "left row " << q;
      ++ml_matches;
    }
  }
  EXPECT_GT(ml_matches, 0u);
  EXPECT_EQ((*svc)->Stats().interned_tokens, interned);
}

// Unseen query tokens get lookup-local ids that no corpus column holds,
// one per distinct string within a row, and their Monge-Elkan signatures
// are computed in scratch: answers stay bit-identical to batch, which
// interns them. The case study's servable workflow (35 features,
// Monge-Elkan among them) perturbs titles and employee names; the scale
// workflow perturbs titles.
TEST(MatchServiceQueryTokenTest, UnseenTokensMatchBatch) {
  const CaseStudyFixture& cs = CaseStudy();
  ASSERT_EQ(cs.wf.features().features.size(), 35u);
  for (const char* attr : {"AwardTitle", "EmployeeName"}) {
    SCOPED_TRACE(attr);
    ExpectNovelTokenLookupsMatchBatch(
        BuildServableCaseStudyWorkflow(cs.trained), cs.tables.umetrics,
        cs.tables.usda, attr);
  }
  ScaleCorpusOptions options;
  options.scale_factor = 1.0;
  auto sc = GenerateScaleCorpus(options);
  ASSERT_TRUE(sc.ok());
  SCOPED_TRACE("scale");
  ExpectNovelTokenLookupsMatchBatch(BuildScaleWorkflow(), sc->left, sc->right,
                                    "AwardTitle");
}

// Memory stays bounded: 100,000 lookups of random-word titles (every
// 100th also carries a corpus title, so it reaches the matcher) leave the
// service's interner as it was, while one Insert of a novel token grows
// it.
TEST(MatchServiceMemoryTest, NovelTokenLookupsInternNothing) {
  ScaleCorpusOptions options;
  options.scale_factor = 0.2;
  auto small = GenerateScaleCorpus(options);
  ASSERT_TRUE(small.ok());
  auto svc = MatchService::Create(BuildScaleWorkflow(), small->right);
  ASSERT_TRUE(svc.ok()) << svc.status().ToString();
  const MatchServiceStats before = (*svc)->Stats();

  std::mt19937_64 rng(4);
  Table queries(Schema({{"AwardTitle", DataType::kString}}));
  for (size_t i = 0; i < 100000; ++i) {
    std::string title;
    if (i % 100 == 0) {
      title = small->right.at(i / 100 % small->right.num_rows(), "AwardTitle")
                  .AsString() + " ";
    }
    for (int k = 0; k < 4; ++k) title += RandomWord(rng) + " ";
    ASSERT_TRUE(queries.AppendRow({Value(title)}).ok());
  }
  size_t matched = 0;
  for (size_t q = 0; q < queries.num_rows(); ++q) {
    auto got = (*svc)->Lookup(queries, q);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    matched += !got->matches.empty();
  }
  const MatchServiceStats after = (*svc)->Stats();
  EXPECT_GT(matched, 0u);
  EXPECT_EQ(after.lookups - before.lookups, 100000u);
  EXPECT_EQ(after.interned_tokens, before.interned_tokens);

  auto id = (*svc)->Insert({Value("new"), Value("Zqxwv Florpish Study"),
                            Value("Someone"), Value(int64_t{2001})});
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_GT((*svc)->Stats().interned_tokens, after.interned_tokens);
}

// Four threads look up every row of `left` twice while a fifth inserts
// `extra` rows into a service over `base` and removes every other one
// again, compaction threshold 64. Every 25 lookups, a lookup thread waits
// (outside the service's lock) for the next mutation, so lookups and
// mutations interleave however the shared mutex schedules its waiters.
// Every lookup's matches among the base records equal the batch oracle's.
// Returns how many sure matches the lookups found on inserted records.
size_t ExpectLookupsDuringMutationsMatchBatch(
    const EmWorkflow& wf, const Table& left, const Table& base,
    const std::vector<PerRecordOracle>& oracle,
    const std::vector<std::vector<Value>>& extra) {
  MatchServiceOptions opts;
  opts.compact_threshold = 64;
  auto created = MatchService::Create(wf, base, opts);
  EXPECT_TRUE(created.ok()) << created.status().ToString();
  if (!created.ok()) return 0;
  MatchService& svc = **created;
  const uint32_t base_records = static_cast<uint32_t>(base.num_rows());

  std::atomic<bool> done{false};
  std::atomic<bool> mutator_exited{false};
  std::atomic<uint64_t> mutations{0};
  std::atomic<size_t> sure_on_inserted{0};
  std::thread mutator([&] {
    std::vector<uint32_t> inserted;
    for (size_t next = 0; !done.load(); ++next) {
      auto id = svc.Insert(extra[next % extra.size()]);
      EXPECT_TRUE(id.ok()) << id.status().ToString();
      if (!id.ok()) break;
      inserted.push_back(*id);
      if (inserted.size() % 2 == 0) {
        EXPECT_TRUE(svc.Remove(inserted[inserted.size() / 2]).ok());
      }
      mutations.fetch_add(1);
    }
    mutator_exited.store(true);
  });
  constexpr size_t kLookupThreads = 4;
  std::vector<std::thread> lookups;
  for (size_t t = 0; t < kLookupThreads; ++t) {
    lookups.emplace_back([&, t] {
      uint64_t seen = mutations.load();
      size_t made = 0;
      for (int pass = 0; pass < 2; ++pass) {
        for (size_t q = t; q < left.num_rows(); q += kLookupThreads) {
          if (++made % 25 == 0) {
            while (mutations.load() == seen && !mutator_exited.load()) {
              std::this_thread::yield();
            }
            seen = mutations.load();
          }
          auto got = svc.Lookup(left, q);
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          std::map<uint32_t, std::string> among_base;
          for (const RankedMatch& m : got->matches) {
            if (m.record < base_records) {
              among_base[m.record] = m.provenance;
            } else if (m.provenance == "sure_rule") {
              sure_on_inserted.fetch_add(1);
            }
          }
          EXPECT_EQ(among_base, oracle[q].matches) << "left row " << q;
        }
      }
    });
  }
  for (std::thread& t : lookups) t.join();
  done.store(true);
  mutator.join();
  const MatchServiceStats stats = svc.Stats();
  EXPECT_EQ(stats.lookups, 2 * left.num_rows());
  EXPECT_GT(stats.inserts, 0u);
  EXPECT_GT(stats.removes, 0u);
  EXPECT_GT(stats.compactions, 0u);
  return sure_on_inserted.load();
}

// Two legs. An SF-1 title workflow, whose inserted records come from
// another corpus and so bring tokens the service had not seen. And the
// paper's Figure-10 workflow with the V2 rules over the case study, whose
// inserted records copy the USDA rows that batch sure-matches, so their
// AwardNumber or ProjectNumber equals a key the lookups probe and the
// rule indexes change while lookups read them.
TEST(MatchServiceConcurrencyTest, LookupsDuringInsertsAndRemovesMatchBatch) {
  ScaleCorpusOptions options;
  options.scale_factor = 1.0;
  auto base = GenerateScaleCorpus(options);
  ASSERT_TRUE(base.ok());
  options.seed = 7;
  options.scale_factor = 0.5;
  auto extra = GenerateScaleCorpus(options);
  ASSERT_TRUE(extra.ok());
  const EmWorkflow wf = BuildScaleWorkflow();
  auto run = wf.Run(base->left, base->right);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  std::vector<std::vector<Value>> extra_rows;
  for (size_t r = 0; r < extra->right.num_rows(); ++r) {
    extra_rows.push_back(extra->right.Row(r));
  }
  {
    SCOPED_TRACE("scale");
    ExpectLookupsDuringMutationsMatchBatch(
        wf, base->left, base->right,
        SliceByLeft(*run, base->left.num_rows()), extra_rows);
  }

  const CaseStudyFixture& cs = CaseStudy();
  const WorkflowFixture& fig10 = Figure10();
  std::set<uint32_t> sure_rows;
  for (const PerRecordOracle& o : fig10.oracle) {
    for (const auto& [row, provenance] : o.matches) {
      if (provenance == "sure_rule") sure_rows.insert(row);
    }
  }
  ASSERT_FALSE(sure_rows.empty());
  std::vector<std::vector<Value>> sure_copies;
  for (uint32_t row : sure_rows) sure_copies.push_back(cs.tables.usda.Row(row));
  SCOPED_TRACE("case study");
  EXPECT_GT(ExpectLookupsDuringMutationsMatchBatch(
                fig10.wf, cs.tables.umetrics, cs.tables.usda, fig10.oracle,
                sure_copies),
            0u);
}

}  // namespace
}  // namespace emx
