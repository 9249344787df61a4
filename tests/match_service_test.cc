// MatchService oracle suite: a resident service's point lookups must be
// BIT-IDENTICAL to the batch pipeline restricted to one left record — same
// candidate counts, same matched records, same provenance — for every
// record of the case-study and scale corpora and under the paper's full
// Figure-10 workflow, at 1/2/8 threads and at the scalar SIMD fallback.
// Plus: incremental ingest equivalence, the zero-re-prep residency
// contract, and the PipelineRunner::Clear audit.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
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

// Keyed M1 plus a title rule without a key form: batch joins the first and
// scans for the second, serve scans for both; the sure matches are the
// union of both.
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

EmWorkflow BuildScaleWorkflow() {
  EmWorkflow wf;
  OverlapBlockerOptions opts;
  opts.left_attr = "AwardTitle";
  opts.right_attr = "AwardTitle";
  opts.lowercase = true;
  wf.AddBlocker(std::make_shared<OverlapBlocker>(opts, 3));
  wf.AddBlocker(std::make_shared<OverlapCoefficientBlocker>(opts, 0.7));
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
// the AE blocker's key index and the records the positive rules scan must
// follow every Insert and Remove exactly. The corpus is reordered so that every
// third USDA row arrives by Insert (datagen writes matched rows first).
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
// on the lookup path. 1000 repeated lookups leave the corpus_preps counter
// untouched and (on plain builds) settle to an exactly constant per-lookup
// allocation count on the calling thread.
TEST(MatchServiceResidencyTest, RepeatedLookupsDoZeroRePrepWork) {
  const CaseStudyFixture& fx = CaseStudy();
  auto svc = MatchService::Create(fx.wf, fx.tables.usda);
  ASSERT_TRUE(svc.ok());
  const uint64_t preps_after_create = (*svc)->Stats().corpus_preps;
  EXPECT_GT(preps_after_create, 0u);

  auto one_lookup = [&] {
    auto r = (*svc)->Lookup(fx.tables.umetrics, 17);
    ASSERT_TRUE(r.ok());
  };
  for (int i = 0; i < 3; ++i) one_lookup();  // warm thread-local scratch

#ifdef EMX_COUNT_ALLOCATIONS
  auto count_allocs = [&] {
    t_alloc_count = 0;
    t_count_allocs = true;
    one_lookup();
    t_count_allocs = false;
    return t_alloc_count;
  };
  const size_t warm = count_allocs();
#endif

  for (int i = 0; i < 1000; ++i) one_lookup();

#ifdef EMX_COUNT_ALLOCATIONS
  EXPECT_EQ(count_allocs(), warm)
      << "lookup #1004 allocates more than lookup #4: per-lookup state is "
         "being rebuilt";
#endif
  MatchServiceStats stats = (*svc)->Stats();
  EXPECT_EQ(stats.corpus_preps, preps_after_create)
      << "lookups re-prepped corpus columns";
  // 3 warm + 1000 steady-state; the two counting lookups exist only on
  // unsanitized builds.
  EXPECT_GE(stats.lookups, 1003u);
  EXPECT_GT(stats.query_preps, 0u);
}

// PipelineRunner::Run calls PrepCache::Clear on ITS OWN workflow cache.
// Because the service owns a private PrepCache and direct segment
// shared_ptrs, an unrelated batch run in the same process must not change
// service answers or re-trigger corpus prep.
TEST(MatchServiceResidencyTest, SurvivesPipelineRunnerClearingCaches) {
  const CaseStudyFixture& fx = CaseStudy();
  auto svc = MatchService::Create(fx.wf, fx.tables.usda);
  ASSERT_TRUE(svc.ok());
  auto before = (*svc)->Lookup(fx.tables.umetrics, 42);
  ASSERT_TRUE(before.ok());
  const uint64_t preps_before = (*svc)->Stats().corpus_preps;

  // An independent batch pipeline runs to completion in-process (its
  // runner Clears its own workflow's cache per run).
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
}

}  // namespace
}  // namespace emx
