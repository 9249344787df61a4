// End-to-end benchmark of emx on one thread. One invocation runs one named
// workload, generated from a seed, in rounds of two phases:
//
//   batch  train the matcher, then EmWorkflow::Run over every branch of
//          the workload on an empty prep cache (what `emx run` pays);
//   serve  MatchService::Create, an untimed warm-up sweep, then a segment
//          of a closed loop (one client, no think time) of
//          Lookup/Insert/Remove.
//
// Each layer is timed from outside, around calls into its public
// functions; input generation and oracle labelling are never timed, and
// every correctness check runs after the timed section it checks. See
// e2ebench/README.md for the workloads and metrics.
//
// Usage:
//   e2e_bench --workload NAME --seed N --seconds S --trace 0|1
//             --recorded FILE [--trace-out FILE]
//   e2e_bench --record --workload NAME --seed N
//
// The last line of stdout is one JSON object with the keys correct,
// attempted, failed and metrics. The exit code is 0 only when every check
// passed. --record prints the workload's recorded-output line instead.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "e2ebench/harness.h"
#include "src/block/attr_equivalence_blocker.h"
#include "src/block/overlap_blocker.h"
#include "src/core/executor.h"
#include "src/datagen/case_study.h"
#include "src/datagen/scale_corpus.h"
#include "src/eval/corleone_estimator.h"
#include "src/feature/feature.h"
#include "src/ml/decision_tree.h"
#include "src/serve/match_service.h"
#include "src/text/batch_kernel.h"
#include "src/workflow/em_workflow.h"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

namespace {

using namespace emx;
using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Datagen draws one of a fixed set of corpus variants from the seed, so
// recorded.tsv holds the expected batch outputs for every seed; the op mix
// uses the whole seed.
constexpr uint64_t kDatagenVariants = 8;
constexpr uint64_t kDatagenBaseSeed = 2019;  // variant 0 = the paper's data

// A timed lookup count in [1000, 9999] makes p99 the highest percentile
// with at least ten samples beyond it.
constexpr size_t kMinLookups = 1000;
constexpr size_t kMaxLookups = 9999;

// A span that does nothing without a tracer.
class ScopedSpan {
 public:
  ScopedSpan(e2e::Tracer* tracer, std::string name, uint64_t op,
             uint64_t items_in)
      : tracer_(tracer) {
    if (tracer_ != nullptr) id_ = tracer_->Begin(std::move(name), op, items_in);
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_, out_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_out(uint64_t items_out) { out_ = items_out; }

 private:
  e2e::Tracer* tracer_;
  int id_ = -1;
  uint64_t out_ = 0;
};

// ------------------------------------------------------------- workloads

// One left-hand table run against the corpus (the right-hand table).
struct Branch {
  const Table* left = nullptr;
  CandidateSet gold;
  CandidateSet ambiguous;
};

// Everything a workload needs, produced untimed from the seed. Branch and
// corpus pointers point into this struct, so it is never moved.
struct Inputs {
  CaseStudyData case_study;
  ProjectedTables tables;
  ScaleCorpus scale;
  const Table* corpus = nullptr;
  std::vector<Branch> branches;
  LabeledSet labels;  // oracle labels the matcher trains on
};

struct Trained {
  std::shared_ptr<MlMatcher> matcher;
  FeatureSet features;
  MeanImputer imputer;
  std::string selected;  // matcher family chosen by cross-validation
};

// TrainBestMatcher's steps, from public pieces, one span per step: drop
// Unsure labels and sure-rule pairs, vectorize the labels, fit the imputer,
// 5-fold CV over the six families, fit the winner on every label.
Result<Trained> TrainStaged(const Table& left, const Table& right,
                            const LabeledSet& labels,
                            const std::vector<MatchRule>& sure_rules,
                            const FeatureGenOptions& feature_options,
                            uint64_t seed, e2e::Tracer* tracer) {
  ScopedSpan train(tracer, "ml.train", 0, labels.size());
  Trained out;
  {
    ScopedSpan span(tracer, "ml.features", 0, left.num_columns());
    EMX_ASSIGN_OR_RETURN(out.features,
                         GenerateFeatures(left, right, feature_options));
    span.set_out(out.features.features.size());
  }
  std::vector<RecordPair> kept;
  std::vector<int> y;
  const LabeledSet usable = labels.WithoutUnsure();
  for (const LabeledPair& item : usable.items()) {
    bool sure = false;
    for (const MatchRule& rule : sure_rules) {
      if (rule.fires(left, item.pair.left, right, item.pair.right)) {
        sure = true;
        break;
      }
    }
    if (sure) continue;
    kept.push_back(item.pair);
    y.push_back(item.label == Label::kYes ? 1 : 0);
  }
  if (kept.size() < 20) {
    return Status::FailedPrecondition("too few usable labeled pairs");
  }
  FeatureMatrix matrix;
  {
    ScopedSpan span(tracer, "ml.train_vectorize", 0, kept.size());
    CandidateSet sorted_pairs(kept);
    EMX_ASSIGN_OR_RETURN(
        FeatureMatrix sorted,
        VectorizePairs(left, right, sorted_pairs, out.features));
    matrix.feature_names = sorted.feature_names;
    for (const RecordPair& p : kept) {
      const auto& v = sorted_pairs.pairs();
      matrix.rows.push_back(
          sorted.rows[std::lower_bound(v.begin(), v.end(), p) - v.begin()]);
    }
    span.set_out(matrix.rows.size());
  }
  {
    ScopedSpan span(tracer, "ml.impute_fit", 0, matrix.rows.size());
    out.imputer.Fit(matrix);
    EMX_RETURN_IF_ERROR(out.imputer.Transform(matrix));
  }
  Dataset data;
  data.x = std::move(matrix.rows);
  data.y = std::move(y);
  data.feature_names = matrix.feature_names;
  {
    ScopedSpan span(tracer, "ml.cv", 0, data.size());
    EMX_ASSIGN_OR_RETURN(
        std::vector<CvResult> cv,
        SelectMatcher(StandardMatcherFactories(seed), data, 5, seed));
    out.selected = cv.front().matcher_name;
  }
  {
    ScopedSpan span(tracer, "ml.fit", 0, data.size());
    for (const MatcherFactory& factory : StandardMatcherFactories(seed)) {
      std::unique_ptr<MlMatcher> m = factory();
      if (m->name() == out.selected) {
        out.matcher = std::move(m);
        break;
      }
    }
    EMX_RETURN_IF_ERROR(out.matcher->Fit(data));
  }
  return out;
}

// --- fig10_case_study

Status GenerateFig10(uint64_t datagen_seed, const ExecutorContext&,
                     Inputs* in) {
  UniverseOptions options;
  options.seed = datagen_seed;
  EMX_ASSIGN_OR_RETURN(in->case_study, GenerateCaseStudy(options));
  EMX_ASSIGN_OR_RETURN(in->tables, PreprocessCaseStudy(in->case_study));
  const CaseStudyData& d = in->case_study;
  in->corpus = &in->tables.usda;
  in->branches = {{&in->tables.umetrics, d.gold, d.ambiguous},
                  {&in->tables.extra, d.gold_extra, d.ambiguous_extra}};
  EMX_ASSIGN_OR_RETURN(BlockingOutputs blocks,
                       RunStandardBlocking(in->tables.umetrics,
                                           in->tables.usda));
  in->labels = CollectCorrectedLabels(MakeOracle(d.gold, d.ambiguous),
                                      blocks.c, 3, 100, 100);
  return Status::OK();
}

Result<Trained> TrainFig10(const Inputs& in, e2e::Tracer* tracer) {
  const Table& u = in.tables.umetrics;
  const Table& s = in.tables.usda;
  if (tracer != nullptr) {
    // CaseStudyFeatures(case_fix=true)'s options.
    FeatureGenOptions options;
    options.exclude = {"RecordId"};
    options.lowercase_variants = {"AwardTitle", "EmployeeName"};
    return TrainStaged(u, s, in.labels, PositiveRulesV1(), options, 7,
                       tracer);
  }
  EMX_ASSIGN_OR_RETURN(TrainedMatcher t,
                       TrainBestMatcher(u, s, in.labels, PositiveRulesV1(),
                                        /*case_fix=*/true));
  return Trained{t.matcher, t.features, t.imputer,
                 t.cv_results.front().matcher_name};
}

// The paper's Figure-10 workflow: V2 positive rules, the AE blocker plus
// the two title blockers, the trained matcher, the §12 negative rules.
EmWorkflow Fig10BatchWorkflow(const Trained& t) {
  TrainedMatcher tm;
  tm.matcher = t.matcher;
  tm.features = t.features;
  tm.imputer = t.imputer;
  return BuildCaseStudyWorkflow(PositiveRulesV2(), tm,
                                /*with_negative_rules=*/true);
}

// The servable variant: MatchService takes no AE blocker; the V2 positive
// rules, which it evaluates directly, cover the AE blocker's pairs.
EmWorkflow Fig10ServeWorkflow(const Trained& t) {
  EmWorkflow wf;
  for (const MatchRule& r : PositiveRulesV2()) wf.AddPositiveRule(r);
  wf.AddBlocker(MakeTitleOverlapBlocker(3));
  wf.AddBlocker(MakeTitleOverlapCoefficientBlocker(0.7));
  wf.SetMatcher(t.matcher, t.features, t.imputer);
  for (const MatchRule& r : NegativeRules()) wf.AddNegativeRule(r);
  return wf;
}

// --- scale corpora (autofeat_sf10, index_sf100)

// The servable scale workflow's blockers: overlap K=3 and overlap
// coefficient 0.7 on lowercased AwardTitle, sharing one delta index in
// serve.
void AddScaleBlockers(EmWorkflow& wf) {
  OverlapBlockerOptions opts;
  opts.left_attr = "AwardTitle";
  opts.right_attr = "AwardTitle";
  opts.lowercase = true;
  wf.AddBlocker(std::make_shared<OverlapBlocker>(opts, 3));
  wf.AddBlocker(std::make_shared<OverlapCoefficientBlocker>(opts, 0.7));
}

Status GenerateScale(double sf, uint64_t datagen_seed,
                     const ExecutorContext& ctx, Inputs* in) {
  ScaleCorpusOptions options;
  options.seed = datagen_seed;
  options.scale_factor = sf;
  EMX_ASSIGN_OR_RETURN(in->scale, GenerateScaleCorpus(options, ctx));
  in->corpus = &in->scale.right;
  in->branches = {{&in->scale.left, in->scale.gold, {}}};
  return Status::OK();
}

Status GenerateSf10(uint64_t datagen_seed, const ExecutorContext& ctx,
                    Inputs* in) {
  EMX_RETURN_IF_ERROR(GenerateScale(10, datagen_seed, ctx, in));
  // 300 oracle-labelled pairs sampled from the title blockers' output.
  EmWorkflow blocking;
  blocking.SetExecutor(ctx);
  AddScaleBlockers(blocking);
  EMX_ASSIGN_OR_RETURN(
      CandidateSet blocked,
      blocking.RunBlocking(in->scale.left, in->scale.right, {}));
  OracleLabeler oracle(in->scale.gold, {});
  in->labels = CollectCorrectedLabels(oracle, blocked, 3, 100, datagen_seed);
  return Status::OK();
}

// The features `emx run` generates for the scale tables: AwardTitle's
// long-string measures, their lowercase twins, and StartYear numerics.
Result<Trained> TrainSf10(const Inputs& in, e2e::Tracer* tracer) {
  FeatureGenOptions options;
  options.exclude = {"RecordId"};
  options.lowercase_variants = {"AwardTitle"};
  return TrainStaged(in.scale.left, in.scale.right, in.labels, {}, options, 7,
                     tracer);
}

Status GenerateSf100(uint64_t datagen_seed, const ExecutorContext& ctx,
                     Inputs* in) {
  return GenerateScale(100, datagen_seed, ctx, in);
}

// The fixed lowercase title-Jaccard decision tree of the servable scale
// workflow (the tests' and bench_serve's).
Result<Trained> TrainFixedTree(const Inputs&, e2e::Tracer* tracer) {
  ScopedSpan span(tracer, "ml.fit", 0, 4);
  Trained out;
  out.features.features.push_back(
      MakeJaccardFeature("AwardTitle", "AwardTitle", /*qgram=*/0,
                         /*lowercase=*/true));
  Dataset d;
  d.feature_names = out.features.names();
  d.x = {{1.0}, {0.8}, {0.3}, {0.0}};
  d.y = {1, 1, 0, 0};
  FeatureMatrix m;
  m.feature_names = d.feature_names;
  m.rows = d.x;
  out.imputer.Fit(m);
  auto tree = std::make_shared<DecisionTreeMatcher>();
  EMX_RETURN_IF_ERROR(tree->Fit(d));
  out.matcher = std::move(tree);
  out.selected = "fixed_tree";
  return out;
}

EmWorkflow ScaleWorkflow(const Trained& t) {
  EmWorkflow wf;
  AddScaleBlockers(wf);
  wf.SetMatcher(t.matcher, t.features, t.imputer);
  return wf;
}

// A run is `rounds` rounds of: train, batch Run, Create, an untimed
// warm-up sweep, a segment of the serve mix on that round's service, then
// drain and check. Interleaving the phases spreads every metric's samples
// over the whole run, so a burst of contention on the shared host moves a
// median or a tail less than it would move one long phase. The case study
// warms up on every query: its lookups lean on the thread-local
// Monge-Elkan memo, which the round's batch work flushes.
struct WorkloadDef {
  const char* name;
  unsigned lookup_pct;
  unsigned insert_pct;  // removes take the rest
  int rounds;
  size_t warmup_lookups;       // per round
  size_t final_sweep_lookups;  // queries swept after the drains, in total
  Status (*generate)(uint64_t, const ExecutorContext&, Inputs*);
  Result<Trained> (*train)(const Inputs&, e2e::Tracer*);
  EmWorkflow (*batch_workflow)(const Trained&);
  EmWorkflow (*serve_workflow)(const Trained&);
};

const WorkloadDef kWorkloads[] = {
    {"fig10_case_study", 80, 10, 7, 1832, 1832, GenerateFig10, TrainFig10,
     Fig10BatchWorkflow, Fig10ServeWorkflow},
    {"autofeat_sf10", 80, 10, 7, 64, 2000, GenerateSf10, TrainSf10,
     ScaleWorkflow, ScaleWorkflow},
    {"index_sf100", 50, 25, 4, 64, 2000, GenerateSf100, TrainFixedTree,
     ScaleWorkflow, ScaleWorkflow},
};

// ------------------------------------------------------------ metrics

struct Metric {
  const char* name;
  const char* unit;
};

// Per-layer metrics, in BENCHMARK.json order; a traced run reports exactly
// these.
const Metric kPerLayer[] = {
    {"trace.overhead_ratio", "ratio"},
    {"workflow.traced_s", "s"},
    {"workflow.share.batch", "share"},
    {"workflow.share.rules.positive", "share"},
    {"workflow.share.block", "share"},
    {"workflow.share.block.ae", "share"},
    {"workflow.share.block.overlap", "share"},
    {"workflow.share.block.overlap_coeff", "share"},
    {"workflow.share.prep", "share"},
    {"workflow.share.feature.vectorize", "share"},
    {"workflow.share.feature.impute", "share"},
    {"workflow.share.ml.score", "share"},
    {"workflow.share.rules.negative", "share"},
    {"rules.positive_s", "s"},
    {"rules.pairs_checked", "count"},
    {"rules.sure_yield", "ratio"},
    {"rules.scan_us", "us"},
    {"rules.negative_s", "s"},
    {"rules.flipped", "count"},
    {"block.s", "s"},
    {"block.join_s", "s"},
    {"block.candidates", "count"},
    {"block.candidates.ae", "count"},
    {"block.candidates.overlap", "count"},
    {"block.candidates.overlap_coeff", "count"},
    {"block.yield", "ratio"},
    {"prep.s", "s"},
    {"prep.tokens_interned", "count"},
    {"prep.columns", "count"},
    {"feature.vectorize_s", "s"},
    {"feature.cells_per_s", "1/s"},
    {"feature.impute_s", "s"},
    {"ml.score_s", "s"},
    {"ml.predicted", "count"},
    {"ml.train_vectorize_s", "s"},
    {"ml.cv_s", "s"},
    {"ml.fit_s", "s"},
    {"serve.create_s", "s"},
    {"serve.candidates_per_lookup", "count"},
    {"serve.matches_per_lookup", "count"},
    {"serve.sure_per_lookup", "count"},
    {"serve.query_preps_per_lookup", "count"},
    {"serve.insert_us_p99", "us"},
    {"serve.remove_us_p50", "us"},
    {"serve.compactions", "count"},
    {"serve.compact_ms", "ms"},
    {"serve.corpus_preps_per_insert", "count"},
};

// Span names of the traced batch stages; workflow.share.<name> is the
// stage's self time over the traced total.
const char* const kBatchStages[] = {
    "batch",           "rules.positive",      "block",
    "block.ae",        "block.overlap",       "block.overlap_coeff",
    "prep",            "feature.vectorize",   "feature.impute",
    "ml.score",        "rules.negative",
};

std::string BlockerLabel(const Blocker& b) {
  if (dynamic_cast<const AttrEquivalenceBlocker*>(&b)) return "ae";
  if (dynamic_cast<const OverlapCoefficientBlocker*>(&b)) {
    return "overlap_coeff";
  }
  if (dynamic_cast<const OverlapBlocker*>(&b)) return "overlap";
  return "other";
}

// Batch answer for one query: matched corpus records with provenance, and
// the candidate and sure counts MatchService reports.
struct Slice {
  std::map<uint32_t, std::string> matches;
  size_t candidates = 0;
  size_t sure = 0;
};

std::vector<Slice> SliceByLeft(const WorkflowRunResult& run,
                               size_t left_rows) {
  std::vector<Slice> out(left_rows);
  for (const RecordPair& p : run.final_matches) {
    out[p.left].matches[p.right] = run.provenance.ProvenanceOf(p);
  }
  for (const RecordPair& p : run.candidates) ++out[p.left].candidates;
  for (const RecordPair& p : run.sure_matches) ++out[p.left].sure;
  return out;
}

// FNV-1a over (branch, left, right) of every final match.
uint64_t HashMatches(const std::vector<WorkflowRunResult>& runs) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ULL;
    }
  };
  for (size_t b = 0; b < runs.size(); ++b) {
    for (const RecordPair& p : runs[b].final_matches) {
      mix(static_cast<uint32_t>(b));
      mix(p.left);
      mix(p.right);
    }
  }
  return h;
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  bool record = false;
  std::string recorded;
  std::string trace_out;
};

// ---------------------------------------------------------------- runner

struct Recorded {
  size_t matches = 0;
  uint64_t hash = 0;
  double gold_f1 = 0;
};

// recorded.tsv: workload, datagen variant, final match count, match hash,
// gold F1 — the batch outputs every run must reproduce.
std::optional<Recorded> ReadRecorded(const std::string& path,
                                     const std::string& workload,
                                     uint64_t variant) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return std::nullopt;
  std::optional<Recorded> found;
  char name[128];
  unsigned long long v = 0, matches = 0, hash = 0;
  double f1 = 0;
  while (std::fscanf(f, "%127s %llu %llu %llx %lf", name, &v, &matches, &hash,
                     &f1) == 5) {
    if (workload == name && v == variant) {
      found = Recorded{matches, hash, f1};
    }
  }
  std::fclose(f);
  return found;
}

class Bench {
 public:
  Bench(const WorkloadDef& def, const Args& args)
      : def_(def), args_(args), exec_(1), ctx_{&exec_} {
    if (args_.trace) tracer_.emplace();
  }

  int Main();

 private:
  e2e::Tracer* tracer() { return tracer_ ? &*tracer_ : nullptr; }
  uint64_t variant() const { return args_.seed % kDatagenVariants; }
  int rounds() const { return args_.record ? 1 : def_.rounds; }

  // Counts one checked operation; a false `ok` is a failure.
  void Check(bool ok, const std::string& what);
  // Counts a failure of an operation already counted.
  void Fail(const std::string& what);

  bool Generate();
  bool TrainRep();
  bool BatchRep();
  Result<WorkflowRunResult> RunStaged(size_t branch);
  bool TracedBatch();
  void AddBatchLayers(size_t first_span);
  void CheckBatchOutputs();
  bool PrepareServe();
  bool ServeRep(int round);
  void ScanRules(const EmWorkflow& wf);
  bool SliceMatches(const LookupResult& got, const Slice& want,
                    bool full) const;
  void Sweep(const MatchService& svc, const std::vector<uint32_t>& query_ids,
             const char* what);
  void Emit();

  const WorkloadDef& def_;
  const Args& args_;
  Executor exec_;  // private, one thread
  ExecutorContext ctx_;
  Inputs in_;
  std::optional<e2e::Tracer> tracer_;

  Trained trained_;
  std::optional<EmWorkflow> batch_wf_;
  std::vector<WorkflowRunResult> batch_runs_;  // first round, per branch
  std::vector<double> train_s_;
  std::vector<double> batch_s_;
  std::vector<double> traced_s_;
  double gold_f1_ = 0;

  std::vector<std::pair<uint32_t, uint32_t>> queries_;  // (branch, row)
  std::vector<std::vector<Slice>> oracle_;             // [branch][row]
  std::vector<uint32_t> final_sweep_;                  // query ids
  uint32_t base_rows_ = 0;
  std::vector<double> create_s_;

  // The serve mix, pooled over the rounds' segments.
  std::vector<double> lookup_us_, insert_us_, remove_us_;
  double loop_s_ = 0;
  size_t ops_ = 0;

  struct Reading {
    double value;
    const char* unit;
  };
  std::map<std::string, Reading> metrics_;
  std::map<std::string, std::vector<double>> layer_;  // one value per round
  size_t attempted_ = 0;
  size_t failed_ = 0;
};

void Bench::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) Fail(what);
}

void Bench::Fail(const std::string& what) {
  if (++failed_ <= 20) std::fprintf(stderr, "FAIL: %s\n", what.c_str());
}

bool Bench::Generate() {
  Status s = def_.generate(kDatagenBaseSeed + variant(), ctx_, &in_);
  Check(s.ok(), "datagen: " + s.ToString());
  return s.ok();
}

// One timed training; every round must select the same matcher.
bool Bench::TrainRep() {
  const std::string previous = trained_.selected;
  trained_ = Trained{};
  auto t0 = Clock::now();
  Result<Trained> t = def_.train(in_, tracer());
  const double s = Since(t0);
  if (!t.ok()) {
    Check(false, "train: " + t.status().ToString());
    return false;
  }
  trained_ = std::move(t).value();
  train_s_.push_back(s);
  Check(previous.empty() || trained_.selected == previous,
        "train: selected " + trained_.selected + ", not " + previous);
  return true;
}

// Every branch through EmWorkflow::Run on a fresh workflow, so on an empty
// prep cache.
bool Bench::BatchRep() {
  batch_wf_.emplace(def_.batch_workflow(trained_));
  batch_wf_->SetExecutor(ctx_);
  std::vector<WorkflowRunResult> runs;
  auto t0 = Clock::now();
  for (const Branch& b : in_.branches) {
    Result<WorkflowRunResult> r = batch_wf_->Run(*b.left, *in_.corpus);
    if (!r.ok()) {
      Check(false, "batch: " + r.status().ToString());
      return false;
    }
    runs.push_back(std::move(r).value());
  }
  batch_s_.push_back(Since(t0));
  for (size_t b = 0; b < runs.size(); ++b) {
    Check(batch_runs_.empty() ||
              runs[b].final_matches == batch_runs_[b].final_matches,
          "batch: a later round changed the matches");
  }
  if (batch_runs_.empty()) batch_runs_ = std::move(runs);
  const bool ok = !tracer_ || TracedBatch();
  batch_wf_.reset();  // frees the batch prep cache before serving
  return ok;
}

// The stage entry points Run is composed of, called one by one under
// spans. Produces the same WorkflowRunResult as Run.
Result<WorkflowRunResult> Bench::RunStaged(size_t branch) {
  const EmWorkflow& wf = *batch_wf_;
  const Table& left = *in_.branches[branch].left;
  const Table& right = *in_.corpus;
  e2e::Tracer* tr = tracer();
  const uint64_t cross = uint64_t{left.num_rows()} * right.num_rows();
  WorkflowRunResult out;
  ScopedSpan root(tr, "batch", branch, cross);
  {
    ScopedSpan span(tr, "rules.positive", branch,
                    wf.positive_rules().empty() ? 0 : cross);
    EMX_ASSIGN_OR_RETURN(out.sure_matches, wf.RunPositiveRules(left, right));
    span.set_out(out.sure_matches.size());
  }
  {
    ScopedSpan span(tr, "block", branch, left.num_rows() + right.num_rows());
    std::vector<CandidateSet> blocked;
    for (const auto& blocker : wf.blockers()) {
      ScopedSpan b(tr, "block." + BlockerLabel(*blocker), branch,
                   left.num_rows() + right.num_rows());
      EMX_ASSIGN_OR_RETURN(CandidateSet c,
                           blocker->Block(left, right, wf.executor_context()));
      b.set_out(c.size());
      blocked.push_back(std::move(c));
    }
    out.candidates = out.sure_matches;
    for (const CandidateSet& c : blocked) {
      out.candidates = CandidateSet::Union(out.candidates, c);
    }
    span.set_out(out.candidates.size());
  }
  out.ml_input = CandidateSet::Minus(out.candidates, out.sure_matches);
  if (wf.has_matcher() && !out.ml_input.empty()) {
    {
      ScopedSpan span(tr, "prep", branch, 0);
      EMX_RETURN_IF_ERROR(VectorizePairsBatch(left, right, CandidateSet(),
                                              wf.features(),
                                              wf.executor_context(),
                                              wf.prep_cache().get())
                              .status());
      span.set_out(wf.prep_cache()->entries());
    }
    const uint64_t cells = out.ml_input.size() * wf.features().features.size();
    std::optional<PairBatch> batch;
    {
      ScopedSpan span(tr, "feature.vectorize", branch, out.ml_input.size());
      EMX_ASSIGN_OR_RETURN(
          batch, VectorizePairsBatch(left, right, out.ml_input, wf.features(),
                                     wf.executor_context(),
                                     wf.prep_cache().get()));
      span.set_out(cells);
    }
    {
      ScopedSpan span(tr, "feature.impute", branch, cells);
      EMX_RETURN_IF_ERROR(wf.imputer().Transform(*batch));
      span.set_out(cells);
    }
    {
      ScopedSpan span(tr, "ml.score", branch, out.ml_input.size());
      std::vector<int> pred = wf.matcher()->PredictBatch(*batch);
      std::vector<RecordPair> positives;
      for (size_t i = 0; i < pred.size(); ++i) {
        if (pred[i] == 1) positives.push_back(out.ml_input[i]);
      }
      out.ml_predicted = CandidateSet(std::move(positives));
      span.set_out(out.ml_predicted.size());
    }
  }
  {
    ScopedSpan span(tr, "rules.negative", branch, out.ml_predicted.size());
    EMX_ASSIGN_OR_RETURN(out.after_rules,
                         wf.RunNegativeRules(left, right, out.ml_predicted,
                                             &out.flipped));
    span.set_out(out.flipped.size());
  }
  out.final_matches = CandidateSet::Union(out.sure_matches, out.after_rules);
  out.provenance.Add(out.sure_matches, "sure_rule");
  out.provenance.Add(out.after_rules, "ml");
  root.set_out(out.final_matches.size());
  return out;
}

// One traced round: the staged batch on a fresh workflow, like the untimed
// Run before it, which must equal Run's output; then blocking again on the
// warm cache.
bool Bench::TracedBatch() {
  const size_t first = tracer_->spans().size();
  batch_wf_.emplace(def_.batch_workflow(trained_));
  batch_wf_->SetExecutor(ctx_);
  std::vector<WorkflowRunResult> runs;
  auto t0 = Clock::now();
  for (size_t b = 0; b < in_.branches.size(); ++b) {
    Result<WorkflowRunResult> r = RunStaged(b);
    if (!r.ok()) {
      Check(false, "traced batch: " + r.status().ToString());
      return false;
    }
    runs.push_back(std::move(r).value());
  }
  traced_s_.push_back(Since(t0));
  const PrepCache& cache = *batch_wf_->prep_cache();
  layer_["prep.tokens_interned"].push_back(
      static_cast<double>(cache.interned_tokens()));
  layer_["prep.columns"].push_back(static_cast<double>(cache.entries()));
  double join_s = 0;
  for (size_t b = 0; b < runs.size(); ++b) {
    Check(runs[b].final_matches == batch_runs_[b].final_matches &&
              runs[b].candidates == batch_runs_[b].candidates &&
              runs[b].flipped == batch_runs_[b].flipped,
          "traced batch output differs from Run");
    auto j0 = Clock::now();
    Result<CandidateSet> warm = batch_wf_->RunBlocking(
        *in_.branches[b].left, *in_.corpus, runs[b].sure_matches);
    join_s += Since(j0);
    Check(warm.ok() && *warm == runs[b].candidates,
          "warm re-blocking differs");
  }
  layer_["block.join_s"].push_back(join_s);
  AddBatchLayers(first);
  return true;
}

// Per-layer values of one traced batch rep, from its spans.
void Bench::AddBatchLayers(size_t first) {
  const std::vector<e2e::Span>& spans = tracer_->spans();
  const std::vector<double> self = e2e::SelfTimes(spans);
  std::map<std::string, double> dur, self_s, in, out;
  for (size_t i = first; i < spans.size(); ++i) {
    const e2e::Span& s = spans[i];
    dur[s.name] += s.end_s - s.start_s;
    self_s[s.name] += self[i];
    in[s.name] += static_cast<double>(s.items_in);
    out[s.name] += static_cast<double>(s.items_out);
  }
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  auto put = [this](const char* name, double v) { layer_[name].push_back(v); };
  const double total = dur["batch"];
  put("workflow.traced_s", total);
  for (const char* stage : kBatchStages) {
    layer_[std::string("workflow.share.") + stage].push_back(
        ratio(self_s[stage], total));
  }
  put("rules.positive_s", dur["rules.positive"]);
  put("rules.pairs_checked", in["rules.positive"]);
  put("rules.sure_yield", ratio(out["rules.positive"], in["rules.positive"]));
  put("rules.negative_s", dur["rules.negative"]);
  put("rules.flipped", out["rules.negative"]);
  put("block.s", dur["block"]);
  put("block.candidates", out["block"]);
  put("block.candidates.ae", out["block.ae"]);
  put("block.candidates.overlap", out["block.overlap"]);
  put("block.candidates.overlap_coeff", out["block.overlap_coeff"]);
  put("block.yield", ratio(out["batch"], out["block"]));
  put("prep.s", dur["prep"]);
  put("feature.vectorize_s", dur["feature.vectorize"]);
  put("feature.cells_per_s",
      ratio(out["feature.vectorize"], dur["feature.vectorize"]));
  put("feature.impute_s", dur["feature.impute"]);
  put("ml.score_s", dur["ml.score"]);
  put("ml.predicted", out["ml.score"]);
}

void Bench::CheckBatchOutputs() {
  CandidateSet predicted, gold, ambiguous;
  uint32_t offset = 0;
  size_t matches = 0;
  for (size_t b = 0; b < in_.branches.size(); ++b) {
    const Branch& br = in_.branches[b];
    predicted = CandidateSet::Union(
        predicted, batch_runs_[b].final_matches.WithLeftOffset(offset));
    gold = CandidateSet::Union(gold, br.gold.WithLeftOffset(offset));
    ambiguous =
        CandidateSet::Union(ambiguous, br.ambiguous.WithLeftOffset(offset));
    offset += static_cast<uint32_t>(br.left->num_rows());
    matches += batch_runs_[b].final_matches.size();
  }
  gold_f1_ = ComputeGoldMetrics(predicted, gold, ambiguous).F1();
  const uint64_t hash = HashMatches(batch_runs_);
  if (args_.record) {
    std::printf("%s\t%llu\t%zu\t%016llx\t%.17g\n", def_.name,
                static_cast<unsigned long long>(variant()), matches,
                static_cast<unsigned long long>(hash), gold_f1_);
    return;
  }
  std::optional<Recorded> want =
      ReadRecorded(args_.recorded, def_.name, variant());
  Check(want.has_value(), "no recorded outputs in '" + args_.recorded + "'");
  if (want) {
    Check(want->matches == matches && want->hash == hash &&
              want->gold_f1 == gold_f1_,
          "batch outputs differ from recorded: " + std::to_string(matches) +
              " matches, gold F1 " + std::to_string(gold_f1_) + " (want " +
              std::to_string(want->matches) + ", " +
              std::to_string(want->gold_f1) + ")");
  }
}

// `full` compares everything; otherwise only matches among corpus records
// the mix did not insert, whose answers inserts cannot change.
bool Bench::SliceMatches(const LookupResult& got, const Slice& want,
                         bool full) const {
  std::map<uint32_t, std::string> m;
  for (const RankedMatch& x : got.matches) {
    if (full || x.record < base_rows_) m[x.record] = x.provenance;
  }
  if (m != want.matches) return false;
  return !full ||
         (got.num_candidates == want.candidates && got.num_sure == want.sure);
}

// Lookups of the given queries, each checked in full against the batch
// oracle.
void Bench::Sweep(const MatchService& svc,
                  const std::vector<uint32_t>& query_ids, const char* what) {
  for (uint32_t q : query_ids) {
    auto [b, row] = queries_[q];
    Result<LookupResult> r = svc.Lookup(*in_.branches[b].left, row);
    Check(r.ok() && SliceMatches(*r, oracle_[b][row], /*full=*/true),
          std::string(what) + ": query " + std::to_string(q) +
              " differs from the batch oracle");
  }
}

// rules.scan_us: the positive rules over one query row against the whole
// corpus, as a lookup's sure-match scan does.
void Bench::ScanRules(const EmWorkflow& wf) {
  std::vector<double> us;
  if (!wf.positive_rules().empty()) {
    const size_t n = std::min<size_t>(200, queries_.size());
    for (size_t i = 0; i < n; ++i) {
      auto [b, row] = queries_[i * queries_.size() / n];
      const Table& left = *in_.branches[b].left;
      Table one(left.schema());
      Check(one.AppendRow(left.Row(row)).ok(), "scan: one-row table");
      auto t0 = Clock::now();
      Result<CandidateSet> sure =
          ApplyRulesCartesian(wf.positive_rules(), one, *in_.corpus);
      us.push_back(Since(t0) * 1e6);
      Check(sure.ok() && sure->size() == oracle_[b][row].sure,
            "scan: sure matches differ from the batch oracle");
    }
  }
  layer_["rules.scan_us"].push_back(e2e::Median(us));
}

// The oracle is the batch run of the served workflow: the batch phase's
// own run when both are the same workflow, else one untimed Run.
bool Bench::PrepareServe() {
  const bool same = def_.serve_workflow == def_.batch_workflow;
  EmWorkflow wf = def_.serve_workflow(trained_);
  wf.SetExecutor(ctx_);
  oracle_.resize(in_.branches.size());
  for (size_t b = 0; b < in_.branches.size(); ++b) {
    const Table& left = *in_.branches[b].left;
    std::optional<WorkflowRunResult> own;
    if (!same) {
      Result<WorkflowRunResult> r = wf.Run(left, *in_.corpus);
      if (!r.ok()) {
        Check(false, "serve oracle: " + r.status().ToString());
        return false;
      }
      own = std::move(r).value();
    }
    oracle_[b] = SliceByLeft(same ? batch_runs_[b] : *own, left.num_rows());
    for (uint32_t row = 0; row < left.num_rows(); ++row) {
      queries_.emplace_back(static_cast<uint32_t>(b), row);
    }
  }
  const size_t n = std::min(def_.final_sweep_lookups, queries_.size());
  for (size_t i = 0; i < n; ++i) {
    final_sweep_.push_back(static_cast<uint32_t>(i * queries_.size() / n));
  }
  base_rows_ = static_cast<uint32_t>(in_.corpus->num_rows());
  lookup_us_.reserve(kMaxLookups);
  return true;
}

// One serve round: Create, an untimed warm-up sweep, the round's segment of
// the closed loop, then drain, compact and check. The loop's lookup results
// are kept and checked after it, against the oracle restricted to corpus
// records the mix did not insert.
bool Bench::ServeRep(int round) {
  e2e::Tracer* tr = tracer();
  EmWorkflow wf = def_.serve_workflow(trained_);
  wf.SetExecutor(ctx_);
  std::unique_ptr<MatchService> svc;
  {
    ScopedSpan span(tr, "serve.create", round, base_rows_);
    auto t0 = Clock::now();
    Result<std::unique_ptr<MatchService>> made =
        MatchService::Create(wf, *in_.corpus, {}, ctx_);
    create_s_.push_back(Since(t0));
    if (!made.ok()) {
      Check(false, "create: " + made.status().ToString());
      return false;
    }
    svc = std::move(made).value();
  }
  std::fprintf(stderr, "round %d: train %.3fs, batch %.3fs, create %.3fs\n",
               round, train_s_.back(), batch_s_.back(), create_s_.back());
  if (tr != nullptr) ScanRules(wf);

  const size_t n_rounds = static_cast<size_t>(rounds());
  const size_t n_warm = std::min(def_.warmup_lookups, queries_.size());
  std::vector<uint32_t> warmup;
  for (size_t i = 0; i < n_warm; ++i) {
    warmup.push_back(static_cast<uint32_t>(
        (i * queries_.size() / n_warm + static_cast<size_t>(round)) %
        queries_.size()));
  }
  Sweep(*svc, warmup, "warm-up");

  // This round's share of the 1,000-9,999 timed lookups and of the time.
  const size_t quota = kMaxLookups / n_rounds;
  const size_t min_lookups = (kMinLookups + n_rounds - 1) / n_rounds;
  const double seconds = args_.seconds / static_cast<double>(n_rounds);
  e2e::MixSpec spec;
  spec.lookup_pct = def_.lookup_pct;
  spec.insert_pct = def_.insert_pct;
  spec.num_queries = static_cast<uint32_t>(queries_.size());
  spec.corpus_rows = base_rows_;
  uint64_t mix_state = (args_.seed << 8) | static_cast<uint64_t>(round);
  const uint64_t mix_seed = e2e::SplitMix64(mix_state);
  const std::vector<e2e::Op> ops = e2e::MakeOpMix(
      spec, quota * 100 / def_.lookup_pct * 5 / 4 + 1000, mix_seed);
  std::vector<std::pair<uint32_t, LookupResult>> looked;
  std::vector<uint32_t> inserted;  // record id by insert ordinal
  std::vector<uint8_t> removed;    // by insert ordinal
  std::vector<std::string> errors;
  looked.reserve(quota);
  size_t lookups = 0, done = 0;
  const MatchServiceStats before = svc->Stats();
  auto loop0 = Clock::now();
  for (const e2e::Op& op : ops) {
    if (lookups >= quota) break;
    if (lookups >= min_lookups && Since(loop0) >= seconds) break;
    switch (op.kind) {
      case e2e::OpKind::kLookup: {
        auto [b, row] = queries_[op.arg];
        ScopedSpan span(tr, "serve.lookup", ops_ + done, 1);
        auto t0 = Clock::now();
        Result<LookupResult> r = svc->Lookup(*in_.branches[b].left, row);
        lookup_us_.push_back(Since(t0) * 1e6);
        ++lookups;
        if (r.ok()) {
          span.set_out(r->matches.size());
          looked.emplace_back(op.arg, std::move(r).value());
        } else {
          errors.push_back("lookup: " + r.status().ToString());
        }
        break;
      }
      case e2e::OpKind::kInsert: {
        std::vector<Value> row = in_.corpus->Row(op.arg);
        ScopedSpan span(tr, "serve.insert", ops_ + done, 1);
        auto t0 = Clock::now();
        Result<uint32_t> id = svc->Insert(std::move(row));
        insert_us_.push_back(Since(t0) * 1e6);
        inserted.push_back(id.ok() ? *id : UINT32_MAX);
        removed.push_back(0);
        if (!id.ok()) errors.push_back("insert: " + id.status().ToString());
        break;
      }
      case e2e::OpKind::kRemove: {
        ScopedSpan span(tr, "serve.remove", ops_ + done, 1);
        auto t0 = Clock::now();
        Status st = svc->Remove(inserted[op.arg]);
        remove_us_.push_back(Since(t0) * 1e6);
        removed[op.arg] = 1;
        if (!st.ok()) errors.push_back("remove: " + st.ToString());
        break;
      }
    }
    ++done;
  }
  loop_s_ += Since(loop0);
  ops_ += done;
  const MatchServiceStats after = svc->Stats();

  attempted_ += done;
  for (const std::string& e : errors) Fail(e);
  double candidates = 0, matches = 0, sure = 0;
  for (const auto& [q, r] : looked) {
    auto [b, row] = queries_[q];
    if (!SliceMatches(r, oracle_[b][row], /*full=*/false)) {
      Fail("mix: query " + std::to_string(q) +
           " differs from the batch oracle");
    }
    candidates += static_cast<double>(r.num_candidates);
    matches += static_cast<double>(r.matches.size());
    sure += static_cast<double>(r.num_sure);
  }

  // Drain: remove every record the mix inserted and compact; the service
  // must then hold its base corpus and equal the oracle in full.
  for (size_t k = 0; k < inserted.size(); ++k) {
    if (!removed[k]) Check(svc->Remove(inserted[k]).ok(), "drain remove");
  }
  double compact_ms;
  {
    ScopedSpan span(tr, "serve.compact", round, 0);
    auto t0 = Clock::now();
    svc->Compact();
    compact_ms = Since(t0) * 1e3;
  }
  const MatchServiceStats drained = svc->Stats();
  Check(drained.live_records == base_rows_ && drained.delta_postings == 0 &&
            drained.dead_postings == 0,
        "drain: service not back to its base corpus");
  std::vector<uint32_t> sweep;
  for (size_t i = static_cast<size_t>(round); i < final_sweep_.size();
       i += n_rounds) {
    sweep.push_back(final_sweep_[i]);
  }
  Sweep(*svc, sweep, "sweep after drain");

  auto per = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  auto put = [this](const char* name, double v) { layer_[name].push_back(v); };
  const double n_lookups = static_cast<double>(lookups);
  put("serve.candidates_per_lookup", per(candidates, n_lookups));
  put("serve.matches_per_lookup", per(matches, n_lookups));
  put("serve.sure_per_lookup", per(sure, n_lookups));
  put("serve.query_preps_per_lookup",
      per(static_cast<double>(after.query_preps - before.query_preps),
          n_lookups));
  put("serve.compactions",
      static_cast<double>(after.compactions - before.compactions));
  put("serve.compact_ms", compact_ms);
  put("serve.corpus_preps_per_insert",
      per(static_cast<double>(after.corpus_preps - before.corpus_preps),
          static_cast<double>(inserted.size())));
  std::fprintf(stderr,
               "round %d: %zu ops in %.2fs (%zu lookups, %zu inserts), "
               "%llu compactions\n",
               round, done, Since(loop0), lookups, inserted.size(),
               static_cast<unsigned long long>(after.compactions -
                                               before.compactions));
  return true;
}

const char* const kSimdNames[] = {"scalar", "sse2", "avx2"};

void Bench::Emit() {
  auto pct = [this](const std::vector<double>& v, unsigned q,
                    const char* what) {
    std::optional<double> p = e2e::ReportablePercentile(v, q);
    Check(p.has_value(), std::string("too few samples for ") + what);
    return p.value_or(0);
  };
  if (!args_.trace) {
    std::vector<double> setup;
    for (size_t i = 0; i < train_s_.size() && i < create_s_.size(); ++i) {
      setup.push_back(train_s_[i] + create_s_[i]);
    }
    metrics_["workflow_s"] = {e2e::Median(batch_s_), "s"};
    metrics_["setup_s"] = {e2e::Median(setup), "s"};
    metrics_["lookup_us_p50"] = {pct(lookup_us_, 500, "lookup p50"), "us"};
    metrics_["lookup_us_p99"] = {pct(lookup_us_, 990, "lookup p99"), "us"};
    metrics_["insert_us_p50"] = {pct(insert_us_, 500, "insert p50"), "us"};
    metrics_["ops_per_s"] = {loop_s_ > 0 ? static_cast<double>(ops_) / loop_s_
                                         : 0.0,
                             "1/s"};
    metrics_["gold_f1"] = {gold_f1_, "f1"};
    metrics_["peak_rss_mb"] = {e2e::PeakRssMb(), "MB"};
    // failed_share's complement, which is never 0.
    metrics_["ok_share"] = {
        static_cast<double>(attempted_ - failed_) /
            static_cast<double>(std::max<size_t>(attempted_, 1)),
        "fraction"};
  } else {
    // Training and create spans: one per round.
    std::map<std::string, std::vector<double>> dur;
    for (const e2e::Span& s : tracer_->spans()) {
      dur[s.name].push_back(s.end_s - s.start_s);
    }
    for (const char* name : {"ml.train_vectorize", "ml.cv", "ml.fit"}) {
      layer_[std::string(name) + "_s"].push_back(e2e::Median(dur[name]));
    }
    layer_["serve.create_s"].push_back(e2e::Median(create_s_));
    layer_["trace.overhead_ratio"].push_back(
        e2e::Median(traced_s_) / e2e::Median(batch_s_));
    // 0 when fewer than 1,000 inserts ran (no reportable p99).
    layer_["serve.insert_us_p99"].push_back(
        e2e::ReportablePercentile(insert_us_, 990).value_or(0));
    layer_["serve.remove_us_p50"].push_back(
        e2e::ReportablePercentile(remove_us_, 500).value_or(0));
    // Per round above; over the whole mix here.
    double compactions = 0;
    for (double c : layer_["serve.compactions"]) compactions += c;
    layer_["serve.compactions"] = {compactions};
    for (const Metric& m : kPerLayer) {
      auto it = layer_.find(m.name);
      metrics_[m.name] = {it == layer_.end() ? 0.0 : e2e::Median(it->second),
                          m.unit};
    }
    if (!args_.trace_out.empty()) {
      Check(tracer_->WriteJsonLines(args_.trace_out),
            "cannot write " + args_.trace_out);
    }
  }

  std::printf(
      "{\"env\": {\"workload\": \"%s\", \"seed\": %llu, \"datagen_seed\": "
      "%llu, \"host_cpus\": %u, \"threads\": %zu, \"build_type\": \"%s\", "
      "\"simd\": \"%s\", \"matcher\": \"%s\", \"rounds\": %d, "
      "\"lookups\": %zu, \"trace\": %d}}\n",
      def_.name, static_cast<unsigned long long>(args_.seed),
      static_cast<unsigned long long>(kDatagenBaseSeed + variant()),
      std::thread::hardware_concurrency(), Executor::Default().num_threads(),
      E2E_BUILD_TYPE, kSimdNames[static_cast<int>(ActiveSimdLevel())],
      trained_.selected.c_str(), rounds(), lookup_us_.size(),
      args_.trace ? 1 : 0);
  std::string json = "{\"correct\": ";
  json += failed_ == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    json += (first ? "\"" : ", \"") + name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int Bench::Main() {
  Check(Executor::Default().num_threads() == 1,
        "EMX_THREADS must be 1 before the first emx call");
  bool ok = Generate();
  for (int r = 0; ok && r < rounds(); ++r) {
    ok = TrainRep() && BatchRep();
    if (ok && r == 0) {
      CheckBatchOutputs();
      if (args_.record) return failed_ == 0 ? 0 : 1;
      ok = PrepareServe();
    }
    ok = ok && ServeRep(r);
  }
  Emit();
  return ok && failed_ == 0 ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--record") {
      args->record = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      args->workload = v;
    } else if (a == "--seed") {
      args->seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (a == "--seconds") {
      args->seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0)) return false;
    } else if (a == "--trace") {
      if (v != "0" && v != "1") return false;
      args->trace = v == "1";
    } else if (a == "--recorded") {
      args->recorded = v;
    } else if (a == "--trace-out") {
      args->trace_out = v;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && (args->record || !args->recorded.empty());
}

}  // namespace

int main(int argc, char** argv) {
  // Before any emx call: the shared executor reads this once.
  setenv("EMX_THREADS", "1", 1);
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "--recorded FILE [--trace-out FILE] | --record --workload "
                 "NAME --seed N\n",
                 argv[0]);
    return 2;
  }
  for (const WorkloadDef& def : kWorkloads) {
    if (args.workload == def.name) return Bench(def, args).Main();
  }
  std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
  return 2;
}
