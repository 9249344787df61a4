// P3 — matcher train/predict throughput on the case study's real feature
// matrix: how expensive is each of the six §9 families to cross-validate,
// and how fast is bulk prediction over the candidate set.
//
// Modes:
//   bench_matchers                   google-benchmark micro-benches (as
//                                    before)
//   bench_matchers --forest          flattened-forest before/after on the
//                                    case-study fixture: single-thread
//                                    pointer walk vs the flat columnar
//                                    walk; writes BENCH_forest.json
//   bench_matchers --smoke BASELINE  small deterministic fixture; writes
//                                    no file, compares the measured
//                                    flat-vs-treewalk speedup against
//                                    "speedup_flat_vs_treewalk" in
//                                    BASELINE and exits 1 when flat
//                                    inference has regressed more than 2x
//                                    vs it

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <thread>

#include "bench/smoke_gate.h"
#include "src/core/executor.h"
#include "src/core/random.h"
#include "src/datagen/case_study.h"
#include "src/datagen/preprocess.h"
#include "src/feature/pair_batch.h"
#include "src/ml/decision_tree.h"
#include "src/ml/linear_regression.h"
#include "src/ml/linear_svm.h"
#include "src/ml/logistic_regression.h"
#include "src/ml/naive_bayes.h"
#include "src/ml/random_forest.h"

namespace {

using namespace emx;

struct Fixture {
  Dataset train;
  PairBatch predict_batch;
};

const Fixture& GetFixture() {
  static const Fixture& f = *[] {
    auto data = GenerateCaseStudy();
    auto tables = PreprocessCaseStudy(*data);
    const Table& u = tables->umetrics;
    const Table& s = tables->usda;
    auto blocks = RunStandardBlocking(u, s);
    OracleLabeler oracle = MakeOracle(data->gold, data->ambiguous);
    LabeledSet labels = CollectCorrectedLabels(oracle, blocks->c, 3, 100, 100);
    auto trained =
        TrainBestMatcher(u, s, labels, PositiveRulesV1(), /*case_fix=*/true);
    auto features = CaseStudyFeatures(u, s, /*case_fix=*/true);
    auto batch = VectorizePairsBatch(u, s, blocks->c, *features);
    MeanImputer imputer;
    imputer.Fit(*batch);
    (void)imputer.Transform(*batch);
    return new Fixture{trained->train_data, std::move(*batch)};
  }();
  return f;
}

template <typename M>
void FitBench(benchmark::State& state, M make) {
  const Fixture& f = GetFixture();
  for (auto _ : state) {
    auto m = make();
    (void)m->Fit(f.train);
    benchmark::DoNotOptimize(m.get());
  }
}

void BM_FitDecisionTree(benchmark::State& state) {
  FitBench(state, [] { return std::make_unique<DecisionTreeMatcher>(); });
}
void BM_FitRandomForest(benchmark::State& state) {
  FitBench(state, [] { return std::make_unique<RandomForestMatcher>(); });
}
void BM_FitLogisticRegression(benchmark::State& state) {
  FitBench(state,
           [] { return std::make_unique<LogisticRegressionMatcher>(); });
}
void BM_FitNaiveBayes(benchmark::State& state) {
  FitBench(state, [] { return std::make_unique<NaiveBayesMatcher>(); });
}
void BM_FitLinearSvm(benchmark::State& state) {
  FitBench(state, [] { return std::make_unique<LinearSvmMatcher>(); });
}
void BM_FitLinearRegression(benchmark::State& state) {
  FitBench(state, [] { return std::make_unique<LinearRegressionMatcher>(); });
}
BENCHMARK(BM_FitDecisionTree)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FitRandomForest)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FitLogisticRegression)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FitNaiveBayes)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FitLinearSvm)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FitLinearRegression)->Unit(benchmark::kMillisecond);

// Bulk prediction over the full candidate set (~3.5K pairs, 35 features).
void BM_PredictCandidateSet(benchmark::State& state) {
  const Fixture& f = GetFixture();
  RandomForestMatcher forest;
  (void)forest.Fit(f.train);
  for (auto _ : state) {
    benchmark::DoNotOptimize(forest.PredictBatch(f.predict_batch));
  }
}
BENCHMARK(BM_PredictCandidateSet)->Unit(benchmark::kMillisecond);

// Thread-count sweep: random-forest training and bulk prediction pinned to
// 1/2/4/8-thread executors. The fitted ensemble and the predictions are
// bit-identical across the sweep; only wall-clock should move.
void BM_FitRandomForestThreads(benchmark::State& state) {
  const Fixture& f = GetFixture();
  Executor pool(static_cast<size_t>(state.range(0)));
  ExecutorContext ctx{&pool};
  for (auto _ : state) {
    RandomForestMatcher forest;
    forest.set_executor(ctx);
    (void)forest.Fit(f.train);
    benchmark::DoNotOptimize(forest.num_trees());
  }
}
BENCHMARK(BM_FitRandomForestThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_PredictRandomForestThreads(benchmark::State& state) {
  const Fixture& f = GetFixture();
  Executor pool(static_cast<size_t>(state.range(0)));
  ExecutorContext ctx{&pool};
  RandomForestMatcher forest;
  forest.set_executor(ctx);
  (void)forest.Fit(f.train);
  for (auto _ : state) {
    benchmark::DoNotOptimize(forest.PredictBatch(f.predict_batch));
  }
}
BENCHMARK(BM_PredictRandomForestThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

// --- flattened-forest before/after (--forest / --smoke) ---------------------

double TimeMs(const std::function<void()>& fn, int reps) {
  double best = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    auto t0 = std::chrono::steady_clock::now();
    fn();
    auto t1 = std::chrono::steady_clock::now();
    best = std::min(
        best, std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return best;
}

struct ForestMeasurement {
  size_t rows = 0;
  size_t trees = 0;
  size_t nodes = 0;
  double treewalk_ms = 0;  // pointer-walking baseline, 1 thread
  double flat_ms = 0;      // flattened nodes over the batch columns, 1 thread
  double speedup() const {
    return flat_ms > 0 ? treewalk_ms / flat_ms : 0;
  }
};

// Single-thread inference over `batch`: the pointer walk (ParallelMap per
// tree + per-tree probability vectors, the pre-flattening engine, retained
// as PredictProbaTreeWalk) vs the flattened forest's columnar walk. Both
// produce bit-identical probabilities — only wall-clock differs.
ForestMeasurement MeasureForest(const RandomForestMatcher& forest,
                                const PairBatch& batch, int reps) {
  ForestMeasurement m;
  m.rows = batch.num_pairs();
  m.trees = forest.num_trees();
  m.nodes = forest.flat_forest().num_nodes();
  m.treewalk_ms = TimeMs(
      [&] { benchmark::DoNotOptimize(forest.PredictProbaTreeWalk(batch)); },
      reps);
  m.flat_ms = TimeMs(
      [&] { benchmark::DoNotOptimize(forest.PredictProbaBatch(batch)); }, reps);
  return m;
}

int WriteForestJson(const ForestMeasurement& m) {
  std::FILE* f = std::fopen("BENCH_forest.json", "w");
  if (!f) return 1;
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"host_cpus\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"fixture\": \"case_study\",\n");
  std::fprintf(f, "  \"rows\": %zu,\n", m.rows);
  std::fprintf(f, "  \"trees\": %zu,\n", m.trees);
  std::fprintf(f, "  \"flat_nodes\": %zu,\n", m.nodes);
  std::fprintf(f, "  \"speedup_flat_vs_treewalk\": %.2f,\n", m.speedup());
  std::fprintf(f, "  \"results\": [\n");
  std::fprintf(f,
               "    {\"stage\": \"predict_treewalk\", \"threads\": 1, "
               "\"wall_ms\": %.3f},\n",
               m.treewalk_ms);
  std::fprintf(f,
               "    {\"stage\": \"predict_flat\", \"threads\": 1, "
               "\"wall_ms\": %.3f}\n",
               m.flat_ms);
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote BENCH_forest.json\n");
  return 0;
}

void PrintForest(const ForestMeasurement& m) {
  std::printf("rows=%zu trees=%zu flat_nodes=%zu\n", m.rows, m.trees, m.nodes);
  std::printf("%-22s %10s\n", "stage", "wall_ms");
  std::printf("%-22s %10.3f\n", "predict_treewalk", m.treewalk_ms);
  std::printf("%-22s %10.3f\n", "predict_flat", m.flat_ms);
  std::printf("speedup_flat_vs_treewalk=%.2fx (1 thread)\n", m.speedup());
}

int RunForest() {
  const Fixture& f = GetFixture();
  Executor pool1(1);
  ExecutorContext ctx1{&pool1};
  RandomForestMatcher forest;
  forest.set_executor(ctx1);
  if (!forest.Fit(f.train).ok()) return 1;
  ForestMeasurement m = MeasureForest(forest, f.predict_batch, /*reps=*/20);
  PrintForest(m);
  return WriteForestJson(m);
}

// Small deterministic fixture for CI: Gaussian blobs wide enough that the
// forest grows real depth, and a probe set large enough to time — no
// case-study generation, so the smoke run stays fast.
Dataset SmokeTrainSet(size_t n_pos, size_t n_neg, uint64_t seed) {
  RandomEngine rng(seed);
  Dataset d;
  d.feature_names = {"f0", "f1", "f2", "f3", "f4", "f5", "f6", "f7"};
  for (size_t i = 0; i < n_pos + n_neg; ++i) {
    bool pos = i < n_pos;
    double center = pos ? 1.0 : -1.0;
    std::vector<double> row;
    for (size_t k = 0; k < 8; ++k) {
      row.push_back(center + 1.2 * rng.NextGaussian());
    }
    d.x.push_back(std::move(row));
    d.y.push_back(pos ? 1 : 0);
  }
  return d;
}

int RunSmoke(const char* baseline_path) {
  double baseline = 0;
  if (!bench::ReadBaseline(baseline_path, "speedup_flat_vs_treewalk",
                           &baseline)) {
    return 1;
  }

  Executor pool1(1);
  ExecutorContext ctx1{&pool1};
  RandomForestMatcher forest;
  forest.set_executor(ctx1);
  if (!forest.Fit(SmokeTrainSet(300, 300, 77)).ok()) return 1;
  Dataset probe = SmokeTrainSet(4000, 4000, 78);
  ForestMeasurement m =
      MeasureForest(forest, PairBatch::FromRows(probe.x), /*reps=*/10);
  PrintForest(m);

  double measured = m.speedup();
  std::printf("smoke: measured flat speedup %.2fx, baseline %.2fx\n", measured,
              baseline);
  return bench::SmokeGate(measured, baseline, "flat-vs-treewalk speedup",
                          "flat inference regressed >2x");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--forest") == 0) return RunForest();
  if (argc == 3 && std::strcmp(argv[1], "--smoke") == 0) {
    return RunSmoke(argv[2]);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
