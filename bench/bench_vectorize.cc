// Vectorize before/after bench for the token-id kernel layer.
//
// Measures, on the case-study candidate set and feature set:
//   - prep_ms:        one cold PrepCache pass over every (column, prep spec)
//                     the feature set binds, whole columns (what a warm
//                     cache amortizes)
//   - vectorize_cold: VectorizePairsBatch with no cache — prep of only the
//                     rows the pairs touch, then scoring; what training,
//                     `emx match` and a fresh workflow pay per call
//   - vectorize_legacy:   VectorizePairsUnprepared — per-pair normalize +
//                         tokenize + hash-set scoring (the pre-kernel path)
//   - vectorize_prepared: VectorizePairs against a warm cache — merge-based
//                         id-span scoring, zero per-pair prep
// at 1 thread (the headline before/after), then sweeps the prepared path
// across 1/2/4/8 threads.
//
// Emits BENCH_vectorize.json in the working directory. host_cpus is
// recorded because the thread sweep is meaningless on a 1-core host
// (sweep_reliable=false flags it); the single-thread before/after ratio is
// hardware-independent and is what the CI perf-smoke gate checks.
//
// Usage:
//   bench_vectorize                      full bench, writes BENCH_vectorize.json
//   bench_vectorize --smoke BASELINE     small fixture; compares the measured
//                                        prepared-vs-legacy speedup against
//                                        "speedup_prepared_vs_legacy" in
//                                        BASELINE and exits 1 when vectorize
//                                        has regressed more than 2x vs it

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "src/core/executor.h"
#include "src/datagen/case_study.h"
#include "src/datagen/preprocess.h"
#include "src/feature/feature_gen.h"
#include "src/feature/vectorizer.h"
#include "src/prep/prepared_column.h"
#include "src/table/table.h"

namespace {

using namespace emx;

double TimeMs(const std::function<void()>& fn) {
  // Best of 3: the min is the least scheduler-noisy estimate on a busy host.
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    auto t0 = std::chrono::steady_clock::now();
    fn();
    auto t1 = std::chrono::steady_clock::now();
    best = std::min(
        best, std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return best;
}

// Builds every prepared column the feature set will bind, into `cache`.
void WarmCache(const Table& left, const Table& right, const FeatureSet& features,
               PrepCache* cache) {
  for (const Feature& f : features.features) {
    if (!f.has_prep()) continue;
    FeaturePrep prep = PrepForFeature(f.prep);
    if (!cache->Get(left, f.left_attr, prep.options, prep.tokenizer.get())
             .ok() ||
        !cache->Get(right, f.right_attr, prep.options, prep.tokenizer.get())
             .ok()) {
      std::abort();
    }
  }
}

struct Measurement {
  double prep_ms = 0;
  double cold_ms = 0;              // 1 thread, no cache
  double legacy_ms = 0;            // 1 thread, unprepared
  double prepared_ms = 0;          // 1 thread, warm cache
  double batch_ms = 0;             // 1 thread, warm cache, columnar SoA
  size_t pairs = 0;
  std::vector<std::pair<size_t, double>> sweep;  // (threads, prepared wall_ms)
  double speedup() const { return legacy_ms / prepared_ms; }
  double batch_speedup() const {
    return batch_ms > 0 ? legacy_ms / batch_ms : 0;
  }
};

Measurement Measure(const Table& left, const Table& right,
                    const CandidateSet& pairs, const FeatureSet& features,
                    bool sweep_threads) {
  Measurement m;
  m.pairs = pairs.size();

  Executor pool1(1);
  ExecutorContext ctx1{&pool1};

  m.prep_ms = TimeMs([&] {
    PrepCache cold;
    WarmCache(left, right, features, &cold);
  });

  m.cold_ms = TimeMs([&] {
    auto r = VectorizePairsBatch(left, right, pairs, features, ctx1);
    if (!r.ok() || r->empty()) std::abort();
  });

  m.legacy_ms = TimeMs([&] {
    auto r = VectorizePairsUnprepared(left, right, pairs, features, ctx1);
    if (!r.ok() || r->rows.empty()) std::abort();
  });

  PrepCache warm;
  WarmCache(left, right, features, &warm);
  m.prepared_ms = TimeMs([&] {
    auto r = VectorizePairs(left, right, pairs, features, ctx1, &warm);
    if (!r.ok() || r->rows.empty()) std::abort();
  });

  // The columnar hot path: SoA output, feature-major evaluation, batch
  // similarity kernels. Same doubles as the two row-major stages above.
  m.batch_ms = TimeMs([&] {
    auto r = VectorizePairsBatch(left, right, pairs, features, ctx1, &warm);
    if (!r.ok() || r->empty()) std::abort();
  });

  if (sweep_threads) {
    for (size_t t : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
      Executor pool(t);
      ExecutorContext ctx{&pool};
      double ms = TimeMs([&] {
        auto r = VectorizePairs(left, right, pairs, features, ctx, &warm);
        if (!r.ok()) std::abort();
      });
      m.sweep.push_back({t, ms});
    }
  }
  return m;
}

double PairsPerSec(size_t pairs, double wall_ms) {
  return wall_ms > 0 ? static_cast<double>(pairs) / (wall_ms / 1000.0) : 0.0;
}

// --- full mode -------------------------------------------------------------

int RunFull() {
  auto data = GenerateCaseStudy();
  if (!data.ok()) return 1;
  auto tables = PreprocessCaseStudy(*data);
  if (!tables.ok()) return 1;
  const Table& u = tables->umetrics;
  const Table& s = tables->usda;
  auto blocks = RunStandardBlocking(u, s);
  if (!blocks.ok()) return 1;
  auto features = CaseStudyFeatures(u, s, /*case_fix=*/true);
  if (!features.ok()) return 1;

  Measurement m = Measure(u, s, blocks->c, *features, /*sweep_threads=*/true);

  unsigned host_cpus = std::thread::hardware_concurrency();
  bool sweep_reliable = host_cpus > 1;
  std::printf("host_cpus=%u%s\n", host_cpus,
              sweep_reliable ? "" : "  (1 CPU: thread sweep UNRELIABLE)");
  std::printf("pairs=%zu  features=%zu\n", m.pairs,
              features->features.size());
  std::printf("%-22s %10s %14s\n", "stage", "wall_ms", "pairs_per_sec");
  std::printf("%-22s %10.2f %14s\n", "prep_cold", m.prep_ms, "-");
  std::printf("%-22s %10.2f %14.0f\n", "vectorize_cold", m.cold_ms,
              PairsPerSec(m.pairs, m.cold_ms));
  std::printf("%-22s %10.2f %14.0f\n", "vectorize_legacy", m.legacy_ms,
              PairsPerSec(m.pairs, m.legacy_ms));
  std::printf("%-22s %10.2f %14.0f\n", "vectorize_prepared", m.prepared_ms,
              PairsPerSec(m.pairs, m.prepared_ms));
  std::printf("%-22s %10.2f %14.0f\n", "vectorize_batch", m.batch_ms,
              PairsPerSec(m.pairs, m.batch_ms));
  std::printf("speedup_prepared_vs_legacy=%.2fx (1 thread)\n", m.speedup());
  std::printf("speedup_batch_vs_legacy=%.2fx (1 thread)\n", m.batch_speedup());
  for (auto& [t, ms] : m.sweep) {
    std::printf("prepared @%zu threads: %10.2f ms  %14.0f pairs/s\n", t, ms,
                PairsPerSec(m.pairs, ms));
  }

  std::FILE* f = std::fopen("BENCH_vectorize.json", "w");
  if (!f) return 1;
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"host_cpus\": %u,\n", host_cpus);
  std::fprintf(f, "  \"sweep_reliable\": %s,\n",
               sweep_reliable ? "true" : "false");
  std::fprintf(f, "  \"pairs\": %zu,\n", m.pairs);
  std::fprintf(f, "  \"features\": %zu,\n", features->features.size());
  std::fprintf(f, "  \"prep_ms\": %.2f,\n", m.prep_ms);
  std::fprintf(f, "  \"vectorize_cold_ms\": %.2f,\n", m.cold_ms);
  std::fprintf(f, "  \"speedup_prepared_vs_legacy\": %.2f,\n", m.speedup());
  std::fprintf(f, "  \"speedup_batch_vs_legacy\": %.2f,\n", m.batch_speedup());
  std::fprintf(f, "  \"results\": [\n");
  std::fprintf(f,
               "    {\"stage\": \"vectorize_legacy\", \"threads\": 1, "
               "\"wall_ms\": %.2f, \"pairs_per_sec\": %.0f},\n",
               m.legacy_ms, PairsPerSec(m.pairs, m.legacy_ms));
  std::fprintf(f,
               "    {\"stage\": \"vectorize_batch\", \"threads\": 1, "
               "\"wall_ms\": %.2f, \"pairs_per_sec\": %.0f},\n",
               m.batch_ms, PairsPerSec(m.pairs, m.batch_ms));
  for (size_t i = 0; i < m.sweep.size(); ++i) {
    auto& [t, ms] = m.sweep[i];
    std::fprintf(f,
                 "    {\"stage\": \"vectorize_prepared\", \"threads\": %zu, "
                 "\"wall_ms\": %.2f, \"pairs_per_sec\": %.0f}%s\n",
                 t, ms, PairsPerSec(m.pairs, ms),
                 i + 1 == m.sweep.size() ? "" : ",");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote BENCH_vectorize.json\n");
  return 0;
}

// --- smoke mode ------------------------------------------------------------

// Small deterministic fixture: token sentences with heavy vocabulary reuse,
// all-pairs candidates. Big enough to measure, small enough for CI.
Table SmokeTable(size_t rows, uint32_t seed) {
  const char* vocab[] = {"alpha", "beta",  "gamma",   "delta", "study",
                         "of",    "swamp", "dodder",  "award", "applied",
                         "corn",  "yield", "ecology", "title", "fund"};
  const size_t nv = sizeof(vocab) / sizeof(vocab[0]);
  Table t(Schema({{"RecordId", DataType::kInt64},
                  {"Title", DataType::kString}}));
  uint64_t state = seed;
  auto next = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<size_t>(state >> 33);
  };
  for (size_t i = 0; i < rows; ++i) {
    std::string title;
    size_t len = 4 + next() % 8;
    for (size_t w = 0; w < len; ++w) {
      if (w > 0) title += ' ';
      title += vocab[next() % nv];
    }
    (void)t.AppendRow({Value(static_cast<int64_t>(i)), Value(title)});
  }
  return t;
}

// Extracts "key": <number> from a JSON file with a text scan (no JSON dep).
bool ReadJsonNumber(const char* path, const char* key, double* out) {
  std::FILE* f = std::fopen(path, "r");
  if (!f) return false;
  std::string text;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  std::string needle = std::string("\"") + key + "\"";
  size_t pos = text.find(needle);
  if (pos == std::string::npos) return false;
  pos = text.find(':', pos + needle.size());
  if (pos == std::string::npos) return false;
  *out = std::strtod(text.c_str() + pos + 1, nullptr);
  return true;
}

int RunSmoke(const char* baseline_path) {
  double baseline = 0;
  if (!ReadJsonNumber(baseline_path, "speedup_prepared_vs_legacy", &baseline) ||
      baseline <= 0) {
    std::fprintf(stderr, "smoke: cannot read speedup_prepared_vs_legacy from %s\n",
                 baseline_path);
    return 1;
  }

  Table left = SmokeTable(300, 1);
  Table right = SmokeTable(300, 2);
  FeatureGenOptions opts;
  opts.exclude = {"RecordId"};
  auto features = GenerateFeatures(left, right, opts);
  if (!features.ok()) return 1;
  std::vector<RecordPair> all;
  for (uint32_t l = 0; l < 300; ++l) {
    for (uint32_t r = 0; r < 300; r += 5) all.push_back({l, r});
  }
  CandidateSet pairs(std::move(all));

  Measurement m =
      Measure(left, right, pairs, *features, /*sweep_threads=*/false);

  double measured = m.speedup();
  unsigned host_cpus = std::thread::hardware_concurrency();
  std::printf("host_cpus=%u\n", host_cpus);
  std::printf(
      "smoke: pairs=%zu features=%zu legacy=%.2fms prepared=%.2fms "
      "batch=%.2fms (batch %.2fx) cold=%.2fms\n",
      m.pairs, features->features.size(), m.legacy_ms, m.prepared_ms,
      m.batch_ms, m.batch_speedup(), m.cold_ms);
  std::printf("smoke: measured speedup %.2fx, baseline %.2fx\n", measured,
              baseline);
  // The gate is a RATIO of two same-host measurements, so it transfers
  // across hardware: prepared vectorize regressing >2x relative to legacy
  // (vs what the baseline recorded) fails the build.
  if (measured < baseline / 2.0) {
    std::fprintf(stderr,
                 "smoke: FAIL — prepared-vs-legacy speedup %.2fx fell below "
                 "half the baseline %.2fx (vectorize regressed >2x)\n",
                 measured, baseline);
    return 1;
  }
  std::printf("smoke: OK\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 3 && std::strcmp(argv[1], "--smoke") == 0) {
    return RunSmoke(argv[2]);
  }
  if (argc != 1) {
    std::fprintf(stderr, "usage: %s [--smoke BASELINE.json]\n", argv[0]);
    return 2;
  }
  return RunFull();
}
