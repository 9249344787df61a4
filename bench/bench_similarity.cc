// P1 — similarity-measure throughput. Feature generation evaluates these
// measures millions of times across the candidate set; these benches show
// the per-call cost hierarchy (exact < jaro < levenshtein < token-set <
// monge-elkan) that motivates using cheap measures inside blocking and the
// expensive ones only on surviving pairs.
//
// Modes:
//   bench_similarity                   google-benchmark micro-benches (as
//                                      before)
//   bench_similarity --seq             sequence-kernel before/after: times
//                                      every sequence measure through both
//                                      the scalar oracle and the bit-parallel
//                                      / scratch-backed kernel over the
//                                      case-study candidate-pair corpus and
//                                      writes BENCH_sequence.json
//   bench_similarity --smoke BASELINE  small deterministic fixture; compares
//                                      the measured kernel-vs-scalar
//                                      Levenshtein speedup against
//                                      "speedup_kernel_vs_scalar_lev" in
//                                      BASELINE and exits 1 when the kernel
//                                      has regressed more than 2x vs it

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/smoke_gate.h"
#include "src/core/random.h"
#include "src/datagen/case_study.h"
#include "src/datagen/preprocess.h"
#include "src/datagen/vocab.h"
#include "src/text/batch_kernel.h"
#include "src/text/phonetic.h"
#include "src/text/sequence_kernel.h"
#include "src/text/sequence_similarity.h"
#include "src/text/set_similarity.h"
#include "src/text/tokenizer.h"

namespace {

using namespace emx;

// A deterministic pool of realistic title pairs.
std::vector<std::pair<std::string, std::string>> MakePairs(size_t n) {
  RandomEngine rng(99);
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    auto a = MakeTitleTokens(rng);
    auto b = rng.NextBernoulli(0.5) ? a : MakeTitleTokens(rng);
    std::string sa, sb;
    for (const auto& t : a) {
      if (!sa.empty()) sa += ' ';
      sa += t;
    }
    for (const auto& t : b) {
      if (!sb.empty()) sb += ' ';
      sb += t;
    }
    out.push_back({sa, sb});
  }
  return out;
}

const auto& Pairs() {
  static const auto& pairs = *new auto(MakePairs(512));
  return pairs;
}

template <double (*Fn)(std::string_view, std::string_view)>
void BM_StringMeasure(benchmark::State& state) {
  const auto& pairs = Pairs();
  size_t i = 0;
  for (auto _ : state) {
    const auto& [a, b] = pairs[i++ & 511];
    benchmark::DoNotOptimize(Fn(a, b));
  }
}

BENCHMARK(BM_StringMeasure<ExactMatch>);
BENCHMARK(BM_StringMeasure<JaroSimilarity>);
BENCHMARK(BM_StringMeasure<LevenshteinSimilarity>);
BENCHMARK(BM_StringMeasure<NeedlemanWunschSimilarity>);
BENCHMARK(BM_StringMeasure<SmithWatermanSimilarity>);

// The retained scalar oracles, for an always-available before/after in the
// micro-bench output too.
BENCHMARK(BM_StringMeasure<oracle::LevenshteinSimilarity>);
BENCHMARK(BM_StringMeasure<oracle::JaroSimilarity>);

void BM_JaccardWs(benchmark::State& state) {
  const auto& pairs = Pairs();
  WhitespaceTokenizer tok;
  size_t i = 0;
  for (auto _ : state) {
    const auto& [a, b] = pairs[i++ & 511];
    benchmark::DoNotOptimize(
        JaccardSimilarity(tok.Tokenize(a), tok.Tokenize(b)));
  }
}
BENCHMARK(BM_JaccardWs);

void BM_JaccardQgram3(benchmark::State& state) {
  const auto& pairs = Pairs();
  QgramTokenizer tok(3);
  size_t i = 0;
  for (auto _ : state) {
    const auto& [a, b] = pairs[i++ & 511];
    benchmark::DoNotOptimize(
        JaccardSimilarity(tok.Tokenize(a), tok.Tokenize(b)));
  }
}
BENCHMARK(BM_JaccardQgram3);

void BM_MongeElkan(benchmark::State& state) {
  const auto& pairs = Pairs();
  WhitespaceTokenizer tok;
  size_t i = 0;
  for (auto _ : state) {
    const auto& [a, b] = pairs[i++ & 511];
    benchmark::DoNotOptimize(
        MongeElkanSimilarity(tok.Tokenize(a), tok.Tokenize(b)));
  }
}
BENCHMARK(BM_MongeElkan);

// Tokenization alone, to separate its cost from the set measures.
void BM_TokenizeWhitespace(benchmark::State& state) {
  const auto& pairs = Pairs();
  WhitespaceTokenizer tok;
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tok.Tokenize(pairs[i++ & 511].first));
  }
}
BENCHMARK(BM_TokenizeWhitespace);

void BM_TokenizeQgram3(benchmark::State& state) {
  const auto& pairs = Pairs();
  QgramTokenizer tok(3);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tok.Tokenize(pairs[i++ & 511].first));
  }
}
BENCHMARK(BM_TokenizeQgram3);

// --- sequence-kernel before/after (--seq / --smoke) -------------------------

using PairCorpus = std::vector<std::pair<std::string, std::string>>;

// Times `fn` once over the whole corpus, best of `reps`, returns ns/pair.
double NsPerPair(const PairCorpus& corpus, int reps,
                 const std::function<double(std::string_view,
                                            std::string_view)>& fn) {
  double best = 1e300;
  double sink = 0;
  for (int rep = 0; rep < reps; ++rep) {
    auto t0 = std::chrono::steady_clock::now();
    for (const auto& [a, b] : corpus) sink += fn(a, b);
    auto t1 = std::chrono::steady_clock::now();
    best = std::min(best,
                    std::chrono::duration<double, std::nano>(t1 - t0).count());
  }
  benchmark::DoNotOptimize(sink);
  return corpus.empty() ? 0.0 : best / static_cast<double>(corpus.size());
}

using BatchSimFn = void (*)(const std::string_view*, const std::string_view*,
                            size_t, double*);

// Times one columnar batch call over the whole corpus, best of `reps`,
// returns ns/pair. The lane arrays are built once outside the timed region —
// in production VectorizePairsBatch amortizes the gather the same way.
double NsPerPairBatch(const PairCorpus& corpus, int reps, BatchSimFn fn) {
  std::vector<std::string_view> av, bv;
  av.reserve(corpus.size());
  bv.reserve(corpus.size());
  for (const auto& [a, b] : corpus) {
    av.push_back(a);
    bv.push_back(b);
  }
  std::vector<double> out(corpus.size());
  double best = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    auto t0 = std::chrono::steady_clock::now();
    fn(av.data(), bv.data(), av.size(), out.data());
    auto t1 = std::chrono::steady_clock::now();
    best = std::min(best,
                    std::chrono::duration<double, std::nano>(t1 - t0).count());
  }
  benchmark::DoNotOptimize(out.data());
  return corpus.empty() ? 0.0 : best / static_cast<double>(corpus.size());
}

struct MeasureRow {
  const char* name;
  double scalar_ns = 0;
  double kernel_ns = 0;
  double batch_ns = 0;
  double speedup() const { return kernel_ns > 0 ? scalar_ns / kernel_ns : 0; }
  double batch_speedup() const {
    return batch_ns > 0 ? scalar_ns / batch_ns : 0;
  }
};

// One before/after row per sequence measure over `corpus`.
std::vector<MeasureRow> MeasureSequenceKernels(const PairCorpus& corpus,
                                               int reps) {
  std::vector<MeasureRow> rows;
  auto add = [&](const char* name,
                 double (*kernel)(std::string_view, std::string_view),
                 double (*scalar)(std::string_view, std::string_view),
                 BatchSimFn batch) {
    MeasureRow r{name};
    // Warm-up pass grows every thread-local scratch lane to its high-water
    // mark so the kernel numbers reflect steady state, as in feature gen.
    for (const auto& [a, b] : corpus) benchmark::DoNotOptimize(kernel(a, b));
    r.kernel_ns = NsPerPair(corpus, reps, kernel);
    r.scalar_ns = NsPerPair(corpus, reps, scalar);
    r.batch_ns = NsPerPairBatch(corpus, reps, batch);
    rows.push_back(r);
  };
  add("levenshtein", LevenshteinSimilarity, oracle::LevenshteinSimilarity,
      LevenshteinSimilarityBatch);
  add("jaro", JaroSimilarity, oracle::JaroSimilarity, JaroSimilarityBatch);
  add("jaro_winkler",
      [](std::string_view a, std::string_view b) {
        return JaroWinklerSimilarity(a, b);
      },
      [](std::string_view a, std::string_view b) {
        return oracle::JaroWinklerSimilarity(a, b);
      },
      [](const std::string_view* a, const std::string_view* b, size_t n,
         double* out) { JaroWinklerSimilarityBatch(a, b, n, out); });
  add("needleman_wunsch",
      [](std::string_view a, std::string_view b) {
        return NeedlemanWunschSimilarity(a, b);
      },
      [](std::string_view a, std::string_view b) {
        return oracle::NeedlemanWunschSimilarity(a, b);
      },
      NeedlemanWunschSimilarityBatch);
  add("smith_waterman",
      [](std::string_view a, std::string_view b) {
        return SmithWatermanSimilarity(a, b);
      },
      [](std::string_view a, std::string_view b) {
        return oracle::SmithWatermanSimilarity(a, b);
      },
      SmithWatermanSimilarityBatch);
  add("affine_gap",
      [](std::string_view a, std::string_view b) {
        return AffineGapSimilarity(a, b);
      },
      [](std::string_view a, std::string_view b) {
        return oracle::AffineGapSimilarity(a, b);
      },
      AffineGapSimilarityBatch);
  return rows;
}

double BatchSpeedupOf(const std::vector<MeasureRow>& rows, const char* name) {
  for (const auto& r : rows) {
    if (std::strcmp(r.name, name) == 0) return r.batch_speedup();
  }
  return 0;
}

double LevSpeedup(const std::vector<MeasureRow>& rows) {
  for (const auto& r : rows) {
    if (std::strcmp(r.name, "levenshtein") == 0) return r.speedup();
  }
  return 0;
}

// The case-study pair corpus: the attribute-value pairs feature generation
// actually scores — (AwardTitle, AwardTitle) and (EmployeeName,
// EmployeeName) for every candidate pair the standard blockers emit. Titles
// are long (often crossing the 64-char single-word boundary); names are
// short — together they cover both kernel paths with production strings.
bool BuildCaseStudyCorpus(PairCorpus* out) {
  auto data = GenerateCaseStudy();
  if (!data.ok()) return false;
  auto tables = PreprocessCaseStudy(*data);
  if (!tables.ok()) return false;
  auto blocks = RunStandardBlocking(tables->umetrics, tables->usda);
  if (!blocks.ok()) return false;
  for (const char* attr : {"AwardTitle", "EmployeeName"}) {
    for (const RecordPair& p : blocks->c) {
      const Value& a = tables->umetrics.at(p.left, attr);
      const Value& b = tables->usda.at(p.right, attr);
      if (a.is_null() || b.is_null()) continue;
      out->push_back({a.AsString(), b.AsString()});
    }
  }
  return !out->empty();
}

int RunSeq() {
  PairCorpus corpus;
  if (!BuildCaseStudyCorpus(&corpus)) {
    std::fprintf(stderr, "--seq: failed to build case-study corpus\n");
    return 1;
  }
  std::vector<MeasureRow> rows = MeasureSequenceKernels(corpus, /*reps=*/5);

  unsigned host_cpus = std::thread::hardware_concurrency();
  // The numbers are single-thread, but on a 1-CPU host even those fight the
  // rest of the system for the core; flag them like the vectorize sweep.
  bool sweep_reliable = host_cpus > 1;
  std::printf("host_cpus=%u%s\n", host_cpus,
              sweep_reliable ? "" : "  (1 CPU: timings UNRELIABLE)");
  std::printf("pairs=%zu (case-study candidate set, title + name attrs)\n",
              corpus.size());
  std::printf("simd_level=%d (0=scalar 1=sse2 2=avx2)\n",
              static_cast<int>(ActiveSimdLevel()));
  std::printf("%-18s %12s %12s %12s %8s %8s\n", "measure", "scalar_ns",
              "kernel_ns", "batch_ns", "kernel", "batch");
  for (const auto& r : rows) {
    std::printf("%-18s %12.1f %12.1f %12.1f %7.2fx %7.2fx\n", r.name,
                r.scalar_ns, r.kernel_ns, r.batch_ns, r.speedup(),
                r.batch_speedup());
  }

  std::FILE* f = std::fopen("BENCH_sequence.json", "w");
  if (!f) return 1;
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"host_cpus\": %u,\n", host_cpus);
  std::fprintf(f, "  \"sweep_reliable\": %s,\n",
               sweep_reliable ? "true" : "false");
  std::fprintf(f, "  \"pairs\": %zu,\n", corpus.size());
  std::fprintf(f, "  \"simd_level\": %d,\n",
               static_cast<int>(ActiveSimdLevel()));
  std::fprintf(f, "  \"speedup_kernel_vs_scalar_lev\": %.2f,\n",
               LevSpeedup(rows));
  std::fprintf(f, "  \"speedup_batch_vs_scalar_jaro\": %.2f,\n",
               BatchSpeedupOf(rows, "jaro"));
  std::fprintf(f, "  \"speedup_batch_vs_scalar_nw\": %.2f,\n",
               BatchSpeedupOf(rows, "needleman_wunsch"));
  std::fprintf(f, "  \"speedup_batch_vs_scalar_sw\": %.2f,\n",
               BatchSpeedupOf(rows, "smith_waterman"));
  std::fprintf(f, "  \"results\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    std::fprintf(f,
                 "    {\"measure\": \"%s\", \"scalar_ns_per_pair\": %.1f, "
                 "\"kernel_ns_per_pair\": %.1f, \"batch_ns_per_pair\": %.1f, "
                 "\"speedup\": %.2f, \"batch_speedup\": %.2f}%s\n",
                 r.name, r.scalar_ns, r.kernel_ns, r.batch_ns, r.speedup(),
                 r.batch_speedup(), i + 1 == rows.size() ? "" : ",");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote BENCH_sequence.json\n");
  return 0;
}

// Small deterministic fixture for CI: title-like strings 20–70 chars over a
// reused vocabulary, half near-duplicates — the regime the Levenshtein
// kernel exists for.
PairCorpus SmokeCorpus(size_t n) {
  const char* vocab[] = {"applied", "corn",  "ecology", "swamp", "dodder",
                         "study",   "award", "yield",   "title", "genetics",
                         "of",      "the",   "maize",   "fund",  "research"};
  const size_t nv = sizeof(vocab) / sizeof(vocab[0]);
  uint64_t state = 42;
  auto next = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<size_t>(state >> 33);
  };
  auto sentence = [&] {
    std::string s;
    size_t words = 3 + next() % 6;
    for (size_t w = 0; w < words; ++w) {
      if (w > 0) s += ' ';
      s += vocab[next() % nv];
    }
    return s;
  };
  PairCorpus out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    std::string a = sentence();
    std::string b = a;
    if (next() % 2 == 0) {
      b = sentence();
    } else if (!b.empty()) {
      b[next() % b.size()] = 'x';  // near-duplicate: one substitution
    }
    out.push_back({std::move(a), std::move(b)});
  }
  return out;
}

int RunSmoke(const char* baseline_path) {
  double baseline = 0;
  if (!bench::ReadBaseline(baseline_path, "speedup_kernel_vs_scalar_lev",
                           &baseline)) {
    return 1;
  }

  PairCorpus corpus = SmokeCorpus(4000);
  std::vector<MeasureRow> rows = MeasureSequenceKernels(corpus, /*reps=*/5);
  double measured = LevSpeedup(rows);

  std::printf("host_cpus=%u\n", std::thread::hardware_concurrency());
  for (const auto& r : rows) {
    std::printf(
        "smoke: %-18s scalar=%.1fns kernel=%.1fns batch=%.1fns "
        "%.2fx/%.2fx\n",
        r.name, r.scalar_ns, r.kernel_ns, r.batch_ns, r.speedup(),
        r.batch_speedup());
  }
  std::printf("smoke: measured lev speedup %.2fx, baseline %.2fx\n", measured,
              baseline);
  // Only Levenshtein is gated. The DP-parity measures (NW/SW/affine) are
  // reported but not gated: their kernel is the same O(mn) recurrence, so
  // their ratio sits near 1x inside scheduler noise.
  return bench::SmokeGate(measured, baseline,
                          "kernel-vs-scalar Levenshtein speedup",
                          "kernel regressed >2x");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--seq") == 0) return RunSeq();
  if (argc == 3 && std::strcmp(argv[1], "--smoke") == 0) {
    return RunSmoke(argv[2]);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
