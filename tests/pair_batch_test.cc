// Equivalence suite for the columnar batch-scoring layer: every batch
// similarity kernel in src/text/batch_kernel.h must be BIT-IDENTICAL to the
// emx::oracle scalars on a randomized 10k-pair corpus (empty, 1-char,
// >64-char, UTF-8, equal, disjoint lanes) at 1/2/8 threads and at every
// SIMD dispatch level — including a forced-scalar run, so the scalar
// fallback is exercised even on AVX2 hardware. The same suite pins down the
// PairBatch container, the batched vectorizer/imputer, the flattened-forest
// scorer (incl. NaN routing and deserialize), the feature-rule matcher, and
// the Monge-Elkan kernel (bit-identical to the span form on
// the case study and an SF-2 corpus at 1/2/8 threads; its Jaro-Winkler
// bound never below the score it bounds).

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/block/candidate_set.h"
#include "src/block/overlap_blocker.h"
#include "src/core/executor.h"
#include "src/core/random.h"
#include "src/datagen/case_study.h"
#include "src/datagen/preprocess.h"
#include "src/datagen/scale_corpus.h"
#include "src/feature/feature_gen.h"
#include "src/feature/pair_batch.h"
#include "src/feature/vectorizer.h"
#include "src/ml/forest_flat.h"
#include "src/ml/random_forest.h"
#include "src/prep/prepared_column.h"
#include "src/rules/feature_rules.h"
#include "src/table/csv.h"
#include "src/text/batch_kernel.h"
#include "src/text/phonetic.h"
#include "src/text/sequence_similarity.h"
#include "src/text/set_similarity.h"

namespace emx {
namespace {

// ---------- corpus ----------

struct StringPair {
  std::string a;
  std::string b;
};

std::string RandomString(std::mt19937& rng, size_t len, char lo, char hi) {
  std::uniform_int_distribution<int> c(lo, hi);
  std::string s;
  s.reserve(len);
  for (size_t i = 0; i < len; ++i) s += static_cast<char>(c(rng));
  return s;
}

std::string RandomUtf8(std::mt19937& rng, size_t chars) {
  static const char* kGlyphs[] = {"ü", "ß", "é", "λ", "文", "字", "🌽",
                                  "a", "n", " ", "Å", "ç"};
  std::uniform_int_distribution<size_t> pick(0, std::size(kGlyphs) - 1);
  std::string s;
  for (size_t i = 0; i < chars; ++i) s += kGlyphs[pick(rng)];
  return s;
}

std::string Mutate(std::mt19937& rng, std::string s) {
  if (s.empty()) return s;
  std::uniform_int_distribution<size_t> pos(0, s.size() - 1);
  std::uniform_int_distribution<int> kind(0, 2);
  std::uniform_int_distribution<int> c('a', 'z');
  std::uniform_int_distribution<int> edits(1, 4);
  int n = edits(rng);
  for (int e = 0; e < n && !s.empty(); ++e) {
    size_t p = pos(rng) % s.size();
    switch (kind(rng)) {
      case 0:
        s[p] = static_cast<char>(c(rng));
        break;
      case 1:
        s.erase(p, 1);
        break;
      default:
        s.insert(p, 1, static_cast<char>(c(rng)));
        break;
    }
  }
  return s;
}

// The shape classes the batch kernels must cover: empty, 1-char, equal,
// near-duplicate, disjoint-alphabet (zero matches), multi-byte UTF-8, and
// >64-char lanes, mixed in one corpus so a single batch call sees the full
// length spectrum (which is what stresses the length-sorted scheduling and
// the 4-lane padding).
std::vector<StringPair> BuildCorpus(size_t n, uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> klass(0, 99);
  std::uniform_int_distribution<size_t> small(2, 64);
  std::uniform_int_distribution<size_t> medium(65, 128);
  std::vector<StringPair> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    int k = klass(rng);
    StringPair p;
    if (k < 6) {  // empty on at least one side
      p.a = "";
      p.b = k < 3 ? "" : RandomString(rng, small(rng), 'a', 'z');
    } else if (k < 14) {  // 1-char
      p.a = RandomString(rng, 1, 'a', 'f');
      p.b = RandomString(rng, 1, 'a', 'f');
    } else if (k < 24) {  // equal
      p.a = RandomString(rng, small(rng), 'a', 'z');
      p.b = p.a;
    } else if (k < 36) {  // near-duplicates
      p.a = RandomString(rng, small(rng), 'a', 'j');
      p.b = Mutate(rng, p.a);
    } else if (k < 46) {  // disjoint alphabets: zero matches
      p.a = RandomString(rng, small(rng), 'a', 'm');
      p.b = RandomString(rng, small(rng), 'n', 'z');
    } else if (k < 56) {  // UTF-8 multi-byte sequences, compared bytewise
      p.a = RandomUtf8(rng, small(rng) / 2 + 1);
      p.b = k % 2 == 0 ? Mutate(rng, p.a) : RandomUtf8(rng, small(rng) / 2 + 1);
    } else if (k < 66) {  // >64-char lanes
      p.a = RandomString(rng, medium(rng), 'a', 'h');
      p.b = k % 2 == 0 ? Mutate(rng, p.a)
                       : RandomString(rng, medium(rng), 'a', 'h');
    } else {  // generic short strings
      p.a = RandomString(rng, small(rng), 'a', 'z');
      p.b = RandomString(rng, small(rng), 'a', 'z');
    }
    out.push_back(std::move(p));
  }
  return out;
}

// NaN-aware bitwise double equality.
bool BitEq(double x, double y) {
  return std::memcmp(&x, &y, sizeof(double)) == 0;
}

// ---------- PairBatch container ----------

TEST(PairBatchTest, ColumnMajorLayoutAndAccessors) {
  PairBatch batch(3, 2);
  batch.feature_names = {"f0", "f1"};
  for (size_t i = 0; i < 3; ++i) {
    batch.At(i, 0) = static_cast<double>(i);
    batch.At(i, 1) = 10.0 + static_cast<double>(i);
  }
  EXPECT_EQ(batch.num_pairs(), 3u);
  EXPECT_EQ(batch.num_features(), 2u);
  // Column(f) is contiguous over pairs: the batch-kernel contract.
  const double* c1 = batch.Column(1);
  EXPECT_DOUBLE_EQ(c1[0], 10.0);
  EXPECT_DOUBLE_EQ(c1[2], 12.0);
  EXPECT_EQ(batch.Column(1), batch.Column(0) + batch.num_pairs());
  double row[2];
  batch.RowTo(1, row);
  EXPECT_DOUBLE_EQ(row[0], 1.0);
  EXPECT_DOUBLE_EQ(row[1], 11.0);
}

// A row-major matrix as a named batch (FromRows copies only the cells).
PairBatch BatchOf(const FeatureMatrix& m) {
  PairBatch batch = PairBatch::FromRows(m.rows);
  batch.feature_names = m.feature_names;
  return batch;
}

TEST(PairBatchTest, RoundTripsPreserveValuesAndNames) {
  double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::vector<double>> rows = {{1.0, nan, 3.0},
                                                 {4.0, 5.0, nan}};
  PairBatch batch = PairBatch::FromRows(rows);
  batch.feature_names = {"a", "b", "c"};
  FeatureMatrix back = batch.ToMatrix();
  EXPECT_EQ(back.feature_names, batch.feature_names);
  ASSERT_EQ(back.rows.size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    ASSERT_EQ(back.rows[i].size(), rows[i].size());
    for (size_t f = 0; f < rows[i].size(); ++f) {
      EXPECT_TRUE(BitEq(back.rows[i][f], rows[i][f])) << i << "," << f;
      EXPECT_TRUE(BitEq(batch.At(i, f), rows[i][f])) << i << "," << f;
    }
  }
}

// ---------- batch kernels vs oracle, across SIMD levels and threads ----------

using BatchFn = void (*)(const std::string_view*, const std::string_view*,
                         size_t, double*);

struct KernelCase {
  const char* name;
  BatchFn batch;
  double (*scalar)(std::string_view, std::string_view);
};

double OracleExact(std::string_view a, std::string_view b) {
  return ExactMatch(a, b);  // trivially scalar; no oracle twin exists
}
double OracleJw(std::string_view a, std::string_view b) {
  return oracle::JaroWinklerSimilarity(a, b);
}
double OracleAffine(std::string_view a, std::string_view b) {
  return oracle::AffineGapSimilarity(a, b);
}
void JwBatch(const std::string_view* a, const std::string_view* b, size_t n,
             double* out) {
  JaroWinklerSimilarityBatch(a, b, n, out);
}

const KernelCase kKernels[] = {
    {"exact", &ExactMatchBatch, &OracleExact},
    {"lev", &LevenshteinSimilarityBatch, &oracle::LevenshteinSimilarity},
    {"jaro", &JaroSimilarityBatch, &oracle::JaroSimilarity},
    {"jw", &JwBatch, &OracleJw},
    {"nw", &NeedlemanWunschSimilarityBatch, &oracle::NeedlemanWunschSimilarity},
    {"sw", &SmithWatermanSimilarityBatch, &oracle::SmithWatermanSimilarity},
    {"affine", &AffineGapSimilarityBatch, &OracleAffine},
};

class SimdLevelGuard {
 public:
  explicit SimdLevelGuard(SimdLevel level) { ForceSimdLevel(level); }
  ~SimdLevelGuard() { ResetSimdLevel(); }
};

TEST(BatchKernelTest, BitExactVsOracleAtAllSimdLevelsAnd128Threads) {
  const std::vector<StringPair> corpus = BuildCorpus(10000, 20260809);
  std::vector<std::string_view> av, bv;
  av.reserve(corpus.size());
  bv.reserve(corpus.size());
  for (const StringPair& p : corpus) {
    av.push_back(p.a);
    bv.push_back(p.b);
  }

  // Oracle expectations, once, single-threaded.
  std::vector<std::vector<double>> expected(std::size(kKernels));
  for (size_t k = 0; k < std::size(kKernels); ++k) {
    expected[k].resize(corpus.size());
    for (size_t i = 0; i < corpus.size(); ++i) {
      expected[k][i] = kKernels[k].scalar(av[i], bv[i]);
    }
  }

  for (SimdLevel level :
       {SimdLevel::kScalar, SimdLevel::kSse2, SimdLevel::kAvx2}) {
    SimdLevelGuard guard(level);  // clamped to the hardware level internally
    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      for (size_t k = 0; k < std::size(kKernels); ++k) {
        std::vector<double> out(corpus.size(),
                                std::numeric_limits<double>::quiet_NaN());
        std::atomic<size_t> mismatches{0};
        std::atomic<long> first_bad{-1};
        std::vector<std::thread> workers;
        for (size_t t = 0; t < threads; ++t) {
          workers.emplace_back([&, t] {
            // Contiguous slice per thread: each thread issues its own batch
            // call over its own thread_local scratch.
            size_t lo = corpus.size() * t / threads;
            size_t hi = corpus.size() * (t + 1) / threads;
            if (lo == hi) return;
            kKernels[k].batch(av.data() + lo, bv.data() + lo, hi - lo,
                              out.data() + lo);
            for (size_t i = lo; i < hi; ++i) {
              if (!BitEq(out[i], expected[k][i])) {
                ++mismatches;
                long want = -1;
                first_bad.compare_exchange_strong(want,
                                                  static_cast<long>(i));
              }
            }
          });
        }
        for (auto& w : workers) w.join();
        EXPECT_EQ(mismatches.load(), 0u)
            << kKernels[k].name << " diverges from oracle at simd level "
            << static_cast<int>(level) << ", " << threads
            << " threads; first bad pair " << first_bad.load() << " a=\""
            << (first_bad >= 0 ? corpus[first_bad].a.substr(0, 40) : "")
            << "\" b=\""
            << (first_bad >= 0 ? corpus[first_bad].b.substr(0, 40) : "")
            << "\"";
      }
    }
  }
}

TEST(BatchKernelTest, ForcedScalarNeverExceedsDetectedLevel) {
  {
    SimdLevelGuard guard(SimdLevel::kScalar);
    EXPECT_EQ(ActiveSimdLevel(), SimdLevel::kScalar);
  }
  {
    SimdLevelGuard guard(SimdLevel::kAvx2);
    EXPECT_LE(static_cast<int>(ActiveSimdLevel()),
              static_cast<int>(DetectedSimdLevel()));
  }
  EXPECT_LE(static_cast<int>(ActiveSimdLevel()),
            static_cast<int>(DetectedSimdLevel()));
}

// ---------- flattened forest ----------

std::vector<std::vector<double>> ForestProbe(size_t n, uint64_t seed) {
  std::mt19937 rng(static_cast<uint32_t>(seed));
  std::uniform_real_distribution<double> v(-4.0, 4.0);
  std::uniform_int_distribution<int> poison(0, 9);
  std::vector<std::vector<double>> rows;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> row = {v(rng), v(rng), v(rng)};
    // NaN lanes: the flat walk must route NaN to the right child exactly
    // like the pointer walk's `(v <= thr) ? left : right`.
    if (poison(rng) == 0) row[static_cast<size_t>(poison(rng)) % 3] = nan;
    rows.push_back(std::move(row));
  }
  return rows;
}

// Integer features with noisy labels, as ml_test's MakeNoisyGrid: many
// cells hold rows of both classes, so tree leaves keep fractions like 2/3
// and a forest's mean depends on the order it sums its trees in — which
// the flat walk's bit-identity with the tree walk rests on. The features
// span most of the probe's range.
Dataset ForestTrainSet(size_t n, uint64_t seed) {
  RandomEngine rng(seed);
  Dataset d;
  d.feature_names = {"x", "y", "z"};
  for (size_t i = 0; i < n; ++i) {
    double x = std::round(1.5 * rng.NextGaussian());
    double y = std::round(1.5 * rng.NextGaussian());
    double z = static_cast<double>(rng.NextBelow(3));
    d.x.push_back({x, y, z});
    d.y.push_back(x + y + rng.NextGaussian() > 0 ? 1 : 0);
  }
  return d;
}

TEST(FlatForestTest, BitExactVsTreeWalkIncludingNaNRouting) {
  RandomForestOptions opts;
  opts.num_trees = 16;
  opts.seed = 99;
  RandomForestMatcher forest(opts);
  ASSERT_TRUE(forest.Fit(ForestTrainSet(160, 7)).ok());
  EXPECT_FALSE(forest.flat_forest().empty());
  EXPECT_EQ(forest.flat_forest().num_trees(), 16u);

  const PairBatch probe = PairBatch::FromRows(ForestProbe(500, 31));
  const std::vector<double> walk = forest.PredictProbaTreeWalk(probe);
  const std::vector<double> flat = forest.PredictProbaBatch(probe);
  ASSERT_EQ(walk.size(), flat.size());
  for (size_t i = 0; i < walk.size(); ++i) {
    EXPECT_TRUE(BitEq(walk[i], flat[i]))
        << "row " << i << ": walk=" << walk[i] << " flat=" << flat[i];
  }

  // On 8 threads the executor chunks move the walk's eight-pair block
  // boundaries — same doubles.
  Executor p8(8);
  const std::vector<double> batch =
      forest.flat_forest().PredictBatch(probe, ExecutorContext{&p8});
  for (size_t i = 0; i < walk.size(); ++i) {
    EXPECT_TRUE(BitEq(walk[i], batch[i])) << "row " << i;
  }
}

TEST(FlatForestTest, RebuiltAfterDeserialize) {
  RandomForestOptions opts;
  opts.num_trees = 8;
  opts.seed = 5;
  RandomForestMatcher forest(opts);
  ASSERT_TRUE(forest.Fit(ForestTrainSet(80, 3)).ok());
  auto restored = RandomForestMatcher::Deserialize(forest.Serialize());
  ASSERT_TRUE(restored.ok());
  EXPECT_FALSE(restored->flat_forest().empty());
  // 203 rows: the walk's eight-pair blocks leave a tail.
  const PairBatch probe = PairBatch::FromRows(ForestProbe(203, 77));
  const std::vector<double> before = forest.PredictProbaBatch(probe);
  const std::vector<double> after = restored->PredictProbaBatch(probe);
  const std::vector<double> walk = restored->PredictProbaTreeWalk(probe);
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_TRUE(BitEq(before[i], after[i])) << "row " << i;
    EXPECT_TRUE(BitEq(walk[i], after[i])) << "row " << i;
  }
}

// ---------- batched vectorizer + imputer ----------

Table BatchLeft() {
  return *ReadCsvString(
      "RecordId,Title,Code,Amount\n"
      "0,Applied CORN Ecology,WIS01,100\n"
      "1,swamp dodder study,WIS02,250\n"
      "2,,WIS03,\n"
      "3,maize genetics of inbred lines,WIS04,75\n");
}

Table BatchRight() {
  return *ReadCsvString(
      "RecordId,Title,Code,Amount\n"
      "0,applied corn ecology,WIS01,100\n"
      "1,swamp doder study,WIS09,\n"
      "2,unrelated title entirely,WIS03,80\n"
      "3,,WIS04,75\n");
}

TEST(VectorizerBatchTest, BatchEqualsLegacyPathBitForBit) {
  Table l = BatchLeft(), r = BatchRight();
  auto set = GenerateFeatures(
      l, r, {.exclude = {"RecordId"}, .lowercase_variants = {"Title"}});
  ASSERT_TRUE(set.ok());
  std::vector<RecordPair> all;
  for (uint32_t i = 0; i < 4; ++i) {
    for (uint32_t j = 0; j < 4; ++j) all.push_back({i, j});
  }
  CandidateSet pairs(std::move(all));

  PrepCache cache;
  auto batch = VectorizePairsBatch(l, r, pairs, *set, {}, &cache);
  ASSERT_TRUE(batch.ok());
  auto legacy = VectorizePairsUnprepared(l, r, pairs, *set);
  ASSERT_TRUE(legacy.ok());

  ASSERT_EQ(batch->num_pairs(), legacy->num_rows());
  ASSERT_EQ(batch->num_features(), legacy->num_features());
  EXPECT_EQ(batch->feature_names, legacy->feature_names);
  for (size_t i = 0; i < batch->num_pairs(); ++i) {
    for (size_t f = 0; f < batch->num_features(); ++f) {
      EXPECT_TRUE(BitEq(batch->At(i, f), legacy->rows[i][f]))
          << "pair " << i << " feature " << legacy->feature_names[f];
    }
  }

  // And the row-major wrapper is exactly the transpose.
  auto matrix = VectorizePairs(l, r, pairs, *set, {}, &cache);
  ASSERT_TRUE(matrix.ok());
  FeatureMatrix transposed = batch->ToMatrix();
  for (size_t i = 0; i < matrix->num_rows(); ++i) {
    for (size_t f = 0; f < matrix->num_features(); ++f) {
      EXPECT_TRUE(BitEq(matrix->rows[i][f], transposed.rows[i][f]))
          << "pair " << i << " feature " << f;
    }
  }
}

TEST(ImputerBatchTest, FitAndTransformMatchMatrixOverloads) {
  FeatureMatrix m;
  m.feature_names = {"f0", "f1", "f2"};
  double nan = std::numeric_limits<double>::quiet_NaN();
  m.rows = {{1.0, nan, nan}, {3.0, 4.0, nan}, {nan, 8.0, nan}, {0.5, 0.25, nan}};

  MeanImputer from_matrix, from_batch;
  from_matrix.Fit(m);
  from_batch.Fit(BatchOf(m));
  ASSERT_EQ(from_matrix.means().size(), from_batch.means().size());
  for (size_t f = 0; f < from_matrix.means().size(); ++f) {
    EXPECT_TRUE(BitEq(from_matrix.means()[f], from_batch.means()[f])) << f;
  }

  FeatureMatrix mm = m;
  PairBatch batch = BatchOf(m);
  ASSERT_TRUE(from_matrix.Transform(mm).ok());
  ASSERT_TRUE(from_matrix.Transform(batch).ok());
  for (size_t i = 0; i < mm.rows.size(); ++i) {
    for (size_t f = 0; f < mm.feature_names.size(); ++f) {
      EXPECT_TRUE(BitEq(mm.rows[i][f], batch.At(i, f))) << i << "," << f;
    }
  }

  PairBatch wrong(2, 2);
  EXPECT_EQ(from_matrix.Transform(wrong).code(), StatusCode::kInvalidArgument);
}

// ---------- feature-rule matcher over batch columns ----------

TEST(FeatureRulesBatchTest, PredictAndFiringRuleMatchFirstFiringReference) {
  std::vector<FeatureRule> parsed;
  for (const auto& [name, expr] :
       {std::pair{"strong", "sim > 0.9 AND diff <= 1"},
        std::pair{"loose", "sim >= 0.4"}}) {
    auto rule = ParseFeatureRule(name, expr);
    ASSERT_TRUE(rule.ok());
    parsed.push_back(*rule);
  }
  FeatureRuleMatcher rules;
  for (const FeatureRule& rule : parsed) rules.AddRule(rule);

  std::vector<std::vector<double>> rows;
  double nan = std::numeric_limits<double>::quiet_NaN();
  std::mt19937 rng(17);
  std::uniform_real_distribution<double> sim(0.0, 1.0);
  std::uniform_int_distribution<int> diff(0, 3);
  for (int i = 0; i < 500; ++i) {
    double s = i % 11 == 0 ? nan : sim(rng);
    rows.push_back({static_cast<double>(diff(rng)), s});
  }
  PairBatch batch = PairBatch::FromRows(rows);
  batch.feature_names = {"diff", "sim"};

  // Reference, one pair at a time: the first rule whose predicates all
  // hold on the pair's row, or -1.
  std::vector<int> want_firing(rows.size(), -1);
  for (size_t i = 0; i < rows.size(); ++i) {
    for (size_t r = 0; r < parsed.size() && want_firing[i] < 0; ++r) {
      bool all = true;
      for (const FeaturePredicate& pred : parsed[r].predicates) {
        const size_t col = pred.feature == "diff" ? 0 : 1;
        all = all && pred.Holds(rows[i][col]);
      }
      if (all) want_firing[i] = static_cast<int>(r);
    }
  }
  std::vector<int> want_pred(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    want_pred[i] = want_firing[i] >= 0 ? 1 : 0;
  }
  // Every outcome occurs, so the comparison below is not vacuous.
  for (int outcome : {-1, 0, 1}) {
    EXPECT_GT(std::count(want_firing.begin(), want_firing.end(), outcome), 0)
        << outcome;
  }

  auto firing = rules.FiringRule(batch);
  ASSERT_TRUE(firing.ok());
  EXPECT_EQ(*firing, want_firing);
  auto pred = rules.Predict(batch);
  ASSERT_TRUE(pred.ok());
  EXPECT_EQ(*pred, want_pred);
}

TEST(FeatureRulesBatchTest, UnknownFeatureIsNotFound) {
  FeatureRuleMatcher rules;
  ASSERT_TRUE(rules.AddRule("r", "ghost > 0.5").ok());
  PairBatch batch(1, 1);
  batch.feature_names = {"real"};
  EXPECT_EQ(rules.Predict(batch).status().code(), StatusCode::kNotFound);
}

// ---------- Monge-Elkan kernel ----------

// One corpus the Monge-Elkan kernel is checked on: a table pair, its
// candidate pairs and its Monge-Elkan features.
struct MelCorpus {
  std::string name;
  const Table* left;
  const Table* right;
  CandidateSet pairs;
  FeatureSet features;  // the Monge-Elkan features only
};

FeatureSet MongeElkanOnly(const FeatureSet& all) {
  FeatureSet out;
  for (const Feature& f : all.features) {
    if (f.name.find("_mel") != std::string::npos) out.features.push_back(f);
  }
  return out;
}

// Both case-study branches (UMETRICS and the extra table against USDA,
// every candidate of the standard blocking, all five Monge-Elkan features)
// and an SF-2 scale corpus (the title blockers' candidates, both title
// features).
struct MelCorpora {
  ProjectedTables case_study;
  ScaleCorpus scale;
  std::vector<MelCorpus> corpora;
};

const MelCorpora& Corpora() {
  static const MelCorpora& c = *[] {
    auto* out = new MelCorpora();
    out->case_study = std::move(*PreprocessCaseStudy(*GenerateCaseStudy()));
    const ProjectedTables& t = out->case_study;
    FeatureSet features =
        MongeElkanOnly(*CaseStudyFeatures(t.umetrics, t.usda, true));
    for (const Table* left : {&t.umetrics, &t.extra}) {
      out->corpora.push_back(
          {left == &t.umetrics ? "case study" : "case study extra", left,
           &t.usda, RunStandardBlocking(*left, t.usda)->c, features});
    }
    ScaleCorpusOptions options;
    options.scale_factor = 2;
    out->scale = std::move(*GenerateScaleCorpus(options));
    OverlapBlockerOptions blocker;
    blocker.left_attr = "AwardTitle";
    blocker.right_attr = "AwardTitle";
    const ScaleCorpus& sc = out->scale;
    CandidateSet pairs = CandidateSet::Union(
        *OverlapBlocker(blocker, 3).Block(sc.left, sc.right),
        *OverlapCoefficientBlocker(blocker, 0.7).Block(sc.left, sc.right));
    FeatureGenOptions gen;
    gen.exclude = {"RecordId"};
    gen.lowercase_variants = {"AwardTitle"};
    out->corpora.push_back(
        {"SF 2", &sc.left, &sc.right, std::move(pairs),
         MongeElkanOnly(*GenerateFeatures(sc.left, sc.right, gen))});
    return out;
  }();
  return c;
}

// Every score of every candidate pair, through VectorizePairsBatch on a
// cold cache at 1/2/8 threads, is bit-identical to the span form (reached
// through each feature's Value fn).
TEST(MongeElkanKernelTest, BitExactVsSpanFormOnCorporaAt128Threads) {
  const MelCorpora& c = Corpora();
  ASSERT_EQ(c.corpora.size(), 3u);
  EXPECT_EQ(c.corpora[0].features.features.size(), 5u);
  EXPECT_EQ(c.corpora[2].features.features.size(), 2u);
  for (const MelCorpus& corpus : c.corpora) {
    EXPECT_GT(corpus.pairs.size(), 100u) << corpus.name;
    const std::vector<Feature>& fs = corpus.features.features;
    std::vector<std::vector<double>> expected(fs.size());
    for (size_t f = 0; f < fs.size(); ++f) {
      auto lcol = corpus.left->ColumnByName(fs[f].left_attr);
      auto rcol = corpus.right->ColumnByName(fs[f].right_attr);
      ASSERT_TRUE(lcol.ok() && rcol.ok());
      for (const RecordPair& p : corpus.pairs) {
        expected[f].push_back(fs[f].fn((**lcol)[p.left], (**rcol)[p.right]));
      }
    }
    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      Executor pool(threads);
      PrepCache cache;
      auto batch = VectorizePairsBatch(*corpus.left, *corpus.right,
                                       corpus.pairs, corpus.features,
                                       ExecutorContext{&pool}, &cache);
      ASSERT_TRUE(batch.ok()) << batch.status().ToString();
      for (size_t f = 0; f < fs.size(); ++f) {
        size_t mismatches = 0;
        for (size_t i = 0; i < corpus.pairs.size(); ++i) {
          if (!BitEq(batch->At(i, f), expected[f][i])) ++mismatches;
        }
        EXPECT_EQ(mismatches, 0u) << corpus.name << ", " << fs[f].name
                                  << ", " << threads << " threads";
      }
    }
  }
}

// Checks the bound and the bit-parallel Jaro-Winkler on one token pair, in
// both argument orders; returns the number of failures.
size_t CheckTokenPair(std::string_view a, const TokenSignature& sa,
                      std::string_view b, const TokenSignature& sb) {
  size_t bad = 0;
  const double bound = JaroWinklerUpperBound(sa, sb);
  if (bound != JaroWinklerUpperBound(sb, sa)) ++bad;
  for (auto [x, y] : {std::pair{a, b}, std::pair{b, a}}) {
    const double jw = oracle::JaroWinklerSimilarity(x, y);
    if (bound < jw) ++bad;
    if (!BitEq(TokenJaroWinkler(x, y), jw)) ++bad;
    if (!BitEq(JaroWinklerSimilarity(x, y), jw)) ++bad;
  }
  return bad;
}

// Over every token pair the candidates bring together (each Monge-Elkan
// feature's two rows), the bound is never below either order's
// Jaro-Winkler, and the bit-parallel scan matches the oracle bit for bit.
TEST(MongeElkanKernelTest, BoundAndBitParallelJwHoldOnCorpusTokenPairs) {
  for (const MelCorpus& corpus : Corpora().corpora) {
    PrepCache cache;
    for (const Feature& f : corpus.features.features) {
      FeaturePrep prep = PrepForFeature(f.prep);
      auto lp = cache
                    .Get(*corpus.left, f.left_attr, prep.options,
                         prep.tokenizer.get())
                    .value();
      auto rp = cache
                    .Get(*corpus.right, f.right_attr, prep.options,
                         prep.tokenizer.get())
                    .value();
      size_t bad = 0, checked = 0;
      for (const RecordPair& p : corpus.pairs) {
        const TokenRow a = lp->token_row(p.left);
        const TokenRow b = rp->token_row(p.right);
        for (size_t i = 0; i < a.size; ++i) {
          for (size_t j = 0; j < b.size; ++j) {
            bad += CheckTokenPair(a.tokens[i], *a.signatures[i], b.tokens[j],
                                  *b.signatures[j]);
            ++checked;
          }
        }
      }
      EXPECT_GT(checked, 100u) << corpus.name << ", " << f.name;
      EXPECT_EQ(bad, 0u) << corpus.name << ", " << f.name;
    }
  }
}

// Owns the arrays of a TokenRow built straight from an interner.
struct OwnedRow {
  std::vector<std::string_view> tokens;
  std::vector<uint32_t> ids;
  std::vector<const TokenSignature*> signatures;

  TokenRow view() const {
    return {tokens.data(), ids.data(), signatures.data(), tokens.size()};
  }
};

OwnedRow MakeRow(TokenInterner* interner,
                 const std::vector<std::string>& tokens) {
  OwnedRow row;
  for (const std::string& t : tokens) {
    const uint32_t id = interner->Intern(t);
    row.tokens.push_back(interner->TokenString(id));
    row.ids.push_back(id);
    row.signatures.push_back(interner->Signature(id));
  }
  return row;
}

double SpanForm(const OwnedRow& a, const OwnedRow& b) {
  return MongeElkanSimilarity(a.tokens.data(), a.tokens.size(),
                              b.tokens.data(), b.tokens.size());
}

std::vector<std::string> EdgeTokens() {
  std::string alpha64, alpha65;
  for (int i = 0; i < 64; ++i) alpha64 += static_cast<char>('a' + i % 26);
  alpha65 = alpha64 + "q";
  std::string swapped64 = alpha64;
  std::swap(swapped64[10], swapped64[11]);
  return {"Corn", "corn", "CORN", "cOrN", "c", "C", "x", "",
          alpha64, alpha65, swapped64, alpha64.substr(1) + "Z",
          std::string(300, 'a'), std::string(299, 'a'),
          std::string(256, 'a') + "b", std::string(255, 'A'),
          "\xc3\xa9t\xc3\xa9", "ete", "\xff\x80\x81", "\x80\xff",
          "\xe6\x96\x87\xe5\xad\x97", "aab", "aba", "baa", "abab"};
}

// Every ordered pair of edge tokens: case-mismatched, 1 byte, empty, 64 and
// 65 bytes (the bit-parallel cutoff), over 255 bytes of one byte
// (histogram saturation), bytes >= 0x80, repeated bytes.
TEST(MongeElkanKernelTest, BoundAndBitParallelJwHoldOnEdgeTokens) {
  TokenInterner interner;
  const std::vector<std::string> tokens = EdgeTokens();
  size_t bad = 0;
  for (const std::string& a : tokens) {
    for (const std::string& b : tokens) {
      const TokenSignature sa = MakeTokenSignature(a);
      const TokenSignature sb = MakeTokenSignature(b);
      const size_t pair_bad = CheckTokenPair(a, sa, b, sb);
      EXPECT_EQ(pair_bad, 0u) << "\"" << a.substr(0, 20) << "\" vs \""
                              << b.substr(0, 20) << "\"";
      bad += pair_bad;
    }
  }
  EXPECT_EQ(bad, 0u);
  // The interner hands out one signature per id, equal to a fresh one.
  const uint32_t id = interner.Intern("corn");
  const TokenSignature* sig = interner.Signature(id);
  EXPECT_EQ(interner.Signature(interner.Intern("corn")), sig);
  const TokenSignature fresh = MakeTokenSignature("corn");
  EXPECT_EQ(std::memcmp(sig, &fresh, sizeof(fresh)), 0);
}

// Random short strings over a small alphabet (many matches, many
// transpositions), lengths on both sides of 64: the bit-parallel scan is
// the scalar scan bit for bit, and the bound holds.
TEST(MongeElkanKernelTest, BitParallelJwMatchesOracleOnRandomTokens) {
  std::mt19937 rng(20261017);
  std::uniform_int_distribution<size_t> len(1, 70);
  size_t bad = 0;
  for (int i = 0; i < 20000; ++i) {
    const std::string a = RandomString(rng, len(rng), 'a', 'e');
    const std::string b = RandomString(rng, len(rng), 'a', 'e');
    bad += CheckTokenPair(a, MakeTokenSignature(a), b, MakeTokenSignature(b));
  }
  EXPECT_EQ(bad, 0u);
}

// Rows of edge tokens, including a token repeated within a row, empty rows
// and rows sharing tokens: the kernel equals the span form bit for bit.
TEST(MongeElkanKernelTest, KernelMatchesSpanFormOnEdgeRows) {
  TokenInterner interner;
  const std::vector<std::string> edge = EdgeTokens();
  std::vector<OwnedRow> rows;
  rows.push_back(MakeRow(&interner, {}));
  rows.push_back(MakeRow(&interner, {"corn", "corn"}));
  rows.push_back(MakeRow(&interner, {"Corn", "ecology", "corn"}));
  for (size_t i = 0; i + 2 < edge.size(); ++i) {
    rows.push_back(MakeRow(&interner, {edge[i], edge[i + 1], edge[i + 2]}));
    rows.push_back(MakeRow(&interner, {edge[i], edge[i]}));
  }
  for (const OwnedRow& a : rows) {
    for (const OwnedRow& b : rows) {
      EXPECT_TRUE(BitEq(MongeElkanSimilarity(a.view(), b.view()),
                        SpanForm(a, b)))
          << a.tokens.size() << " x " << b.tokens.size();
    }
  }
}

// Random rows over a small alphabet, so tokens share bytes, repeat within
// a row and collide across rows: the kernel equals the span form bit for
// bit in both orders.
TEST(MongeElkanKernelTest, KernelMatchesSpanFormOnRandomRows) {
  std::mt19937 rng(17102026);
  std::uniform_int_distribution<size_t> token_len(1, 9), row_len(1, 8);
  TokenInterner interner;
  size_t bad = 0;
  for (int i = 0; i < 20000; ++i) {
    std::vector<std::string> ta(row_len(rng)), tb(row_len(rng));
    for (std::string& t : ta) t = RandomString(rng, token_len(rng), 'a', 'f');
    for (std::string& t : tb) t = RandomString(rng, token_len(rng), 'a', 'f');
    const OwnedRow a = MakeRow(&interner, ta);
    const OwnedRow b = MakeRow(&interner, tb);
    if (!BitEq(MongeElkanSimilarity(a.view(), b.view()), SpanForm(a, b))) ++bad;
    if (!BitEq(MongeElkanSimilarity(b.view(), a.view()), SpanForm(b, a))) ++bad;
  }
  EXPECT_EQ(bad, 0u);
}

// The best match for "martha" is the last token, behind a token whose
// bound (0.6) is below the first token's score (0.84): a visit in index
// order that stops at the first bound <= best would miss it.
TEST(MongeElkanKernelTest, VisitsTokensByDescendingBound) {
  TokenInterner interner;
  const OwnedRow a = MakeRow(&interner, {"martha"});
  const OwnedRow b = MakeRow(&interner, {"martin", "mz", "marthas"});
  const double first = JaroWinklerSimilarity("martha", "martin");
  const double bound = JaroWinklerUpperBound(*a.signatures[0],
                                             *b.signatures[1]);
  ASSERT_LT(bound, first);
  ASSERT_GT(bound, 0.0);
  ASSERT_GT(JaroWinklerSimilarity("martha", "marthas"), first);
  EXPECT_TRUE(BitEq(MongeElkanSimilarity(a.view(), b.view()), SpanForm(a, b)));
  EXPECT_TRUE(BitEq(MongeElkanSimilarity(b.view(), a.view()), SpanForm(b, a)));
}

// Signatures are computed once per distinct token and shared by every
// column of the cache that holds the token; q-gram columns keep no token
// rows, so they hold none.
TEST(MongeElkanKernelTest, WordColumnsShareInternerSignatures) {
  const Table left = *ReadCsvString("Title\napplied corn ecology\n");
  const Table right = *ReadCsvString("Title\ncorn study\n");
  PrepCache cache;
  FeaturePrep words = PrepForFeature({false, /*tokenize=*/true, 0});
  FeaturePrep grams = PrepForFeature({false, /*tokenize=*/true, 3});
  auto lp =
      cache.Get(left, "Title", words.options, words.tokenizer.get()).value();
  auto rp =
      cache.Get(right, "Title", words.options, words.tokenizer.get()).value();
  const TokenRow l = lp->token_row(0);
  const TokenRow r = rp->token_row(0);
  ASSERT_EQ(l.size, 3u);
  ASSERT_EQ(r.size, 2u);
  ASSERT_NE(l.signatures, nullptr);
  EXPECT_EQ(l.tokens[1], "corn");
  EXPECT_EQ(l.signatures[1], r.signatures[0]);
  EXPECT_EQ(l.signatures[1]->length, 4u);
  auto gp =
      cache.Get(left, "Title", grams.options, grams.tokenizer.get()).value();
  EXPECT_EQ(gp->token_row(0).size, 0u);
  EXPECT_EQ(gp->token_row(0).signatures, nullptr);
}

}  // namespace
}  // namespace emx
