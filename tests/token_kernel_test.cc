// Equivalence suite for the token-id kernel layer: the interner, the
// id-span set kernels, PreparedColumn/PrepCache, the id-based overlap join,
// and the prepared vectorize path must all produce BIT-IDENTICAL scores and
// candidate sets to the legacy string paths — on a randomized corpus
// including empty, null, all-punctuation, and duplicate-token values, at
// 1/2/8 threads. Vectorize's touched-row prep must equal whole-column prep
// bit for bit on the same corpus, the case study and a scale corpus.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/block/overlap_blocker.h"
#include "src/block/partitioned_blocker.h"
#include "src/block/similarity_join.h"
#include "src/core/executor.h"
#include "src/core/strings.h"
#include "src/datagen/case_study.h"
#include "src/datagen/scale_corpus.h"
#include "src/feature/feature_gen.h"
#include "src/feature/vectorizer.h"
#include "src/ml/decision_tree.h"
#include "src/prep/prepared_column.h"
#include "src/table/table.h"
#include "src/text/set_similarity.h"
#include "src/text/token_interner.h"
#include "src/text/tokenizer.h"
#include "src/workflow/em_workflow.h"

namespace emx {
namespace {

// ---------- corpus generation ----------

// Vocabulary with deliberately colliding, short, and punctuation-heavy
// tokens so dedup, empty-token, and qgram edge cases all fire.
std::vector<std::string> Vocab() {
  return {"alpha", "beta",  "gamma", "delta", "ALPHA", "a",  "ab",
          "abc",   "x",     "2008",  "10/1",  "!!",    "--", "award",
          "title", "Title", "fund",  "nsf",   "usda",  "z9"};
}

// A random cell: null, empty, all-punctuation, duplicate-token, numeric, or
// a random token sentence.
Value RandomCell(std::mt19937& rng) {
  std::uniform_int_distribution<int> kind(0, 9);
  switch (kind(rng)) {
    case 0:
      return Value::Null();
    case 1:
      return Value(std::string());
    case 2:
      return Value("!!! ... ---");  // tokens vanish under strip-punct
    case 3:
      return Value("alpha alpha alpha beta");  // duplicate tokens
    case 4:
      return Value(int64_t{20080134});  // numeric formatted to string
    default: {
      auto vocab = Vocab();
      std::uniform_int_distribution<size_t> len(1, 6);
      std::uniform_int_distribution<size_t> pick(0, vocab.size() - 1);
      std::string s;
      size_t n = len(rng);
      for (size_t i = 0; i < n; ++i) {
        if (i > 0) s += ' ';
        s += vocab[pick(rng)];
      }
      return Value(std::move(s));
    }
  }
}

Table RandomTable(size_t rows, uint32_t seed) {
  std::mt19937 rng(seed);
  Schema schema({{"id", DataType::kInt64},
                 {"title", DataType::kAny},
                 {"amount", DataType::kAny},
                 {"date", DataType::kString}});
  Table t(schema);
  for (size_t i = 0; i < rows; ++i) {
    std::uniform_int_distribution<int> amount(0, 5000);
    std::uniform_int_distribution<int> yr(1990, 2020);
    (void)t.AppendRow({Value(static_cast<int64_t>(i)), RandomCell(rng),
                       Value(static_cast<double>(amount(rng))),
                       Value(std::to_string(yr(rng)) + "-07-0" +
                             std::to_string(1 + (i % 9)))});
  }
  return t;
}

std::vector<std::string> RandomTokens(std::mt19937& rng) {
  auto vocab = Vocab();
  std::uniform_int_distribution<size_t> len(0, 8);
  std::uniform_int_distribution<size_t> pick(0, vocab.size() - 1);
  std::vector<std::string> out;
  size_t n = len(rng);
  for (size_t i = 0; i < n; ++i) out.push_back(vocab[pick(rng)]);
  return out;
}

// ---------- interner ----------

TEST(TokenInternerTest, DenseIdsInFirstSeenOrder) {
  TokenInterner interner;
  EXPECT_EQ(interner.Intern("a"), 0u);
  EXPECT_EQ(interner.Intern("b"), 1u);
  EXPECT_EQ(interner.Intern("a"), 0u);
  EXPECT_EQ(interner.Intern("c"), 2u);
  EXPECT_EQ(interner.size(), 3u);
  EXPECT_EQ(interner.TokenString(1), "b");
  ASSERT_TRUE(interner.Find("c").has_value());
  EXPECT_EQ(*interner.Find("c"), 2u);
  EXPECT_FALSE(interner.Find("zzz").has_value());
}

TEST(TokenInternerTest, StringReferencesStableAcrossGrowth) {
  TokenInterner interner;
  interner.Intern("stable");
  const std::string& ref = interner.TokenString(0);
  for (int i = 0; i < 10000; ++i) interner.Intern("t" + std::to_string(i));
  EXPECT_EQ(ref, "stable");  // deque storage: no reallocation of strings
}

// 200k distinct tokens force many table rehashes; the empty token and
// tokens sharing long prefixes sit among them.
TEST(TokenInternerTest, DenseIdsAndStableStringsAcrossRehashes) {
  TokenInterner interner;
  EXPECT_FALSE(interner.Find("").has_value());  // empty table
  const std::string prefix(40, 'p');
  std::vector<std::string> tokens = {""};
  for (int i = 0; tokens.size() < 200000; ++i) {
    tokens.push_back(std::to_string(i));
    tokens.push_back(prefix + std::to_string(i));
  }
  std::vector<const std::string*> refs;
  for (size_t i = 0; i < tokens.size(); ++i) {
    ASSERT_FALSE(interner.Find(tokens[i]).has_value()) << i;
    ASSERT_EQ(interner.Intern(tokens[i]), i);
    refs.push_back(&interner.TokenString(static_cast<uint32_t>(i)));
  }
  ASSERT_EQ(interner.size(), tokens.size());
  for (size_t i = 0; i < tokens.size(); ++i) {
    std::optional<uint32_t> found = interner.Find(tokens[i]);
    ASSERT_TRUE(found.has_value()) << i;
    ASSERT_EQ(*found, i);
    ASSERT_EQ(interner.Intern(tokens[i]), i);
    ASSERT_EQ(&interner.TokenString(static_cast<uint32_t>(i)), refs[i]);
    ASSERT_EQ(*refs[i], tokens[i]);
  }
  EXPECT_EQ(interner.size(), tokens.size());
  EXPECT_FALSE(interner.Find(prefix).has_value());
}

// ---------- id-span kernels vs string kernels ----------

// Interns a token vector and returns its sorted id list (duplicates kept,
// as PreparedColumn does).
std::vector<uint32_t> ToIds(const std::vector<std::string>& tokens,
                            TokenInterner* interner) {
  std::vector<uint32_t> ids;
  for (const auto& t : tokens) ids.push_back(interner->Intern(t));
  std::sort(ids.begin(), ids.end());
  return ids;
}

IdSpan SpanOf(const std::vector<uint32_t>& ids) {
  return {ids.data(), static_cast<uint32_t>(ids.size())};
}

TEST(IdSpanKernelTest, BitIdenticalToStringKernelsOnRandomizedCorpus) {
  std::mt19937 rng(7);
  TokenInterner interner;
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<std::string> a = RandomTokens(rng);
    std::vector<std::string> b = RandomTokens(rng);
    std::vector<uint32_t> ia = ToIds(a, &interner);
    std::vector<uint32_t> ib = ToIds(b, &interner);
    IdSpan sa = SpanOf(ia), sb = SpanOf(ib);
    EXPECT_EQ(OverlapSize(a, b), OverlapSize(sa, sb));
    // EXPECT_EQ on doubles is exact — the contract is bit-identical.
    EXPECT_EQ(JaccardSimilarity(a, b), JaccardSimilarity(sa, sb));
    EXPECT_EQ(OverlapCoefficient(a, b), OverlapCoefficient(sa, sb));
    EXPECT_EQ(DiceSimilarity(a, b), DiceSimilarity(sa, sb));
    EXPECT_EQ(CosineSimilarity(a, b), CosineSimilarity(sa, sb));
  }
}

TEST(IdSpanKernelTest, EmptyAndDuplicateEdgeCases) {
  TokenInterner interner;
  std::vector<uint32_t> empty;
  std::vector<uint32_t> dup = ToIds({"a", "a", "a"}, &interner);
  std::vector<uint32_t> ab = ToIds({"a", "b"}, &interner);
  EXPECT_EQ(JaccardSimilarity(SpanOf(empty), SpanOf(empty)), 1.0);
  EXPECT_EQ(OverlapCoefficient(SpanOf(empty), SpanOf(ab)), 0.0);
  EXPECT_EQ(CosineSimilarity(SpanOf(empty), SpanOf(ab)), 0.0);
  EXPECT_EQ(DiceSimilarity(SpanOf(empty), SpanOf(empty)), 1.0);
  // {a,a,a} deduplicates to {a}: |A|=1, inter with {a,b} = 1.
  EXPECT_EQ(JaccardSimilarity(SpanOf(dup), SpanOf(ab)), 0.5);
  EXPECT_EQ(OverlapCoefficient(SpanOf(dup), SpanOf(ab)), 1.0);
}

// ---------- PreparedColumn / PrepCache ----------

TEST(PreparedColumnTest, MatchesLegacyPrepAndTokenization) {
  Table t = RandomTable(200, 11);
  std::vector<Value> col = **t.ColumnByName("title");
  // Cells that exercise every tokenizer's separators, the q-gram padding
  // sentinels, and cells shorter than q.
  for (const char* s :
       {"SMITH, J | DOE, A |  | LEE, B", "a\tb\nc\rd\ve\ff g", "x|x|y|", "|",
        "ABC abc AbC", "#ab$ ##a$$", "  ", "a", "aa", "aaaa",
        "IPM-based (corn)! 2008"}) {
    col.emplace_back(s);
  }
  col.emplace_back(2.5);

  std::vector<std::unique_ptr<Tokenizer>> tokenizers;
  tokenizers.push_back(std::make_unique<WhitespaceTokenizer>());
  tokenizers.push_back(std::make_unique<AlphanumericTokenizer>());
  tokenizers.push_back(std::make_unique<DelimiterTokenizer>('|'));
  for (int q = 1; q <= 4; ++q) {
    for (bool pad : {true, false}) {
      tokenizers.push_back(std::make_unique<QgramTokenizer>(q, pad));
    }
  }
  for (auto& tok : tokenizers) {
    for (bool unique : {true, false}) {
      tok->set_unique(unique);
      for (PrepOptions opts :
           {PrepOptions{false, false}, PrepOptions{true, false},
            PrepOptions{false, true}, PrepOptions{true, true}}) {
        SCOPED_TRACE(tok->name() + (unique ? "/u" : "/b") +
                     (opts.lowercase ? " lc" : "") +
                     (opts.strip_punctuation ? " sp" : ""));
        // A fresh cache against a separate interner fed the legacy tokens
        // row by row: ids must agree exactly, not just up to permutation.
        PrepCache cache;
        TokenInterner legacy;
        auto prep = cache.Get(col, opts, tok.get());
        OverlapBlockerOptions legacy_opts;
        legacy_opts.lowercase = opts.lowercase;
        legacy_opts.strip_punctuation = opts.strip_punctuation;
        auto legacy_tokens =
            internal_block::TokenizeColumn(col, legacy_opts, *tok);
        ASSERT_EQ(prep->rows(), col.size());
        for (size_t r = 0; r < col.size(); ++r) {
          EXPECT_EQ(prep->is_null(r), col[r].is_null());
          std::string text;
          if (!col[r].is_null()) {
            text = col[r].AsString();
            if (opts.lowercase) text = AsciiToLower(text);
            if (opts.strip_punctuation) text = StripPunctuation(text);
          }
          const std::vector<std::string>& want = legacy_tokens[r];
          std::vector<uint32_t> want_ids;
          for (const std::string& w : want) {
            want_ids.push_back(legacy.Intern(w));
          }
          EXPECT_EQ(prep->text(r), text) << "row " << r;
          size_t n = 0;
          const auto* toks = prep->tokens(r, &n);
          EXPECT_EQ(std::vector<std::string>(toks, toks + n), want)
              << "row " << r;
          const uint32_t* emitted = prep->emission_ids(r, &n);
          EXPECT_EQ(std::vector<uint32_t>(emitted, emitted + n), want_ids)
              << "row " << r;
          std::sort(want_ids.begin(), want_ids.end());
          IdSpan ids = prep->ids(r);
          EXPECT_EQ(std::vector<uint32_t>(ids.begin(), ids.end()), want_ids)
              << "row " << r;
        }
        EXPECT_EQ(cache.interned_tokens(), legacy.size());
      }
    }
  }
}

// A column grown one row at a time through AppendUncached equals the bulk
// build row for row, under whitespace, q-gram (duplicate ids) and
// text-only prep, and shares its ids with a cached column of the cache.
TEST(PreparedColumnTest, AppendedRowsMatchBulkBuild) {
  Table t = RandomTable(200, 12);
  std::vector<Value> col = {Value::Null(), Value(std::string()),
                            Value("alpha alpha alpha beta")};
  const std::vector<Value>* title = *t.ColumnByName("title");
  col.insert(col.end(), title->begin(), title->end());
  auto ids_of = [](IdSpan s) {
    return std::vector<uint32_t>(s.begin(), s.end());
  };
  PrepCache cache;
  WhitespaceTokenizer ws;
  QgramTokenizer q3(3);
  struct Config {
    PrepOptions opts;
    const Tokenizer* tokenizer;
  };
  for (const Config& c :
       {Config{{true, true}, &ws}, Config{{false, false}, &q3},
        Config{{true, false}, nullptr}}) {
    PreparedColumn bulk = cache.PrepUncached(col, c.opts, c.tokenizer);
    PreparedColumn grown = cache.PrepUncached({}, c.opts, c.tokenizer);
    for (const Value& v : col) {
      cache.AppendUncached(&grown, v, c.opts, c.tokenizer);
    }
    auto cached = cache.Get(col, c.opts, c.tokenizer);
    ASSERT_EQ(grown.rows(), bulk.rows());
    for (size_t r = 0; r < bulk.rows(); ++r) {
      EXPECT_EQ(grown.is_null(r), bulk.is_null(r)) << "row " << r;
      EXPECT_EQ(grown.text(r), bulk.text(r)) << "row " << r;
      EXPECT_EQ(ids_of(grown.ids(r)), ids_of(bulk.ids(r))) << "row " << r;
      EXPECT_EQ(ids_of(grown.ids(r)), ids_of(cached->ids(r))) << "row " << r;
      size_t ng = 0, nb = 0;
      const std::string_view* tg = grown.tokens(r, &ng);
      const std::string_view* tb = bulk.tokens(r, &nb);
      EXPECT_EQ(std::vector<std::string>(tg, tg + ng),
                std::vector<std::string>(tb, tb + nb))
          << "row " << r;
      const uint32_t* eg = grown.emission_ids(r, &ng);
      const uint32_t* eb = bulk.emission_ids(r, &nb);
      EXPECT_EQ(std::vector<uint32_t>(eg, eg + ng),
                std::vector<uint32_t>(eb, eb + nb))
          << "row " << r;
    }
  }
}

TEST(PrepCacheTest, DeduplicatesByColumnAndConfig) {
  Table t = RandomTable(50, 3);
  const std::vector<Value>* title = *t.ColumnByName("title");
  const std::vector<Value>* date = *t.ColumnByName("date");
  PrepCache cache;
  WhitespaceTokenizer ws;
  PrepOptions a{true, true};
  PrepOptions b{true, false};
  auto p1 = cache.Get(*title, a, &ws);
  auto p2 = cache.Get(*title, a, &ws);
  EXPECT_EQ(p1.get(), p2.get());  // cache hit: same object
  EXPECT_EQ(cache.entries(), 1u);
  cache.Get(*title, b, &ws);        // different normalization
  cache.Get(*title, a, nullptr);    // text-only prep
  cache.Get(*date, a, &ws);         // different column
  EXPECT_EQ(cache.entries(), 4u);
  // Clear drops entries but outstanding references stay readable.
  cache.Clear();
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(p1->rows(), title->size());
}

// A padded and an unpadded q-gram tokenizer emit different tokens, so they
// must not share a cache entry.
TEST(PrepCacheTest, PaddedAndUnpaddedQgramsAreDistinctEntries) {
  std::vector<Value> col = {Value("abcd")};
  PrepCache cache;
  QgramTokenizer padded(3);
  QgramTokenizer unpadded(3, /*pad=*/false);
  auto p = cache.Get(col, {}, &padded);
  auto u = cache.Get(col, {}, &unpadded);
  EXPECT_NE(p.get(), u.get());
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_EQ(p->ids(0).size, 6u);
  EXPECT_EQ(u->ids(0).size, 2u);
  size_t n = 0;
  const auto* toks = u->tokens(0, &n);
  EXPECT_EQ(std::vector<std::string>(toks, toks + n),
            (std::vector<std::string>{"abc", "bcd"}));
}

// Columns keep their cache's interner alive: their tokens view its strings.
TEST(PrepCacheTest, ColumnOutlivesItsCache) {
  std::vector<Value> col = {Value("alpha beta alpha"), Value::Null(),
                            Value("gamma")};
  WhitespaceTokenizer ws;
  QgramTokenizer q3(3);
  std::shared_ptr<const PreparedColumn> cached;
  std::optional<PreparedColumn> uncached;
  {
    PrepCache cache;
    cached = cache.Get(col, {}, &ws);
    uncached.emplace(cache.PrepUncached(col, {}, &q3));
  }
  auto tokens_of = [](const PreparedColumn& c, size_t row) {
    size_t n = 0;
    const auto* toks = c.tokens(row, &n);
    return std::vector<std::string>(toks, toks + n);
  };
  EXPECT_EQ(tokens_of(*cached, 0), (std::vector<std::string>{"alpha", "beta"}));
  EXPECT_TRUE(tokens_of(*cached, 1).empty());
  EXPECT_EQ(tokens_of(*cached, 2), (std::vector<std::string>{"gamma"}));
  EXPECT_EQ(tokens_of(*uncached, 2),
            (std::vector<std::string>{"##g", "#ga", "gam", "amm", "mma", "ma$",
                                      "a$$"}));
}

// ---------- overlap join: id path vs legacy string path ----------

TEST(OverlapJoinTest, IdJoinMatchesStringJoinAt128Threads) {
  Table left = RandomTable(150, 21);
  Table right = RandomTable(170, 22);
  const std::vector<Value>* lcol = *left.ColumnByName("title");
  const std::vector<Value>* rcol = *right.ColumnByName("title");
  OverlapBlockerOptions opts;
  opts.lowercase = true;
  opts.strip_punctuation = true;
  WhitespaceTokenizer ws;
  auto lt = internal_block::TokenizeColumn(*lcol, opts, ws);
  auto rt = internal_block::TokenizeColumn(*rcol, opts, ws);

  PrepCache cache;
  auto lp = cache.Get(*lcol, internal_block::ToPrepOptions(opts), &ws);
  auto rp = cache.Get(*rcol, internal_block::ToPrepOptions(opts), &ws);

  internal_block::OverlapKeepFn keep = [](size_t, size_t, size_t overlap) {
    return overlap >= 1;
  };
  for (size_t threads : {1u, 2u, 8u}) {
    Executor pool(threads);
    ExecutorContext ctx{&pool};
    CandidateSet legacy =
        internal_block::OverlapJoinStrings(lt, rt, keep, ctx);
    CandidateSet ids = internal_block::PartitionedOverlapJoin(
        *lp, *rp, keep, /*min_left_tokens=*/1, internal_block::BlockBudget{},
        ctx);
    EXPECT_TRUE(legacy == ids) << "threads=" << threads << " legacy="
                               << legacy.size() << " ids=" << ids.size();
    EXPECT_GT(ids.size(), 0u);  // corpus guarantees some overlap
  }
}

TEST(OverlapBlockerTest, BlockerOutputsIdenticalAcrossThreadCounts) {
  Table left = RandomTable(120, 31);
  Table right = RandomTable(120, 32);
  OverlapBlockerOptions opts;
  opts.left_attr = "title";
  opts.right_attr = "title";
  OverlapBlocker k2(opts, 2);
  OverlapCoefficientBlocker coeff(opts, 0.6);
  JaccardJoinBlocker jac(opts, 0.4);

  Executor pool1(1);
  ExecutorContext ctx1{&pool1};
  auto k2_base = k2.Block(left, right, ctx1);
  auto coeff_base = coeff.Block(left, right, ctx1);
  BlockStats stats_base;
  auto jac_base = jac.BlockWithStats(left, right, &stats_base, ctx1);
  ASSERT_TRUE(k2_base.ok() && coeff_base.ok() && jac_base.ok());

  for (size_t threads : {2u, 8u}) {
    Executor pool(threads);
    ExecutorContext ctx{&pool};
    auto k2_t = k2.Block(left, right, ctx);
    auto coeff_t = coeff.Block(left, right, ctx);
    BlockStats stats;
    auto jac_t = jac.BlockWithStats(left, right, &stats, ctx);
    ASSERT_TRUE(k2_t.ok() && coeff_t.ok() && jac_t.ok());
    EXPECT_TRUE(*k2_base == *k2_t) << "threads=" << threads;
    EXPECT_TRUE(*coeff_base == *coeff_t) << "threads=" << threads;
    EXPECT_TRUE(*jac_base == *jac_t) << "threads=" << threads;
    EXPECT_EQ(stats_base.verified, stats.verified) << "threads=" << threads;
  }
}

// Brute-force jaccard join as ground truth: the prefix filter must be
// lossless under the id representation too.
TEST(JaccardJoinTest, IdPathLosslessVsBruteForce) {
  Table left = RandomTable(80, 41);
  Table right = RandomTable(80, 42);
  OverlapBlockerOptions opts;
  opts.left_attr = "title";
  opts.right_attr = "title";
  double threshold = 0.5;
  JaccardJoinBlocker jac(opts, threshold);
  auto got = jac.Block(left, right);
  ASSERT_TRUE(got.ok());

  WhitespaceTokenizer ws;
  auto lt = internal_block::TokenizeColumn(*(*left.ColumnByName("title")),
                                           opts, ws);
  auto rt = internal_block::TokenizeColumn(*(*right.ColumnByName("title")),
                                           opts, ws);
  std::vector<RecordPair> expected;
  for (size_t l = 0; l < lt.size(); ++l) {
    for (size_t r = 0; r < rt.size(); ++r) {
      if (lt[l].empty() || rt[r].empty()) continue;  // prefix of 0 tokens
      if (JaccardSimilarity(lt[l], rt[r]) >= threshold) {
        expected.push_back(
            {static_cast<uint32_t>(l), static_cast<uint32_t>(r)});
      }
    }
  }
  EXPECT_TRUE(*got == CandidateSet(std::move(expected)));
}

// ---------- vectorize: prepared path vs legacy path ----------

TEST(VectorizeEquivalenceTest, PreparedBitIdenticalToLegacyAt128Threads) {
  Table left = RandomTable(60, 51);
  Table right = RandomTable(60, 52);
  FeatureGenOptions gen;
  gen.exclude = {"id"};
  gen.lowercase_variants = {"title"};
  auto features = GenerateFeatures(left, right, gen);
  ASSERT_TRUE(features.ok());
  // Include the date feature so the fn-only (no prep) path is exercised.
  features->features.push_back(MakeYearDiffFeature("date", "date"));

  // All pairs in a modest cross product, exercising null/empty/punct cells.
  std::vector<RecordPair> all;
  for (uint32_t l = 0; l < 60; ++l) {
    for (uint32_t r = 0; r < 60; r += 3) all.push_back({l, r});
  }
  CandidateSet pairs(std::move(all));

  Executor pool1(1);
  auto legacy =
      VectorizePairsUnprepared(left, right, pairs, *features,
                               ExecutorContext{&pool1});
  ASSERT_TRUE(legacy.ok());

  for (size_t threads : {1u, 2u, 8u}) {
    Executor pool(threads);
    ExecutorContext ctx{&pool};
    auto prepared = VectorizePairs(left, right, pairs, *features, ctx);
    ASSERT_TRUE(prepared.ok());
    ASSERT_EQ(prepared->rows.size(), legacy->rows.size());
    for (size_t r = 0; r < legacy->rows.size(); ++r) {
      for (size_t c = 0; c < legacy->rows[r].size(); ++c) {
        double a = legacy->rows[r][c];
        double b = prepared->rows[r][c];
        // Bitwise comparison (NaN == NaN under this contract).
        EXPECT_TRUE((std::isnan(a) && std::isnan(b)) || a == b)
            << "threads=" << threads << " row=" << r << " col=" << c << " ("
            << legacy->feature_names[c] << "): " << a << " vs " << b;
      }
    }
  }
}

// A workflow-scoped cache shared by two blockers over the same attribute
// performs ONE tokenized-column pass per side, and cached vectorization
// doesn't change workflow output.
TEST(WorkflowPrepCacheTest, BlockersShareOneTokenizePassPerColumn) {
  Table left = RandomTable(100, 61);
  Table right = RandomTable(100, 62);
  OverlapBlockerOptions opts;
  opts.left_attr = "title";
  opts.right_attr = "title";

  EmWorkflow wf;
  wf.AddBlocker(std::make_shared<OverlapBlocker>(opts, 1));
  wf.AddBlocker(std::make_shared<OverlapCoefficientBlocker>(opts, 0.8));
  auto run = wf.Run(left, right);
  ASSERT_TRUE(run.ok());
  // Same attribute + same tokenizer + same normalization on both blockers:
  // exactly one prepared entry per side's column.
  EXPECT_EQ(wf.prep_cache()->entries(), 2u);

  // Output matches standalone blockers (which prep through local caches).
  OverlapBlocker solo_k(opts, 1);
  OverlapCoefficientBlocker solo_c(opts, 0.8);
  auto k = solo_k.Block(left, right);
  auto c = solo_c.Block(left, right);
  ASSERT_TRUE(k.ok() && c.ok());
  EXPECT_TRUE(run->candidates == CandidateSet::Union(*k, *c));

  wf.ClearPrepCache();
  EXPECT_EQ(wf.prep_cache()->entries(), 0u);
}

// ---------- vectorize: touched-row prep vs whole-column prep ----------

// Bitwise equality of two doubles, NaN payloads included.
bool SameBits(double a, double b) {
  uint64_t x = 0, y = 0;
  std::memcpy(&x, &a, sizeof x);
  std::memcpy(&y, &b, sizeof y);
  return x == y;
}

// Fills `cache` with the whole column of every (column, prep) family
// `features` binds on `table`'s side (the left one when `left_side`), as
// bench_vectorize's WarmCache does.
void PrefillWholeColumns(const Table& table, const FeatureSet& features,
                         bool left_side, PrepCache* cache) {
  for (const Feature& f : features.features) {
    if (!f.has_prep()) continue;
    FeaturePrep prep = PrepForFeature(f.prep);
    auto column = table.ColumnByName(left_side ? f.left_attr : f.right_attr);
    ASSERT_TRUE(column.ok());
    cache->Get(**column, prep.options, prep.tokenizer.get());
  }
}

// The reference: vectorize through a cache that holds every bound family's
// whole column, so nothing is prepped per call.
PairBatch WholeColumnBatch(const Table& left, const Table& right,
                           const CandidateSet& pairs,
                           const FeatureSet& features) {
  PrepCache cache;
  PrefillWholeColumns(left, features, /*left_side=*/true, &cache);
  PrefillWholeColumns(right, features, /*left_side=*/false, &cache);
  Executor pool(1);
  auto batch = VectorizePairsBatch(left, right, pairs, features,
                                   ExecutorContext{&pool}, &cache);
  EXPECT_TRUE(batch.ok()) << batch.status().ToString();
  return batch.ok() ? std::move(*batch) : PairBatch();
}

void ExpectSameBatch(const PairBatch& want, const PairBatch& got,
                     const std::string& what) {
  ASSERT_EQ(got.num_pairs(), want.num_pairs()) << what;
  ASSERT_EQ(got.num_features(), want.num_features()) << what;
  size_t mismatches = 0;
  for (size_t f = 0; f < want.num_features(); ++f) {
    for (size_t i = 0; i < want.num_pairs(); ++i) {
      if (SameBits(want.At(i, f), got.At(i, f))) continue;
      if (++mismatches <= 5) {
        ADD_FAILURE() << what << ": pair " << i << " feature "
                      << want.feature_names[f] << ": " << want.At(i, f)
                      << " vs " << got.At(i, f);
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << what;
}

// Touched-row vectorize — no cache, and through `cache` when given — at
// 1/2/8 threads must equal whole-column vectorize bit for bit, and must
// leave `cache`'s entries as they were.
void ExpectTouchedRowsBitIdentical(const Table& left, const Table& right,
                                   const CandidateSet& pairs,
                                   const FeatureSet& features,
                                   const std::string& what,
                                   PrepCache* cache = nullptr) {
  const PairBatch want = WholeColumnBatch(left, right, pairs, features);
  const size_t entries = cache != nullptr ? cache->entries() : 0;
  for (size_t threads : {1u, 2u, 8u}) {
    Executor pool(threads);
    ExecutorContext ctx{&pool};
    auto got = VectorizePairsBatch(left, right, pairs, features, ctx, cache);
    ASSERT_TRUE(got.ok()) << what << ": " << got.status().ToString();
    ExpectSameBatch(want, *got,
                    what + " threads=" + std::to_string(threads));
    if (cache != nullptr) {
      EXPECT_EQ(cache->entries(), entries) << what;
    }
  }
}

struct CaseStudyPairs {
  ProjectedTables tables;
  FeatureSet features;
  CandidateSet original;  // umetrics x usda candidates
  CandidateSet extra;     // extra x usda candidates
  CandidateSet labeled;   // the 300 training labels' pairs
};

const CaseStudyPairs& CaseStudy() {
  static const CaseStudyPairs& cs = *[] {
    auto* c = new CaseStudyPairs();
    CaseStudyData data = std::move(*GenerateCaseStudy());
    c->tables = std::move(*PreprocessCaseStudy(data));
    BlockingOutputs original =
        std::move(*RunStandardBlocking(c->tables.umetrics, c->tables.usda));
    c->original = original.c;
    c->extra = RunStandardBlocking(c->tables.extra, c->tables.usda)->c;
    c->labeled = CollectCorrectedLabels(MakeOracle(data.gold, data.ambiguous),
                                        original.c, 3, 100, 100)
                     .Pairs();
    c->features = std::move(*CaseStudyFeatures(
        c->tables.umetrics, c->tables.usda, /*case_fix=*/true));
    return c;
  }();
  return cs;
}

// The case study's 35 features over both branches' candidates and the
// training labels: each touches a subset of the rows on both sides.
TEST(VectorizeRowSubsetTest, CaseStudyBitIdenticalAt128Threads) {
  const CaseStudyPairs& cs = CaseStudy();
  ASSERT_EQ(cs.labeled.size(), 300u);
  ExpectTouchedRowsBitIdentical(cs.tables.umetrics, cs.tables.usda,
                                cs.original, cs.features, "original");
  ExpectTouchedRowsBitIdentical(cs.tables.extra, cs.tables.usda, cs.extra,
                                cs.features, "extra");
  ExpectTouchedRowsBitIdentical(cs.tables.umetrics, cs.tables.usda,
                                cs.labeled, cs.features, "labels");
}

// An SF-2 scale corpus's auto features over its title blockers'
// candidates.
TEST(VectorizeRowSubsetTest, ScaleCorpusBitIdenticalAt128Threads) {
  ScaleCorpusOptions options;
  options.scale_factor = 2;
  auto corpus = GenerateScaleCorpus(options);
  ASSERT_TRUE(corpus.ok());
  FeatureGenOptions gen;
  gen.exclude = {"RecordId"};
  gen.lowercase_variants = {"AwardTitle"};
  auto features = GenerateFeatures(corpus->left, corpus->right, gen);
  ASSERT_TRUE(features.ok());
  OverlapBlockerOptions opts;
  opts.left_attr = "AwardTitle";
  opts.right_attr = "AwardTitle";
  opts.lowercase = true;
  auto pairs = OverlapBlocker(opts, 3).Block(corpus->left, corpus->right);
  ASSERT_TRUE(pairs.ok());
  ASSERT_GT(pairs->size(), 0u);
  ExpectTouchedRowsBitIdentical(corpus->left, corpus->right, *pairs,
                                *features, "sf2");
}

// The random-corpus feature set (null, empty, punctuation-only and
// duplicate-token cells) with two Value-fn features mixed in.
FeatureSet MixedFeatures(const Table& left, const Table& right) {
  FeatureGenOptions gen;
  gen.exclude = {"id"};
  gen.lowercase_variants = {"title"};
  FeatureSet features = std::move(*GenerateFeatures(left, right, gen));
  features.features.insert(features.features.begin() + 1,
                           MakeYearDiffFeature("date", "date"));
  features.features.push_back(MakeAbsDiffFeature("amount", "amount"));
  return features;
}

TEST(VectorizeRowSubsetTest, EmptyPairSet) {
  Table left = RandomTable(40, 71);
  Table right = RandomTable(40, 72);
  FeatureSet features = MixedFeatures(left, right);
  PrepCache cache;
  auto batch = VectorizePairsBatch(left, right, CandidateSet(), features, {},
                                   &cache);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->num_pairs(), 0u);
  EXPECT_EQ(batch->num_features(), features.features.size());
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.interned_tokens(), 0u);  // nothing was prepped
}

TEST(VectorizeRowSubsetTest, PairsThatAllTouchOneRow) {
  Table left = RandomTable(40, 73);
  Table right = RandomTable(50, 74);
  FeatureSet features = MixedFeatures(left, right);
  std::vector<RecordPair> one_left, one_right;
  for (uint32_t r = 0; r < 50; ++r) one_left.push_back({7, r});
  for (uint32_t l = 0; l < 40; ++l) one_right.push_back({l, 11});
  ExpectTouchedRowsBitIdentical(left, right, CandidateSet(one_left), features,
                                "one left row");
  ExpectTouchedRowsBitIdentical(left, right, CandidateSet(one_right),
                                features, "one right row");
  ExpectTouchedRowsBitIdentical(left, right, CandidateSet({{39, 49}}),
                                features, "one pair");
}

// One table on both sides binds one column storage twice: the family
// preps the union of both sides' rows.
TEST(VectorizeRowSubsetTest, LeftAndRightAreTheSameTable) {
  Table table = RandomTable(60, 75);
  FeatureSet features = MixedFeatures(table, table);
  std::vector<RecordPair> pairs;
  for (uint32_t l = 0; l < 20; ++l) {
    for (uint32_t r = 30; r < 60; r += 4) pairs.push_back({l, r});
  }
  pairs.push_back({45, 3});  // rows on both sides of the split
  ExpectTouchedRowsBitIdentical(table, table, CandidateSet(pairs), features,
                                "self-join");
}

TEST(VectorizeRowSubsetTest, AllNullColumn) {
  Table left = RandomTable(30, 76);
  Schema schema({{"id", DataType::kInt64},
                 {"title", DataType::kAny},
                 {"amount", DataType::kAny},
                 {"date", DataType::kString}});
  Table right(schema);
  for (int64_t i = 0; i < 30; ++i) {
    ASSERT_TRUE(right
                    .AppendRow({Value(i), Value::Null(), Value::Null(),
                                Value::Null()})
                    .ok());
  }
  FeatureSet features = MixedFeatures(left, left);
  std::vector<RecordPair> pairs;
  for (uint32_t l = 0; l < 30; l += 2) pairs.push_back({l, 29 - l});
  ExpectTouchedRowsBitIdentical(left, right, CandidateSet(pairs), features,
                                "null right");
  ExpectTouchedRowsBitIdentical(right, left, CandidateSet(pairs), features,
                                "null left");
}

TEST(VectorizeRowSubsetTest, ValueFnFeatureMixedIn) {
  Table left = RandomTable(50, 77);
  Table right = RandomTable(50, 78);
  FeatureSet features = MixedFeatures(left, right);
  size_t value_fn = 0;
  for (const Feature& f : features.features) value_fn += !f.has_prep();
  ASSERT_GE(value_fn, 2u);
  std::vector<RecordPair> pairs;
  for (uint32_t l = 0; l < 50; l += 3) {
    for (uint32_t r = 1; r < 50; r += 5) pairs.push_back({l, r});
  }
  ExpectTouchedRowsBitIdentical(left, right, CandidateSet(pairs), features,
                                "mixed");
}

// A cache holding only the left side's whole columns: the left binds them,
// the right preps its touched rows through the same interner, and neither
// enters the cache.
TEST(VectorizeRowSubsetTest, CacheHoldsOnlyOneSidesWholeColumn) {
  Table left = RandomTable(50, 79);
  Table right = RandomTable(50, 80);
  FeatureSet features = MixedFeatures(left, right);
  std::vector<RecordPair> pairs;
  for (uint32_t l = 0; l < 50; l += 2) {
    for (uint32_t r = 0; r < 50; r += 7) pairs.push_back({l, r});
  }
  PrepCache cache;
  PrefillWholeColumns(left, features, /*left_side=*/true, &cache);
  ASSERT_GT(cache.entries(), 0u);
  ExpectTouchedRowsBitIdentical(left, right, CandidateSet(pairs), features,
                                "left cached", &cache);
  PrepCache right_only;
  PrefillWholeColumns(right, features, /*left_side=*/false, &right_only);
  ExpectTouchedRowsBitIdentical(left, right, CandidateSet(pairs), features,
                                "right cached", &right_only);
}

// A workflow run with a matcher leaves only the blockers' whole columns in
// its cache; a later whole-column Get of a family the matcher's features
// bound preps every row, and a run on a cache pre-filled with the
// features' whole columns decides the same matches.
TEST(VectorizeRowSubsetTest, WorkflowCacheHoldsOnlyBlockerColumns) {
  Table left = RandomTable(80, 81);
  Table right = RandomTable(80, 82);
  OverlapBlockerOptions opts;
  opts.left_attr = "title";
  opts.right_attr = "title";
  FeatureSet features;
  features.features.push_back(MakeJaccardFeature("title", "title", 0, true));
  features.features.push_back(MakeMongeElkanFeature("title", "title"));
  features.features.push_back(MakeLevenshteinFeature("title", "title"));
  Dataset d;
  d.feature_names = features.names();
  d.x = {{1.0, 1.0, 1.0}, {0.7, 0.9, 0.8}, {0.2, 0.5, 0.3}, {0.0, 0.1, 0.1}};
  d.y = {1, 1, 0, 0};
  auto tree = std::make_shared<DecisionTreeMatcher>();
  ASSERT_TRUE(tree->Fit(d).ok());
  FeatureMatrix m;
  m.feature_names = d.feature_names;
  m.rows = d.x;
  MeanImputer imputer;
  imputer.Fit(m);
  auto make_workflow = [&] {
    EmWorkflow wf;
    wf.AddBlocker(std::make_shared<OverlapBlocker>(opts, 2));
    wf.AddBlocker(std::make_shared<OverlapCoefficientBlocker>(opts, 0.8));
    wf.SetMatcher(tree, features, imputer);
    return wf;
  };

  EmWorkflow wf = make_workflow();
  auto run = wf.Run(left, right);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_GT(run->ml_input.size(), 0u);
  EXPECT_EQ(wf.prep_cache()->entries(), 2u);  // the blockers' two columns

  const std::vector<Value>& title = **left.ColumnByName("title");
  FeaturePrep prep = PrepForFeature(features.features[0].prep);
  auto got = wf.prep_cache()->Get(title, prep.options, prep.tokenizer.get());
  PrepCache fresh;
  auto want = fresh.Get(title, prep.options, prep.tokenizer.get());
  ASSERT_EQ(got->rows(), want->rows());
  for (size_t r = 0; r < want->rows(); ++r) {
    EXPECT_EQ(got->is_null(r), want->is_null(r)) << "row " << r;
    EXPECT_EQ(got->text(r), want->text(r)) << "row " << r;
    size_t ng = 0, nw = 0;
    const std::string_view* tg = got->tokens(r, &ng);
    const std::string_view* tw = want->tokens(r, &nw);
    EXPECT_EQ(std::vector<std::string_view>(tg, tg + ng),
              std::vector<std::string_view>(tw, tw + nw))
        << "row " << r;
  }
  EXPECT_EQ(wf.prep_cache()->entries(), 3u);

  EmWorkflow warm = make_workflow();
  PrefillWholeColumns(left, features, /*left_side=*/true,
                      warm.prep_cache().get());
  PrefillWholeColumns(right, features, /*left_side=*/false,
                      warm.prep_cache().get());
  auto warm_run = warm.Run(left, right);
  ASSERT_TRUE(warm_run.ok());
  EXPECT_TRUE(warm_run->ml_predicted == run->ml_predicted);
  EXPECT_TRUE(warm_run->final_matches == run->final_matches);
}

}  // namespace
}  // namespace emx
