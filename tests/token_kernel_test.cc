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

// A one-column table, column "c", holding `values`.
Table ColumnTable(const std::vector<Value>& values) {
  Table t(Schema({{"c", DataType::kAny}}));
  for (const Value& v : values) EXPECT_TRUE(t.AppendRow({v}).ok());
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

TEST(TokenInternerTest, ClearRestartsIds) {
  TokenInterner interner;
  interner.Clear();  // clearing an empty interner is a no-op
  for (int i = 0; i < 100; ++i) interner.Intern("t" + std::to_string(i));
  interner.Clear();
  EXPECT_EQ(interner.size(), 0u);
  EXPECT_FALSE(interner.Find("t7").has_value());
  EXPECT_EQ(interner.Intern("t7"), 0u);
  EXPECT_EQ(interner.Intern("new"), 1u);
  EXPECT_EQ(*interner.Find("t7"), 0u);
  EXPECT_EQ(interner.TokenString(1), "new");
  EXPECT_EQ(interner.Signature(1)->length, 3u);
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
  const Table table = ColumnTable(col);
  const std::vector<PrepOptions> normalizations = {
      PrepOptions{false, false}, PrepOptions{true, false},
      PrepOptions{false, true}, PrepOptions{true, true}};

  // Texts: untokenized prep keeps the normalized string of every row.
  for (const PrepOptions& opts : normalizations) {
    SCOPED_TRACE(std::string(opts.lowercase ? "lc" : "") +
                 (opts.strip_punctuation ? " sp" : ""));
    PrepCache cache;
    auto prep = cache.Get(table, "c", opts, nullptr).value();
    ASSERT_EQ(prep->rows(), col.size());
    for (size_t r = 0; r < col.size(); ++r) {
      EXPECT_EQ(prep->is_null(r), col[r].is_null());
      std::string text;
      if (!col[r].is_null()) {
        text = col[r].AsString();
        if (opts.lowercase) text = AsciiToLower(text);
        if (opts.strip_punctuation) text = StripPunctuation(text);
      }
      EXPECT_EQ(prep->text(r), text) << "row " << r;
    }
  }

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
      for (const PrepOptions& opts : normalizations) {
        SCOPED_TRACE(tok->name() + (unique ? "/u" : "/b") +
                     (opts.lowercase ? " lc" : "") +
                     (opts.strip_punctuation ? " sp" : ""));
        // A fresh cache against a separate interner fed the legacy tokens
        // row by row: ids must agree exactly, not just up to permutation.
        // The lean column interns first; the one with token rows preps the
        // same column after it, so both hold the same ids.
        PrepCache cache;
        TokenInterner legacy;
        auto lean = cache.Get(table, "c", opts, tok.get()).value();
        PrepOptions with_rows = opts;
        with_rows.token_rows = true;
        auto rows = cache.Get(table, "c", with_rows, tok.get()).value();
        OverlapBlockerOptions legacy_opts;
        legacy_opts.lowercase = opts.lowercase;
        legacy_opts.strip_punctuation = opts.strip_punctuation;
        auto legacy_tokens =
            internal_block::TokenizeColumn(col, legacy_opts, *tok);
        ASSERT_EQ(lean->rows(), col.size());
        ASSERT_EQ(rows->rows(), col.size());
        for (size_t r = 0; r < col.size(); ++r) {
          EXPECT_EQ(lean->is_null(r), col[r].is_null());
          EXPECT_EQ(rows->is_null(r), col[r].is_null());
          const std::vector<std::string>& want = legacy_tokens[r];
          std::vector<uint32_t> want_ids;
          for (const std::string& w : want) {
            want_ids.push_back(legacy.Intern(w));
          }
          const TokenRow row = rows->token_row(r);
          EXPECT_EQ(std::vector<std::string>(row.tokens,
                                             row.tokens + row.size),
                    want)
              << "row " << r;
          EXPECT_EQ(std::vector<uint32_t>(row.ids, row.ids + row.size),
                    want_ids)
              << "row " << r;
          std::sort(want_ids.begin(), want_ids.end());
          for (const auto& prep : {lean, rows}) {
            IdSpan ids = prep->ids(r);
            EXPECT_EQ(std::vector<uint32_t>(ids.begin(), ids.end()),
                      want_ids)
                << "row " << r;
          }
        }
        EXPECT_EQ(cache.interned_tokens(), legacy.size());
      }
    }
  }
}

// A column grown one row at a time through Append equals the bulk build
// row for row, under whitespace and q-gram (duplicate ids) prep with token
// rows, lean q-gram prep and text-only prep.
TEST(PreparedColumnTest, AppendedRowsMatchBulkBuild) {
  Table t = RandomTable(200, 12);
  std::vector<Value> col = {Value::Null(), Value(std::string()),
                            Value("alpha alpha alpha beta")};
  const std::vector<Value>* title = *t.ColumnByName("title");
  col.insert(col.end(), title->begin(), title->end());
  auto ids_of = [](IdSpan s) {
    return std::vector<uint32_t>(s.begin(), s.end());
  };
  auto interner = std::make_shared<TokenInterner>();
  WhitespaceTokenizer ws;
  QgramTokenizer q3(3);
  struct Config {
    PrepOptions opts;
    const Tokenizer* tokenizer;
  };
  for (const Config& c :
       {Config{{true, true, /*token_rows=*/true}, &ws},
        Config{{false, false, /*token_rows=*/true}, &q3},
        Config{{false, false}, &q3}, Config{{true, false}, nullptr}}) {
    PreparedColumn bulk(col, c.opts, c.tokenizer, interner);
    PreparedColumn grown(std::vector<Value>(), c.opts, c.tokenizer, interner);
    for (const Value& v : col) {
      grown.Append(v, c.opts, c.tokenizer, interner.get());
    }
    ASSERT_EQ(grown.rows(), bulk.rows());
    for (size_t r = 0; r < bulk.rows(); ++r) {
      EXPECT_EQ(grown.is_null(r), bulk.is_null(r)) << "row " << r;
      EXPECT_EQ(grown.text(r), bulk.text(r)) << "row " << r;
      EXPECT_EQ(ids_of(grown.ids(r)), ids_of(bulk.ids(r))) << "row " << r;
      const TokenRow tg = grown.token_row(r);
      const TokenRow tb = bulk.token_row(r);
      EXPECT_EQ(std::vector<std::string>(tg.tokens, tg.tokens + tg.size),
                std::vector<std::string>(tb.tokens, tb.tokens + tb.size))
          << "row " << r;
      EXPECT_EQ(std::vector<uint32_t>(tg.ids, tg.ids + tg.size),
                std::vector<uint32_t>(tb.ids, tb.ids + tb.size))
          << "row " << r;
      EXPECT_EQ(tg.size, c.opts.token_rows ? grown.ids(r).size : 0u)
          << "row " << r;
    }
  }
}

// A query column prepped read-only equals the row Append preps into a
// fresh copy of the corpus interner, and the interner is left as it was:
// a known token gets its interned id, and the unseen tokens get ids from
// interner.size() on in first-seen order, one per distinct string, just
// as interning them would assign. Checked for whitespace tokens with
// token rows (views and signatures), lean and bag q-grams and text-only
// prep, over known, unseen, repeated, short, empty and null values, with
// one column reused for every value.
TEST(PreparedColumnTest, PrepQueryEqualsAppendAndInternsNothing) {
  const std::vector<Value> corpus = {Value("Maize genome study"),
                                     Value("wheat rust resistance"),
                                     Value::Null(), Value("corn")};
  const std::vector<Value> queries = {
      Value("maize genome"), Value("Zqxv maize zqxv florp study"),
      Value("florp florp florp"), Value("ab"), Value(std::string()),
      Value::Null(), Value("MAIZE Genome  study zqxv"), Value(int64_t{1999})};
  WhitespaceTokenizer ws;
  QgramTokenizer q3(3);
  QgramTokenizer bag3(3);
  bag3.set_unique(false);
  struct Config {
    PrepOptions opts;
    const Tokenizer* tokenizer;
  };
  auto ids_of = [](IdSpan s) {
    return std::vector<uint32_t>(s.begin(), s.end());
  };
  PreparedColumn query;
  for (const Config& c :
       {Config{{true, false, /*token_rows=*/true}, &ws},
        Config{{false, false, /*token_rows=*/true}, &ws},
        Config{{true, true}, &ws}, Config{{false, false}, &q3},
        Config{{true, false}, &bag3}, Config{{true, false}, nullptr}}) {
    auto interner = std::make_shared<TokenInterner>();
    PreparedColumn resident(corpus, c.opts, c.tokenizer, interner);
    const size_t interned = interner->size();
    for (size_t i = 0; i < queries.size(); ++i) {
      query.PrepQuery(queries[i], c.opts, c.tokenizer, *interner);
      EXPECT_EQ(interner->size(), interned) << "query " << i;
      auto fresh = std::make_shared<TokenInterner>();
      PreparedColumn reference(corpus, c.opts, c.tokenizer, fresh);
      reference.Append(queries[i], c.opts, c.tokenizer, fresh.get());
      const size_t r = corpus.size();
      ASSERT_EQ(query.rows(), 1u);
      EXPECT_EQ(query.is_null(0), reference.is_null(r)) << "query " << i;
      EXPECT_EQ(query.text(0), reference.text(r)) << "query " << i;
      EXPECT_EQ(ids_of(query.ids(0)), ids_of(reference.ids(r)))
          << "query " << i;
      const TokenRow tq = query.token_row(0);
      const TokenRow tr = reference.token_row(r);
      ASSERT_EQ(tq.size, tr.size) << "query " << i;
      for (size_t k = 0; k < tq.size; ++k) {
        EXPECT_EQ(tq.tokens[k], tr.tokens[k]) << "query " << i;
        EXPECT_EQ(tq.ids[k], tr.ids[k]) << "query " << i;
        const TokenSignature want = MakeTokenSignature(tr.tokens[k]);
        EXPECT_EQ(std::memcmp(tq.signatures[k], &want, sizeof(want)), 0)
            << "query " << i << " token " << k;
      }
    }
  }
}

// Only columns prepped with token_rows keep token rows: a q-gram feature
// column, a blocker's column and a text-only column report an empty
// TokenRow (size 0, null pointers) for every row. No tokenized column
// keeps text; their sorted ids are all there.
TEST(PreparedColumnTest, QgramAndBlockerColumnsHaveNoTokenRows) {
  const std::vector<Value> col = {Value("Applied Corn, Ecology"),
                                  Value::Null(), Value("corn")};
  const Table table = ColumnTable(col);
  PrepCache cache;
  FeaturePrep grams = PrepForFeature({true, /*tokenize=*/true, 3});
  OverlapBlockerOptions blocker;
  WhitespaceTokenizer ws;
  auto qgram =
      cache.Get(table, "c", grams.options, grams.tokenizer.get()).value();
  auto blocked =
      cache.Get(table, "c", internal_block::ToPrepOptions(blocker), &ws)
          .value();
  auto text = cache.Get(table, "c", {}, nullptr).value();
  for (const auto& c : {qgram, blocked, text}) {
    ASSERT_EQ(c->rows(), col.size());
    for (size_t r = 0; r < col.size(); ++r) {
      const TokenRow row = c->token_row(r);
      EXPECT_EQ(row.size, 0u) << "row " << r;
      EXPECT_EQ(row.tokens, nullptr) << "row " << r;
      EXPECT_EQ(row.ids, nullptr) << "row " << r;
      EXPECT_EQ(row.signatures, nullptr) << "row " << r;
    }
  }
  for (const auto& c : {qgram, blocked}) {
    for (size_t r = 0; r < col.size(); ++r) {
      EXPECT_EQ(c->text(r), "") << "row " << r;
    }
  }
  EXPECT_EQ(qgram->ids(0).size, 23u);  // 21 + 3 - 1 padded 3-grams
  EXPECT_EQ(blocked->ids(0).size, 3u);
  EXPECT_EQ(qgram->ids(1).size, 0u);
  EXPECT_EQ(text->ids(0).size, 0u);
  EXPECT_EQ(text->text(0), "Applied Corn, Ecology");
}

// The row sort equals std::sort, repeats kept, on seeded random runs of
// every length from 0 to 300 with ids below 2^8, 2^16, 2^24 and 2^32 —
// both sides of the insertion-sort cutoff and every count of radix
// passes — and on ascending, descending and constant runs.
TEST(PreparedColumnTest, SortIdsEqualsStdSort) {
  std::mt19937_64 rng(19);
  auto expect_sorted = [](std::vector<uint32_t> ids, const char* what) {
    std::vector<uint32_t> want = ids;
    std::sort(want.begin(), want.end());
    internal_prep::SortIds(ids.data(), ids.size());
    EXPECT_EQ(ids, want) << what << ", " << want.size() << " ids";
  };
  for (int bits : {8, 16, 24, 32}) {
    SCOPED_TRACE("ids below 2^" + std::to_string(bits));
    const uint64_t bound = uint64_t{1} << bits;
    for (size_t n = 0; n <= 300; ++n) {
      // Repeats: draws from a pool of about n / 4 ids of the full range.
      std::vector<uint32_t> pool(n / 4 + 1);
      for (uint32_t& id : pool) id = static_cast<uint32_t>(rng() % bound);
      std::vector<uint32_t> ids(n);
      for (uint32_t& id : ids) id = pool[rng() % pool.size()];
      expect_sorted(ids, "with repeats");
      // No repeats: distinct draws, as many as the range holds.
      if (n > bound) continue;
      ids.clear();
      while (ids.size() < n) {
        const uint32_t id = static_cast<uint32_t>(rng() % bound);
        if (std::find(ids.begin(), ids.end(), id) == ids.end()) {
          ids.push_back(id);
        }
      }
      expect_sorted(ids, "without repeats");
    }
    const uint32_t top = static_cast<uint32_t>(bound - 1);
    std::vector<uint32_t> ascending(300), descending(300);
    for (uint32_t i = 0; i < 300; ++i) {
      ascending[i] = top - 299 + i;
      descending[i] = top - i;
    }
    expect_sorted(ascending, "ascending");
    expect_sorted(descending, "descending");
    expect_sorted(std::vector<uint32_t>(300, top), "constant");
  }
}

TEST(PrepCacheTest, DeduplicatesByColumnAndConfig) {
  Table t = RandomTable(50, 3);
  PrepCache cache;
  WhitespaceTokenizer ws;
  PrepOptions a{true, true};
  PrepOptions b{true, false};
  auto p1 = cache.Get(t, "title", a, &ws).value();
  auto p2 = cache.Get(t, "title", a, &ws).value();
  EXPECT_EQ(p1.get(), p2.get());  // cache hit: same object
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_TRUE(cache.Get(t, "title", b, &ws).ok());  // other normalization
  EXPECT_TRUE(cache.Get(t, "title", a, nullptr).ok());  // text-only prep
  EXPECT_TRUE(cache.Get(t, "date", a, &ws).ok());       // other column
  EXPECT_EQ(cache.entries(), 4u);
  EXPECT_EQ(p1->rows(), t.num_rows());
  // A missing column is NotFound, for whole columns and touched rows alike.
  EXPECT_EQ(cache.Get(t, "nope", a, &ws).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(cache.GetRows(t, "nope", {0}, a, &ws).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(cache.entries(), 4u);
}

// An entry is read only for the contents it was prepped from: editing a
// cell, appending a row or dropping a column gives the table a version no
// entry holds, so the next Get preps it afresh; a copy shares its source's
// entries until either side changes.
TEST(PrepCacheTest, KeysOnTableVersion) {
  Table t = ColumnTable({Value("alpha beta"), Value("gamma")});
  PrepCache cache;
  WhitespaceTokenizer ws;
  auto first = cache.Get(t, "c", {}, &ws).value();
  const Table copy = t;
  EXPECT_EQ(copy.version(), t.version());
  EXPECT_EQ(cache.Get(copy, "c", {}, &ws).value().get(), first.get());

  t.set(1, 0, Value("alpha"));
  EXPECT_NE(t.version(), copy.version());
  auto edited = cache.Get(t, "c", {}, &ws).value();
  EXPECT_NE(edited.get(), first.get());
  ASSERT_EQ(edited->ids(1).size, 1u);
  EXPECT_EQ(edited->ids(1).data[0], edited->ids(0).data[0]);  // "alpha"
  EXPECT_EQ(cache.Get(copy, "c", {}, &ws).value().get(), first.get());

  ASSERT_TRUE(t.AppendRow({Value("delta")}).ok());
  auto appended = cache.Get(t, "c", {}, &ws).value();
  EXPECT_EQ(appended->rows(), 3u);
  // Touched-row prep of a table the cache holds under an older version
  // preps the listed rows and enters nothing.
  ASSERT_TRUE(t.AppendRow({Value("epsilon")}).ok());
  auto rows = cache.GetRows(t, "c", {3}, {}, &ws).value();
  EXPECT_EQ(rows->rows(), 4u);
  EXPECT_EQ(rows->ids(3).size, 1u);
  EXPECT_EQ(cache.entries(), 3u);

  const uint64_t before = t.version();
  ASSERT_TRUE(t.AddColumn({"d", DataType::kAny}).ok());
  EXPECT_NE(t.version(), before);
  const uint64_t added = t.version();
  ASSERT_TRUE(t.RenameColumn("d", "e").ok());
  EXPECT_NE(t.version(), added);
  const uint64_t renamed = t.version();
  ASSERT_TRUE(t.DropColumn("e").ok());
  EXPECT_NE(t.version(), renamed);
  // A failed mutation changes nothing, so it keeps the version.
  const uint64_t dropped = t.version();
  EXPECT_FALSE(t.AppendRow({Value("x"), Value("y")}).ok());
  EXPECT_FALSE(t.DropColumn("e").ok());
  EXPECT_EQ(t.version(), dropped);
}

// PrepKey tells apart every option and every tokenizer identity, and the
// cache keys on it: another tokenizer object of the same identity shares
// the first one's entry.
TEST(PrepCacheTest, KeysOnPrepKey) {
  WhitespaceTokenizer ws;
  WhitespaceTokenizer ws_bag;
  ws_bag.set_unique(false);
  QgramTokenizer q3(3);
  QgramTokenizer q3_nopad(3, /*pad=*/false);
  std::vector<std::string> keys;
  for (const Tokenizer* tok : std::vector<const Tokenizer*>{
           nullptr, &ws, &ws_bag, &q3, &q3_nopad}) {
    for (bool lc : {false, true}) {
      for (bool sp : {false, true}) {
        for (bool rows : {false, true}) {
          keys.push_back(PrepKey({lc, sp, rows}, tok));
        }
      }
    }
  }
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(std::unique(keys.begin(), keys.end()), keys.end());

  const Table table = ColumnTable({Value("alpha beta")});
  WhitespaceTokenizer other;
  const PrepOptions opts{true, false, /*token_rows=*/true};
  EXPECT_EQ(PrepKey(opts, &ws), PrepKey(opts, &other));
  PrepCache cache;
  auto a = cache.Get(table, "c", opts, &ws).value();
  auto b = cache.Get(table, "c", opts, &other).value();
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(cache.entries(), 1u);
}

// A padded and an unpadded q-gram tokenizer emit different tokens, so they
// must not share a cache entry.
TEST(PrepCacheTest, PaddedAndUnpaddedQgramsAreDistinctEntries) {
  const Table table = ColumnTable({Value("abcd")});
  PrepCache cache;
  QgramTokenizer padded(3);
  QgramTokenizer unpadded(3, /*pad=*/false);
  auto p = cache.Get(table, "c", {}, &padded).value();
  auto u = cache.Get(table, "c", {}, &unpadded).value();
  EXPECT_NE(p.get(), u.get());
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_EQ(p->ids(0).size, 6u);
  EXPECT_EQ(u->ids(0).size, 2u);
  // The unpadded column's ids name exactly its two q-grams ("abc" was
  // interned before "bcd", so sorted ids keep that order).
  const std::vector<std::string_view> strings = cache.TokenStringsSnapshot();
  std::vector<std::string_view> tokens;
  for (uint32_t id : u->ids(0)) tokens.push_back(strings[id]);
  EXPECT_EQ(tokens, (std::vector<std::string_view>{"abc", "bcd"}));
}

// Columns keep their cache's interner alive: their token rows view its
// strings.
TEST(PrepCacheTest, ColumnOutlivesItsCache) {
  const Table table = ColumnTable(
      {Value("alpha beta alpha"), Value::Null(), Value("gamma")});
  WhitespaceTokenizer ws;
  QgramTokenizer q3(3);
  std::shared_ptr<const PreparedColumn> cached;
  std::shared_ptr<const PreparedColumn> grams;
  {
    PrepCache cache;
    PrepOptions with_rows;
    with_rows.token_rows = true;
    cached = cache.Get(table, "c", with_rows, &ws).value();
    grams = cache.Get(table, "c", with_rows, &q3).value();
  }
  auto tokens_of = [](const PreparedColumn& c, size_t row) {
    const TokenRow t = c.token_row(row);
    return std::vector<std::string>(t.tokens, t.tokens + t.size);
  };
  EXPECT_EQ(tokens_of(*cached, 0), (std::vector<std::string>{"alpha", "beta"}));
  EXPECT_TRUE(tokens_of(*cached, 1).empty());
  EXPECT_EQ(tokens_of(*cached, 2), (std::vector<std::string>{"gamma"}));
  EXPECT_EQ(tokens_of(*grams, 2),
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
  auto lp =
      cache.Get(left, "title", internal_block::ToPrepOptions(opts), &ws)
          .value();
  auto rp =
      cache.Get(right, "title", internal_block::ToPrepOptions(opts), &ws)
          .value();

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

// A workflow over "title": the overlap (K=2) and overlap-coefficient
// blockers, and a decision tree over a Jaccard, a Monge-Elkan and a
// Levenshtein feature.
EmWorkflow TitleWorkflow() {
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
  EXPECT_TRUE(tree->Fit(d).ok());
  FeatureMatrix m;
  m.feature_names = d.feature_names;
  m.rows = d.x;
  MeanImputer imputer;
  imputer.Fit(m);
  EmWorkflow wf;
  wf.AddBlocker(std::make_shared<OverlapBlocker>(opts, 2));
  wf.AddBlocker(std::make_shared<OverlapCoefficientBlocker>(opts, 0.8));
  wf.SetMatcher(tree, std::move(features), imputer);
  return wf;
}

void ExpectSameRun(const WorkflowRunResult& want, const WorkflowRunResult& got,
                   const std::string& what) {
  EXPECT_TRUE(got.sure_matches == want.sure_matches) << what;
  EXPECT_TRUE(got.candidates == want.candidates)
      << what << ": " << got.candidates.size() << " candidates, want "
      << want.candidates.size();
  EXPECT_TRUE(got.ml_predicted == want.ml_predicted) << what;
  EXPECT_TRUE(got.flipped == want.flipped) << what;
  EXPECT_TRUE(got.final_matches == want.final_matches) << what;
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
}

// A second Run over unchanged tables reads every column it needs from the
// first Run's entries: it adds no entry, interns no token and decides the
// same matches.
TEST(WorkflowPrepCacheTest, SecondRunOverUnchangedTablesPrepsNothing) {
  Table left = RandomTable(80, 63);
  Table right = RandomTable(80, 64);
  EmWorkflow wf = TitleWorkflow();
  auto first = wf.Run(left, right);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_GT(first->ml_input.size(), 0u);
  const size_t entries = wf.prep_cache()->entries();
  const size_t tokens = wf.prep_cache()->interned_tokens();
  auto second = wf.Run(left, right);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(wf.prep_cache()->entries(), entries);
  EXPECT_EQ(wf.prep_cache()->interned_tokens(), tokens);
  ExpectSameRun(*first, *second, "second run");
}

// Table::set between two Runs of one workflow: the second Run preps the
// edited table afresh and decides what a fresh workflow decides.
TEST(WorkflowPrepCacheTest, TableEditBetweenRunsMatchesFreshWorkflow) {
  Table left = RandomTable(60, 65);
  Table right = RandomTable(60, 66);
  EmWorkflow wf = TitleWorkflow();
  auto before = wf.Run(left, right);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  // Left rows 0-9 take the titles of right rows 10-19, so their candidates
  // change.
  const size_t title = static_cast<size_t>(left.schema().IndexOf("title"));
  for (size_t r = 0; r < 10; ++r) left.set(r, title, right.at(r + 10, title));
  auto after = wf.Run(left, right);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  auto fresh = TitleWorkflow().Run(left, right);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  ASSERT_FALSE(fresh->candidates == before->candidates);
  ExpectSameRun(*fresh, *after, "after Table::set");
}

// One workflow over many table generations: each round frees the previous
// round's tables and builds same-size ones with other contents (often in
// the freed storage), and the long-lived workflow must decide what a fresh
// workflow decides in every round.
TEST(WorkflowPrepCacheTest, RebuiltSameSizeTablesMatchFreshWorkflow) {
  EmWorkflow wf = TitleWorkflow();
  size_t changed = 0;
  CandidateSet last;
  for (uint32_t round = 0; round < 200; ++round) {
    auto left = std::make_unique<Table>(RandomTable(40, 1000 + round));
    auto right = std::make_unique<Table>(RandomTable(40, 5000 + round));
    auto got = wf.Run(*left, *right);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    auto want = TitleWorkflow().Run(*left, *right);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    ExpectSameRun(*want, *got, "round " + std::to_string(round));
    if (!(want->candidates == last)) ++changed;
    last = want->candidates;
  }
  EXPECT_GT(changed, 150u);  // the rounds really differ
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
    ASSERT_TRUE(cache
                    ->Get(table, left_side ? f.left_attr : f.right_attr,
                          prep.options, prep.tokenizer.get())
                    .ok());
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
  EmWorkflow wf = TitleWorkflow();
  const FeatureSet& features = wf.features();
  auto run = wf.Run(left, right);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_GT(run->ml_input.size(), 0u);
  EXPECT_EQ(wf.prep_cache()->entries(), 2u);  // the blockers' two columns

  // The Jaccard feature's word-token family (with token rows) and the
  // Levenshtein feature's text family.
  for (size_t f : {size_t{0}, size_t{2}}) {
    FeaturePrep prep = PrepForFeature(features.features[f].prep);
    auto got = wf.prep_cache()
                   ->Get(left, "title", prep.options, prep.tokenizer.get())
                   .value();
    PrepCache fresh;
    auto want =
        fresh.Get(left, "title", prep.options, prep.tokenizer.get()).value();
    ASSERT_EQ(got->rows(), want->rows());
    for (size_t r = 0; r < want->rows(); ++r) {
      EXPECT_EQ(got->is_null(r), want->is_null(r)) << "row " << r;
      EXPECT_EQ(got->text(r), want->text(r)) << "row " << r;
      EXPECT_EQ(got->ids(r).size, want->ids(r).size) << "row " << r;
      const TokenRow tg = got->token_row(r);
      const TokenRow tw = want->token_row(r);
      EXPECT_EQ(
          std::vector<std::string_view>(tg.tokens, tg.tokens + tg.size),
          std::vector<std::string_view>(tw.tokens, tw.tokens + tw.size))
          << "row " << r;
    }
  }
  EXPECT_EQ(wf.prep_cache()->entries(), 4u);

  EmWorkflow warm = TitleWorkflow();
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
