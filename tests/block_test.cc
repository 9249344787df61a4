#include <algorithm>
#include <cmath>
#include <functional>
#include <queue>

#include <gtest/gtest.h>

#include "src/block/attr_equivalence_blocker.h"
#include "src/block/blocking_debugger.h"
#include "src/block/candidate_set.h"
#include "src/block/overlap_blocker.h"
#include "src/block/rule_blocker.h"
#include "src/block/similarity_join.h"
#include "src/core/random.h"
#include "src/core/strings.h"
#include "src/datagen/case_study.h"
#include "src/datagen/preprocess.h"
#include "src/table/csv.h"
#include "src/table/table_ops.h"
#include "src/text/sequence_similarity.h"
#include "src/text/set_similarity.h"

namespace emx {
namespace {

// --- CandidateSet -------------------------------------------------------------

CandidateSet CS(std::initializer_list<RecordPair> pairs) {
  return CandidateSet(std::vector<RecordPair>(pairs));
}

TEST(CandidateSetTest, ConstructorSortsAndDeduplicates) {
  CandidateSet c = CS({{2, 1}, {0, 5}, {2, 1}, {0, 3}});
  ASSERT_EQ(c.size(), 3u);
  EXPECT_EQ(c[0], (RecordPair{0, 3}));
  EXPECT_EQ(c[1], (RecordPair{0, 5}));
  EXPECT_EQ(c[2], (RecordPair{2, 1}));
}

TEST(CandidateSetTest, Contains) {
  CandidateSet c = CS({{1, 2}, {3, 4}});
  EXPECT_TRUE(c.Contains({1, 2}));
  EXPECT_FALSE(c.Contains({2, 1}));
  EXPECT_FALSE(CandidateSet().Contains({0, 0}));
}

TEST(CandidateSetTest, SetAlgebra) {
  CandidateSet a = CS({{0, 0}, {1, 1}, {2, 2}});
  CandidateSet b = CS({{1, 1}, {3, 3}});
  EXPECT_EQ(CandidateSet::Union(a, b).size(), 4u);
  EXPECT_EQ(CandidateSet::Intersect(a, b), CS({{1, 1}}));
  EXPECT_EQ(CandidateSet::Minus(a, b), CS({{0, 0}, {2, 2}}));
  EXPECT_EQ(CandidateSet::Minus(b, a), CS({{3, 3}}));
}

TEST(CandidateSetTest, UnionAll) {
  CandidateSet a = CS({{0, 0}});
  CandidateSet b = CS({{1, 1}});
  CandidateSet c = CS({{0, 0}, {2, 2}});
  EXPECT_EQ(CandidateSet::UnionAll({&a, &b, &c}).size(), 3u);
  EXPECT_TRUE(CandidateSet::UnionAll({}).empty());
}

TEST(CandidateSetTest, WithLeftOffset) {
  CandidateSet a = CS({{0, 7}, {2, 1}});
  CandidateSet shifted = a.WithLeftOffset(100);
  EXPECT_TRUE(shifted.Contains({100, 7}));
  EXPECT_TRUE(shifted.Contains({102, 1}));
  EXPECT_EQ(shifted.size(), 2u);
}

// Property: standard set-identities hold on random sets.
class CandidateSetPropertyTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  CandidateSet Random(RandomEngine& rng) {
    std::vector<RecordPair> pairs;
    size_t n = rng.NextBelow(40);
    for (size_t i = 0; i < n; ++i) {
      pairs.push_back({static_cast<uint32_t>(rng.NextBelow(10)),
                       static_cast<uint32_t>(rng.NextBelow(10))});
    }
    return CandidateSet(std::move(pairs));
  }
};

TEST_P(CandidateSetPropertyTest, AlgebraIdentities) {
  RandomEngine rng(GetParam());
  CandidateSet a = Random(rng), b = Random(rng);
  // |A ∪ B| = |A| + |B| − |A ∩ B|
  EXPECT_EQ(CandidateSet::Union(a, b).size(),
            a.size() + b.size() - CandidateSet::Intersect(a, b).size());
  // (A − B) ∪ (A ∩ B) = A
  EXPECT_EQ(CandidateSet::Union(CandidateSet::Minus(a, b),
                                CandidateSet::Intersect(a, b)),
            a);
  // A − B and B are disjoint.
  EXPECT_TRUE(
      CandidateSet::Intersect(CandidateSet::Minus(a, b), b).empty());
  // Union is commutative; intersect is idempotent.
  EXPECT_EQ(CandidateSet::Union(a, b), CandidateSet::Union(b, a));
  EXPECT_EQ(CandidateSet::Intersect(a, a), a);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CandidateSetPropertyTest,
                         ::testing::Range<uint64_t>(0, 30));

// --- blockers -------------------------------------------------------------------

Table LeftTable() {
  return *ReadCsvString(
      "Key,Title\n"
      "10.1 A-1,corn fungicide guidelines north central\n"
      "10.2 B-2,swamp dodder ecology\n"
      "10.3 C-3,dairy cattle nutrition study plan\n"
      "10.4 ,empty key row\n");
}

Table RightTable() {
  return *ReadCsvString(
      "Key,Title\n"
      "A-1,Corn Fungicide Guidelines North Central\n"
      "Z-9,unrelated title entirely different\n"
      "C-3,dairy cattle nutrition study plan extended\n"
      "A-1,second record same key\n");
}

TEST(AttrEquivalenceBlockerTest, ExactKeyJoin) {
  Table l = LeftTable(), r = RightTable();
  AttrEquivalenceBlocker blocker(
      "Key", "Key",
      [](const std::string& s) {
        size_t sp = s.find(' ');
        return sp == std::string::npos ? s : s.substr(sp + 1);
      },
      nullptr);
  auto c = blocker.Block(l, r);
  ASSERT_TRUE(c.ok());
  // Row 0 matches right rows 0 and 3 (duplicate key); row 2 matches row 2.
  EXPECT_EQ(c->size(), 3u);
  EXPECT_TRUE(c->Contains({0, 0}));
  EXPECT_TRUE(c->Contains({0, 3}));
  EXPECT_TRUE(c->Contains({2, 2}));
}

TEST(AttrEquivalenceBlockerTest, NullAndEmptyKeysNeverMatch) {
  Table l = *ReadCsvString("K\n\n\n");   // two null keys
  Table r = *ReadCsvString("K\n\nx\n");  // null and 'x'
  AttrEquivalenceBlocker blocker("K", "K");
  auto c = blocker.Block(l, r);
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(c->empty());
}

TEST(AttrEquivalenceBlockerTest, MissingColumnIsNotFound) {
  Table l = LeftTable(), r = RightTable();
  AttrEquivalenceBlocker blocker("Nope", "Key");
  EXPECT_EQ(blocker.Block(l, r).status().code(), StatusCode::kNotFound);
}

TEST(OverlapBlockerTest, ThresholdSemantics) {
  Table l = LeftTable(), r = RightTable();
  OverlapBlockerOptions opts;
  opts.left_attr = "Title";
  opts.right_attr = "Title";
  // K=5: only the pair sharing all five words (case-normalized).
  auto c5 = OverlapBlocker(opts, 5).Block(l, r);
  ASSERT_TRUE(c5.ok());
  EXPECT_TRUE(c5->Contains({0, 0}));
  EXPECT_TRUE(c5->Contains({2, 2}));
  EXPECT_EQ(c5->size(), 2u);
  // K=1 admits more pairs than K=5.
  auto c1 = OverlapBlocker(opts, 1).Block(l, r);
  ASSERT_TRUE(c1.ok());
  EXPECT_GT(c1->size(), c5->size());
}

TEST(OverlapBlockerTest, CaseNormalizationMatters) {
  Table l = *ReadCsvString("T\nCORN FUNGICIDE STUDY\n");
  Table r = *ReadCsvString("T\ncorn fungicide study\n");
  OverlapBlockerOptions opts;
  opts.left_attr = "T";
  opts.right_attr = "T";
  auto with = OverlapBlocker(opts, 3).Block(l, r);
  EXPECT_EQ(with->size(), 1u);
  opts.lowercase = false;
  auto without = OverlapBlocker(opts, 3).Block(l, r);
  EXPECT_TRUE(without->empty());
}

TEST(OverlapCoefficientBlockerTest, AdmitsShortTitles) {
  Table l = *ReadCsvString("T\nlab supplies\nshort one\n");
  Table r = *ReadCsvString("T\nlab supplies and equipment orders\nnothing\n");
  OverlapBlockerOptions opts;
  opts.left_attr = "T";
  opts.right_attr = "T";
  // The raw-overlap blocker at K=3 cannot admit a 2-token title...
  auto raw = OverlapBlocker(opts, 3).Block(l, r);
  EXPECT_TRUE(raw->empty());
  // ...but the coefficient blocker can: overlap 2 / min(2,5) = 1.0.
  auto coeff = OverlapCoefficientBlocker(opts, 0.7).Block(l, r);
  EXPECT_EQ(coeff->size(), 1u);
  EXPECT_TRUE(coeff->Contains({0, 0}));
}

TEST(RuleBlockerTest, PredicateControlsMembership) {
  Table l = LeftTable(), r = RightTable();
  RuleBlocker blocker("same_first_char",
                      [](const Table& lt, size_t lr, const Table& rt,
                         size_t rr) {
                        std::string a = lt.at(lr, "Title").AsString();
                        std::string b = rt.at(rr, "Title").AsString();
                        return !a.empty() && !b.empty() && a[0] == b[0];
                      });
  auto c = blocker.Block(l, r);
  ASSERT_TRUE(c.ok());
  for (const RecordPair& p : *c) {
    EXPECT_EQ(l.at(p.left, "Title").AsString()[0],
              r.at(p.right, "Title").AsString()[0]);
  }
  EXPECT_TRUE(c->Contains({2, 2}));  // "dairy..." vs "dairy..."
}

TEST(RuleBlockerTest, EmptyPredicateIsInvalid) {
  RuleBlocker blocker("null", nullptr);
  Table l = LeftTable(), r = RightTable();
  EXPECT_EQ(blocker.Block(l, r).status().code(),
            StatusCode::kInvalidArgument);
}

// Property: the inverted-index overlap blocker agrees exactly with the
// brute-force definition on random tables.
class OverlapEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OverlapEquivalenceTest, IndexedMatchesBruteForce) {
  RandomEngine rng(GetParam());
  auto make_table = [&rng](size_t rows) {
    Table t(Schema({{"T", DataType::kString}}));
    for (size_t i = 0; i < rows; ++i) {
      if (rng.NextBernoulli(0.1)) {
        (void)t.AppendRow({Value::Null()});
        continue;
      }
      size_t words = rng.NextBelow(6);
      std::string s;
      for (size_t w = 0; w < words; ++w) {
        if (!s.empty()) s += ' ';
        s += std::string(1, static_cast<char>('a' + rng.NextBelow(8)));
      }
      (void)t.AppendRow({Value(s)});
    }
    return t;
  };
  Table l = make_table(20), r = make_table(25);
  size_t k = 1 + rng.NextBelow(3);

  OverlapBlockerOptions opts;
  opts.left_attr = "T";
  opts.right_attr = "T";
  auto indexed = OverlapBlocker(opts, k).Block(l, r);
  ASSERT_TRUE(indexed.ok());

  WhitespaceTokenizer tok;
  std::vector<RecordPair> brute;
  for (uint32_t i = 0; i < l.num_rows(); ++i) {
    for (uint32_t j = 0; j < r.num_rows(); ++j) {
      const Value& a = l.at(i, 0);
      const Value& b = r.at(j, 0);
      if (a.is_null() || b.is_null()) continue;
      if (OverlapSize(tok.Tokenize(AsciiToLower(a.AsString())),
                      tok.Tokenize(AsciiToLower(b.AsString()))) >= k) {
        brute.push_back({i, j});
      }
    }
  }
  EXPECT_EQ(*indexed, CandidateSet(std::move(brute)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, OverlapEquivalenceTest,
                         ::testing::Range<uint64_t>(0, 25));

// --- grouping token blockers -------------------------------------------------------

// Figure 10's blockers, plus one of each kind that must stay outside the
// title pair's merged blocker: a q-gram title overlap, a Jaccard join on
// the title, and an overlap on another attribute.
TEST(TokenOverlapGroupTest, MergesFigure10TitleBlockersAlone) {
  OverlapBlockerOptions title;
  title.left_attr = "AwardTitle";
  title.right_attr = "AwardTitle";
  OverlapBlockerOptions name = title;
  name.left_attr = "EmployeeName";
  name.right_attr = "EmployeeName";
  std::vector<std::shared_ptr<Blocker>> blockers = {
      MakeM1EquivalenceBlocker(),
      MakeTitleOverlapBlocker(3),
      std::make_shared<OverlapBlocker>(title, 3,
                                       std::make_shared<QgramTokenizer>(3)),
      std::make_shared<JaccardJoinBlocker>(title, 0.7),
      MakeTitleOverlapCoefficientBlocker(0.7),
      std::make_shared<OverlapBlocker>(name, 1)};
  std::vector<std::shared_ptr<Blocker>> grouped =
      TokenOverlapBlocker::Group(blockers);
  ASSERT_EQ(grouped.size(), 5u);
  EXPECT_EQ(grouped[0], blockers[0]);  // AE, as it is
  EXPECT_EQ(grouped[3], blockers[3]);  // Jaccard join, as it is
  // The q-gram title overlap and the name overlap, each a copy of one.
  for (auto [g, b] : {std::pair{2, 2}, std::pair{4, 5}}) {
    const auto* one =
        dynamic_cast<const TokenOverlapBlocker*>(grouped[g].get());
    ASSERT_NE(one, nullptr);
    EXPECT_EQ(one->members(), 1u);
    EXPECT_EQ(one->name(), blockers[b]->name());
  }

  // The Figure-10 pair, merged at its first member's position.
  const auto* pair = dynamic_cast<const TokenOverlapBlocker*>(grouped[1].get());
  ASSERT_NE(pair, nullptr);
  EXPECT_EQ(pair->members(), 2u);
  EXPECT_EQ(pair->options().left_attr, "AwardTitle");
  EXPECT_EQ(pair->tokenizer()->name(), WhitespaceTokenizer().name());
  EXPECT_EQ(pair->min_left_tokens(), 1u);  // the coefficient blocker's
  EXPECT_TRUE(pair->Keep(10, 10, 3));      // K=3 alone: 3 < 0.7 * 10
  EXPECT_TRUE(pair->Keep(1, 1, 1));        // the coefficient alone
  EXPECT_FALSE(pair->Keep(10, 10, 2));     // neither
  EXPECT_EQ(pair->name(), blockers[1]->name() + "+" + blockers[4]->name());
}

TEST(TokenOverlapGroupTest, MergedBlockerTakesTheSmallestBoundedBudget) {
  OverlapBlockerOptions unbounded;
  unbounded.left_attr = "T";
  unbounded.right_attr = "T";
  OverlapBlockerOptions large = unbounded;
  large.mem_budget_bytes = 1 << 20;
  OverlapBlockerOptions small = unbounded;
  small.mem_budget_bytes = 1 << 16;
  auto merged = [](std::vector<std::shared_ptr<Blocker>> blockers) {
    std::vector<std::shared_ptr<Blocker>> grouped =
        TokenOverlapBlocker::Group(blockers);
    EXPECT_EQ(grouped.size(), 1u);
    return std::dynamic_pointer_cast<const TokenOverlapBlocker>(
        grouped.front());
  };
  auto bounded = merged({std::make_shared<OverlapBlocker>(unbounded, 2),
                         std::make_shared<OverlapBlocker>(large, 3),
                         std::make_shared<OverlapCoefficientBlocker>(small, 0.5)});
  EXPECT_EQ(bounded->options().mem_budget_bytes, size_t{1} << 16);
  EXPECT_EQ(bounded->min_left_tokens(), 1u);
  auto unbounded_pair = merged({std::make_shared<OverlapBlocker>(unbounded, 2),
                               std::make_shared<OverlapBlocker>(unbounded, 3)});
  EXPECT_EQ(unbounded_pair->options().mem_budget_bytes, 0u);
  EXPECT_EQ(unbounded_pair->min_left_tokens(), 2u);
}

// The predicates as data against the keep functions they replace, written
// out here as the oracle: an overlap blocker keeps overlap >= K, a
// coefficient blocker overlap >= t * min(x, y) over a nonzero min, each
// member only for a left row of at least its min_left_tokens, and a merged
// blocker what some member keeps. Every reachable input: row sizes 1..12
// and overlaps 1..24, which a bag tokenizer's per-occurrence count can
// reach above both sizes.
TEST(TokenOverlapGroupTest, KeepEqualsTheMembersKeepFunctions) {
  OverlapBlockerOptions opts;
  opts.left_attr = "T";
  opts.right_attr = "T";
  struct Oracle {
    std::shared_ptr<Blocker> blocker;
    size_t min_left_tokens;
    std::function<bool(size_t, size_t, size_t)> keep;
    bool Keeps(size_t x, size_t y, size_t overlap) const {
      return x >= min_left_tokens && keep(x, y, overlap);
    }
  };
  std::vector<Oracle> oracles;
  for (size_t k : {0, 1, 3, 5}) {
    oracles.push_back({std::make_shared<OverlapBlocker>(opts, k), k,
                       [k](size_t, size_t, size_t overlap) {
                         return overlap >= k;
                       }});
  }
  for (double t : {-0.5, 0.0, 0.3, 0.7, 1.0, 1.5, std::nan("")}) {
    oracles.push_back({std::make_shared<OverlapCoefficientBlocker>(opts, t), 1,
                       [t](size_t x, size_t y, size_t overlap) {
                         size_t mn = std::min(x, y);
                         if (mn == 0) return false;
                         return static_cast<double>(overlap) >=
                                t * static_cast<double>(mn);
                       }});
  }
  // Calls `check(x, y, overlap)` on every reachable input.
  auto every_input = [](const auto& check) {
    for (size_t x = 1; x <= 12; ++x) {
      for (size_t y = 1; y <= 12; ++y) {
        for (size_t overlap = 1; overlap <= 24; ++overlap) {
          check(x, y, overlap);
        }
      }
    }
  };
  auto token_blocker = [](const std::shared_ptr<Blocker>& b) {
    return std::dynamic_pointer_cast<const TokenOverlapBlocker>(b);
  };
  for (const Oracle& a : oracles) {
    auto one = token_blocker(a.blocker);
    ASSERT_EQ(one->members(), 1u);
    EXPECT_EQ(one->min_left_tokens(), a.min_left_tokens);
    size_t wrong = 0;
    every_input([&](size_t x, size_t y, size_t overlap) {
      wrong += one->Keep(x, y, overlap) != a.Keeps(x, y, overlap);
    });
    EXPECT_EQ(wrong, 0u) << one->name();
    for (const Oracle& b : oracles) {
      std::vector<std::shared_ptr<Blocker>> grouped =
          TokenOverlapBlocker::Group({a.blocker, b.blocker});
      ASSERT_EQ(grouped.size(), 1u);
      auto pair = token_blocker(grouped.front());
      ASSERT_EQ(pair->members(), 2u);
      EXPECT_EQ(pair->min_left_tokens(),
                std::min(a.min_left_tokens, b.min_left_tokens));
      every_input([&](size_t x, size_t y, size_t overlap) {
        wrong += pair->Keep(x, y, overlap) !=
                 (a.Keeps(x, y, overlap) || b.Keeps(x, y, overlap));
      });
      EXPECT_EQ(wrong, 0u) << pair->name();
    }
  }
}

// --- single-table dedup ------------------------------------------------------------

TEST(BlockSelfTest, DropsSelfPairsAndCanonicalizes) {
  Table t = *ReadCsvString(
      "City\nMadison\nMiddleton\nMadison\nmadison\n");
  AttrEquivalenceBlocker blocker("City", "City");
  auto dup = BlockSelf(blocker, t);
  ASSERT_TRUE(dup.ok());
  // Rows 0 and 2 share "Madison" exactly; row 3 differs by case (AE is
  // exact). One unordered pair, left < right.
  EXPECT_EQ(dup->size(), 1u);
  EXPECT_TRUE(dup->Contains({0, 2}));
}

TEST(BlockSelfTest, OverlapBlockerDedup) {
  Table t = *ReadCsvString(
      "T\ncorn fungicide guidelines\nCorn Fungicide Guidelines\n"
      "unrelated entry here\n");
  OverlapBlockerOptions opts;
  opts.left_attr = "T";
  opts.right_attr = "T";
  OverlapBlocker blocker(opts, 3);
  auto dup = BlockSelf(blocker, t);
  ASSERT_TRUE(dup.ok());
  EXPECT_EQ(dup->size(), 1u);
  EXPECT_TRUE(dup->Contains({0, 1}));
  for (const RecordPair& p : *dup) EXPECT_LT(p.left, p.right);
}

TEST(BlockSelfTest, EmptyTable) {
  Table t = *ReadCsvString("City\n");
  AttrEquivalenceBlocker blocker("City", "City");
  auto dup = BlockSelf(blocker, t);
  ASSERT_TRUE(dup.ok());
  EXPECT_TRUE(dup->empty());
}

// --- blocking debugger ------------------------------------------------------------

TEST(BlockingDebuggerTest, SurfacesExcludedNearDuplicates) {
  Table l = *ReadCsvString(
      "T\nswamp dodder applied ecology management\nunrelated alpha beta\n");
  Table r = *ReadCsvString(
      "T\nSwamp Dodder Applied Ecology Management\ncompletely different "
      "words here\n");
  // Empty candidate set: EVERYTHING was (wrongly) blocked away.
  BlockingDebuggerOptions opts;
  opts.attrs = {{"T", "T"}};
  opts.top_k = 2;
  auto findings = DebugBlocking(l, r, CandidateSet(), opts);
  ASSERT_TRUE(findings.ok());
  ASSERT_GE(findings->size(), 1u);
  // The near-duplicate pair ranks first with a near-1 score.
  EXPECT_EQ((*findings)[0].pair, (RecordPair{0, 0}));
  EXPECT_GT((*findings)[0].score, 0.9);
  // Scores are sorted descending.
  for (size_t i = 1; i < findings->size(); ++i) {
    EXPECT_LE((*findings)[i].score, (*findings)[i - 1].score);
  }
  // A top 0 is empty.
  opts.top_k = 0;
  findings = DebugBlocking(l, r, CandidateSet(), opts);
  ASSERT_TRUE(findings.ok());
  EXPECT_TRUE(findings->empty());
}

TEST(BlockingDebuggerTest, SkipsPairsAlreadyInCandidates) {
  Table l = *ReadCsvString("T\nsame title here\n");
  Table r = *ReadCsvString("T\nsame title here\n");
  BlockingDebuggerOptions opts;
  opts.attrs = {{"T", "T"}};
  auto findings = DebugBlocking(l, r, CS({{0, 0}}), opts);
  ASSERT_TRUE(findings.ok());
  EXPECT_TRUE(findings->empty());
}

// The debugger scores prepared columns; its top 100 on the case study
// must score exactly as the string forms score them: hash-set Jaccard over
// the word and padded 3-gram tokens of the lowercased text, and
// Jaro-Winkler over that text.
TEST(BlockingDebuggerTest, CaseStudyScoresEqualStringForms) {
  auto data = GenerateCaseStudy();
  ASSERT_TRUE(data.ok());
  auto tables = PreprocessCaseStudy(*data);
  ASSERT_TRUE(tables.ok());
  const Table& u = tables->umetrics;
  const Table& s = tables->usda;
  auto blocks = RunStandardBlocking(u, s);
  ASSERT_TRUE(blocks.ok());
  BlockingDebuggerOptions opts;
  opts.attrs = {{"AwardTitle", "AwardTitle"}, {"EmployeeName", "EmployeeName"}};
  opts.top_k = 100;
  auto findings = DebugBlocking(u, s, blocks->c, opts);
  ASSERT_TRUE(findings.ok()) << findings.status().ToString();
  ASSERT_EQ(findings->size(), 100u);

  WhitespaceTokenizer ws;
  QgramTokenizer qg(3);
  auto string_score = [&](const Value& a, const Value& b) {
    std::string x = a.is_null() ? "" : AsciiToLower(a.AsString());
    std::string y = b.is_null() ? "" : AsciiToLower(b.AsString());
    if (x.empty() || y.empty()) return 0.0;
    double sum = JaccardSimilarity(ws.Tokenize(x), ws.Tokenize(y)) +
                 JaccardSimilarity(qg.Tokenize(x), qg.Tokenize(y)) +
                 JaroWinklerSimilarity(x, y);
    return sum / 3.0;
  };
  for (const DebuggerFinding& f : *findings) {
    EXPECT_FALSE(blocks->c.Contains(f.pair));
    double sum = 0.0;
    for (const auto& [la, ra] : opts.attrs) {
      sum += string_score(u.at(f.pair.left, la), s.at(f.pair.right, ra));
    }
    EXPECT_EQ(f.score, sum / 2.0)
        << "pair (" << f.pair.left << ", " << f.pair.right << ")";
  }
}

// The debugger leaves out the Jaro-Winkler scores that cannot change its
// heap. Over a slice of the case study its findings and their order equal
// a scan that scores every pair in full by the string forms and keeps the
// same heap.
TEST(BlockingDebuggerTest, SkippedScoresChangeNoFinding) {
  auto data = GenerateCaseStudy();
  ASSERT_TRUE(data.ok());
  auto tables = PreprocessCaseStudy(*data);
  ASSERT_TRUE(tables.ok());
  auto head = [](const Table& t, size_t n) {
    return Select(t, [n](const Table&, size_t row) { return row < n; });
  };
  const Table u = head(tables->umetrics, 100);
  const Table s = head(tables->usda, 160);
  auto blocks = RunStandardBlocking(u, s);
  ASSERT_TRUE(blocks.ok());
  const std::vector<std::pair<std::string, std::string>> attrs = {
      {"AwardTitle", "AwardTitle"}, {"EmployeeName", "EmployeeName"}};
  WhitespaceTokenizer ws;
  QgramTokenizer qg(3);
  struct Prepped {
    std::string text;
    std::vector<std::string> words, qgrams;
  };
  auto prep = [&](const Table& t, const std::string& attr, bool lowercase) {
    std::vector<Prepped> out;
    for (size_t row = 0; row < t.num_rows(); ++row) {
      const Value& v = t.at(row, attr);
      std::string x = v.is_null() ? "" : v.AsString();
      if (lowercase) x = AsciiToLower(x);
      out.push_back({x, ws.Tokenize(x), qg.Tokenize(x)});
    }
    return out;
  };
  for (bool lowercase : {true, false}) {
    // Every pair outside the candidates, scored in scan order.
    std::vector<std::vector<Prepped>> lp, rp;
    for (const auto& [la, ra] : attrs) {
      lp.push_back(prep(u, la, lowercase));
      rp.push_back(prep(s, ra, lowercase));
    }
    std::vector<DebuggerFinding> scored;
    for (uint32_t l = 0; l < u.num_rows(); ++l) {
      for (uint32_t r = 0; r < s.num_rows(); ++r) {
        if (blocks->c.Contains({l, r})) continue;
        double sum = 0.0;
        for (size_t a = 0; a < attrs.size(); ++a) {
          const Prepped& x = lp[a][l];
          const Prepped& y = rp[a][r];
          if (x.text.empty() || y.text.empty()) {
            sum += 0.0;
            continue;
          }
          sum += (JaccardSimilarity(x.words, y.words) +
                  JaccardSimilarity(x.qgrams, y.qgrams) +
                  JaroWinklerSimilarity(x.text, y.text)) /
                 3.0;
        }
        scored.push_back({{l, r}, sum / 2.0});
      }
    }
    for (size_t top_k : {1, 10, 100}) {
      auto cmp = [](const DebuggerFinding& a, const DebuggerFinding& b) {
        return a.score > b.score;
      };
      std::priority_queue<DebuggerFinding, std::vector<DebuggerFinding>,
                          decltype(cmp)>
          heap(cmp);
      for (const DebuggerFinding& f : scored) {
        if (heap.size() < top_k) {
          heap.push(f);
        } else if (f.score > heap.top().score) {
          heap.pop();
          heap.push(f);
        }
      }
      std::vector<DebuggerFinding> want;
      for (; !heap.empty(); heap.pop()) want.push_back(heap.top());
      std::reverse(want.begin(), want.end());

      BlockingDebuggerOptions opts;
      opts.attrs = attrs;
      opts.top_k = top_k;
      opts.lowercase = lowercase;
      auto got = DebugBlocking(u, s, blocks->c, opts);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_EQ(got->size(), top_k);
      for (size_t i = 0; i < top_k; ++i) {
        EXPECT_EQ((*got)[i].pair, want[i].pair)
            << "lowercase=" << lowercase << " top_k=" << top_k << " i=" << i;
        EXPECT_EQ((*got)[i].score, want[i].score)
            << "lowercase=" << lowercase << " top_k=" << top_k << " i=" << i;
      }
    }
  }
}

TEST(BlockingDebuggerTest, RequiresAttrs) {
  Table l = LeftTable(), r = RightTable();
  BlockingDebuggerOptions opts;  // no attrs
  EXPECT_EQ(DebugBlocking(l, r, CandidateSet(), opts).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace emx
