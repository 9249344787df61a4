// Keyed positive rules and the AE blocker run one equality join
// (src/block/key_join.h). The all-pairs reference below is the definition
// the join must meet: ApplyRulesCartesian equals calling every rule's
// `fires` on all |A|×|B| pairs — on edge cases, with a missing key
// attribute, mixed with a rule that has no key form, on every case-study
// variant and on a scale corpus.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/block/attr_equivalence_blocker.h"
#include "src/block/key_join.h"
#include "src/core/executor.h"
#include "src/core/strings.h"
#include "src/datagen/case_study.h"
#include "src/datagen/scale_corpus.h"
#include "src/rules/match_rules.h"
#include "src/rules/number_pattern.h"
#include "src/table/table.h"

namespace emx {
namespace {

// The reference: every rule's `fires` on every pair, key forms ignored.
CandidateSet ApplyRulesAllPairs(const std::vector<MatchRule>& rules,
                                const Table& left, const Table& right) {
  std::vector<RecordPair> out;
  for (size_t l = 0; l < left.num_rows(); ++l) {
    for (size_t r = 0; r < right.num_rows(); ++r) {
      for (const MatchRule& rule : rules) {
        if (rule.fires(left, l, right, r)) {
          out.push_back({static_cast<uint32_t>(l), static_cast<uint32_t>(r)});
          break;
        }
      }
    }
  }
  return CandidateSet(std::move(out));
}

std::string Suffix(const std::string& s) { return AwardNumberSuffix(s); }

Table MakeTable(const std::vector<std::string>& names,
                std::vector<std::vector<Value>> rows) {
  Table t(Schema::FromNames(names));
  for (auto& row : rows) EXPECT_TRUE(t.AppendRow(std::move(row)).ok());
  return t;
}

// Nulls on either side, an award whose suffix is empty ("trailing "), a key
// shared by two rows on each side, and int, double and string cells whose
// string forms meet ("7" == 7 == 7.0).
Table EdgeLeft() {
  return MakeTable(
      {"Award", "Num", "Title"},
      {{Value("10.200 A-1"), Value(int64_t{7}), Value("corn guidelines")},
       {Value("10.203 A-1"), Value(7.0), Value("swamp dodder")},
       {Value("trailing "), Value(), Value("maize genome study")},
       {Value(), Value("7"), Value("dairy cattle nutrition")},
       {Value("10.1 B-2"), Value(2.5), Value()},
       {Value("x y"), Value(int64_t{42}), Value("soil carbon")}});
}

Table EdgeRight() {
  return MakeTable(
      {"Award", "Num", "Title"},
      {{Value("A-1"), Value("7"), Value("Corn Guidelines")},
       {Value("A-1"), Value(7.0), Value("unrelated")},
       {Value(""), Value(int64_t{7}), Value("maize genome studies")},
       {Value(), Value("2.5"), Value("dairy cattle nutrition")},
       {Value("y"), Value(int64_t{42}), Value()},
       {Value("B-2"), Value(), Value("soil carbon")}});
}

TEST(KeyIndexTest, AddFindRemoveKeepAscendingIds) {
  KeyIndex index({"K", Suffix});
  index.Add(0, Value("a X"));
  index.Add(2, Value("b X"));
  index.Add(3, Value());            // null: no key
  index.Add(4, Value("trailing "));  // empty after the transform: no key
  index.Add(5, Value("c X"));
  ASSERT_NE(index.Find("X"), nullptr);
  EXPECT_EQ(*index.Find("X"), (std::vector<uint32_t>{0, 2, 5}));
  EXPECT_EQ(index.Find(""), nullptr);
  index.Remove(2, Value("b X"));
  EXPECT_EQ(*index.Find("X"), (std::vector<uint32_t>{0, 5}));
  index.Remove(0, Value("a X"));
  index.Remove(5, Value("c X"));
  EXPECT_EQ(index.Find("X"), nullptr);
}

TEST(KeyedRulesTest, OnlyEqualityRulesHaveAKeyForm) {
  EXPECT_TRUE(MakeM1AwardNumberRule("AwardNumber", "AwardNumber").key);
  EXPECT_TRUE(
      MakeAwardProjectNumberRule("AwardNumber", "ProjectNumber").key);
  EXPECT_FALSE(MakeLevenshteinRule("lev", "Title", "Title", 0.8).key);
  EXPECT_FALSE(
      MakeComparableMismatchRule("neg", "AwardNumber", "AwardNumber").key);
}

TEST(KeyedRulesTest, EqualsAllPairsOnEdgeCases) {
  const Table l = EdgeLeft(), r = EdgeRight();
  // The join hashes the smaller side: the right one for the full left
  // table, the left one for its first two rows.
  Table head(l.schema());
  for (size_t row = 0; row < 2; ++row) {
    ASSERT_TRUE(head.AppendRow(l.Row(row)).ok());
  }
  const MatchRule award = MakeEqualityRule("award", "Award", "Award", Suffix);
  const MatchRule num = MakeEqualityRule("num", "Num", "Num");
  for (const Table* left : std::vector<const Table*>{&l, &head}) {
    for (const std::vector<MatchRule>& rules :
         {std::vector<MatchRule>{award}, std::vector<MatchRule>{num},
          std::vector<MatchRule>{award, num}}) {
      auto got = ApplyRulesCartesian(rules, *left, r);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(*got, ApplyRulesAllPairs(rules, *left, r));
    }
  }
  // The edge cases do join: A-1 many-to-many, B-2, the suffix "y", and
  // numbers across int, double and string cells.
  auto both = ApplyRulesCartesian({award, num}, l, r);
  ASSERT_TRUE(both.ok());
  for (RecordPair p : std::vector<RecordPair>{
           {0, 0}, {0, 1}, {1, 0}, {1, 1}, {4, 5}, {5, 4},  // award
           {0, 2}, {3, 0}, {4, 3}}) {                       // num
    EXPECT_TRUE(both->Contains(p)) << p.left << "," << p.right;
  }
}

// Table::at reads a missing column as null, so a rule keyed on it never
// fires; the keyed join must neither fire nor fail.
TEST(KeyedRulesTest, MissingKeyAttributeNeverFires) {
  const Table l = EdgeLeft(), r = EdgeRight();
  for (const MatchRule& rule :
       {MakeEqualityRule("left_missing", "Nope", "Award"),
        MakeEqualityRule("right_missing", "Award", "Nope", Suffix)}) {
    auto got = ApplyRulesCartesian({rule}, l, r);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TRUE(got->empty()) << rule.name;
    EXPECT_EQ(*got, ApplyRulesAllPairs({rule}, l, r));
  }
}

// A rule without a key form still runs on every pair, and its firings
// union with the keyed rule's.
TEST(KeyedRulesTest, KeyedRuleMixedWithLevenshteinFallback) {
  const Table l = EdgeLeft(), r = EdgeRight();
  const std::vector<MatchRule> rules = {
      MakeEqualityRule("award", "Award", "Award", Suffix),
      MakeLevenshteinRule(
          "title", "Title", "Title", 0.8, nullptr,
          [](const std::string& s) { return AsciiToLower(s); })};
  auto got = ApplyRulesCartesian(rules, l, r);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, ApplyRulesAllPairs(rules, l, r));
  EXPECT_TRUE(got->Contains({0, 0}));  // both rules
  EXPECT_TRUE(got->Contains({1, 1}));  // award only
  EXPECT_TRUE(got->Contains({2, 2}));  // title only, empty award suffix
  EXPECT_TRUE(got->Contains({3, 3}));  // title only, null award
}

// The keyed join against the reference on every datagen variant the
// end-to-end benchmark draws (seeds 2019-2026), for both left branches:
// the V2 rules together, and the AE blocker against M1 alone at 1, 2 and 8
// threads (§7 folds M1 into the AE blocker; they are one join).
class CaseStudyKeyedRulesTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CaseStudyKeyedRulesTest, KeyedJoinEqualsAllPairs) {
  UniverseOptions options;
  options.seed = GetParam();
  auto data = GenerateCaseStudy(options);
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  auto tables = PreprocessCaseStudy(*data);
  ASSERT_TRUE(tables.ok()) << tables.status().ToString();
  const std::vector<MatchRule> v2 = PositiveRulesV2();
  for (const Table* left : {&tables->umetrics, &tables->extra}) {
    const CandidateSet m1 = ApplyRulesAllPairs({v2[0]}, *left, tables->usda);
    const CandidateSet m4 = ApplyRulesAllPairs({v2[1]}, *left, tables->usda);
    EXPECT_FALSE(m1.empty());
    EXPECT_FALSE(m4.empty());
    auto keyed = ApplyRulesCartesian(v2, *left, tables->usda);
    ASSERT_TRUE(keyed.ok()) << keyed.status().ToString();
    EXPECT_EQ(*keyed, CandidateSet::Union(m1, m4));
    for (size_t threads : {1u, 2u, 8u}) {
      Executor pool(threads);
      auto ae = MakeM1EquivalenceBlocker()->Block(*left, tables->usda,
                                                  ExecutorContext{&pool});
      ASSERT_TRUE(ae.ok()) << ae.status().ToString();
      EXPECT_EQ(*ae, m1) << threads << " threads";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(DatagenSeeds, CaseStudyKeyedRulesTest,
                         ::testing::Range<uint64_t>(2019, 2027));

// An SF-1 scale corpus (1000 rows a side) has no award numbers, but its
// names and int-typed years make heavy many-to-many keys.
TEST(ScaleKeyedRulesTest, KeyedJoinEqualsAllPairs) {
  ScaleCorpusOptions options;
  options.scale_factor = 1.0;
  auto corpus = GenerateScaleCorpus(options);
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  const std::vector<MatchRule> rules = {
      MakeEqualityRule("pi_is_director", "PIName", "Director"),
      MakeEqualityRule("same_year", "StartYear", "StartYear")};
  auto keyed = ApplyRulesCartesian(rules, corpus->left, corpus->right);
  ASSERT_TRUE(keyed.ok()) << keyed.status().ToString();
  EXPECT_GT(keyed->size(), corpus->left.num_rows());
  EXPECT_EQ(*keyed, ApplyRulesAllPairs(rules, corpus->left, corpus->right));
}

}  // namespace
}  // namespace emx
