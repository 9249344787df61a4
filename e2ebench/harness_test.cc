// Tests of the benchmark's own helpers: the tail-percentile rule, span self
// time, and the seeded op mix.

#include "e2ebench/harness.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace e2e {
namespace {

std::vector<double> Iota(size_t n) {
  std::vector<double> v;
  for (size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;  // n, n-1, ..., 1: unsorted on purpose
}

TEST(TailPercentile, P99NeedsTenSamplesBeyondIt) {
  EXPECT_EQ(SamplesBeyond(1000, 990), 10u);
  EXPECT_EQ(SamplesBeyond(999, 990), 9u);
  EXPECT_EQ(ReportablePercentile(Iota(1000), 990), 990.0);
  EXPECT_EQ(ReportablePercentile(Iota(999), 990), std::nullopt);
  EXPECT_EQ(ReportablePercentile(Iota(9999), 990), 9900.0);
}

TEST(TailPercentile, P99IsTheHighestFor1000To9999Samples) {
  // Below 1,000 samples p99 is not reportable; from 10,000 on, p99.9 is.
  EXPECT_TRUE(ReportablePercentile(Iota(999), 900).has_value());
  EXPECT_TRUE(ReportablePercentile(Iota(1000), 990).has_value());
  EXPECT_FALSE(ReportablePercentile(Iota(1000), 999).has_value());
  EXPECT_FALSE(ReportablePercentile(Iota(9999), 999).has_value());
  EXPECT_TRUE(ReportablePercentile(Iota(10000), 999).has_value());
}

TEST(TailPercentile, MedianFollowsTheSameRule) {
  EXPECT_EQ(ReportablePercentile({}, 500), std::nullopt);
  EXPECT_EQ(ReportablePercentile(Iota(19), 500), std::nullopt);
  EXPECT_EQ(ReportablePercentile(Iota(20), 500), 10.0);
  EXPECT_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
}

Span At(double start, double end, int parent) {
  Span s;
  s.start_s = start;
  s.end_s = end;
  s.parent = parent;
  return s;
}

TEST(SelfTime, NestedChildrenCountOnlyAtTheirParent) {
  // root [0,10] > a [1,4] > b [2,3]
  std::vector<Span> spans = {At(0, 10, -1), At(1, 4, 0), At(2, 3, 1)};
  std::vector<double> self = SelfTimes(spans);
  EXPECT_DOUBLE_EQ(self[0], 7);
  EXPECT_DOUBLE_EQ(self[1], 2);
  EXPECT_DOUBLE_EQ(self[2], 1);
}

TEST(SelfTime, OverlappingChildrenAreSubtractedOnce) {
  // Children [1,5] and [3,6] overlap; [8,12] sticks out of the parent and
  // [11,13] lies wholly outside it.
  std::vector<Span> spans = {At(0, 10, -1), At(1, 5, 0), At(3, 6, 0),
                             At(8, 12, 0), At(11, 13, 0)};
  std::vector<double> self = SelfTimes(spans);
  EXPECT_DOUBLE_EQ(self[0], 10 - 5 - 2);
  EXPECT_DOUBLE_EQ(self[1], 4);
  EXPECT_DOUBLE_EQ(self[4], 2);
}

TEST(SelfTime, ChildContainedInASiblingAddsNothing) {
  std::vector<Span> spans = {At(0, 10, -1), At(2, 8, 0), At(3, 4, 0)};
  EXPECT_DOUBLE_EQ(SelfTimes(spans)[0], 4);
}

TEST(SelfTime, TracerRecordsNesting) {
  Tracer t;
  int root = t.Begin("root", 7, 3);
  int a = t.Begin("a", 7, 1);
  t.End(a, 1);
  int b = t.Begin("b", 7, 2);
  t.End(b, 0);
  t.End(root, 9);
  int next = t.Begin("next", 8, 0);
  t.End(next, 0);
  const std::vector<Span>& s = t.spans();
  ASSERT_EQ(s.size(), 4u);
  EXPECT_EQ(s[0].parent, -1);
  EXPECT_EQ(s[1].parent, root);
  EXPECT_EQ(s[2].parent, root);
  EXPECT_EQ(s[3].parent, -1);
  EXPECT_EQ(s[0].items_out, 9u);
  EXPECT_EQ(s[2].items_in, 2u);
  EXPECT_LE(s[0].start_s, s[1].start_s);
  EXPECT_LE(s[2].end_s, s[0].end_s);
  std::vector<double> self = SelfTimes(s);
  EXPECT_GE(self[0], 0);
  EXPECT_LE(self[0], s[0].end_s - s[0].start_s);
}

bool SameOps(const std::vector<Op>& a, const std::vector<Op>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].kind != b[i].kind || a[i].arg != b[i].arg) return false;
  }
  return true;
}

TEST(OpMix, SameSeedSameSequence) {
  MixSpec spec;
  spec.lookup_pct = 50;
  spec.insert_pct = 25;
  spec.num_queries = 1000;
  spec.corpus_rows = 5000;
  EXPECT_TRUE(SameOps(MakeOpMix(spec, 20000, 42), MakeOpMix(spec, 20000, 42)));
  EXPECT_FALSE(SameOps(MakeOpMix(spec, 20000, 42), MakeOpMix(spec, 20000, 43)));
  // A prefix of a longer mix is the shorter mix.
  std::vector<Op> longer = MakeOpMix(spec, 30000, 42);
  longer.resize(20000);
  EXPECT_TRUE(SameOps(longer, MakeOpMix(spec, 20000, 42)));
}

TEST(OpMix, RemovesTargetOnlyLiveInsertsAndSharesHold) {
  MixSpec spec;
  spec.lookup_pct = 80;
  spec.insert_pct = 10;
  spec.num_queries = 300;
  spec.corpus_rows = 700;
  const size_t n = 50000;
  std::vector<Op> ops = MakeOpMix(spec, n, 7);
  std::set<uint32_t> live;
  uint32_t inserts = 0;
  size_t lookups = 0, removes = 0;
  for (const Op& op : ops) {
    switch (op.kind) {
      case OpKind::kLookup:
        EXPECT_LT(op.arg, spec.num_queries);
        ++lookups;
        break;
      case OpKind::kInsert:
        EXPECT_LT(op.arg, spec.corpus_rows);
        live.insert(inserts++);
        break;
      case OpKind::kRemove:
        ASSERT_EQ(live.erase(op.arg), 1u) << "remove of a dead record";
        ++removes;
        break;
    }
  }
  EXPECT_NEAR(static_cast<double>(lookups) / n, 0.80, 0.01);
  EXPECT_NEAR(static_cast<double>(inserts) / n, 0.10, 0.01);
  EXPECT_NEAR(static_cast<double>(removes) / n, 0.10, 0.01);
}

}  // namespace
}  // namespace e2e
