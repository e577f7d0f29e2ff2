// Property-based tests: algebraic invariants of the relational kernel over
// randomly generated tables (parameterized by seed).

#include <gtest/gtest.h>

#include "src/base/rng.h"
#include "src/relational/ops.h"

namespace musketeer {
namespace {

Table RandomTable(uint64_t seed, int rows, int64_t key_range) {
  Schema s({{"k", FieldType::kInt64},
            {"v", FieldType::kDouble},
            {"tag", FieldType::kString}});
  Table t(s);
  Rng rng(seed);
  for (int i = 0; i < rows; ++i) {
    t.AddRow({rng.NextInRange(0, key_range - 1), rng.NextDouble() * 100.0,
              std::string(rng.NextBounded(2) != 0u ? "x" : "y")});
  }
  return t;
}

// Byte-mask form of `v > threshold` over RandomTable's double column.
MaskEval VAbove(double threshold) {
  return [threshold](const Table& t, size_t begin, size_t end, uint8_t* mask) {
    const std::vector<double>& v = t.col(1).doubles();
    for (size_t i = begin; i < end; ++i) {
      mask[i - begin] = v[i] > threshold ? 1 : 0;
    }
  };
}

class RelationalPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RelationalPropertyTest, SelectIsIdempotentAndShrinking) {
  Table t = RandomTable(GetParam(), 200, 17);
  Table once = SelectRowsMask(t, VAbove(50.0));
  Table twice = SelectRowsMask(once, VAbove(50.0));
  EXPECT_LE(once.num_rows(), t.num_rows());
  EXPECT_TRUE(Table::SameContent(once, twice));
}

TEST_P(RelationalPropertyTest, DistinctIsIdempotent) {
  Table t = RandomTable(GetParam(), 300, 5);
  Table once = Distinct(t);
  Table twice = Distinct(once);
  EXPECT_LE(once.num_rows(), t.num_rows());
  EXPECT_TRUE(Table::SameContent(once, twice));
}

TEST_P(RelationalPropertyTest, SetAlgebraIdentities) {
  Table a = RandomTable(GetParam(), 150, 8);
  Table b = RandomTable(GetParam() + 1000, 150, 8);

  auto u = UnionAll(a, b);
  ASSERT_TRUE(u.ok());
  EXPECT_EQ(u->num_rows(), a.num_rows() + b.num_rows());

  auto i = Intersect(a, b);
  auto d = Difference(a, b);
  ASSERT_TRUE(i.ok());
  ASSERT_TRUE(d.ok());
  // distinct(a) splits exactly into (a ∩ b) and (a \ b).
  Table da = Distinct(a);
  EXPECT_EQ(da.num_rows(), i->num_rows() + d->num_rows());
  // Intersection is symmetric (as a set).
  auto i2 = Intersect(b, a);
  ASSERT_TRUE(i2.ok());
  EXPECT_TRUE(Table::SameContent(*i, *i2));
  // Difference and intersection are disjoint.
  auto overlap = Intersect(*d, *i);
  ASSERT_TRUE(overlap.ok());
  EXPECT_EQ(overlap->num_rows(), 0u);
}

TEST_P(RelationalPropertyTest, JoinCardinalityIsOrderIndependent) {
  Table a = RandomTable(GetParam(), 120, 6);
  Table b = RandomTable(GetParam() + 7, 90, 6);
  auto ab = HashJoin(a, b, 0, 0);
  auto ba = HashJoin(b, a, 0, 0);
  ASSERT_TRUE(ab.ok());
  ASSERT_TRUE(ba.ok());
  EXPECT_EQ(ab->num_rows(), ba->num_rows());
  // Both equal the sum over keys of |a_k| * |b_k|.
  auto count_by_key = [](const Table& t) {
    std::map<int64_t, size_t> counts;
    for (const Row& r : t.MaterializeRows()) {
      ++counts[AsInt64(r[0])];
    }
    return counts;
  };
  auto ca = count_by_key(a);
  auto cb = count_by_key(b);
  size_t expected = 0;
  for (const auto& [k, n] : ca) {
    auto it = cb.find(k);
    if (it != cb.end()) {
      expected += n * it->second;
    }
  }
  EXPECT_EQ(ab->num_rows(), expected);
}

TEST_P(RelationalPropertyTest, JoinWithSelfNeverLosesKeys) {
  Table a = RandomTable(GetParam(), 80, 10);
  Table da = Distinct(a);
  auto self = HashJoin(da, da, 0, 0);
  ASSERT_TRUE(self.ok());
  EXPECT_GE(self->num_rows(), da.num_rows());
}

TEST_P(RelationalPropertyTest, GroupByPartitionsTheInput) {
  Table t = RandomTable(GetParam(), 250, 9);
  auto grouped = GroupByAgg(t, {0},
                            {{AggFn::kCount, 0, "n"}, {AggFn::kSum, 1, "total"}});
  ASSERT_TRUE(grouped.ok());
  int64_t total_count = 0;
  double total_sum = 0;
  for (const Row& r : grouped->MaterializeRows()) {
    total_count += AsInt64(r[1]);
    total_sum += AsDouble(r[2]);
  }
  EXPECT_EQ(total_count, static_cast<int64_t>(t.num_rows()));
  auto global = GroupByAgg(t, {}, {{AggFn::kSum, 1, "total"}});
  ASSERT_TRUE(global.ok());
  EXPECT_NEAR(total_sum, AsDouble(global->MaterializeRows()[0][0]), 1e-6);
}

TEST_P(RelationalPropertyTest, MinMaxBracketAvg) {
  Table t = RandomTable(GetParam(), 100, 4);
  auto stats = GroupByAgg(t, {0},
                          {{AggFn::kMin, 1, "lo"},
                           {AggFn::kAvg, 1, "mid"},
                           {AggFn::kMax, 1, "hi"}});
  ASSERT_TRUE(stats.ok());
  for (const Row& r : stats->MaterializeRows()) {
    EXPECT_LE(AsDouble(r[1]), AsDouble(r[2]) + 1e-9);
    EXPECT_LE(AsDouble(r[2]), AsDouble(r[3]) + 1e-9);
  }
}

TEST_P(RelationalPropertyTest, SortPreservesContent) {
  Table t = RandomTable(GetParam(), 150, 12);
  Table sorted = SortBy(t, {0, 1});
  EXPECT_TRUE(Table::SameContent(t, sorted));
  for (size_t i = 1; i < sorted.num_rows(); ++i) {
    EXPECT_LE(AsInt64(sorted.ValueAt(i - 1, 0)), AsInt64(sorted.ValueAt(i, 0)));
  }
}

TEST_P(RelationalPropertyTest, TopNMatchesSortedPrefix) {
  Table t = RandomTable(GetParam(), 120, 100);
  Table top = TopNBy(t, 1, 10);
  ASSERT_EQ(top.num_rows(), 10u);
  // Every excluded row's value is <= the smallest selected value.
  double min_selected = 1e300;
  for (const Row& r : top.MaterializeRows()) {
    min_selected = std::min(min_selected, AsDouble(r[1]));
  }
  size_t at_least = 0;
  for (const Row& r : t.MaterializeRows()) {
    at_least += AsDouble(r[1]) >= min_selected ? 1 : 0;
  }
  EXPECT_GE(at_least, 10u);
}

TEST_P(RelationalPropertyTest, ProjectComposition) {
  Table t = RandomTable(GetParam(), 60, 5);
  auto p1 = ProjectColumns(t, {2, 0, 1});
  ASSERT_TRUE(p1.ok());
  auto p2 = ProjectColumns(*p1, {1});
  ASSERT_TRUE(p2.ok());
  auto direct = ProjectColumns(t, {0});
  ASSERT_TRUE(direct.ok());
  EXPECT_TRUE(Table::SameContent(*p2, *direct));
}

TEST_P(RelationalPropertyTest, ScaleSurvivesRowwisePipelines) {
  Table t = RandomTable(GetParam(), 50, 5);
  t.set_scale(12345.0);
  Table s = SelectRowsMask(t, VAbove(-1.0));  // v is never negative
  auto p = ProjectColumns(s, {0, 1});
  ASSERT_TRUE(p.ok());
  Table d = Distinct(*p);
  EXPECT_DOUBLE_EQ(d.scale(), 12345.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RelationalPropertyTest,
                         ::testing::Range<uint64_t>(1, 11));

}  // namespace
}  // namespace musketeer
