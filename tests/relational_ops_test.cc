// Unit tests for the relational kernel: every operator's semantics plus
// scale-metadata propagation.

#include "src/relational/ops.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/base/json.h"
#include "src/relational/csv.h"
#include "src/relational/schema.h"

namespace musketeer {
namespace {

Table PurchasesTable() {
  Schema schema({{"uid", FieldType::kInt64},
                 {"region", FieldType::kInt64},
                 {"amount", FieldType::kDouble}});
  Table t(schema);
  t.AddRow({int64_t{1}, int64_t{10}, 5.0});
  t.AddRow({int64_t{1}, int64_t{10}, 7.5});
  t.AddRow({int64_t{2}, int64_t{20}, 100.0});
  t.AddRow({int64_t{3}, int64_t{10}, 2.0});
  t.AddRow({int64_t{3}, int64_t{10}, 3.0});
  return t;
}

// Byte-mask form of `region == 10` over PurchasesTable.
void RegionIs10(const Table& t, size_t begin, size_t end, uint8_t* mask) {
  const std::vector<int64_t>& region = t.col(1).ints();
  for (size_t i = begin; i < end; ++i) {
    mask[i - begin] = region[i] == 10 ? 1 : 0;
  }
}

void KeepAll(const Table&, size_t begin, size_t end, uint8_t* mask) {
  std::fill(mask, mask + (end - begin), uint8_t{1});
}

TEST(SelectRowsTest, FiltersByPredicate) {
  Table t = PurchasesTable();
  Table out = SelectRowsMask(t, RegionIs10);
  EXPECT_EQ(out.num_rows(), 4u);
  for (const Row& r : out.MaterializeRows()) {
    EXPECT_EQ(AsInt64(r[1]), 10);
  }
}

TEST(SelectRowsTest, PropagatesScale) {
  Table t = PurchasesTable();
  t.set_scale(1000.0);
  Table out = SelectRowsMask(t, KeepAll);
  EXPECT_DOUBLE_EQ(out.scale(), 1000.0);
}

TEST(ProjectColumnsTest, KeepsRequestedColumns) {
  Table t = PurchasesTable();
  auto out = ProjectColumns(t, {2, 0});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->schema().field(0).name, "amount");
  EXPECT_EQ(out->schema().field(1).name, "uid");
  EXPECT_EQ(out->num_rows(), 5u);
  EXPECT_DOUBLE_EQ(AsDouble(out->MaterializeRows()[0][0]), 5.0);
}

TEST(ProjectColumnsTest, RejectsOutOfRange) {
  Table t = PurchasesTable();
  auto out = ProjectColumns(t, {5});
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
}

TEST(HashJoinTest, JoinsOnKeyWithPaperLayout) {
  Schema users({{"uid", FieldType::kInt64}, {"name", FieldType::kString}});
  Table u(users);
  u.AddRow({int64_t{1}, std::string("ada")});
  u.AddRow({int64_t{2}, std::string("bob")});

  Table p = PurchasesTable();
  auto out = HashJoin(u, p, 0, 0);
  ASSERT_TRUE(out.ok());
  // Layout: key, left-rest, right-rest.
  EXPECT_EQ(out->schema().field(0).name, "uid");
  EXPECT_EQ(out->schema().field(1).name, "name");
  EXPECT_EQ(out->schema().field(2).name, "region");
  EXPECT_EQ(out->schema().field(3).name, "amount");
  EXPECT_EQ(out->num_rows(), 3u);  // ada x2, bob x1
}

TEST(HashJoinTest, EmptyProbeSideYieldsEmpty) {
  Schema s({{"k", FieldType::kInt64}});
  Table a(s);
  Table b(s);
  b.AddRow({int64_t{1}});
  auto out = HashJoin(a, b, 0, 0);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), 0u);
}

TEST(HashJoinTest, DuplicateKeysProduceCrossProductWithinKey) {
  Schema s({{"k", FieldType::kInt64}, {"v", FieldType::kInt64}});
  Table a(s);
  a.AddRow({int64_t{1}, int64_t{10}});
  a.AddRow({int64_t{1}, int64_t{11}});
  Table b(s);
  b.AddRow({int64_t{1}, int64_t{20}});
  b.AddRow({int64_t{1}, int64_t{21}});
  auto out = HashJoin(a, b, 0, 0);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), 4u);
}

TEST(CrossJoinTest, ProducesAllPairs) {
  Schema s({{"x", FieldType::kInt64}});
  Table a(s);
  a.AddRow({int64_t{1}});
  a.AddRow({int64_t{2}});
  Schema s2({{"y", FieldType::kInt64}});
  Table b(s2);
  b.AddRow({int64_t{3}});
  b.AddRow({int64_t{4}});
  b.AddRow({int64_t{5}});
  Table out = CrossJoin(a, b);
  EXPECT_EQ(out.num_rows(), 6u);
  EXPECT_EQ(out.schema().num_fields(), 2u);
}

TEST(SetOpsTest, UnionIntersectDifference) {
  Schema s({{"x", FieldType::kInt64}});
  Table a(s);
  a.AddRow({int64_t{1}});
  a.AddRow({int64_t{2}});
  a.AddRow({int64_t{2}});
  Table b(s);
  b.AddRow({int64_t{2}});
  b.AddRow({int64_t{3}});

  auto u = UnionAll(a, b);
  ASSERT_TRUE(u.ok());
  EXPECT_EQ(u->num_rows(), 5u);  // bag semantics

  auto i = Intersect(a, b);
  ASSERT_TRUE(i.ok());
  EXPECT_EQ(i->num_rows(), 1u);  // {2}, set semantics

  auto d = Difference(a, b);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->num_rows(), 1u);  // {1}
}

TEST(SetOpsTest, ArityMismatchRejected) {
  Schema s1({{"x", FieldType::kInt64}});
  Schema s2({{"x", FieldType::kInt64}, {"y", FieldType::kInt64}});
  EXPECT_FALSE(UnionAll(Table(s1), Table(s2)).ok());
  EXPECT_FALSE(Intersect(Table(s1), Table(s2)).ok());
  EXPECT_FALSE(Difference(Table(s1), Table(s2)).ok());
}

TEST(DistinctTest, RemovesDuplicates) {
  Schema s({{"x", FieldType::kInt64}});
  Table a(s);
  a.AddRow({int64_t{1}});
  a.AddRow({int64_t{1}});
  a.AddRow({int64_t{2}});
  EXPECT_EQ(Distinct(a).num_rows(), 2u);
}

TEST(GroupByAggTest, ComputesAllAggregations) {
  Table t = PurchasesTable();
  auto out = GroupByAgg(t, {0},
                        {{AggFn::kSum, 2, "total"},
                         {AggFn::kCount, 0, "n"},
                         {AggFn::kMin, 2, "lo"},
                         {AggFn::kMax, 2, "hi"},
                         {AggFn::kAvg, 2, "avg"}});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), 3u);
  for (const Row& r : out->MaterializeRows()) {
    if (AsInt64(r[0]) == 1) {
      EXPECT_DOUBLE_EQ(AsDouble(r[1]), 12.5);
      EXPECT_EQ(AsInt64(r[2]), 2);
      EXPECT_DOUBLE_EQ(AsDouble(r[3]), 5.0);
      EXPECT_DOUBLE_EQ(AsDouble(r[4]), 7.5);
      EXPECT_DOUBLE_EQ(AsDouble(r[5]), 6.25);
    }
  }
}

TEST(GroupByAggTest, GlobalAggregateSingleRow) {
  Table t = PurchasesTable();
  auto out = GroupByAgg(t, {}, {{AggFn::kSum, 2, "total"}});
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->num_rows(), 1u);
  EXPECT_DOUBLE_EQ(AsDouble(out->MaterializeRows()[0][0]), 117.5);
}

TEST(GroupByAggTest, EmptyInputGlobalAggregate) {
  Table t(Schema({{"x", FieldType::kDouble}}));
  auto out = GroupByAgg(t, {}, {{AggFn::kCount, 0, "n"}});
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->num_rows(), 1u);
  EXPECT_EQ(AsInt64(out->MaterializeRows()[0][0]), 0);
}

TEST(GroupByAggTest, IntColumnsKeepIntTypeForSumMinMax) {
  Schema s({{"k", FieldType::kInt64}, {"v", FieldType::kInt64}});
  Table t(s);
  t.AddRow({int64_t{1}, int64_t{4}});
  t.AddRow({int64_t{1}, int64_t{6}});
  auto out = GroupByAgg(t, {0}, {{AggFn::kSum, 1, "s"}});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->schema().field(1).type, FieldType::kInt64);
  EXPECT_EQ(AsInt64(out->MaterializeRows()[0][1]), 10);
}

TEST(ExtremeRowTest, MaxRowAndDeterministicTies) {
  Table t = PurchasesTable();
  auto out = ExtremeRow(t, 2, /*take_max=*/true);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->num_rows(), 1u);
  EXPECT_DOUBLE_EQ(AsDouble(out->MaterializeRows()[0][2]), 100.0);

  auto out_min = ExtremeRow(t, 2, /*take_max=*/false);
  ASSERT_TRUE(out_min.ok());
  EXPECT_DOUBLE_EQ(AsDouble(out_min->MaterializeRows()[0][2]), 2.0);
}

TEST(ExtremeRowTest, EmptyInputYieldsEmpty) {
  Table t(Schema({{"x", FieldType::kInt64}}));
  auto out = ExtremeRow(t, 0, true);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), 0u);
}

TEST(TopNByTest, TakesLargestN) {
  Table t = PurchasesTable();
  Table out = TopNBy(t, 2, 2);
  ASSERT_EQ(out.num_rows(), 2u);
  EXPECT_DOUBLE_EQ(AsDouble(out.MaterializeRows()[0][2]), 100.0);
  EXPECT_DOUBLE_EQ(AsDouble(out.MaterializeRows()[1][2]), 7.5);
}

TEST(SortByTest, SortsByMultipleColumns) {
  Table t = PurchasesTable();
  Table out = SortBy(t, {1, 2});
  EXPECT_EQ(AsInt64(out.MaterializeRows()[0][1]), 10);
  EXPECT_DOUBLE_EQ(AsDouble(out.MaterializeRows()[0][2]), 2.0);
  EXPECT_EQ(AsInt64(out.MaterializeRows()[4][1]), 20);
}

TEST(TableTest, SameContentIgnoresOrder) {
  Table a = PurchasesTable();
  Table b = PurchasesTable();
  std::vector<uint32_t> reversed_idx;
  for (size_t i = b.num_rows(); i > 0; --i) {
    reversed_idx.push_back(static_cast<uint32_t>(i - 1));
  }
  Table reversed = b.Gather(reversed_idx);
  EXPECT_TRUE(Table::SameContent(a, reversed));
  Table truncated = reversed.Slice(0, reversed.num_rows() - 1);
  EXPECT_FALSE(Table::SameContent(a, truncated));
}

TEST(TableTest, NominalSizesScale) {
  Table t = PurchasesTable();
  t.set_scale(100.0);
  EXPECT_DOUBLE_EQ(t.nominal_rows(), 500.0);
  EXPECT_GT(t.nominal_bytes(), t.sample_bytes());
}

TEST(CsvTest, RoundTrips) {
  Table t = PurchasesTable();
  std::string text = WriteCsv(t);
  auto back = ParseCsv(text, t.schema());
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(Table::SameContent(t, *back));
}

// The one-pass wire encoder writes exactly the bytes of quoting the
// round-trip CSV separately.
TEST(CsvTest, JsonEscapedCsvMatchesQuotedWriteCsv) {
  Table t(Schema({{"id", FieldType::kInt64},
                  {"x", FieldType::kDouble},
                  {"s", FieldType::kString}}));
  t.AddRow({int64_t{-7}, 0.1, std::string("say \"hi\"\\\x01\x1f caf\xc3\xa9")});
  t.AddRow({int64_t{9}, -0.0, std::string("")});
  std::string body = "\"";
  AppendJsonEscapedCsv(t, &body);
  body += "\"";
  EXPECT_EQ(body, JsonQuote(WriteCsv(t, ',', /*round_trip_doubles=*/true)));
}

TEST(CsvTest, RejectsMalformedLines) {
  Schema s({{"x", FieldType::kInt64}});
  EXPECT_FALSE(ParseCsv("1\nfoo\n", s).ok());
  EXPECT_FALSE(ParseCsv("1,2\n", s).ok());
}

TEST(ValueTest, CrossTypeNumericEquality) {
  EXPECT_TRUE(ValuesEqual(Value(int64_t{3}), Value(3.0)));
  EXPECT_EQ(HashValue(Value(int64_t{3})), HashValue(Value(3.0)));
  EXPECT_LT(CompareValues(Value(int64_t{2}), Value(2.5)), 0);
  EXPECT_LT(CompareValues(Value(2.5), Value(std::string("a"))), 0);
}

// The one schema-spec parser, shared by the CLI's --input and the network
// API's X-Schema header.
TEST(SchemaSpecTest, ParsesAliasesAndRejectsMalformedSpecs) {
  auto parsed = ParseSchemaSpec("id:int64, name:STRING,score:double");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, Schema({{"id", FieldType::kInt64},
                             {"name", FieldType::kString},
                             {"score", FieldType::kDouble}}));

  EXPECT_FALSE(ParseSchemaSpec(":int").has_value());        // empty name
  EXPECT_FALSE(ParseSchemaSpec("id:int, :int").has_value());
  EXPECT_FALSE(ParseSchemaSpec("id:float").has_value());    // unknown type
  EXPECT_FALSE(ParseSchemaSpec("id").has_value());
  EXPECT_FALSE(ParseSchemaSpec("").has_value());

  Schema schema({{"uid", FieldType::kInt64},
                 {"region", FieldType::kInt64},
                 {"amount", FieldType::kDouble},
                 {"city", FieldType::kString}});
  auto round_trip = ParseSchemaSpec(FormatSchemaSpec(schema));
  ASSERT_TRUE(round_trip.has_value());
  EXPECT_EQ(*round_trip, schema);
}

}  // namespace
}  // namespace musketeer
