// Unit tests for the typed Column storage and the Value sentinel semantics
// the columnar data plane relies on (string cells have no numeric view).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "src/base/parallel.h"
#include "src/ir/expr.h"
#include "src/relational/ops.h"
#include "src/relational/table.h"
#include "tests/row_reference.h"

namespace musketeer {
namespace {

// --- Column basics ------------------------------------------------------

TEST(ColumnTest, TypedAppendAndValueAt) {
  Column ints(FieldType::kInt64);
  EXPECT_TRUE(ints.Append(static_cast<int64_t>(7)));
  EXPECT_TRUE(ints.Append(2.9));  // numeric coercion truncates like AsInt64
  ASSERT_EQ(ints.size(), 2u);
  EXPECT_EQ(ints.ints()[0], 7);
  EXPECT_EQ(ints.ints()[1], 2);
  EXPECT_EQ(AsInt64(ints.ValueAt(0)), 7);

  Column strs(FieldType::kString);
  EXPECT_TRUE(strs.Append(std::string("abc")));
  ASSERT_EQ(strs.size(), 1u);
  EXPECT_EQ(strs.strings()[0], "abc");
}

TEST(ColumnTest, AppendRejectsStringNumericMismatch) {
  Column ints(FieldType::kInt64);
  EXPECT_FALSE(ints.Append(std::string("oops")));
  EXPECT_EQ(ints.size(), 0u);  // nothing appended on mismatch

  Column strs(FieldType::kString);
  EXPECT_FALSE(strs.Append(static_cast<int64_t>(3)));
  EXPECT_FALSE(strs.Append(1.5));
  EXPECT_EQ(strs.size(), 0u);
}

TEST(ColumnTest, GatherAndSlice) {
  Column c(FieldType::kDouble);
  for (int i = 0; i < 6; ++i) c.Append(static_cast<double>(i) * 1.5);
  Column g = c.Gather({5, 0, 3});
  ASSERT_EQ(g.size(), 3u);
  EXPECT_DOUBLE_EQ(g.doubles()[0], 7.5);
  EXPECT_DOUBLE_EQ(g.doubles()[1], 0.0);
  EXPECT_DOUBLE_EQ(g.doubles()[2], 4.5);

  Column s = c.Slice(2, 4);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_DOUBLE_EQ(s.doubles()[0], 3.0);
  EXPECT_DOUBLE_EQ(s.doubles()[1], 4.5);

  Column empty = c.Slice(3, 3);
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_EQ(empty.type(), FieldType::kDouble);
}

TEST(ColumnTest, HashAtMatchesHashValueAcrossNumericTypes) {
  Column ints(FieldType::kInt64);
  ints.Append(static_cast<int64_t>(42));
  Column dbls(FieldType::kDouble);
  dbls.Append(42.0);
  Column strs(FieldType::kString);
  strs.Append(std::string("42"));

  // 42 and 42.0 collide (ValuesEqual says they are equal); the shuffle
  // partitioning in every engine depends on this exact agreement.
  EXPECT_EQ(ints.HashAt(0), HashValue(Value(static_cast<int64_t>(42))));
  EXPECT_EQ(dbls.HashAt(0), HashValue(Value(42.0)));
  EXPECT_EQ(ints.HashAt(0), dbls.HashAt(0));
  EXPECT_EQ(strs.HashAt(0), HashValue(Value(std::string("42"))));
}

TEST(ColumnTest, CompareAtCrossTypeSemantics) {
  Column ints(FieldType::kInt64);
  ints.Append(static_cast<int64_t>(3));
  Column dbls(FieldType::kDouble);
  dbls.Append(3.0);
  dbls.Append(3.5);
  Column strs(FieldType::kString);
  strs.Append(std::string("a"));
  strs.Append(std::string("b"));

  EXPECT_EQ(ints.CompareAt(0, dbls, 0), 0);  // 3 == 3.0
  EXPECT_LT(ints.CompareAt(0, dbls, 1), 0);  // 3 < 3.5
  EXPECT_LT(ints.CompareAt(0, strs, 0), 0);  // numerics order before strings
  EXPECT_LT(strs.CompareAt(0, strs, 1), 0);  // lexicographic
  EXPECT_TRUE(ints.EqualAt(0, dbls, 0));
  EXPECT_FALSE(ints.EqualAt(0, strs, 0));
}

TEST(ColumnTest, IdenticalToIsExact) {
  Column a(FieldType::kInt64);
  a.Append(static_cast<int64_t>(1));
  Column b(FieldType::kDouble);
  b.Append(1.0);
  // Cross-numeric equality is NOT identity: Identical distinguishes types.
  EXPECT_TRUE(a.EqualAt(0, b, 0));
  EXPECT_FALSE(a.IdenticalTo(b));
  Column a2 = a;
  EXPECT_TRUE(a.IdenticalTo(a2));
}

TEST(ColumnTest, IdenticalComparesDoublesByBitPattern) {
  const Schema s({{"v", FieldType::kDouble}});
  const auto table_of = [&](double v) {
    Table t(s);
    t.AddRow({Value(v)});
    return t;
  };
  // A NaN cell is identical to the same NaN, though NaN != NaN.
  const Table nan = table_of(std::numeric_limits<double>::quiet_NaN());
  EXPECT_TRUE(Table::Identical(nan, nan));
  EXPECT_TRUE(Table::Identical(nan, Table(nan)));
  // -0.0 == +0.0, but they are different bits and not identical.
  EXPECT_TRUE(Table::Identical(table_of(0.0), table_of(0.0)));
  EXPECT_FALSE(Table::Identical(table_of(-0.0), table_of(0.0)));
}

// --- Table over columns -------------------------------------------------

TEST(ColumnTest, EmptyTableHasTypedEmptyColumns) {
  Schema s({{"k", FieldType::kInt64},
            {"v", FieldType::kDouble},
            {"tag", FieldType::kString}});
  Table t(s);
  EXPECT_EQ(t.num_rows(), 0u);
  ASSERT_EQ(t.num_fields(), 3u);
  EXPECT_EQ(t.col(0).type(), FieldType::kInt64);
  EXPECT_EQ(t.col(1).type(), FieldType::kDouble);
  EXPECT_EQ(t.col(2).type(), FieldType::kString);
  EXPECT_TRUE(t.Validate().ok());
  EXPECT_TRUE(t.MaterializeRows().empty());

  // Kernels accept empty tables.
  Table sel = SelectRowsMask(
      t, [](const Table&, size_t begin, size_t end, uint8_t* mask) {
        std::fill(mask, mask + (end - begin), uint8_t{1});
      });
  EXPECT_EQ(sel.num_rows(), 0u);
  Table d = Distinct(t);
  EXPECT_EQ(d.num_rows(), 0u);
  auto sorted = SortBy(t, {0});
  EXPECT_EQ(sorted.num_rows(), 0u);
}

TEST(ColumnTest, StringColumnsRoundTripThroughKernels) {
  Schema s({{"name", FieldType::kString}, {"n", FieldType::kInt64}});
  Table t(s);
  t.AddRow({std::string("beta"), static_cast<int64_t>(2)});
  t.AddRow({std::string("alpha"), static_cast<int64_t>(1)});
  t.AddRow({std::string("beta"), static_cast<int64_t>(2)});

  Table d = Distinct(t);
  EXPECT_EQ(d.num_rows(), 2u);

  Table sorted = SortBy(t, {0});
  EXPECT_EQ(std::get<std::string>(sorted.ValueAt(0, 0)), "alpha");
  EXPECT_EQ(std::get<std::string>(sorted.ValueAt(1, 0)), "beta");

  auto joined = HashJoin(t, t, 0, 0);
  ASSERT_TRUE(joined.ok());
  // alpha matches once; each beta row matches both beta rows.
  EXPECT_EQ(joined->num_rows(), 5u);
}

TEST(ColumnTest, GroupByRejectsStringAggregation) {
  Schema s({{"k", FieldType::kInt64}, {"tag", FieldType::kString}});
  Table t(s);
  t.AddRow({static_cast<int64_t>(1), std::string("x")});
  auto bad = GroupByAgg(t, {0}, {{AggFn::kSum, 1, "total"}});
  EXPECT_FALSE(bad.ok());
  // COUNT never reads the cells, so it stays legal next to string columns.
  auto ok = GroupByAgg(t, {0}, {{AggFn::kCount, 1, "n"}});
  EXPECT_TRUE(ok.ok());
}

TEST(ColumnTest, AddRowTypeMismatchKeepsRowAlignment) {
  Schema s({{"k", FieldType::kInt64}, {"v", FieldType::kDouble}});
  Table t(s);
  t.AddRow({static_cast<int64_t>(1), 0.5});
  EXPECT_EQ(t.num_rows(), 1u);
  EXPECT_TRUE(t.Validate().ok());
  // Numeric cells coerce to the declared column type.
  t.AddRow({2.9, static_cast<int64_t>(4)});
  ASSERT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.col(0).ints()[1], 2);
  EXPECT_DOUBLE_EQ(t.col(1).doubles()[1], 4.0);
  EXPECT_TRUE(t.Validate().ok());
}

// --- Vectorized kernels vs the row oracle -------------------------------

// Deterministic mixed table large enough to span several kMorselRows
// chunks, with a double column whose summation order is observable.
Table MakeKernelInput(size_t rows, uint64_t seed) {
  Schema schema({{"k", FieldType::kInt64},
                 {"v", FieldType::kInt64},
                 {"x", FieldType::kDouble}});
  Table t(schema);
  t.Reserve(rows);
  uint64_t state = seed;
  for (size_t i = 0; i < rows; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    t.AddRow({static_cast<int64_t>((state >> 33) % 997),
              static_cast<int64_t>((state >> 17) % 1000),
              static_cast<double>(static_cast<int64_t>(state % 100003)) / 7.0});
  }
  return t;
}

// SELECT via selection bitmaps (CompileMask + SelectRowsMask) keeps exactly
// the rows the row oracle's compiled predicate keeps — bit-identical, for a
// single comparison and an AND tree, at every thread width.
TEST(VectorizedKernelTest, SelectRowsMaskMatchesRowOracle) {
  const Table in = MakeKernelInput(20'000, 99);
  ExprPtr k_lt = Expr::Binary(BinOp::kLt, Expr::Column("k"),
                              Expr::Literal(static_cast<int64_t>(700)));
  ExprPtr v_ge = Expr::Binary(BinOp::kGe, Expr::Column("v"),
                              Expr::Literal(static_cast<int64_t>(250)));
  ExprPtr both = Expr::Binary(BinOp::kAnd, k_lt, v_ge);

  for (const ExprPtr& cond : {k_lt, both}) {
    RowPredicate pred = std::move(cond->CompilePredicate(in.schema())).value();
    MaskEval mask = std::move(cond->CompileMask(in.schema())).value();
    const Table expected = rowref::SelectRows(in, pred);
    for (int threads : {1, 2, 8}) {
      ScopedParallelThreads width(threads);
      Table got = SelectRowsMask(in, mask);
      EXPECT_TRUE(Table::Identical(expected, got))
          << "mask selection of " << cond->ToString() << " diverged at "
          << threads << " thread(s)";
    }
  }
}

// CompileMask's fallback path (arithmetic result used as a truthy value)
// agrees with CompilePredicate row by row.
TEST(VectorizedKernelTest, CompileMaskTruthinessMatchesPredicate) {
  const Table in = MakeKernelInput(9'000, 5);
  // (k - 500) is truthy except where k == 500: an arithmetic, non-comparison
  // root exercises the EvalNode fallback.
  ExprPtr arith = Expr::Binary(BinOp::kSub, Expr::Column("k"),
                               Expr::Literal(static_cast<int64_t>(500)));
  MaskEval mask = std::move(arith->CompileMask(in.schema())).value();
  RowPredicate pred = std::move(arith->CompilePredicate(in.schema())).value();

  std::vector<uint8_t> bits(in.num_rows());
  mask(in, 0, in.num_rows(), bits.data());
  const std::vector<Row> rows = in.MaterializeRows();
  for (size_t i = 0; i < rows.size(); ++i) {
    ASSERT_EQ(bits[i] != 0, pred(rows[i])) << "row " << i;
  }
}

// SELECT → MAP through the kernels production runs (SelectRowsMask, then
// MapRowsBatch over CompileBatch evaluators) produces the same rows, order
// and double bits as the row oracle, at every thread width.
TEST(VectorizedKernelTest, SelectThenMapRowsBatchMatchesRowOracle) {
  const Table in = MakeKernelInput(30'000, 123);
  ExprPtr cond = Expr::Binary(BinOp::kLt, Expr::Column("k"),
                              Expr::Literal(static_cast<int64_t>(700)));
  ExprPtr y = Expr::Binary(
      BinOp::kAdd,
      Expr::Binary(BinOp::kMul, Expr::Column("x"), Expr::Literal(2.0)),
      Expr::Column("v"));
  const Schema out({{"k", FieldType::kInt64}, {"y", FieldType::kDouble}});

  std::vector<RowProjector> projectors;
  projectors.push_back(
      std::move(Expr::Column("k")->Compile(in.schema())).value());
  projectors.push_back(std::move(y->Compile(in.schema())).value());
  const Table expected = rowref::MapRows(
      rowref::SelectRows(
          in, std::move(cond->CompilePredicate(in.schema())).value()),
      out, projectors);

  MaskEval mask = std::move(cond->CompileMask(in.schema())).value();
  std::vector<BatchEval> exprs;
  exprs.push_back(
      std::move(Expr::Column("k")->CompileBatch(in.schema())).value());
  exprs.push_back(std::move(y->CompileBatch(in.schema())).value());
  for (int threads : {1, 2, 4, 8}) {
    ScopedParallelThreads width(threads);
    Table got = MapRowsBatch(SelectRowsMask(in, mask), out, exprs);
    EXPECT_TRUE(Table::Identical(expected, got))
        << "select→map diverged at " << threads << " thread(s)";
  }
}

// The flat-hash double-key join canonicalizes -0.0 to +0.0 and routes NaN
// around the table, reproducing Value-equality semantics (0.0 == -0.0 joins;
// NaN never matches anything, itself included).
TEST(VectorizedKernelTest, DoubleKeyJoinSignedZeroAndNaNMatchRowOracle) {
  Schema s({{"key", FieldType::kDouble}, {"tag", FieldType::kInt64}});
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Table left(s);
  left.AddRow({0.0, static_cast<int64_t>(1)});
  left.AddRow({-0.0, static_cast<int64_t>(2)});
  left.AddRow({nan, static_cast<int64_t>(3)});
  left.AddRow({1.5, static_cast<int64_t>(4)});
  Table right(s);
  right.AddRow({-0.0, static_cast<int64_t>(10)});
  right.AddRow({nan, static_cast<int64_t>(11)});
  right.AddRow({1.5, static_cast<int64_t>(12)});

  auto expected = rowref::HashJoin(left, right, 0, 0);
  ASSERT_TRUE(expected.ok()) << expected.status();
  auto got = HashJoin(left, right, 0, 0);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_TRUE(Table::Identical(*expected, *got));
  // Both zeros join the -0.0 build row; the NaN rows join nothing.
  EXPECT_EQ(got->num_rows(), 3u);
}

// The FlatMap64 group-by fast path handles negative int64 keys (cast to
// uint64 bit pattern) identically to the row oracle.
TEST(VectorizedKernelTest, IntKeyGroupByNegativeKeysMatchRowOracle) {
  Schema s({{"k", FieldType::kInt64}, {"x", FieldType::kDouble}});
  Table t(s);
  uint64_t state = 77;
  for (int i = 0; i < 10'000; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    t.AddRow({static_cast<int64_t>((state >> 40) % 64) - 32,
              static_cast<double>(static_cast<int64_t>(state % 1000)) / 3.0});
  }
  const std::vector<int> group = {0};
  const std::vector<AggSpec> aggs{{AggFn::kSum, 1, "sx"},
                                  {AggFn::kMin, 1, "mn"},
                                  {AggFn::kCount, 0, "c"}};
  auto expected = rowref::GroupByAgg(t, group, aggs);
  ASSERT_TRUE(expected.ok()) << expected.status();
  for (int threads : {1, 4}) {
    ScopedParallelThreads width(threads);
    auto got = GroupByAgg(t, group, aggs);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_TRUE(Table::Identical(*expected, *got));
  }
}

// --- Hash kernels vs the row oracle at the workflows' shapes -------------

// The key shapes the sweep covers. kMixed keys the left/`a` side on INT64
// and the right/`b` side on DOUBLE (integral values, so they match across
// types); kTwoColumn groups on an (INT64, STRING) pair.
enum class SweepKey { kInt64, kDouble, kMixed, kString, kTwoColumn };

const char* SweepKeyName(SweepKey k) {
  switch (k) {
    case SweepKey::kInt64:
      return "int64";
    case SweepKey::kDouble:
      return "double";
    case SweepKey::kMixed:
      return "mixed";
    case SweepKey::kString:
      return "string";
    case SweepKey::kTwoColumn:
      return "two-column";
  }
  return "?";
}

// A seeded table of `rows` rows whose key is drawn from `cardinality` key
// ids (cardinality == rows: every row its own id, in reverse order), then
// a small-range INT64 `v` (so full rows repeat, for the set operators) and
// a DOUBLE `x` whose summation order shows in its low bits. Double keys map
// id 0 to alternating +0.0 / -0.0 and id 1 to NaN; `right_side` selects the
// DOUBLE half of a kMixed pair.
Table MakeSweepTable(SweepKey key, size_t rows, size_t cardinality,
                     uint64_t seed, bool right_side) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<Field> fields;
  switch (key) {
    case SweepKey::kInt64:
      fields.push_back({"k", FieldType::kInt64});
      break;
    case SweepKey::kDouble:
      fields.push_back({"k", FieldType::kDouble});
      break;
    case SweepKey::kMixed:
      fields.push_back(
          {"k", right_side ? FieldType::kDouble : FieldType::kInt64});
      break;
    case SweepKey::kString:
      fields.push_back({"k", FieldType::kString});
      break;
    case SweepKey::kTwoColumn:
      fields.push_back({"k", FieldType::kInt64});
      fields.push_back({"tag", FieldType::kString});
      break;
  }
  fields.push_back({"v", FieldType::kInt64});
  fields.push_back({"x", FieldType::kDouble});
  Table t{Schema(fields)};
  uint64_t state = seed;
  for (size_t i = 0; i < rows; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const int64_t id = cardinality >= rows
                           ? static_cast<int64_t>(rows - 1 - i)
                           : static_cast<int64_t>((state >> 33) % cardinality);
    Row row;
    switch (key) {
      case SweepKey::kInt64:
        row.push_back(id);
        break;
      case SweepKey::kDouble:
        row.push_back(id == 0   ? (i % 2 == 0 ? 0.0 : -0.0)
                      : id == 1 ? nan
                                : static_cast<double>(id) * 0.5);
        break;
      case SweepKey::kMixed:
        if (right_side) {
          row.push_back(static_cast<double>(id));
        } else {
          row.push_back(id);
        }
        break;
      case SweepKey::kString:
        row.push_back("k" + std::to_string(id));
        break;
      case SweepKey::kTwoColumn:
        row.push_back(id / 3);
        row.push_back("t" + std::to_string(id % 3));
        break;
    }
    row.push_back(static_cast<int64_t>((state >> 17) % 2));
    row.push_back(static_cast<double>(static_cast<int64_t>(state % 100003)) /
                  7.0);
    t.AddRow(std::move(row));
  }
  return t;
}

struct SweepCase {
  SweepKey key;
  size_t rows;
  size_t cardinality;
  std::string Name() const {
    return std::string(SweepKeyName(key)) + " rows=" + std::to_string(rows) +
           " cardinality=" + std::to_string(cardinality);
  }
};

// Every key shape × cardinality {1, 97, rows/2, all-unique} × size {0, 1,
// kMorselRows±1, 3·kMorselRows+17}: single morsels, exact morsel edges and
// groups ≈ rows spread across morsels.
std::vector<SweepCase> SweepCases() {
  std::vector<SweepCase> cases;
  for (SweepKey key : {SweepKey::kInt64, SweepKey::kDouble, SweepKey::kMixed,
                       SweepKey::kString, SweepKey::kTwoColumn}) {
    for (size_t rows : {size_t{0}, size_t{1}, kMorselRows - 1, kMorselRows + 1,
                        3 * kMorselRows + 17}) {
      for (size_t cardinality :
           {size_t{1}, size_t{97}, std::max<size_t>(1, rows / 2), rows}) {
        if (cardinality == 0) continue;
        cases.push_back({key, rows, cardinality});
      }
    }
  }
  return cases;
}

// Runs `kernel` at widths 1 and 4 and requires Table::Identical to `oracle`.
template <typename Kernel>
void ExpectKernelMatchesOracle(const Table& oracle, const Kernel& kernel,
                               const std::string& what) {
  for (int threads : {1, 4}) {
    ScopedParallelThreads width(threads);
    const Table got = kernel();
    EXPECT_TRUE(Table::Identical(oracle, got))
        << what << " diverged from the row oracle at " << threads
        << " thread(s)";
  }
}

// The group columns of a sweep table: the key column(s).
std::vector<int> SweepGroupColumns(SweepKey key) {
  return key == SweepKey::kTwoColumn ? std::vector<int>{0, 1}
                                     : std::vector<int>{0};
}

TEST(KernelOracleSweepTest, GroupByMatchesRowOracle) {
  for (const SweepCase& c : SweepCases()) {
    const Table in = MakeSweepTable(c.key, c.rows, c.cardinality, 11, false);
    const int v = c.key == SweepKey::kTwoColumn ? 2 : 1;
    const std::vector<AggSpec> aggs{{AggFn::kSum, v + 1, "sx"},
                                    {AggFn::kAvg, v + 1, "ax"},
                                    {AggFn::kMin, v, "mn"},
                                    {AggFn::kMax, v + 1, "mx"},
                                    {AggFn::kCount, 0, "c"}};
    for (const std::vector<int>& group :
         {SweepGroupColumns(c.key), std::vector<int>{}}) {
      auto expected = rowref::GroupByAgg(in, group, aggs);
      ASSERT_TRUE(expected.ok()) << expected.status();
      ExpectKernelMatchesOracle(
          *expected,
          [&] { return std::move(GroupByAgg(in, group, aggs)).value(); },
          "GROUP BY (" + std::to_string(group.size()) + " columns) " +
              c.Name());
    }
  }
}

TEST(KernelOracleSweepTest, HashJoinMatchesRowOracle) {
  for (const SweepCase& c : SweepCases()) {
    // Low-cardinality keys cross-multiply, so keep the build side to about
    // three rows per key there.
    const size_t right_rows = c.cardinality >= c.rows / 2
                                  ? c.rows
                                  : std::min(c.rows, 3 * c.cardinality);
    const Table left = MakeSweepTable(c.key, c.rows, c.cardinality, 21, false);
    const Table right =
        MakeSweepTable(c.key, right_rows, c.cardinality, 22, true);
    auto expected = rowref::HashJoin(left, right, 0, 0);
    ASSERT_TRUE(expected.ok()) << expected.status();
    ExpectKernelMatchesOracle(
        *expected,
        [&] { return std::move(HashJoin(left, right, 0, 0)).value(); },
        "JOIN " + c.Name());
  }
}

// The set operators compare whole rows: the key column(s) and `v`.
Table SweepSetTable(const SweepCase& c, uint64_t seed, bool right_side) {
  std::vector<int> cols = SweepGroupColumns(c.key);
  cols.push_back(static_cast<int>(cols.size()));
  return std::move(ProjectColumns(MakeSweepTable(c.key, c.rows, c.cardinality,
                                                 seed, right_side),
                                  cols))
      .value();
}

TEST(KernelOracleSweepTest, IntersectMatchesRowOracle) {
  for (const SweepCase& c : SweepCases()) {
    const Table a = SweepSetTable(c, 31, false);
    const Table b = SweepSetTable(c, 32, true);
    auto expected = rowref::Intersect(a, b);
    ASSERT_TRUE(expected.ok()) << expected.status();
    ExpectKernelMatchesOracle(
        *expected, [&] { return std::move(Intersect(a, b)).value(); },
        "INTERSECT " + c.Name());
  }
}

TEST(KernelOracleSweepTest, DifferenceMatchesRowOracle) {
  for (const SweepCase& c : SweepCases()) {
    const Table a = SweepSetTable(c, 41, false);
    const Table b = SweepSetTable(c, 42, true);
    auto expected = rowref::Difference(a, b);
    ASSERT_TRUE(expected.ok()) << expected.status();
    ExpectKernelMatchesOracle(
        *expected, [&] { return std::move(Difference(a, b)).value(); },
        "DIFFERENCE " + c.Name());
  }
}

TEST(KernelOracleSweepTest, DistinctMatchesRowOracle) {
  for (const SweepCase& c : SweepCases()) {
    const Table in = SweepSetTable(c, 51, false);
    ExpectKernelMatchesOracle(rowref::Distinct(in),
                              [&] { return Distinct(in); },
                              "DISTINCT " + c.Name());
  }
}

// A hot key puts more rows in one partition than the index a thread keeps
// between tasks holds (2^15 ids); those partitions get an index of their own.
TEST(KernelOracleSweepTest, SkewedPartitionsMatchRowOracle) {
  const SweepCase c{SweepKey::kInt64, 10 * kMorselRows, 1};
  const Table left = MakeSweepTable(c.key, 2, 1, 61, false);
  const Table right = MakeSweepTable(c.key, c.rows, 1, 62, true);
  auto joined = rowref::HashJoin(left, right, 0, 0);
  ASSERT_TRUE(joined.ok()) << joined.status();
  ExpectKernelMatchesOracle(
      *joined, [&] { return std::move(HashJoin(left, right, 0, 0)).value(); },
      "JOIN on a hot key");

  // Two distinct rows, about 40k copies of each.
  const Table a = SweepSetTable(c, 63, false);
  const Table b = SweepSetTable(c, 64, true);
  auto intersect = rowref::Intersect(a, b);
  ASSERT_TRUE(intersect.ok()) << intersect.status();
  ExpectKernelMatchesOracle(
      *intersect, [&] { return std::move(Intersect(a, b)).value(); },
      "INTERSECT of hot rows");
  auto difference = rowref::Difference(a, b);
  ASSERT_TRUE(difference.ok()) << difference.status();
  ExpectKernelMatchesOracle(
      *difference, [&] { return std::move(Difference(a, b)).value(); },
      "DIFFERENCE of hot rows");
  ExpectKernelMatchesOracle(rowref::Distinct(a), [&] { return Distinct(a); },
                            "DISTINCT of hot rows");
}

// --- Value sentinels ----------------------------------------------------

TEST(ValueSentinelTest, StringNumericViewsAreSentinels) {
  Value s = std::string("12");
  // Views, not parses: "12" does NOT become 12.
  EXPECT_TRUE(std::isnan(AsDouble(s)));
  EXPECT_EQ(AsInt64(s), std::numeric_limits<int64_t>::min());
}

TEST(ValueSentinelTest, NumericViewsStayExact) {
  EXPECT_DOUBLE_EQ(AsDouble(Value(static_cast<int64_t>(5))), 5.0);
  EXPECT_DOUBLE_EQ(AsDouble(Value(2.25)), 2.25);
  EXPECT_EQ(AsInt64(Value(static_cast<int64_t>(5))), 5);
  EXPECT_EQ(AsInt64(Value(2.9)), 2);  // truncation, as before
}

TEST(ValueSentinelTest, TryVariantsSignalStrings) {
  EXPECT_EQ(TryAsDouble(Value(std::string("x"))), std::nullopt);
  EXPECT_EQ(TryAsInt64(Value(std::string("x"))), std::nullopt);
  ASSERT_TRUE(TryAsDouble(Value(1.5)).has_value());
  EXPECT_DOUBLE_EQ(*TryAsDouble(Value(1.5)), 1.5);
  ASSERT_TRUE(TryAsInt64(Value(static_cast<int64_t>(9))).has_value());
  EXPECT_EQ(*TryAsInt64(Value(static_cast<int64_t>(9))), 9);
}

TEST(ValueSentinelTest, IsTruthySemantics) {
  EXPECT_TRUE(IsTruthy(Value(static_cast<int64_t>(1))));
  EXPECT_TRUE(IsTruthy(Value(-0.5)));
  EXPECT_FALSE(IsTruthy(Value(static_cast<int64_t>(0))));
  EXPECT_FALSE(IsTruthy(Value(0.0)));
  // Strings are always false (historical row-plane behavior).
  EXPECT_FALSE(IsTruthy(Value(std::string("true"))));
  EXPECT_FALSE(IsTruthy(Value(std::string(""))));
}

}  // namespace
}  // namespace musketeer
