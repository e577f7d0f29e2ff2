// Tests for the IR: expressions, DAG construction/validation, schema
// inference, WHILE handling and the reference interpreter.

#include "src/ir/dag.h"

#include <gtest/gtest.h>

#include "src/ir/eval.h"

namespace musketeer {
namespace {

Schema EdgeSchema() {
  return Schema({{"src", FieldType::kInt64}, {"dst", FieldType::kInt64}});
}

TEST(ExprTest, ArithmeticAndComparisonEvaluation) {
  Schema s({{"a", FieldType::kInt64}, {"b", FieldType::kDouble}});
  // (a + 2) * b
  ExprPtr e = Expr::Binary(
      BinOp::kMul,
      Expr::Binary(BinOp::kAdd, Expr::Column("a"), Expr::Literal(int64_t{2})),
      Expr::Column("b"));
  auto proj = e->Compile(s);
  ASSERT_TRUE(proj.ok());
  Row row{int64_t{3}, 2.5};
  EXPECT_DOUBLE_EQ(AsDouble((*proj)(row)), 12.5);

  ExprPtr cmp = Expr::Binary(BinOp::kGe, Expr::Column("b"), Expr::Literal(2.0));
  auto pred = cmp->CompilePredicate(s);
  ASSERT_TRUE(pred.ok());
  EXPECT_TRUE((*pred)(row));
}

TEST(ExprTest, TypeInference) {
  Schema s({{"a", FieldType::kInt64},
            {"b", FieldType::kDouble},
            {"s", FieldType::kString}});
  auto t1 = Expr::Binary(BinOp::kAdd, Expr::Column("a"), Expr::Literal(int64_t{1}))
                ->InferType(s);
  ASSERT_TRUE(t1.ok());
  EXPECT_EQ(*t1, FieldType::kInt64);

  auto t2 = Expr::Binary(BinOp::kDiv, Expr::Column("a"), Expr::Literal(int64_t{2}))
                ->InferType(s);
  ASSERT_TRUE(t2.ok());
  EXPECT_EQ(*t2, FieldType::kDouble);  // division always widens

  auto t3 = Expr::Binary(BinOp::kAdd, Expr::Column("s"), Expr::Literal(int64_t{1}))
                ->InferType(s);
  EXPECT_FALSE(t3.ok());

  auto t4 = Expr::Column("missing")->InferType(s);
  EXPECT_FALSE(t4.ok());
}

TEST(ExprTest, IntegerDivisionByZeroYieldsZero) {
  Schema s({{"a", FieldType::kInt64}});
  ExprPtr e = Expr::Binary(BinOp::kDiv, Expr::Column("a"), Expr::Literal(int64_t{0}));
  auto proj = e->Compile(s);
  ASSERT_TRUE(proj.ok());
  Row row{int64_t{7}};
  EXPECT_DOUBLE_EQ(AsDouble((*proj)(row)), 0.0);
}

TEST(ExprTest, CollectColumnsDeduplicates) {
  ExprPtr e = Expr::Binary(BinOp::kAdd, Expr::Column("x"),
                           Expr::Binary(BinOp::kMul, Expr::Column("x"),
                                        Expr::Column("y")));
  std::vector<std::string> cols;
  e->CollectColumns(&cols);
  ASSERT_EQ(cols.size(), 2u);
  EXPECT_EQ(cols[0], "x");
  EXPECT_EQ(cols[1], "y");
}

TEST(DagTest, ValidationCatchesDuplicateNames) {
  Dag dag;
  int in = dag.AddInput("edges");
  dag.AddNode(OpKind::kDistinct, "out", {in}, DistinctParams{});
  dag.AddNode(OpKind::kDistinct, "out", {in}, DistinctParams{});
  EXPECT_FALSE(dag.Validate().ok());
}

TEST(DagTest, ValidationCatchesArityMismatch) {
  Dag dag;
  int in = dag.AddInput("edges");
  dag.AddNode(OpKind::kJoin, "bad", {in}, JoinParams{"src", "dst"});
  EXPECT_FALSE(dag.Validate().ok());
}

TEST(DagTest, SchemaInferenceJoinLayout) {
  Dag dag;
  int e1 = dag.AddInput("edges");
  int e2 = dag.AddInput("edges2");
  dag.AddNode(OpKind::kJoin, "j", {e1, e2}, JoinParams{"dst", "src"});
  SchemaMap base{{"edges", EdgeSchema()},
                 {"edges2", Schema({{"src", FieldType::kInt64},
                                    {"dst2", FieldType::kInt64}})}};
  auto schemas = dag.InferSchemas(base);
  ASSERT_TRUE(schemas.ok()) << schemas.status();
  const Schema& j = (*schemas)[2];
  ASSERT_EQ(j.num_fields(), 3u);
  EXPECT_EQ(j.field(0).name, "dst");   // join key
  EXPECT_EQ(j.field(1).name, "src");   // left rest
  EXPECT_EQ(j.field(2).name, "dst2");  // right rest
}

TEST(DagTest, SchemaInferenceReportsMissingColumns) {
  Dag dag;
  int in = dag.AddInput("edges");
  dag.AddNode(OpKind::kProject, "p", {in}, ProjectParams{{"nope"}});
  auto schemas = dag.InferSchemas({{"edges", EdgeSchema()}});
  EXPECT_FALSE(schemas.ok());
}

TEST(DagTest, SinksAndConsumers) {
  Dag dag;
  int in = dag.AddInput("edges");
  int d = dag.AddNode(OpKind::kDistinct, "d", {in}, DistinctParams{});
  int p = dag.AddNode(OpKind::kProject, "p", {d}, ProjectParams{{"src"}});
  EXPECT_EQ(dag.ConsumersOf(in), std::vector<int>{d});
  EXPECT_EQ(dag.Sinks(), std::vector<int>{p});
}

TEST(DagTest, CloneIsDeep) {
  Dag dag;
  int in = dag.AddInput("x");
  auto body = std::make_unique<Dag>();
  int bi = body->AddInput("v");
  body->AddNode(OpKind::kDistinct, "v_next", {bi}, DistinctParams{});
  WhileParams wp;
  wp.iterations = 2;
  wp.body = std::shared_ptr<const Dag>(body.release());
  wp.bindings = {{"v", "v_next"}};
  wp.result = "v_next";
  dag.AddNode(OpKind::kWhile, "out", {in}, std::move(wp));

  auto clone = dag.Clone();
  ASSERT_EQ(clone->num_nodes(), dag.num_nodes());
  const auto& orig_body = std::get<WhileParams>(dag.node(1).params).body;
  const auto& clone_body = std::get<WhileParams>(clone->node(1).params).body;
  EXPECT_NE(orig_body.get(), clone_body.get());
  EXPECT_EQ(clone_body->num_nodes(), orig_body->num_nodes());
}

TEST(DagTest, TotalOperatorCountRecursesIntoWhile) {
  Dag dag;
  int in = dag.AddInput("x");
  auto body = std::make_unique<Dag>();
  int bi = body->AddInput("v");
  int d = body->AddNode(OpKind::kDistinct, "d", {bi}, DistinctParams{});
  body->AddNode(OpKind::kProject, "v_next", {d}, ProjectParams{{"src"}});
  WhileParams wp;
  wp.iterations = 3;
  wp.body = std::shared_ptr<const Dag>(body.release());
  wp.bindings = {{"v", "v_next"}};
  wp.result = "v_next";
  dag.AddNode(OpKind::kWhile, "out", {in}, std::move(wp));
  EXPECT_EQ(dag.TotalOperatorCount(), 2);
}

// A WHILE body may read an outer base relation that is not one of the
// loop's inputs: inference copies into the body only the relations the body
// reads, and must still find it — or report it missing as before.
TEST(DagTest, WhileBodyResolvesOuterBaseRelationThatIsNotALoopInput) {
  auto body = std::make_shared<Dag>();
  int lv = body->AddInput("lv");
  int side = body->AddInput("side_rel");
  int joined =
      body->AddNode(OpKind::kJoin, "joined", {lv, side}, JoinParams{"id", "id"});
  body->AddNode(OpKind::kProject, "next", {joined}, ProjectParams{{"id"}});
  Dag dag;
  int seed = dag.AddInput("seed_rel");
  WhileParams wp;
  wp.iterations = 2;
  wp.body = body;
  wp.bindings = {LoopBinding{"lv", "next"}};
  wp.result = "joined";
  int loop = dag.AddNode(OpKind::kWhile, "out", {seed}, wp);

  Schema seed_schema;
  seed_schema.AddField({"id", FieldType::kInt64});
  Schema side_schema;
  side_schema.AddField({"id", FieldType::kInt64});
  side_schema.AddField({"w", FieldType::kDouble});
  SchemaMap base = {{"seed_rel", seed_schema}, {"side_rel", side_schema}};
  for (int i = 0; i < 100; ++i) {
    base["unrelated_" + std::to_string(i)] = side_schema;
  }
  auto schemas = dag.InferSchemas(base);
  ASSERT_TRUE(schemas.ok()) << schemas.status();
  ASSERT_EQ((*schemas)[loop].num_fields(), 2u);
  EXPECT_EQ((*schemas)[loop].field(1).name, "w");

  base.erase("side_rel");
  auto missing = dag.InferSchemas(base);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(missing.status().message(),
            "base relation 'side_rel' has no schema");
}

TEST(EvalTest, UdfOperatorRuns) {
  Dag dag;
  int in = dag.AddInput("edges");
  UdfParams udf;
  udf.name = "count_rows";
  udf.output_schema = Schema({{"n", FieldType::kInt64}});
  udf.fn = [](const std::vector<const Table*>& inputs) -> StatusOr<Table> {
    Table out(Schema({{"n", FieldType::kInt64}}));
    out.AddRow({static_cast<int64_t>(inputs[0]->num_rows())});
    return out;
  };
  dag.AddNode(OpKind::kUdf, "n", {in}, std::move(udf));

  auto edges = std::make_shared<Table>(EdgeSchema());
  edges->AddRow({int64_t{1}, int64_t{2}});
  edges->AddRow({int64_t{2}, int64_t{3}});
  auto result = EvaluateDagRelation(dag, {{"edges", edges}}, "n");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(AsInt64(result->MaterializeRows()[0][0]), 2);
}

TEST(EvalTest, MissingBaseRelationReported) {
  Dag dag;
  dag.AddInput("ghost");
  auto result = EvaluateDag(dag, {});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(EvalTest, ErrorsNameTheFailingOperator) {
  Dag dag;
  int in = dag.AddInput("edges");
  dag.AddNode(OpKind::kProject, "p", {in}, ProjectParams{{"missing_col"}});
  auto edges = std::make_shared<Table>(EdgeSchema());
  auto result = EvaluateDag(dag, {{"edges", edges}});
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("PROJECT"), std::string::npos);
}

TEST(EvalTest, DotExportMentionsAllNodes) {
  Dag dag;
  int in = dag.AddInput("edges");
  dag.AddNode(OpKind::kDistinct, "d", {in}, DistinctParams{});
  std::string dot = dag.ToDot();
  EXPECT_NE(dot.find("INPUT"), std::string::npos);
  EXPECT_NE(dot.find("DISTINCT"), std::string::npos);
  EXPECT_NE(dot.find("n0 -> n1"), std::string::npos);
}

}  // namespace
}  // namespace musketeer
