// Front-end parser tests: each language parses to the expected IR shape, and
// the parsed DAGs evaluate correctly on small data via the reference
// interpreter.

#include "src/frontends/frontend.h"

#include <gtest/gtest.h>

#include "src/frontends/expr_parser.h"
#include "src/ir/eval.h"

namespace musketeer {
namespace {

TableMap PropertyData() {
  Schema props({{"id", FieldType::kInt64},
                {"street", FieldType::kString},
                {"town", FieldType::kString}});
  auto properties = std::make_shared<Table>(props);
  properties->AddRow({int64_t{1}, std::string("High St"), std::string("Cambridge")});
  properties->AddRow({int64_t{2}, std::string("High St"), std::string("Cambridge")});
  properties->AddRow({int64_t{3}, std::string("Mill Rd"), std::string("Cambridge")});

  Schema price_schema({{"id", FieldType::kInt64}, {"price", FieldType::kDouble}});
  auto prices = std::make_shared<Table>(price_schema);
  prices->AddRow({int64_t{1}, 250000.0});
  prices->AddRow({int64_t{2}, 400000.0});
  prices->AddRow({int64_t{3}, 180000.0});

  return {{"properties", properties}, {"prices", prices}};
}

// --- BEER ---------------------------------------------------------------

TEST(BeerParserTest, MaxPropertyPriceWorkflow) {
  const char* kSource = R"(
    locs = SELECT id, street, town FROM properties;
    id_price = JOIN locs, prices ON locs.id = prices.id;
    street_price = AGG MAX(price) AS max_price FROM id_price
                   GROUP BY street, town;
  )";
  auto dag = ParseWorkflow(FrontendLanguage::kBeer, kSource);
  ASSERT_TRUE(dag.ok()) << dag.status();

  auto result = EvaluateDagRelation(**dag, PropertyData(), "street_price");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->num_rows(), 2u);
  for (const Row& r : result->MaterializeRows()) {
    if (std::get<std::string>(r[0]) == "High St") {
      EXPECT_DOUBLE_EQ(AsDouble(r[2]), 400000.0);
    } else {
      EXPECT_DOUBLE_EQ(AsDouble(r[2]), 180000.0);
    }
  }
}

TEST(BeerParserTest, SelectWhereSplitsIntoFilterAndProject) {
  const char* kSource = R"(
    cheap = SELECT id FROM prices WHERE price < 200000;
  )";
  auto dag = ParseWorkflow(FrontendLanguage::kBeer, kSource);
  ASSERT_TRUE(dag.ok()) << dag.status();
  int selects = 0;
  int projects = 0;
  for (const auto& n : (*dag)->nodes()) {
    selects += n.kind == OpKind::kSelect ? 1 : 0;
    projects += n.kind == OpKind::kProject ? 1 : 0;
  }
  EXPECT_EQ(selects, 1);
  EXPECT_EQ(projects, 1);

  auto result = EvaluateDagRelation(**dag, PropertyData(), "cheap");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->num_rows(), 1u);
  EXPECT_EQ(AsInt64(result->MaterializeRows()[0][0]), 3);
}

TEST(BeerParserTest, WhileLoopIterates) {
  // Doubles `v` three times: 1 -> 8.
  const char* kSource = R"(
    start = MAP k, v * 1.0 AS v FROM seed;
    WHILE 3 LOOP cur = start UPDATE nxt {
      nxt = MAP k, v * 2 AS v FROM cur;
    } YIELD nxt AS result;
  )";
  auto dag = ParseWorkflow(FrontendLanguage::kBeer, kSource);
  ASSERT_TRUE(dag.ok()) << dag.status();

  Schema s({{"k", FieldType::kInt64}, {"v", FieldType::kDouble}});
  auto seed = std::make_shared<Table>(s);
  seed->AddRow({int64_t{1}, 1.0});
  auto result = EvaluateDagRelation(**dag, {{"seed", seed}}, "result");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->num_rows(), 1u);
  EXPECT_DOUBLE_EQ(AsDouble(result->MaterializeRows()[0][1]), 8.0);
}

TEST(BeerParserTest, SetOperations) {
  const char* kSource = R"(
    u = UNION a, b;
    i = INTERSECT a, b;
    d = DIFFERENCE a, b;
  )";
  auto dag = ParseWorkflow(FrontendLanguage::kBeer, kSource);
  ASSERT_TRUE(dag.ok()) << dag.status();

  Schema s({{"x", FieldType::kInt64}});
  auto a = std::make_shared<Table>(s);
  a->AddRow({int64_t{1}});
  a->AddRow({int64_t{2}});
  auto b = std::make_shared<Table>(s);
  b->AddRow({int64_t{2}});
  b->AddRow({int64_t{3}});
  TableMap base{{"a", a}, {"b", b}};
  auto all = EvaluateDag(**dag, base);
  ASSERT_TRUE(all.ok()) << all.status();
  EXPECT_EQ((*all)["u"]->num_rows(), 4u);
  EXPECT_EQ((*all)["i"]->num_rows(), 1u);
  EXPECT_EQ((*all)["d"]->num_rows(), 1u);
}

TEST(BeerParserTest, SyntaxErrorsAreReported) {
  EXPECT_FALSE(ParseWorkflow(FrontendLanguage::kBeer, "x = SELECT FROM y;").ok());
  EXPECT_FALSE(ParseWorkflow(FrontendLanguage::kBeer, "x = BOGUS y;").ok());
  EXPECT_FALSE(ParseWorkflow(FrontendLanguage::kBeer, "x = DISTINCT y").ok());
  EXPECT_FALSE(
      ParseWorkflow(FrontendLanguage::kBeer,
                    "WHILE 2 LOOP a = b UPDATE missing { c = DISTINCT a; } "
                    "YIELD c AS out;")
          .ok());
}

// --- HiveQL ---------------------------------------------------------------

TEST(HiveParserTest, ListingOneWorkflow) {
  // Listing 1 from the paper, modulo the statement-naming convention.
  const char* kSource = R"(
    SELECT id, street, town FROM properties AS locs;
    locs JOIN prices ON locs.id = prices.id AS id_price;
    SELECT street, town, MAX(price) FROM id_price GROUP BY street AND town
      AS street_price;
  )";
  auto dag = ParseWorkflow(FrontendLanguage::kHive, kSource);
  ASSERT_TRUE(dag.ok()) << dag.status();

  auto result = EvaluateDagRelation(**dag, PropertyData(), "street_price");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->num_rows(), 2u);
}

TEST(HiveParserTest, WhereClause) {
  const char* kSource = R"(
    SELECT id FROM prices WHERE price >= 200000 AS expensive;
  )";
  auto dag = ParseWorkflow(FrontendLanguage::kHive, kSource);
  ASSERT_TRUE(dag.ok()) << dag.status();
  auto result = EvaluateDagRelation(**dag, PropertyData(), "expensive");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->num_rows(), 2u);
}

TEST(HiveParserTest, GlobalAggregate) {
  const char* kSource = R"(
    SELECT SUM(price) total FROM prices AS result;
  )";
  auto dag = ParseWorkflow(FrontendLanguage::kHive, kSource);
  ASSERT_TRUE(dag.ok()) << dag.status();
  auto result = EvaluateDagRelation(**dag, PropertyData(), "result");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->num_rows(), 1u);
  EXPECT_DOUBLE_EQ(AsDouble(result->MaterializeRows()[0][0]), 830000.0);
}

TEST(HiveParserTest, BareColumnOutsideGroupByRejected) {
  EXPECT_FALSE(
      ParseWorkflow(FrontendLanguage::kHive, "SELECT id, SUM(price) FROM x AS y;")
          .ok());
}

// --- GAS -------------------------------------------------------------------

TEST(GasParserTest, PageRankLowersToWhileJoinGroupBy) {
  const char* kSource = R"(
    GATHER = { SUM (vertex_value) }
    APPLY = {
      MUL [vertex_value, 0.85]
      SUM [vertex_value, 0.15]
    }
    SCATTER = { DIV [vertex_value, vertex_degree] }
    ITERATION_STOP = (iteration < 5)
    ITERATION = { SUM [iteration, 1] }
    RESULT = ranks
  )";
  auto dag = ParseWorkflow(FrontendLanguage::kGas, kSource);
  ASSERT_TRUE(dag.ok()) << dag.status();

  // Shape: one WHILE whose body is JOIN -> MAP -> GROUP BY -> JOIN -> MAP.
  int while_id = (*dag)->ProducerOf("ranks");
  ASSERT_GE(while_id, 0);
  const auto& wp = std::get<WhileParams>((*dag)->node(while_id).params);
  EXPECT_EQ(wp.iterations, 5);
  int joins = 0;
  int group_bys = 0;
  for (const auto& n : wp.body->nodes()) {
    joins += n.kind == OpKind::kJoin ? 1 : 0;
    group_bys += n.kind == OpKind::kGroupBy ? 1 : 0;
  }
  EXPECT_EQ(joins, 2);
  EXPECT_EQ(group_bys, 1);
}

TEST(GasParserTest, PageRankConvergesOnTriangle) {
  const char* kSource = R"(
    GATHER = { SUM (vertex_value) }
    APPLY = { MUL [vertex_value, 0.85] SUM [vertex_value, 0.15] }
    SCATTER = { DIV [vertex_value, vertex_degree] }
    ITERATION_STOP = (iteration < 30)
  )";
  auto dag = ParseWorkflow(FrontendLanguage::kGas, kSource);
  ASSERT_TRUE(dag.ok()) << dag.status();

  // Symmetric triangle: every vertex should keep rank 1.0.
  Schema vs({{"id", FieldType::kInt64},
             {"vertex_value", FieldType::kDouble},
             {"vertex_degree", FieldType::kInt64}});
  auto vertices = std::make_shared<Table>(vs);
  for (int64_t v = 0; v < 3; ++v) {
    vertices->AddRow({v, 1.0, int64_t{2}});
  }
  Schema es({{"src", FieldType::kInt64}, {"dst", FieldType::kInt64}});
  auto edges = std::make_shared<Table>(es);
  for (int64_t v = 0; v < 3; ++v) {
    for (int64_t u = 0; u < 3; ++u) {
      if (u != v) {
        edges->AddRow({v, u});
      }
    }
  }
  auto result = EvaluateDagRelation(**dag, {{"vertices", vertices}, {"edges", edges}},
                                    "gas_result");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->num_rows(), 3u);
  for (const Row& r : result->MaterializeRows()) {
    EXPECT_NEAR(AsDouble(r[1]), 1.0, 1e-9);
  }
}

TEST(GasParserTest, MissingSectionRejected) {
  EXPECT_FALSE(ParseWorkflow(FrontendLanguage::kGas,
                             "GATHER = { SUM (vertex_value) }")
                   .ok());
}

// --- Lindi -------------------------------------------------------------------

TEST(LindiParserTest, ChainedPipeline) {
  const char* kSource = R"(
    locs = properties.Select(id, street, town);
    id_price = locs.Join(prices, id, id);
    street_price = id_price.GroupBy(street, town).Max(price);
  )";
  auto dag = ParseWorkflow(FrontendLanguage::kLindi, kSource);
  ASSERT_TRUE(dag.ok()) << dag.status();
  auto result = EvaluateDagRelation(**dag, PropertyData(), "street_price");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->num_rows(), 2u);
}

TEST(LindiParserTest, WhereDistinctCount) {
  const char* kSource = R"(
    n = prices.Where(price > 100000).Distinct().Count();
  )";
  auto dag = ParseWorkflow(FrontendLanguage::kLindi, kSource);
  ASSERT_TRUE(dag.ok()) << dag.status();
  auto result = EvaluateDagRelation(**dag, PropertyData(), "n");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->num_rows(), 1u);
  EXPECT_EQ(AsInt64(result->MaterializeRows()[0][0]), 3);
}

TEST(LindiParserTest, MultipleAggregationsAfterGroupBy) {
  const char* kSource = R"(
    stats = prices.GroupBy(id).Sum(price).Count();
  )";
  auto dag = ParseWorkflow(FrontendLanguage::kLindi, kSource);
  ASSERT_TRUE(dag.ok()) << dag.status();
  auto result = EvaluateDagRelation(**dag, PropertyData(), "stats");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->num_rows(), 3u);
  EXPECT_EQ(result->schema().num_fields(), 3u);
}

TEST(LindiParserTest, DanglingGroupByRejected) {
  EXPECT_FALSE(
      ParseWorkflow(FrontendLanguage::kLindi, "x = prices.GroupBy(id);").ok());
}

// --- Expression depth ---------------------------------------------------------

// One WHERE-clause filter over `prices` in each front end that has one.
std::string FilterSource(FrontendLanguage language, const std::string& cond) {
  switch (language) {
    case FrontendLanguage::kHive:
      return "SELECT id FROM prices WHERE " + cond + " AS cheap;";
    case FrontendLanguage::kLindi:
      return "cheap = prices.Where(" + cond + ");";
    default:
      return "cheap = SELECT id FROM prices WHERE " + cond + ";";
  }
}

std::string Repeat(const std::string& piece, int n) {
  std::string out;
  out.reserve(piece.size() * n);
  for (int i = 0; i < n; ++i) {
    out += piece;
  }
  return out;
}

constexpr FrontendLanguage kWhereLanguages[] = {
    FrontendLanguage::kBeer, FrontendLanguage::kHive, FrontendLanguage::kLindi};

// Each shape used to crash the process: the parser recursed once per
// parenthesis or unary minus, and the `+` chain, built in a loop, overflowed
// the stack in whatever recursed over it later.
TEST(ExpressionDepthTest, DeepExpressionsAreRejectedNotCrashed) {
  constexpr int kDepth = 50000;
  const std::string shapes[] = {
      Repeat("(", kDepth) + "price < 200000" + Repeat(")", kDepth),
      "price < " + Repeat("- ", kDepth) + "1",
      "price < 1" + Repeat(" + 1", kDepth),
  };
  for (FrontendLanguage language : kWhereLanguages) {
    for (const std::string& cond : shapes) {
      auto dag = ParseWorkflow(language, FilterSource(language, cond));
      ASSERT_FALSE(dag.ok()) << cond.substr(0, 40);
      EXPECT_EQ(dag.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(dag.status().message().find(
                    "deeper than " + std::to_string(kMaxExpressionDepth)),
                std::string::npos)
          << dag.status();
      EXPECT_NE(dag.status().message().find("line 1"), std::string::npos)
          << dag.status();
    }
  }
}

TEST(ExpressionDepthTest, TwoHundredNestedParenthesesStillParse) {
  const std::string cond =
      Repeat("(", 200) + "price < 200000" + Repeat(")", 200);
  for (FrontendLanguage language : kWhereLanguages) {
    auto dag = ParseWorkflow(language, FilterSource(language, cond));
    ASSERT_TRUE(dag.ok()) << dag.status();
    auto result = EvaluateDagRelation(**dag, PropertyData(), "cheap");
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->num_rows(), 1u);
  }
}

// `depth` WHILE blocks, each nested in the previous one's body. Every body
// feeds its loop variable to the next level and yields a DISTINCT of what
// that level yields.
std::string NestedWhileSource(int depth) {
  std::string out = "top = SELECT id FROM prices WHERE price > 0;\n";
  for (int i = 0; i < depth; ++i) {
    out += "WHILE 1 LOOP a = " + std::string(i == 0 ? "top" : "a") +
           " UPDATE c {\n";
  }
  for (int i = depth - 1; i >= 0; --i) {
    out += std::string("c = DISTINCT ") + (i == depth - 1 ? "a" : "d") +
           ";\n} YIELD c AS d;\n";
  }
  return out;
}

TEST(StatementDepthTest, SixtyFourNestedWhileBlocksStillParse) {
  auto dag = ParseWorkflow(FrontendLanguage::kBeer,
                           NestedWhileSource(kMaxStatementDepth));
  ASSERT_TRUE(dag.ok()) << dag.status();
  int depth = 0;
  const Dag* scope = dag->get();
  while (scope != nullptr) {
    const Dag* inner = nullptr;
    for (const OperatorNode& n : scope->nodes()) {
      if (n.kind == OpKind::kWhile) {
        ++depth;
        inner = std::get<WhileParams>(n.params).body.get();
      }
    }
    scope = inner;
  }
  EXPECT_EQ(depth, kMaxStatementDepth);
  auto result = EvaluateDagRelation(**dag, PropertyData(), "d");
  ASSERT_TRUE(result.ok()) << result.status();
}

TEST(StatementDepthTest, OneLevelTooDeepIsRejectedWithTheLine) {
  auto dag = ParseWorkflow(FrontendLanguage::kBeer,
                           NestedWhileSource(kMaxStatementDepth + 1));
  ASSERT_FALSE(dag.ok());
  EXPECT_EQ(dag.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(dag.status().message().find(
                "nested deeper than " + std::to_string(kMaxStatementDepth)),
            std::string::npos)
      << dag.status();
  // The first line opens the SELECT; WHILE number 65 opens line 66.
  EXPECT_NE(dag.status().message().find(
                "line " + std::to_string(kMaxStatementDepth + 2) + ":"),
            std::string::npos)
      << dag.status();
}

// 30,000 nested WHILE blocks used to overflow the stack in the
// ParseWhile <-> ParseStatements recursion and kill the process.
TEST(StatementDepthTest, ThirtyThousandNestedWhileBlocksAreRejectedNotCrashed) {
  auto dag = ParseWorkflow(FrontendLanguage::kBeer, NestedWhileSource(30000));
  ASSERT_FALSE(dag.ok());
  EXPECT_EQ(dag.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(dag.status().message().find(
                "nested deeper than " + std::to_string(kMaxStatementDepth)),
            std::string::npos)
      << dag.status();
}

}  // namespace
}  // namespace musketeer
