// Optimizer tests: rewrite passes preserve semantics and fire where
// expected; idiom recognition is sound (detects GAS loops, rejects the
// triangle-count shape from §8).

#include "src/opt/passes.h"

#include <gtest/gtest.h>

#include "src/frontends/frontend.h"
#include "src/ir/eval.h"
#include "src/opt/idiom.h"
#include "src/workloads/synthetic_dag.h"
#include "tests/workflow_setups.h"

namespace musketeer {
namespace {

TableMap TestData() {
  Schema s({{"k", FieldType::kInt64},
            {"region", FieldType::kInt64},
            {"amount", FieldType::kDouble}});
  auto a = std::make_shared<Table>(s);
  auto b = std::make_shared<Table>(s);
  for (int64_t i = 0; i < 40; ++i) {
    a->AddRow({i % 10, i % 4, static_cast<double>(i)});
    b->AddRow({i % 12, i % 3, static_cast<double>(i) * 2});
  }
  Schema right({{"k", FieldType::kInt64}, {"name", FieldType::kString}});
  auto r = std::make_shared<Table>(right);
  for (int64_t i = 0; i < 12; ++i) {
    r->AddRow({i, std::string("n") + std::to_string(i)});
  }
  return {{"a", a}, {"b", b}, {"r", r}};
}

SchemaMap SchemasOf(const TableMap& data) {
  SchemaMap out;
  for (const auto& [name, table] : data) {
    out[name] = table->schema();
  }
  return out;
}

// Runs source before/after optimization and checks identical results.
void ExpectSemanticsPreserved(const std::string& source,
                              const std::string& result_name) {
  TableMap data = TestData();
  auto dag = ParseWorkflow(FrontendLanguage::kBeer, source);
  ASSERT_TRUE(dag.ok()) << dag.status();
  auto before = EvaluateDagRelation(**dag, data, result_name);
  ASSERT_TRUE(before.ok()) << before.status();

  auto optimized = OptimizeDag(**dag, SchemasOf(data));
  ASSERT_TRUE(optimized.ok()) << optimized.status();
  auto after = EvaluateDagRelation(**optimized, data, result_name);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_TRUE(Table::SameContent(*before, *after))
      << "before:\n" << before->DebugString() << "after:\n"
      << after->DebugString();
}

TEST(OptimizerTest, SelectionPushedBelowJoin) {
  const char* kSource = R"(
    joined = JOIN a, r ON a.k = r.k;
    filtered = SELECT * FROM joined WHERE amount > 20;
  )";
  TableMap data = TestData();
  auto dag = ParseWorkflow(FrontendLanguage::kBeer, kSource);
  ASSERT_TRUE(dag.ok());
  OptimizeStats stats;
  auto optimized = OptimizeDag(**dag, SchemasOf(data), {}, &stats);
  ASSERT_TRUE(optimized.ok()) << optimized.status();
  EXPECT_EQ(stats.selections_pushed, 1);
  // The filter must now be an ancestor of the join.
  int join_id = -1;
  for (const auto& n : (*optimized)->nodes()) {
    if (n.kind == OpKind::kJoin) {
      join_id = n.id;
    }
  }
  ASSERT_GE(join_id, 0);
  bool select_upstream = false;
  for (int in : (*optimized)->node(join_id).inputs) {
    select_upstream |= (*optimized)->node(in).kind == OpKind::kSelect;
  }
  EXPECT_TRUE(select_upstream);
  ExpectSemanticsPreserved(kSource, "filtered");
}

TEST(OptimizerTest, SelectionPushedThroughUnion) {
  const char* kSource = R"(
    u = UNION a, b;
    f = SELECT * FROM u WHERE amount > 30;
  )";
  TableMap data = TestData();
  auto dag = ParseWorkflow(FrontendLanguage::kBeer, kSource);
  ASSERT_TRUE(dag.ok());
  OptimizeStats stats;
  auto optimized = OptimizeDag(**dag, SchemasOf(data), {}, &stats);
  ASSERT_TRUE(optimized.ok()) << optimized.status();
  EXPECT_EQ(stats.selections_pushed, 1);
  ExpectSemanticsPreserved(kSource, "f");
}

// A UNION takes its column names from its left side. A filter naming a
// column the right side calls something else must stay above the UNION:
// pushing it used to fail the whole optimization with InvalidArgument.
TEST(OptimizerTest, SelectionStaysAboveUnionWithRenamedRightColumns) {
  const char* kSource = R"(
    renamed = MAP k AS key, region AS area, amount AS total FROM b;
    u = UNION a, renamed;
    f = SELECT * FROM u WHERE amount > 30;
  )";
  TableMap data = TestData();
  auto dag = ParseWorkflow(FrontendLanguage::kBeer, kSource);
  ASSERT_TRUE(dag.ok()) << dag.status();
  OptimizeStats stats;
  auto optimized = OptimizeDag(**dag, SchemasOf(data), {}, &stats);
  ASSERT_TRUE(optimized.ok()) << optimized.status();
  EXPECT_EQ(stats.selections_pushed, 0);
  ExpectSemanticsPreserved(kSource, "f");
}

TEST(OptimizerTest, AdjacentSelectsFused) {
  const char* kSource = R"(
    f1 = SELECT * FROM a WHERE amount > 5;
    f2 = SELECT * FROM f1 WHERE region = 1;
  )";
  TableMap data = TestData();
  auto dag = ParseWorkflow(FrontendLanguage::kBeer, kSource);
  ASSERT_TRUE(dag.ok());
  OptimizeStats stats;
  auto optimized = OptimizeDag(**dag, SchemasOf(data), {}, &stats);
  ASSERT_TRUE(optimized.ok()) << optimized.status();
  EXPECT_EQ(stats.selects_fused, 1);
  int selects = 0;
  for (const auto& n : (*optimized)->nodes()) {
    selects += n.kind == OpKind::kSelect ? 1 : 0;
  }
  EXPECT_EQ(selects, 1);
  ExpectSemanticsPreserved(kSource, "f2");
}

TEST(OptimizerTest, SharedFilterNotPushed) {
  // The join result has a second consumer, so pushing the filter below the
  // join would change what the other consumer sees; the rewrite must not fire.
  const char* kSource = R"(
    joined = JOIN a, r ON a.k = r.k;
    filtered = SELECT * FROM joined WHERE amount > 20;
    counted = AGG COUNT(k) AS n FROM joined;
  )";
  TableMap data = TestData();
  auto dag = ParseWorkflow(FrontendLanguage::kBeer, kSource);
  ASSERT_TRUE(dag.ok());
  OptimizeStats stats;
  auto optimized = OptimizeDag(**dag, SchemasOf(data), {}, &stats);
  ASSERT_TRUE(optimized.ok()) << optimized.status();
  EXPECT_EQ(stats.selections_pushed, 0);
  ExpectSemanticsPreserved(kSource, "counted");
}

TEST(OptimizerTest, NoRewritesLeavesDagIntact) {
  const char* kSource = R"(
    g = AGG SUM(amount) AS total FROM a GROUP BY region;
  )";
  TableMap data = TestData();
  auto dag = ParseWorkflow(FrontendLanguage::kBeer, kSource);
  ASSERT_TRUE(dag.ok());
  OptimizeStats stats;
  auto optimized = OptimizeDag(**dag, SchemasOf(data), {}, &stats);
  ASSERT_TRUE(optimized.ok());
  EXPECT_EQ(stats.selections_pushed + stats.selects_fused + stats.projects_fused +
                stats.dead_removed,
            0);
  EXPECT_EQ((*optimized)->num_nodes(), (*dag)->num_nodes());
}

// ---- Idiom recognition -----------------------------------------------------

TEST(IdiomTest, DetectsGasLoweredPageRank) {
  auto dag = ParseWorkflow(FrontendLanguage::kGas, R"(
    GATHER = { SUM (vertex_value) }
    APPLY = { MUL [vertex_value, 0.85] SUM [vertex_value, 0.15] }
    SCATTER = { DIV [vertex_value, vertex_degree] }
    ITERATION_STOP = (iteration < 5)
  )");
  ASSERT_TRUE(dag.ok()) << dag.status();
  auto matches = DetectGraphIdioms(**dag);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_TRUE(matches[0].vertex_centric);
}

TEST(IdiomTest, DetectsRelationalPageRankFromBeer) {
  // PageRank written purely relationally must still be recognized (§4.3.1:
  // "even if they were originally expressed in a relational front-end").
  const char* kSource = R"(
    WHILE 5 LOOP v = vertices UPDATE v_next {
      contribs = JOIN edges, v ON edges.src = v.id;
      msgs = MAP dst AS id, vertex_value / vertex_degree AS msg FROM contribs;
      gathered = AGG SUM(msg) AS acc FROM msgs GROUP BY id;
      rejoined = JOIN v, gathered ON v.id = gathered.id;
      v_next = MAP id, acc * 0.85 + 0.15 AS vertex_value, vertex_degree
               FROM rejoined;
    } YIELD v_next AS pagerank;
  )";
  auto dag = ParseWorkflow(FrontendLanguage::kBeer, kSource);
  ASSERT_TRUE(dag.ok()) << dag.status();
  auto matches = DetectGraphIdioms(**dag);
  ASSERT_GE(matches.size(), 1u);
  EXPECT_TRUE(matches[0].vertex_centric);
}

TEST(IdiomTest, TriangleCountingNotDetected) {
  // §8: a triangle count written as a double self-join plus filter has no
  // WHILE, so the (sound, incomplete) recognizer must not match.
  const char* kSource = R"(
    e2 = MAP src AS src2, dst AS dst2 FROM edges;
    paths = JOIN edges, e2 ON edges.dst = e2.src2;
    closing = MAP src, dst2, src - dst2 AS diff FROM paths;
    triangles = SELECT * FROM closing WHERE diff = 0;
  )";
  auto dag = ParseWorkflow(FrontendLanguage::kBeer, kSource);
  ASSERT_TRUE(dag.ok()) << dag.status();
  EXPECT_TRUE(DetectGraphIdioms(**dag).empty());
}

TEST(IdiomTest, NonGraphLoopNotVertexCentric) {
  // A loop whose join does not touch the loop-carried state is not
  // vertex-centric (PowerGraph/GraphChi cannot run it).
  const char* kSource = R"(
    WHILE 3 LOOP acc = seed UPDATE acc_next {
      j = JOIN statics, statics2 ON statics.k = statics2.k;
      g = AGG SUM(v) AS s FROM j GROUP BY k;
      acc_next = DISTINCT acc;
    } YIELD acc_next AS out;
  )";
  auto dag = ParseWorkflow(FrontendLanguage::kBeer, kSource);
  ASSERT_TRUE(dag.ok()) << dag.status();
  auto matches = DetectGraphIdioms(**dag);
  for (const auto& m : matches) {
    EXPECT_FALSE(m.vertex_centric);
  }
}

// The per-node match agrees with the whole-DAG scan for every node of the
// nine workflows and of seeded synthetic DAGs with WHILE blocks.
TEST(IdiomTest, PerNodeMatchAgreesWithWholeDagScan) {
  std::vector<std::unique_ptr<Dag>> dags;
  for (Wf wf : kAllWorkflows) {
    WfSetup setup = MakeSetup(wf);
    auto dag = ParseWorkflow(setup.workflow.language, setup.workflow.source);
    ASSERT_TRUE(dag.ok()) << WfName(wf) << ": " << dag.status();
    dags.push_back(std::move(dag).value());
  }
  for (uint64_t seed : {5ull, 13ull, 29ull}) {
    SyntheticDagSpec spec;
    spec.target_ops = 250;
    spec.seed = seed;
    auto dag =
        ParseWorkflow(FrontendLanguage::kBeer, MakeSyntheticDag(spec).source);
    ASSERT_TRUE(dag.ok()) << dag.status();
    dags.push_back(std::move(dag).value());
  }
  int whiles = 0;
  int matched = 0;
  for (const auto& dag : dags) {
    const std::vector<GraphIdiomMatch> scan = DetectGraphIdioms(*dag);
    for (const OperatorNode& n : dag->nodes()) {
      const GraphIdiomMatch* want = nullptr;
      for (const GraphIdiomMatch& m : scan) {
        if (m.while_node == n.id) {
          want = &m;
        }
      }
      whiles += n.kind == OpKind::kWhile ? 1 : 0;
      std::optional<GraphIdiomMatch> got = MatchGraphIdiom(*dag, n.id);
      ASSERT_EQ(got.has_value(), want != nullptr) << "node " << n.id;
      EXPECT_EQ(IsGraphIdiom(*dag, n.id), want != nullptr && want->vertex_centric)
          << "node " << n.id;
      if (want != nullptr) {
        ++matched;
        EXPECT_EQ(got->scatter_join, want->scatter_join);
        EXPECT_EQ(got->gather_group_by, want->gather_group_by);
        EXPECT_EQ(got->vertex_centric, want->vertex_centric);
      }
    }
  }
  EXPECT_GT(whiles, 0);
  EXPECT_GT(matched, 0);
}

}  // namespace
}  // namespace musketeer
