// Data-dependent iteration (WHILE FIXPOINT): loops stop as soon as the
// loop-carried relations stabilize, on every execution substrate.

#include <gtest/gtest.h>

#include "src/core/musketeer.h"
#include "src/engines/executor.h"
#include "src/engines/mapreduce_runtime.h"
#include "src/engines/rdd_runtime.h"
#include "src/engines/timely_runtime.h"
#include "src/engines/vertex_runtime.h"
#include "src/relational/ops.h"
#include "src/workloads/datasets.h"
#include "tests/substrate_check.h"

namespace musketeer {
namespace {

// Transitive closure-flavored loop: the reachable set grows until it stops
// growing; with FIXPOINT the loop ends early even though the bound is large.
const char* kReachability = R"(
  WHILE FIXPOINT 50 LOOP frontier = seeds UPDATE frontier_next {
    hops = JOIN edges, frontier ON edges.src = frontier.id;
    new_nodes = MAP dst AS id FROM hops;
    grown = UNION frontier, new_nodes;
    frontier_next = DISTINCT grown;
  } YIELD frontier_next AS reachable;
)";

TableMap ReachabilityBase() {
  // A 6-node chain: 0 -> 1 -> ... -> 5. Reachability from 0 stabilizes
  // after 5 productive trips (plus one confirming trip).
  Schema es({{"src", FieldType::kInt64}, {"dst", FieldType::kInt64}});
  auto edges = std::make_shared<Table>(es);
  for (int64_t v = 0; v + 1 < 6; ++v) {
    edges->AddRow({v, v + 1});
  }
  Schema ss({{"id", FieldType::kInt64}});
  auto seeds = std::make_shared<Table>(ss);
  seeds->AddRow({int64_t{0}});
  return {{"edges", edges}, {"seeds", seeds}};
}

TEST(FixpointTest, BeerParsesFixpointLoops) {
  auto dag = ParseWorkflow(FrontendLanguage::kBeer, kReachability);
  ASSERT_TRUE(dag.ok()) << dag.status();
  int while_id = (*dag)->ProducerOf("reachable");
  ASSERT_GE(while_id, 0);
  const auto& wp = std::get<WhileParams>((*dag)->node(while_id).params);
  EXPECT_TRUE(wp.until_fixpoint);
  EXPECT_EQ(wp.iterations, 50);
}

TEST(FixpointTest, InterpreterStopsEarlyAndComputesClosure) {
  auto dag = ParseWorkflow(FrontendLanguage::kBeer, kReachability);
  ASSERT_TRUE(dag.ok()) << dag.status();
  TableMap base = ReachabilityBase();
  auto result = EvaluateDagRelation(**dag, base, "reachable");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->num_rows(), 6u);  // the full chain is reachable

  // The trace records how many trips actually ran: 5 productive + 1 to
  // observe stability, far fewer than the bound of 50.
  auto trace = TraceExecuteDag(**dag, base);
  ASSERT_TRUE(trace.ok());
  EXPECT_EQ(trace->total_iterations, 6);
}

TEST(FixpointTest, AllSubstratesAgree) {
  auto dag = ParseWorkflow(FrontendLanguage::kBeer, kReachability);
  ASSERT_TRUE(dag.ok()) << dag.status();
  TableMap base = ReachabilityBase();
  auto ref = EvaluateDagRelation(**dag, base, "reachable");
  ASSERT_TRUE(ref.ok());

  auto mr = ExecuteViaMapReduce(**dag, base);
  ASSERT_TRUE(mr.ok()) << mr.status();
  EXPECT_TRUE(Table::SameContent(*ref, *mr->relations["reachable"]));

  auto rdd = ExecuteViaRdd(**dag, base, {.num_partitions = 3});
  ASSERT_TRUE(rdd.ok()) << rdd.status();
  EXPECT_TRUE(Table::SameContent(*ref, *rdd->relations["reachable"]));
}

TEST(FixpointTest, FixedTripLoopsStillRunTheFullBound) {
  // Without FIXPOINT the loop must run all trips even when stable.
  const char* kFixed = R"(
    WHILE 7 LOOP x = seeds UPDATE x2 {
      x2 = DISTINCT x;
    } YIELD x2 AS out;
  )";
  auto dag = ParseWorkflow(FrontendLanguage::kBeer, kFixed);
  ASSERT_TRUE(dag.ok()) << dag.status();
  auto trace = TraceExecuteDag(**dag, ReachabilityBase());
  ASSERT_TRUE(trace.ok());
  EXPECT_EQ(trace->total_iterations, 7);
}

TEST(FixpointTest, VertexRuntimeConvergesEarlyOnSssp) {
  // SSSP distances stabilize once every shortest path is found; the vertex
  // runtime must notice and stop.
  GraphSpec spec;
  spec.name = "fixpoint-sssp";
  spec.sample_vertices = 40;
  spec.nominal_vertices = 40;
  spec.seed = 21;
  spec.with_costs = true;
  spec.initial_value = 1e18;
  GraphDataset g = MakePowerLawGraph(spec);

  // Build the SSSP loop in BEER with FIXPOINT and a large bound.
  const char* kSssp = R"(
    WHILE FIXPOINT 100 LOOP v = vertices UPDATE v_next {
      hops = JOIN edges, v ON edges.src = v.id;
      msgs = MAP dst AS id, vertex_value + cost AS msg FROM hops;
      self_msgs = MAP id, vertex_value AS msg FROM v;
      all_msgs = UNION msgs, self_msgs;
      gathered = AGG MIN(msg) AS acc FROM all_msgs GROUP BY id;
      rejoined = JOIN v, gathered ON v.id = gathered.id;
      v_next = MAP id, acc AS vertex_value, vertex_degree FROM rejoined;
    } YIELD v_next AS sssp;
  )";
  auto dag = ParseWorkflow(FrontendLanguage::kBeer, kSssp);
  ASSERT_TRUE(dag.ok()) << dag.status();
  TableMap base{{"vertices", g.vertices}, {"edges", g.edges}};

  auto ref = EvaluateDagRelation(**dag, base, "sssp");
  ASSERT_TRUE(ref.ok()) << ref.status();

  auto vr = ExecuteViaVertexRuntime(**dag, base);
  ASSERT_TRUE(vr.ok()) << vr.status();
  EXPECT_TRUE(Table::SameContent(*ref, *vr->relations["sssp"]));
  EXPECT_LT(vr->stats.supersteps, 100);
  EXPECT_GT(vr->stats.supersteps, 1);
}

TEST(FixpointTest, RunsEndToEndThroughMusketeer) {
  WorkflowSpec wf;
  wf.id = "reachability";
  wf.language = FrontendLanguage::kBeer;
  wf.source = kReachability;
  for (EngineKind engine :
       {EngineKind::kHadoop, EngineKind::kNaiad, EngineKind::kSpark}) {
    Dfs dfs;
    for (const auto& [name, table] : ReachabilityBase()) {
      dfs.Put(name, table);
    }
    Musketeer m(&dfs);
    RunOptions options;
    options.engines = {engine};
    auto result = m.Run(wf, options);
    ASSERT_TRUE(result.ok()) << EngineKindName(engine) << ": "
                             << result.status();
    EXPECT_EQ(result->outputs["reachable"]->num_rows(), 6u)
        << EngineKindName(engine);
    Status substrates = VerifyRunOnSubstrates(*result, dfs);
    EXPECT_TRUE(substrates.ok()) << EngineKindName(engine) << ": "
                                 << substrates;
  }
}

// Loops whose UPDATE or YIELD names a loop variable itself. Binding and
// result names resolve against the trip's outputs first, then its inputs,
// so both programs are well-defined: `out` is SELECT(kv) either way.
const char* const kLoopVariablePrograms[] = {
    "WHILE 3 LOOP x = kv UPDATE y { y = SELECT k, v FROM x WHERE v > 15; } "
    "YIELD x AS out;",
    "WHILE 3 LOOP x = kv UPDATE x { y = SELECT k, v FROM x WHERE v > 15; } "
    "YIELD y AS out;",
};

TableMap KvBase() {
  Schema s({{"k", FieldType::kInt64}, {"v", FieldType::kInt64}});
  auto kv = std::make_shared<Table>(s);
  for (int64_t k = 0; k < 8; ++k) {
    kv->AddRow({k, k * 5});
  }
  return {{"kv", kv}};
}

// Substrates may reorder rows; compare them in canonical order.
Table Canonical(const Table& t) { return SortBy(t, {0, 1}); }

TEST(FixpointTest, LoopVariablesResolveOnEveryPath) {
  const TableMap base = KvBase();
  for (const char* source : kLoopVariablePrograms) {
    SCOPED_TRACE(source);
    auto dag = ParseWorkflow(FrontendLanguage::kBeer, source);
    ASSERT_TRUE(dag.ok()) << dag.status();
    auto ref = EvaluateDagRelation(**dag, base, "out");
    ASSERT_TRUE(ref.ok()) << ref.status();
    EXPECT_EQ(ref->num_rows(), 4u);  // v in {20, 25, 30, 35}

    auto trace = TraceExecuteDag(**dag, base);
    ASSERT_TRUE(trace.ok()) << trace.status();
    EXPECT_TRUE(Table::Identical(*ref, *trace->relations.at("out")));

    auto mr = ExecuteViaMapReduce(**dag, base);
    ASSERT_TRUE(mr.ok()) << mr.status();
    EXPECT_TRUE(Table::Identical(Canonical(*ref),
                                 Canonical(*mr->relations.at("out"))));
    auto rdd = ExecuteViaRdd(**dag, base, {.num_partitions = 3});
    ASSERT_TRUE(rdd.ok()) << rdd.status();
    EXPECT_TRUE(Table::Identical(Canonical(*ref),
                                 Canonical(*rdd->relations.at("out"))));
    auto timely = ExecuteViaTimely(**dag, base);
    ASSERT_TRUE(timely.ok()) << timely.status();
    EXPECT_TRUE(Table::Identical(Canonical(*ref),
                                 Canonical(*timely->relations.at("out"))));
    // Not a graph idiom: the vertex runtime refuses the loop up front.
    auto vertex = ExecuteViaVertexRuntime(**dag, base);
    EXPECT_EQ(vertex.status().code(), StatusCode::kFailedPrecondition);

    WorkflowSpec wf{"loop-variable", FrontendLanguage::kBeer, source};
    for (EngineKind engine :
         {EngineKind::kHadoop, EngineKind::kSpark, EngineKind::kNaiad,
          EngineKind::kPowerGraph, EngineKind::kGraphChi, EngineKind::kMetis,
          EngineKind::kSerialC}) {
      Dfs dfs;
      for (const auto& [name, table] : base) {
        dfs.Put(name, table);
      }
      Musketeer m(&dfs);
      RunOptions options;
      options.engines = {engine};
      auto result = m.Run(wf, options);
      if (IsGraphOnlyEngine(engine)) {
        EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition)
            << EngineKindName(engine);
        continue;
      }
      ASSERT_TRUE(result.ok()) << EngineKindName(engine) << ": "
                               << result.status();
      EXPECT_TRUE(Table::Identical(*ref, *result->outputs.at("out")))
          << EngineKindName(engine);
      Status substrates = VerifyRunOnSubstrates(*result, dfs);
      EXPECT_TRUE(substrates.ok()) << EngineKindName(engine) << ": "
                                   << substrates;
    }
  }
}

}  // namespace
}  // namespace musketeer
