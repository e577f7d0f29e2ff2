// Parameterized cross-engine equivalence: every evaluation workflow produces
// bit-identical results on every compatible back-end, and identical to the
// reference interpreter. This is the end-to-end guarantee that decoupling
// front-ends from back-ends does not change workflow semantics.

#include <gtest/gtest.h>

#include "src/base/parallel.h"
#include "src/core/musketeer.h"
#include "tests/row_reference.h"
#include "tests/substrate_check.h"
#include "tests/workflow_setups.h"

namespace musketeer {
namespace {

using Case = std::tuple<Wf, EngineKind>;

class EngineEquivalenceTest : public ::testing::TestWithParam<Case> {};

TEST_P(EngineEquivalenceTest, MatchesReferenceInterpreter) {
  auto [wf, engine] = GetParam();
  WfSetup setup = MakeSetup(wf);

  if (IsGraphOnlyEngine(engine) && !setup.graph_capable) {
    GTEST_SKIP() << "workflow not expressible on a graph-only engine";
  }

  // Reference execution via the plain interpreter (no engines involved).
  auto dag = ParseWorkflow(setup.workflow.language, setup.workflow.source);
  ASSERT_TRUE(dag.ok()) << dag.status();
  auto expected = EvaluateDagRelation(**dag, setup.inputs, setup.result_relation);
  ASSERT_TRUE(expected.ok()) << expected.status();

  // Full Musketeer pipeline on the chosen engine.
  Dfs dfs;
  for (const auto& [name, table] : setup.inputs) {
    dfs.Put(name, table);
  }
  Musketeer m(&dfs);
  RunOptions options;
  options.cluster = Ec2Cluster(16);
  options.engines = {engine};
  auto result = m.Run(setup.workflow, options);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->outputs.count(setup.result_relation), 1u);
  EXPECT_TRUE(Table::SameContent(*expected,
                                 *result->outputs[setup.result_relation]))
      << "engine " << EngineKindName(engine) << " diverged on "
      << WfName(wf);
  // The run executed on the shared kernel; the engine's own substrate must
  // agree with it job by job.
  Status substrates = VerifyRunOnSubstrates(*result, dfs);
  EXPECT_TRUE(substrates.ok()) << substrates;
  EXPECT_GT(result->makespan, 0);
}

// The morsel-driven data plane's determinism contract, end to end: the full
// pipeline run at several thread widths is BIT-identical (row order included,
// Table::Identical not just SameContent) to the same pipeline forced onto one
// thread. Covers every workflow x engine combination above.
TEST_P(EngineEquivalenceTest, ParallelMatchesSequentialBitIdentical) {
  auto [wf, engine] = GetParam();
  WfSetup setup = MakeSetup(wf);

  if (IsGraphOnlyEngine(engine) && !setup.graph_capable) {
    GTEST_SKIP() << "workflow not expressible on a graph-only engine";
  }

  auto run_at = [&](int threads) -> StatusOr<RunResult> {
    ScopedParallelThreads width(threads);
    Dfs dfs;
    for (const auto& [name, table] : setup.inputs) {
      dfs.Put(name, table);
    }
    Musketeer m(&dfs);
    RunOptions options;
    options.cluster = Ec2Cluster(16);
    options.engines = {engine};
    auto result = m.Run(setup.workflow, options);
    // The substrates run at this width too.
    if (result.ok()) {
      MUSKETEER_RETURN_IF_ERROR(VerifyRunOnSubstrates(*result, dfs));
    }
    return result;
  };

  auto sequential = run_at(1);
  ASSERT_TRUE(sequential.ok()) << sequential.status();
  ASSERT_EQ(sequential->outputs.count(setup.result_relation), 1u);

  for (int threads : {2, 4, 8}) {
    auto parallel = run_at(threads);
    ASSERT_TRUE(parallel.ok()) << parallel.status();
    ASSERT_EQ(parallel->outputs.count(setup.result_relation), 1u);
    EXPECT_TRUE(
        Table::Identical(*sequential->outputs[setup.result_relation],
                         *parallel->outputs[setup.result_relation]))
        << "engine " << EngineKindName(engine) << " on " << WfName(wf)
        << " is not bit-identical at " << threads << " threads";
  }
}

// The columnar migration contract: the typed-column kernels (and the batch
// expression compiler behind kSelect/kMap) produce BIT-identical output —
// row order, types, and every floating-point bit — to the seed row-of-variants
// kernels preserved in tests/row_reference.cc. Engine-independent, so it runs
// once per workflow on the two interpreters.
class ColumnarRowEquivalenceTest : public ::testing::TestWithParam<Wf> {};

TEST_P(ColumnarRowEquivalenceTest, ColumnarIdenticalToRowReference) {
  WfSetup setup = MakeSetup(GetParam());

  auto dag = ParseWorkflow(setup.workflow.language, setup.workflow.source);
  ASSERT_TRUE(dag.ok()) << dag.status();

  auto columnar =
      EvaluateDagRelation(**dag, setup.inputs, setup.result_relation);
  ASSERT_TRUE(columnar.ok()) << columnar.status();

  auto row_based =
      rowref::EvaluateDagRelation(**dag, setup.inputs, setup.result_relation);
  ASSERT_TRUE(row_based.ok()) << row_based.status();

  EXPECT_TRUE(Table::Identical(*columnar, *row_based))
      << "columnar plane diverged from the row reference on "
      << WfName(GetParam()) << "\ncolumnar:\n"
      << columnar->DebugString() << "row reference:\n"
      << row_based->DebugString();
}

// The one interpreter (EvaluateDagRelation over the shared DAG walker and
// WHILE driver) is bit-identical to the row oracle at every thread width:
// morsel boundaries never depend on the thread count, so no partial merge
// tree changes shape.
TEST_P(ColumnarRowEquivalenceTest, InterpreterBitIdenticalAcrossThreads) {
  WfSetup setup = MakeSetup(GetParam());

  auto dag = ParseWorkflow(setup.workflow.language, setup.workflow.source);
  ASSERT_TRUE(dag.ok()) << dag.status();

  auto row_based =
      rowref::EvaluateDagRelation(**dag, setup.inputs, setup.result_relation);
  ASSERT_TRUE(row_based.ok()) << row_based.status();

  for (int threads : {1, 2, 4, 8}) {
    ScopedParallelThreads width(threads);
    auto columnar =
        EvaluateDagRelation(**dag, setup.inputs, setup.result_relation);
    ASSERT_TRUE(columnar.ok()) << columnar.status();
    EXPECT_TRUE(Table::Identical(*columnar, *row_based))
        << "interpreter diverged from the row reference on "
        << WfName(GetParam()) << " at " << threads << " thread(s)";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkflows, ColumnarRowEquivalenceTest,
    ::testing::Values(Wf::kTopShopper, Wf::kTpchHive, Wf::kTpchLindi,
                      Wf::kNetflix, Wf::kSimpleJoin, Wf::kPageRank, Wf::kSssp,
                      Wf::kKmeans, Wf::kCrossCommunity),
    [](const ::testing::TestParamInfo<Wf>& info) {
      return WfName(info.param);
    });

INSTANTIATE_TEST_SUITE_P(
    AllWorkflowsAllEngines, EngineEquivalenceTest,
    ::testing::Combine(
        ::testing::Values(Wf::kTopShopper, Wf::kTpchHive, Wf::kTpchLindi,
                          Wf::kNetflix, Wf::kSimpleJoin, Wf::kPageRank,
                          Wf::kSssp, Wf::kKmeans, Wf::kCrossCommunity),
        ::testing::Values(EngineKind::kHadoop, EngineKind::kSpark,
                          EngineKind::kNaiad, EngineKind::kMetis,
                          EngineKind::kSerialC, EngineKind::kPowerGraph,
                          EngineKind::kGraphChi)),
    [](const ::testing::TestParamInfo<Case>& info) {
      return std::string(WfName(std::get<0>(info.param))) + "_" +
             EngineKindName(std::get<1>(info.param));
    });

}  // namespace
}  // namespace musketeer
