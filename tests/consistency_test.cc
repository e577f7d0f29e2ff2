// Scheduler/executor consistency: the cost model and the engine simulators
// share one pricing formula, so with *exact* size information (full history)
// the scheduler's estimate for a job must closely match what the simulator
// charges. This is the property that makes history-driven mapping converge
// (Fig. 14: "full history" is always good).

#include <gtest/gtest.h>

#include "src/core/musketeer.h"
#include "src/workloads/datasets.h"
#include "src/workloads/workflows.h"
#include "tests/workflow_setups.h"

namespace musketeer {
namespace {

struct Case {
  const char* name;
  WorkflowSpec workflow;
  TableMap inputs;
  EngineKind engine;
};

std::vector<Case> Cases() {
  std::vector<Case> cases;
  {
    Case c;
    c.name = "top-shopper-hadoop";
    c.workflow = {"top-shopper", FrontendLanguage::kBeer,
                  TopShopperBeer(5, 5000.0)};
    c.inputs = {{"purchases", MakePurchases(4e8, 3000, 10, 31)}};
    c.engine = EngineKind::kHadoop;
    cases.push_back(c);
  }
  {
    Case c;
    c.name = "tpch-naiad";
    TpchDataset data = MakeTpch(10, 4000);
    c.workflow = {"tpch-q17", FrontendLanguage::kHive, TpchQ17Hive()};
    c.inputs = {{"lineitem", data.lineitem}, {"part", data.part}};
    c.engine = EngineKind::kNaiad;
    cases.push_back(c);
  }
  {
    Case c;
    c.name = "pagerank-powergraph";
    GraphDataset g = OrkutGraph();
    c.workflow = {"pagerank", FrontendLanguage::kGas, PageRankGas(5)};
    c.inputs = {{"vertices", g.vertices}, {"edges", g.edges}};
    c.engine = EngineKind::kPowerGraph;
    cases.push_back(c);
  }
  return cases;
}

TEST(CostExecutionConsistencyTest, FullHistoryEstimatesMatchExecution) {
  for (const Case& c : Cases()) {
    // Profile to fill history with exact sizes.
    HistoryStore history;
    {
      Dfs dfs;
      for (const auto& [name, table] : c.inputs) {
        dfs.Put(name, table);
      }
      Musketeer m(&dfs);
      RunOptions options;
      options.cluster = Ec2Cluster(16);
      ASSERT_TRUE(m.ProfileWorkflow(c.workflow, options, &history).ok()) << c.name;
    }

    // Informed run: compare the partitioner's estimate to the charge.
    Dfs dfs;
    for (const auto& [name, table] : c.inputs) {
      dfs.Put(name, table);
    }
    Musketeer m(&dfs);
    RunOptions options;
    options.cluster = Ec2Cluster(16);
    options.engines = {c.engine};
    options.history = &history;
    auto result = m.Run(c.workflow, options);
    ASSERT_TRUE(result.ok()) << c.name << ": " << result.status();

    double estimated = result->partitioning.total_cost;
    double actual = result->total_engine_time;
    EXPECT_GT(estimated, 0) << c.name;
    // The estimate prices the same formula with history sizes; residual error
    // comes from loop-body internals (no history inside WHILE) and scale
    // propagation, so allow a generous but bounded band.
    EXPECT_LT(std::abs(estimated - actual) / actual, 0.5)
        << c.name << ": estimated " << estimated << " vs actual " << actual;
  }
}

TEST(CostExecutionConsistencyTest, EstimateRanksEnginesLikeExecution) {
  // Even without exact magnitudes, the cost model must rank engines in the
  // same order the simulators do — that is what makes the automatic mapping
  // pick well.
  GraphDataset g = TwitterGraph();
  WorkflowSpec wf{"pagerank", FrontendLanguage::kGas, PageRankGas(5)};

  std::vector<std::pair<double, EngineKind>> by_estimate;
  std::vector<std::pair<double, EngineKind>> by_actual;
  for (EngineKind engine : {EngineKind::kHadoop, EngineKind::kSpark,
                            EngineKind::kNaiad, EngineKind::kPowerGraph}) {
    Dfs dfs;
    dfs.Put("vertices", g.vertices);
    dfs.Put("edges", g.edges);
    Musketeer m(&dfs);
    RunOptions options;
    options.cluster = Ec2Cluster(100);
    options.engines = {engine};
    auto result = m.Run(wf, options);
    ASSERT_TRUE(result.ok()) << EngineKindName(engine);
    by_estimate.emplace_back(result->partitioning.total_cost, engine);
    by_actual.emplace_back(result->makespan, engine);
  }
  std::sort(by_estimate.begin(), by_estimate.end());
  std::sort(by_actual.begin(), by_actual.end());
  for (size_t i = 0; i < by_estimate.size(); ++i) {
    EXPECT_EQ(by_estimate[i].second, by_actual[i].second)
        << "rank " << i << " differs";
  }
}

// With full history the planner sees every relation's exact size, so the
// price it plans for a job is the makespan the engine charges: exactly for
// jobs without a loop, and up to the steady-state approximation of one
// predicted trip (history keeps a loop body's last trip) for loop jobs.
TEST(PricingTest, PlannedCostMatchesMakespanWithFullHistory) {
  int loop_jobs = 0;
  for (Wf wf : kAllWorkflows) {
    WfSetup setup = MakeSetup(wf);
    HistoryStore history;
    {
      Dfs dfs;
      for (const auto& [name, table] : setup.inputs) {
        dfs.Put(name, table);
      }
      Musketeer m(&dfs);
      RunOptions options;
      options.cluster = Ec2Cluster(16);
      ASSERT_TRUE(m.ProfileWorkflow(setup.workflow, options, &history).ok())
          << WfName(wf);
    }
    for (EngineKind engine : kAllEngines) {
      Dfs dfs;
      for (const auto& [name, table] : setup.inputs) {
        dfs.Put(name, table);
      }
      Musketeer m(&dfs);
      RunOptions options;
      options.cluster = Ec2Cluster(16);
      options.engines = {engine};
      options.history = &history;
      auto run = m.Run(setup.workflow, options);
      if (!run.ok()) {
        continue;  // the engine cannot run this workflow alone
      }
      ASSERT_EQ(run->partitioning.jobs.size(), run->job_results.size());
      for (size_t i = 0; i < run->job_results.size(); ++i) {
        double planned = run->partitioning.jobs[i].cost;
        double charged = run->job_results[i].makespan;
        bool loop = run->plans[i].while_mode != WhileExec::kNone;
        loop_jobs += loop ? 1 : 0;
        EXPECT_LE(std::abs(planned - charged) / charged, loop ? 0.03 : 1e-9)
            << WfName(wf) << " job " << i << " on "
            << EngineKindName(engine) << ": planned " << planned
            << ", charged " << charged;
      }
    }
  }
  EXPECT_GT(loop_jobs, 0);
}

}  // namespace
}  // namespace musketeer
