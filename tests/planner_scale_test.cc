// Planner-at-scale coverage (DESIGN.md "Planner at scale"): the synthetic
// DAG generator's exact-count/determinism contract, the DP heuristic's
// optimality gap against exhaustive search on small DAGs, the kAuto size
// switch, seeded multi-order DP determinism, the DP's feasibility cut
// matching the unpruned segment scan, the DP's once-per-segment summary
// pricing matching JobCost bit for bit, plans unchanged by unrelated DFS
// relations, and online mid-run re-planning staying bit-identical across
// all nine evaluation workflows (unsharded and on three shards) plus a
// 100-operator synthetic DAG.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "src/backends/backend.h"
#include "src/base/rng.h"
#include "src/cluster/sharded_dfs.h"
#include "src/core/musketeer.h"
#include "src/frontends/frontend.h"
#include "src/ir/eval.h"
#include "src/obs/metrics.h"
#include "src/obs/runtime_history.h"
#include "src/scheduler/partition_strategy.h"
#include "src/service/shard_coordinator.h"
#include "src/workloads/synthetic_dag.h"
#include "tests/workflow_setups.h"

namespace musketeer {
namespace {

int OuterOperatorCount(const Dag& dag) {
  int count = 0;
  for (const auto& node : dag.nodes()) {
    if (node.kind != OpKind::kInput) {
      ++count;
    }
  }
  return count;
}

RelationSizes BaseSizes(const SyntheticDagWorkload& workload) {
  RelationSizes sizes;
  for (const auto& [name, table] : workload.inputs) {
    sizes[name] = table->nominal_bytes();
  }
  return sizes;
}

// Every generated program must parse, and to exactly the requested number
// of outer operators — the budget invariant the generator maintains while
// mixing motifs. Same spec, same program.
TEST(SyntheticDagTest, ExactOperatorCountAndDeterminism) {
  for (int target : {1, 3, 7, 40, 100, 250}) {
    for (uint64_t seed : {1ull, 2ull, 99ull}) {
      SyntheticDagSpec spec;
      spec.target_ops = target;
      spec.seed = seed;
      SyntheticDagWorkload workload = MakeSyntheticDag(spec);
      EXPECT_EQ(workload.operator_count, target)
          << "target " << target << " seed " << seed;
      auto dag = ParseWorkflow(FrontendLanguage::kBeer, workload.source);
      ASSERT_TRUE(dag.ok()) << dag.status() << "\n" << workload.source;
      EXPECT_EQ(OuterOperatorCount(**dag), target)
          << "target " << target << " seed " << seed << "\n"
          << workload.source;
      EXPECT_FALSE(workload.result_relation.empty());
      EXPECT_GE(workload.inputs.size(), 1u);

      SyntheticDagWorkload again = MakeSyntheticDag(spec);
      EXPECT_EQ(again.source, workload.source);
    }
  }
}

// Relational-only mode must hold the count without WHILE blocks too.
TEST(SyntheticDagTest, RelationalOnlyHoldsCount) {
  SyntheticDagSpec spec;
  spec.target_ops = 120;
  spec.seed = 7;
  spec.include_while = false;
  SyntheticDagWorkload workload = MakeSyntheticDag(spec);
  auto dag = ParseWorkflow(FrontendLanguage::kBeer, workload.source);
  ASSERT_TRUE(dag.ok()) << dag.status();
  EXPECT_EQ(OuterOperatorCount(**dag), 120);
  EXPECT_EQ(workload.source.find("WHILE"), std::string::npos);
}

// §5.1.2 optimality gap: on DAGs small enough for the exhaustive search,
// the DP heuristic's plan must stay within 1.5x of the exhaustive optimum
// (the paper's DP is near-optimal on its evaluation workflows; this sweeps
// seeded shapes). The gate is one-directional: the exhaustive search only
// grows connected jobs, while the DP may merge adjacent-but-disconnected
// operators of its linear order into one job, so on fan-out-heavy shapes
// the DP can legitimately come in cheaper than the connected optimum.
TEST(PlannerScaleTest, DpWithinFactorOfExhaustive) {
  for (int target : {6, 8, 10}) {
    for (uint64_t seed : {11ull, 22ull}) {
      SyntheticDagSpec spec;
      spec.target_ops = target;
      spec.seed = seed;
      SyntheticDagWorkload workload = MakeSyntheticDag(spec);
      auto dag = ParseWorkflow(FrontendLanguage::kBeer, workload.source);
      ASSERT_TRUE(dag.ok()) << dag.status();
      CostModel model(Ec2Cluster(16), nullptr, "syn");
      auto sizes = model.PredictSizes(**dag, BaseSizes(workload));
      ASSERT_TRUE(sizes.ok()) << sizes.status();

      PlannerConfig config;
      config.strategy = PartitionStrategyKind::kExhaustive;
      auto optimal = PartitionWorkflow(**dag, model, *sizes, config);
      ASSERT_TRUE(optimal.ok()) << optimal.status();
      config.strategy = PartitionStrategyKind::kDp;
      auto dp = PartitionWorkflow(**dag, model, *sizes, config);
      ASSERT_TRUE(dp.ok()) << dp.status();

      EXPECT_LE(dp->total_cost, 1.5 * optimal->total_cost + 1e-9)
          << "target " << target << " seed " << seed;
    }
  }
}

// The kAuto switch: exhaustive below the threshold, DP above it — the
// production default must never run the exponential search on a big DAG.
TEST(PlannerScaleTest, AutoSwitchesToDpAboveThreshold) {
  auto partition_auto = [](int target) {
    SyntheticDagSpec spec;
    spec.target_ops = target;
    spec.seed = 5;
    SyntheticDagWorkload workload = MakeSyntheticDag(spec);
    auto dag = ParseWorkflow(FrontendLanguage::kBeer, workload.source);
    EXPECT_TRUE(dag.ok()) << dag.status();
    CostModel model(Ec2Cluster(16), nullptr, "syn");
    auto sizes = model.PredictSizes(**dag, BaseSizes(workload));
    EXPECT_TRUE(sizes.ok()) << sizes.status();
    PlannerConfig config;  // kAuto
    auto out = PartitionWorkflow(**dag, model, *sizes, config);
    EXPECT_TRUE(out.ok()) << out.status();
    return std::move(out).value();
  };

  Partitioning small = partition_auto(8);
  EXPECT_EQ(small.strategy, "exhaustive");

  Partitioning large = partition_auto(40);
  EXPECT_EQ(large.strategy, "dp");
}

// §8/Fig. 16 multi-order DP: seeded shuffles make the whole search a pure
// function of the seed (bit-identical partitionings run to run), and the
// canonical order is always explored, so more orders can only help.
TEST(PlannerScaleTest, MultiOrderIsDeterministicAndNoWorseThanSingle) {
  SyntheticDagSpec spec;
  spec.target_ops = 30;
  spec.seed = 17;
  SyntheticDagWorkload workload = MakeSyntheticDag(spec);
  auto dag = ParseWorkflow(FrontendLanguage::kBeer, workload.source);
  ASSERT_TRUE(dag.ok()) << dag.status();
  CostModel model(Ec2Cluster(16), nullptr, "syn");
  auto sizes = model.PredictSizes(**dag, BaseSizes(workload));
  ASSERT_TRUE(sizes.ok()) << sizes.status();

  PlannerConfig config;
  config.strategy = PartitionStrategyKind::kDpMultiOrder;
  auto first = PartitionWorkflow(**dag, model, *sizes, config);
  ASSERT_TRUE(first.ok()) << first.status();
  auto second = PartitionWorkflow(**dag, model, *sizes, config);
  ASSERT_TRUE(second.ok()) << second.status();

  ASSERT_EQ(first->jobs.size(), second->jobs.size());
  for (size_t i = 0; i < first->jobs.size(); ++i) {
    EXPECT_EQ(first->jobs[i].ops, second->jobs[i].ops) << "job " << i;
    EXPECT_EQ(first->jobs[i].engine, second->jobs[i].engine) << "job " << i;
  }
  EXPECT_DOUBLE_EQ(first->total_cost, second->total_cost);
  EXPECT_EQ(first->strategy, "dp-multi");

  config.strategy = PartitionStrategyKind::kDp;
  auto single = PartitionWorkflow(**dag, model, *sizes, config);
  ASSERT_TRUE(single.ok()) << single.status();
  EXPECT_LE(first->total_cost, single->total_cost + 1e-9);

  // The multi-order partitioning covers every operator.
  std::set<int> covered;
  for (const JobAssignment& job : first->jobs) {
    covered.insert(job.ops.begin(), job.ops.end());
  }
  EXPECT_EQ(static_cast<int>(covered.size()), OuterOperatorCount(**dag));
}

// The DP must stay interactive at production scale: a 1000-operator DAG
// partitions into a valid, covering job set (the latency gate itself lives
// in bench_partitioner_scale / check.sh).
TEST(PlannerScaleTest, ThousandOperatorDagPartitions) {
  SyntheticDagSpec spec;
  spec.target_ops = 1000;
  spec.seed = 3;
  SyntheticDagWorkload workload = MakeSyntheticDag(spec);
  auto dag = ParseWorkflow(FrontendLanguage::kBeer, workload.source);
  ASSERT_TRUE(dag.ok()) << dag.status();
  CostModel model(Ec2Cluster(16), nullptr, "syn");
  auto sizes = model.PredictSizes(**dag, BaseSizes(workload));
  ASSERT_TRUE(sizes.ok()) << sizes.status();
  PlannerConfig config;  // kAuto -> DP at this size
  auto out = PartitionWorkflow(**dag, model, *sizes, config);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->strategy, "dp");
  std::set<int> covered;
  for (const JobAssignment& job : out->jobs) {
    covered.insert(job.ops.begin(), job.ops.end());
  }
  EXPECT_EQ(static_cast<int>(covered.size()), 1000);
  EXPECT_GT(out->jobs.size(), 1u);
}

// The DP without its feasibility cut: every k in the window, every engine,
// priced through CostModel::JobCost. Kept here as the reference the pruned
// production DP must match exactly.
StatusOr<Partitioning> UnprunedDp(const Dag& dag, const CostModel& model,
                                  const std::vector<Bytes>& sizes,
                                  const PlannerConfig& config,
                                  const std::vector<int>& order) {
  std::vector<EngineKind> engines = config.engines;
  if (engines.empty()) {
    engines.assign(kAllEngines.begin(), kAllEngines.end());
  }
  const int n = static_cast<int>(order.size());
  const int cap = std::max(1, n > kDpSegmentCapAbove ? kDpSegmentCap : n);
  std::vector<double> best(n + 1, kInfiniteCost);
  std::vector<int> boundary(n + 1, 0);
  std::vector<EngineKind> engine_of(n + 1, engines[0]);
  best[0] = 0;
  for (int i = 1; i <= n; ++i) {
    int min_k = config.enable_merging ? std::max(0, i - cap) : i - 1;
    for (int k = i - 1; k >= min_k; --k) {
      if (best[k] == kInfiniteCost) {
        continue;
      }
      std::vector<int> segment(order.begin() + k, order.begin() + i);
      EngineKind eng = engines[0];
      double cost = kInfiniteCost;
      for (EngineKind e : engines) {
        double c = model.JobCost(dag, segment, e, sizes);
        if (c < cost) {
          cost = c;
          eng = e;
        }
      }
      if (cost == kInfiniteCost) {
        continue;
      }
      if (best[k] + cost < best[i]) {
        best[i] = best[k] + cost;
        boundary[i] = k;
        engine_of[i] = eng;
      }
    }
  }
  if (best[n] == kInfiniteCost) {
    return FailedPreconditionError("no engine combination");
  }
  Partitioning out;
  out.total_cost = best[n];
  for (int i = n; i > 0; i = boundary[i]) {
    JobAssignment job;
    job.ops.assign(order.begin() + boundary[i], order.begin() + i);
    job.engine = engine_of[i];
    job.cost = best[i] - best[boundary[i]];
    out.jobs.push_back(std::move(job));
  }
  std::reverse(out.jobs.begin(), out.jobs.end());
  return out;
}

std::vector<int> OperatorIds(const Dag& dag) {
  std::vector<int> ops;
  for (const auto& node : dag.nodes()) {
    if (node.kind != OpKind::kInput) {
      ops.push_back(node.id);
    }
  }
  return ops;
}

// Same jobs, engines and bit-identical costs (==, not near).
void ExpectSamePartitioning(const StatusOr<Partitioning>& got,
                            const StatusOr<Partitioning>& want,
                            const std::string& what) {
  ASSERT_EQ(got.ok(), want.ok()) << what << ": " << got.status() << " vs "
                                 << want.status();
  if (!want.ok()) {
    EXPECT_EQ(got.status().code(), want.status().code()) << what;
    return;
  }
  ASSERT_EQ(got->jobs.size(), want->jobs.size()) << what;
  for (size_t j = 0; j < want->jobs.size(); ++j) {
    EXPECT_EQ(got->jobs[j].ops, want->jobs[j].ops) << what << " job " << j;
    EXPECT_EQ(got->jobs[j].engine, want->jobs[j].engine) << what << " job " << j;
    EXPECT_TRUE(got->jobs[j].cost == want->jobs[j].cost)
        << what << " job " << j << ": " << got->jobs[j].cost << " vs "
        << want->jobs[j].cost;
  }
  EXPECT_TRUE(got->total_cost == want->total_cost)
      << what << ": " << got->total_cost << " vs " << want->total_cost;
}

// Runs the production DP (PartitionWorkflow and the re-planning entry
// PartitionRemainder) against the unpruned reference over engine sets,
// merging on/off and first-run conservatism on/off.
void ExpectPrunedDpMatchesReference(const Dag& dag, const RelationSizes& base,
                                    const std::string& what) {
  const std::vector<std::vector<EngineKind>> engine_sets = {
      {},
      {EngineKind::kHadoop},
      {EngineKind::kHadoop, EngineKind::kMetis},
      {EngineKind::kPowerGraph, EngineKind::kGraphChi, EngineKind::kSerialC}};
  const std::vector<int> order = OperatorIds(dag);
  const std::vector<int> suffix(order.begin() + order.size() / 2, order.end());
  for (bool conservative : {false, true}) {
    CostModel model(Ec2Cluster(16), nullptr, "dp-equivalence", conservative);
    auto sizes = model.PredictSizes(dag, base);
    ASSERT_TRUE(sizes.ok()) << what << ": " << sizes.status();
    for (size_t set = 0; set < engine_sets.size(); ++set) {
      for (bool merging : {true, false}) {
        PlannerConfig config;
        config.strategy = PartitionStrategyKind::kDp;
        config.engines = engine_sets[set];
        config.enable_merging = merging;
        const std::string tag = what + " engines#" + std::to_string(set) +
                                (merging ? " merging" : " unmerged") +
                                (conservative ? " conservative" : "");
        ExpectSamePartitioning(PartitionWorkflow(dag, model, *sizes, config),
                               UnprunedDp(dag, model, *sizes, config, order),
                               tag);
        if (!suffix.empty()) {
          ExpectSamePartitioning(
              PartitionRemainder(dag, model, *sizes, config, suffix),
              UnprunedDp(dag, model, *sizes, config, suffix), tag + " suffix");
        }
      }
    }
  }
}

class PrunedDpTest : public ::testing::TestWithParam<uint64_t> {};

// The DP stops pricing a segment for an engine once CanRunAsSingleJob
// rejects it. The plans it returns must be exactly the unpruned scan's.
TEST_P(PrunedDpTest, MatchesUnprunedReferenceOnSyntheticDags) {
  for (int target : {50, 250, 1000}) {
    for (bool with_while : {true, false}) {
      SyntheticDagSpec spec;
      spec.target_ops = target;
      spec.seed = GetParam();
      spec.include_while = with_while;
      SyntheticDagWorkload workload = MakeSyntheticDag(spec);
      auto dag = ParseWorkflow(FrontendLanguage::kBeer, workload.source);
      ASSERT_TRUE(dag.ok()) << dag.status();
      ExpectPrunedDpMatchesReference(
          **dag, BaseSizes(workload),
          std::to_string(target) + " ops seed " + std::to_string(GetParam()) +
              (with_while ? " with WHILE" : ""));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrunedDpTest,
                         ::testing::Values(5, 9, 13, 18, 29, 38));

TEST(PrunedDpWorkflowTest, MatchesUnprunedReferenceOnNineWorkflows) {
  for (Wf wf : kAllWorkflows) {
    WfSetup setup = MakeSetup(wf);
    Dfs dfs;
    for (const auto& [name, table] : setup.inputs) {
      dfs.Put(name, table);
    }
    Musketeer m(&dfs);
    auto dag = m.Lower(setup.workflow);
    ASSERT_TRUE(dag.ok()) << WfName(wf) << ": " << dag.status();
    ExpectPrunedDpMatchesReference(**dag, m.DfsSizes(), WfName(wf));
  }
}

// The property the cut relies on: for every backend, a segment an engine
// rejects stays rejected as it grows. Random S ⊂ T from one window of the
// operator order; !CanRunAsSingleJob(S) implies !CanRunAsSingleJob(T).
TEST(PrunedDpWorkflowTest, SingleJobFeasibilityIsMonotone) {
  std::vector<std::unique_ptr<Dag>> dags;
  for (uint64_t seed : {5ull, 13ull, 38ull}) {
    SyntheticDagSpec spec;
    spec.target_ops = 200;
    spec.seed = seed;
    auto dag = ParseWorkflow(FrontendLanguage::kBeer,
                             MakeSyntheticDag(spec).source);
    ASSERT_TRUE(dag.ok()) << dag.status();
    dags.push_back(std::move(dag).value());
  }
  for (Wf wf : {Wf::kPageRank, Wf::kSssp, Wf::kCrossCommunity, Wf::kTpchHive}) {
    WfSetup setup = MakeSetup(wf);
    auto dag = ParseWorkflow(setup.workflow.language, setup.workflow.source);
    ASSERT_TRUE(dag.ok()) << WfName(wf) << ": " << dag.status();
    dags.push_back(std::move(dag).value());
  }

  Rng rng(2015);
  for (const Backend* backend : AllBackends()) {
    int rejected_subsets = 0;
    for (const auto& dag : dags) {
      const std::vector<int> order = OperatorIds(*dag);
      for (int trial = 0; trial < 300; ++trial) {
        const size_t width = 1 + rng.NextBounded(std::min<size_t>(24, order.size()));
        const size_t start = rng.NextBounded(order.size() - width + 1);
        std::vector<int> superset;
        std::vector<int> subset;
        for (size_t i = start; i < start + width; ++i) {
          if (rng.NextBounded(4) == 0) {
            continue;
          }
          superset.push_back(order[i]);
          if (rng.NextBounded(2) == 0) {
            subset.push_back(order[i]);
          }
        }
        if (subset.empty()) {
          continue;
        }
        if (!backend->CanRunAsSingleJob(*dag, subset)) {
          ++rejected_subsets;
          EXPECT_FALSE(backend->CanRunAsSingleJob(*dag, superset))
              << backend->name() << " accepts a superset of a rejected set";
        }
      }
    }
    EXPECT_GT(rejected_subsets, 0) << backend->name();
  }
}

// Online re-planning end to end: force a mid-run re-plan (threshold below
// the >= 1 error ratio, so the first measured job always trips it) and
// assert the outputs stay BIT-identical to the undisturbed run on every
// evaluation workflow, unsharded and through a 3-shard coordinator (which
// re-plans in the same Execute loop, so /metrics counts its re-plans too).
// Regrouping moves job boundaries, never bytes.
TEST(ReplanningTest, NineWorkflowsStayIdenticalUnderForcedReplan) {
  Counter& replans_metric =
      MetricsRegistry::Global().counter("musketeer.execute.replans");
  const uint64_t metric_before = replans_metric.Value();
  int replans_observed = 0;
  int sharded_replans = 0;
  for (Wf wf : kAllWorkflows) {
    WfSetup setup = MakeSetup(wf);

    auto load = [&](Dfs* dfs) {
      for (const auto& [name, table] : setup.inputs) {
        dfs->Put(name, table);
      }
    };
    // shards == 0 runs unsharded Musketeer::Run on a plain Dfs.
    auto run = [&](bool replan, int shards) {
      RunOptions options;
      options.cluster = Ec2Cluster(16);
      // Unmerged plans have one job per operator, so every workflow has
      // enough remaining jobs after the first fold for a re-plan to fire.
      options.planner.enable_merging = false;
      RuntimeHistory history;
      if (replan) {
        options.runtime_history = &history;
        // ErrorRatio is >= 1 by construction, so any threshold below 1
        // trips after the first measured job.
        options.planner.replan_threshold = 0.5;
        options.planner.max_replans = 2;
      }
      StatusOr<RunResult> result = InternalError("not run");
      if (shards > 0) {
        ShardedDfs dfs(shards);
        load(&dfs);
        ShardCoordinator coordinator(&dfs);
        result = coordinator.Run(setup.workflow, options);
        // Re-planned jobs are placed by the same byte rule as planned ones.
        CoordinatorStats stats = coordinator.stats();
        EXPECT_EQ(stats.locality_hits, stats.placements) << WfName(wf);
      } else {
        Dfs dfs;
        load(&dfs);
        Musketeer m(&dfs);
        result = m.Run(setup.workflow, options);
      }
      EXPECT_TRUE(result.ok()) << WfName(wf) << ": " << result.status();
      return result;
    };

    auto baseline = run(false, 0);
    auto replanned = run(true, 0);
    auto sharded = run(true, 3);
    if (!baseline.ok() || !replanned.ok() || !sharded.ok()) {
      continue;
    }
    ASSERT_EQ(baseline->outputs.count(setup.result_relation), 1u);
    for (const RunResult* r : {&*replanned, &*sharded}) {
      ASSERT_EQ(r->outputs.count(setup.result_relation), 1u);
      EXPECT_TRUE(Table::Identical(*baseline->outputs[setup.result_relation],
                                   *r->outputs.at(setup.result_relation)))
          << WfName(wf) << " diverged under forced re-planning"
          << (r == &*sharded ? " on 3 shards" : "");
    }
    EXPECT_EQ(baseline->replans, 0);
    replans_observed += replanned->replans;
    sharded_replans += sharded->replans;
  }
  // At least one of the nine workflows has enough remaining jobs after the
  // first fold for a re-plan to actually fire, on either path.
  EXPECT_GT(replans_observed, 0);
  EXPECT_GT(sharded_replans, 0);
  EXPECT_EQ(replans_metric.Value() - metric_before,
            static_cast<uint64_t>(replans_observed + sharded_replans));
}

// Same contract on a 100-operator synthetic DAG, where the job list is long
// enough that the re-plan definitely fires and is surfaced in RunResult.
TEST(ReplanningTest, SyntheticDagReplansAndStaysIdentical) {
  SyntheticDagSpec spec;
  spec.target_ops = 100;
  spec.seed = 21;
  SyntheticDagWorkload workload = MakeSyntheticDag(spec);
  WorkflowSpec wf{"synthetic-100", FrontendLanguage::kBeer, workload.source};

  auto run = [&](double threshold) {
    Dfs dfs;
    for (const auto& [name, table] : workload.inputs) {
      dfs.Put(name, table);
    }
    Musketeer m(&dfs);
    RunOptions options;
    options.cluster = Ec2Cluster(16);
    RuntimeHistory history;
    if (threshold > 0) {
      options.runtime_history = &history;
      options.planner.replan_threshold = threshold;
      options.planner.max_replans = 3;
    }
    auto result = m.Run(wf, options);
    EXPECT_TRUE(result.ok()) << result.status();
    return result;
  };

  auto baseline = run(0);
  auto replanned = run(0.5);
  ASSERT_TRUE(baseline.ok());
  ASSERT_TRUE(replanned.ok());
  ASSERT_EQ(baseline->outputs.count(workload.result_relation), 1u);
  ASSERT_EQ(replanned->outputs.count(workload.result_relation), 1u);
  EXPECT_GT(replanned->replans, 0);
  EXPECT_FALSE(replanned->partition_strategy.empty());
  EXPECT_TRUE(Table::Identical(*baseline->outputs[workload.result_relation],
                               *replanned->outputs[workload.result_relation]));
  // The reference interpreter agrees with both.
  auto dag = ParseWorkflow(FrontendLanguage::kBeer, workload.source);
  ASSERT_TRUE(dag.ok()) << dag.status();
  TableMap base;
  for (const auto& [name, table] : workload.inputs) {
    base[name] = table;
  }
  auto expected = EvaluateDagRelation(**dag, base, workload.result_relation);
  ASSERT_TRUE(expected.ok()) << expected.status();
  EXPECT_TRUE(Table::SameContent(*expected,
                                 *baseline->outputs[workload.result_relation]));
}

// True when `a` and `b` are the same double, bit for bit.
bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// Every segment the DP offers — order[k, i) inside the merge window, grown
// one operator at a time and kept sorted by insertion, as the DP grows it —
// summarized once and priced per engine must cost exactly what JobCost
// says for that engine: every engine, conservative merging on and off.
void ExpectSummaryPricesMatchJobCost(const Dag& dag, const RelationSizes& base,
                                     const std::string& what) {
  std::vector<int> order = OperatorIds(dag);
  const int n = static_cast<int>(order.size());
  const int cap = std::max(1, n > kDpSegmentCapAbove ? kDpSegmentCap : n);
  int compared = 0;
  for (bool conservative : {false, true}) {
    CostModel model(Ec2Cluster(16), nullptr, "pricing", conservative);
    auto sizes = model.PredictSizes(dag, base);
    ASSERT_TRUE(sizes.ok()) << what << ": " << sizes.status();
    SegmentSummary summary;
    for (int i = 1; i <= n; ++i) {
      std::vector<int> segment;
      for (int k = i - 1; k >= std::max(0, i - cap); --k) {
        segment.insert(
            std::lower_bound(segment.begin(), segment.end(), order[k]),
            order[k]);
        model.Summarize(dag, segment, *sizes, &summary);
        for (EngineKind e : kAllEngines) {
          if (!BackendFor(e).CanRunAsSingleJob(dag, segment)) {
            continue;
          }
          double split = model.PriceSummary(summary, e);
          double whole = model.JobCost(dag, segment, e, *sizes);
          ASSERT_TRUE(SameBits(split, whole))
              << what << " segment [" << k << "," << i << ") on "
              << EngineKindName(e) << ": " << split << " vs " << whole;
          ++compared;
        }
      }
    }
  }
  EXPECT_GT(compared, 0) << what;
}

TEST(SegmentPricingTest, SummaryPricesMatchJobCostOnSyntheticDags) {
  for (uint64_t seed : {5ull, 13ull, 38ull}) {
    SyntheticDagSpec spec;
    spec.target_ops = 250;
    spec.seed = seed;
    SyntheticDagWorkload workload = MakeSyntheticDag(spec);
    auto dag = ParseWorkflow(FrontendLanguage::kBeer, workload.source);
    ASSERT_TRUE(dag.ok()) << dag.status();
    ExpectSummaryPricesMatchJobCost(**dag, BaseSizes(workload),
                                    "seed " + std::to_string(seed));
  }
}

TEST(SegmentPricingTest, SummaryPricesMatchJobCostOnNineWorkflows) {
  for (Wf wf : kAllWorkflows) {
    WfSetup setup = MakeSetup(wf);
    Dfs dfs;
    for (const auto& [name, table] : setup.inputs) {
      dfs.Put(name, table);
    }
    Musketeer m(&dfs);
    auto dag = m.Lower(setup.workflow);
    ASSERT_TRUE(dag.ok()) << WfName(wf) << ": " << dag.status();
    ExpectSummaryPricesMatchJobCost(**dag, m.DfsSizes(**dag), WfName(wf));
  }
}

// Planning reads only the relations the workflow reads: 10,000 unrelated
// relations in the DFS change nothing in the plan.
TEST(PlanInputsTest, UnrelatedDfsRelationsLeaveThePlanUnchanged) {
  SyntheticDagSpec spec;
  spec.target_ops = 250;
  spec.seed = 9;
  SyntheticDagWorkload workload = MakeSyntheticDag(spec);
  WfSetup pagerank = MakeSetup(Wf::kPageRank);
  const std::vector<std::pair<WorkflowSpec, TableMap>> cases = {
      {{"synthetic-250", FrontendLanguage::kBeer, workload.source},
       TableMap(workload.inputs.begin(), workload.inputs.end())},
      {pagerank.workflow, pagerank.inputs}};
  Schema one_col;
  one_col.AddField({"x", FieldType::kInt64});
  auto unrelated = std::make_shared<Table>(one_col);
  unrelated->AddRow({int64_t{1}});
  for (const auto& [workflow, inputs] : cases) {
    auto plan_in = [&](int extra) {
      Dfs dfs;
      for (const auto& [name, table] : inputs) {
        dfs.Put(name, table);
      }
      for (int r = 0; r < extra; ++r) {
        dfs.Put("unrelated_" + std::to_string(r), unrelated);
      }
      Musketeer m(&dfs);
      RunOptions options;
      options.cluster = Ec2Cluster(16);
      return m.Plan(workflow, options);
    };
    auto plain = plan_in(0);
    auto crowded = plan_in(10000);
    ASSERT_TRUE(plain.ok()) << workflow.id << ": " << plain.status();
    ASSERT_TRUE(crowded.ok()) << workflow.id << ": " << crowded.status();
    ASSERT_EQ(plain->plans.size(), crowded->plans.size()) << workflow.id;
    EXPECT_TRUE(SameBits(plain->partitioning.total_cost,
                         crowded->partitioning.total_cost))
        << workflow.id;
    for (size_t j = 0; j < plain->plans.size(); ++j) {
      EXPECT_EQ(plain->partitioning.jobs[j].ops, crowded->partitioning.jobs[j].ops);
      EXPECT_EQ(plain->plans[j].engine, crowded->plans[j].engine);
      EXPECT_TRUE(SameBits(plain->partitioning.jobs[j].cost,
                           crowded->partitioning.jobs[j].cost));
      EXPECT_EQ(plain->plans[j].generated_code, crowded->plans[j].generated_code)
          << workflow.id << " job " << j;
    }
    EXPECT_EQ(plain->schemas.relations.size(), crowded->schemas.relations.size())
        << workflow.id;
  }
}

}  // namespace
}  // namespace musketeer
