// Planner latency at production scale (DESIGN.md "Planner at scale").
//
// The paper's Fig. 13 sweep stops at 18 operators — the largest evaluation
// workflow. Production query graphs reach hundreds of operators, so this
// benchmark partitions seeded synthetic DAGs (src/workloads/synthetic_dag.h:
// chains, diamonds, fan-out, UNION fan-in, WHILE blocks) at 100 / 250 / 500
// / 1000 operators with the production default (kAuto, which resolves to
// the DP above the exhaustive threshold) and measures REAL wall-clock
// planning time, min over reps so scheduler noise cannot masquerade as a
// regression. Next to partitioning it reports, ungated, the whole
// Musketeer::Plan (parse, optimize, partition, codegen) on the same DAG.
//
// Enforced acceptance criteria, exit 1 on violation:
//
//   1. a 1000-operator DAG plans in < 250 ms — the planner stays
//      interactive at two orders of magnitude beyond the paper's sweep;
//   2. every partitioning covers every operator exactly once (a valid,
//      executable job set, not a truncated one);
//   3. on DAGs small enough for the exhaustive search (6-12 ops), the DP's
//      plan cost stays within 1.5x of the exhaustive optimum;
//   4. Musketeer::Plan on the 1000-operator DAG with 10,000 unrelated
//      relations in the DFS costs within 10% of planning with only the
//      workflow's inputs there — planning reads only what the plan reads.
//
// Results land in BENCH_partitioner_scale.json for plotting.

#include <algorithm>
#include <chrono>
#include <set>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/frontends/frontend.h"
#include "src/scheduler/partition_strategy.h"
#include "src/workloads/synthetic_dag.h"

namespace musketeer {
namespace {

constexpr double kLatencyGateMs = 250.0;  // 1000-op planning budget
constexpr double kGapGate = 1.5;          // DP cost vs exhaustive optimum
constexpr double kCrowdedDfsGate = 1.10;  // Plan, crowded vs input-only DFS
constexpr int kUnrelatedRelations = 10000;

struct ScaleRecord {
  int ops = 0;
  double plan_ms = 0;
  double whole_plan_ms = 0;  // Musketeer::Plan, parse through codegen
  size_t jobs = 0;
  double total_cost = 0;
  std::string strategy;
};

struct GapRecord {
  int ops = 0;
  uint64_t seed = 0;
  double dp_cost = 0;
  double exhaustive_cost = 0;
  double ratio = 0;
};

struct Prepared {
  std::unique_ptr<Dag> dag;
  std::vector<Bytes> sizes;
};

Prepared Prepare(const SyntheticDagWorkload& workload, const CostModel& model) {
  auto dag = ParseWorkflow(FrontendLanguage::kBeer, workload.source);
  if (!dag.ok()) {
    std::fprintf(stderr, "FATAL: synthetic DAG failed to parse: %s\n",
                 dag.status().ToString().c_str());
    std::exit(1);
  }
  RelationSizes base;
  for (const auto& [name, table] : workload.inputs) {
    base[name] = table->nominal_bytes();
  }
  auto sizes = model.PredictSizes(**dag, base);
  if (!sizes.ok()) {
    std::fprintf(stderr, "FATAL: size prediction failed: %s\n",
                 sizes.status().ToString().c_str());
    std::exit(1);
  }
  return {std::move(dag).value(), std::move(sizes).value()};
}

bool CoversAllOps(const Dag& dag, const Partitioning& partitioning) {
  std::set<int> covered;
  size_t assigned = 0;
  for (const JobAssignment& job : partitioning.jobs) {
    covered.insert(job.ops.begin(), job.ops.end());
    assigned += job.ops.size();
  }
  int expected = 0;
  for (const auto& node : dag.nodes()) {
    if (node.kind != OpKind::kInput) {
      ++expected;
    }
  }
  return static_cast<int>(covered.size()) == expected &&
         assigned == covered.size();
}

}  // namespace
}  // namespace musketeer

int main() {
  using namespace musketeer;
  using Clock = std::chrono::steady_clock;

  CostModel model(Ec2Cluster(16), nullptr, "synthetic");
  bool ok = true;

  // ---- Latency sweep: kAuto (-> DP) at 100-1000 operators ----------------
  PrintHeader("planner latency at scale",
              "seeded synthetic DAGs, production-default strategy (auto), "
              "min wall clock over 5 reps");
  PrintRow({"ops", "partition (ms)", "Plan (ms)", "jobs", "cost", "strategy"});

  std::vector<ScaleRecord> scale;
  for (int ops : {100, 250, 500, 1000}) {
    SyntheticDagSpec spec;
    spec.target_ops = ops;
    spec.seed = 42;
    SyntheticDagWorkload workload = MakeSyntheticDag(spec);
    Prepared p = Prepare(workload, model);

    PlannerConfig config;  // kAuto
    double best_ms = 1e18;
    Partitioning partitioning;
    for (int rep = 0; rep < 5; ++rep) {
      auto start = Clock::now();
      auto out = PartitionWorkflow(*p.dag, model, p.sizes, config);
      double ms = std::chrono::duration<double, std::milli>(Clock::now() -
                                                            start)
                      .count();
      if (!out.ok()) {
        std::fprintf(stderr, "FATAL: partitioning %d ops failed: %s\n", ops,
                     out.status().ToString().c_str());
        return 1;
      }
      if (ms < best_ms) {
        best_ms = ms;
        partitioning = std::move(out).value();
      }
    }
    if (!CoversAllOps(*p.dag, partitioning)) {
      std::fprintf(stderr, "GATE: %d-op partitioning does not cover the DAG\n",
                   ops);
      ok = false;
    }

    // Whole-plan cost on the same DAG: ungated, reported so planning's real
    // cost is visible next to partitioning's.
    Dfs dfs;
    for (const auto& [name, table] : workload.inputs) {
      dfs.Put(name, table);
    }
    Musketeer musketeer(&dfs);
    WorkflowSpec wf{"synthetic", FrontendLanguage::kBeer, workload.source};
    RunOptions run_options;
    run_options.cluster = Ec2Cluster(16);
    double whole_ms = 1e18;
    for (int rep = 0; rep < 5; ++rep) {
      auto start = Clock::now();
      auto plan = musketeer.Plan(wf, run_options);
      double ms = std::chrono::duration<double, std::milli>(Clock::now() -
                                                            start)
                      .count();
      if (!plan.ok()) {
        std::fprintf(stderr, "FATAL: planning %d ops failed: %s\n", ops,
                     plan.status().ToString().c_str());
        return 1;
      }
      whole_ms = std::min(whole_ms, ms);
    }

    scale.push_back({ops, best_ms, whole_ms, partitioning.jobs.size(),
                     partitioning.total_cost, partitioning.strategy});
    PrintRow({Fmt(ops, "%.0f"), Fmt(best_ms, "%.2f"), Fmt(whole_ms, "%.2f"),
              Fmt(static_cast<double>(partitioning.jobs.size()), "%.0f"),
              Fmt(partitioning.total_cost, "%.2f"), partitioning.strategy});
  }

  // ---- Planning next to unrelated DFS relations --------------------------
  PrintHeader("planning in a crowded DFS",
              "Musketeer::Plan, 1000 ops, min wall clock over 7 alternating "
              "reps; crowded = inputs + 10,000 unrelated 1-row relations");
  PrintRow({"DFS", "Plan (ms)", "ratio"});
  double plain_ms = 1e18;
  double crowded_ms = 1e18;
  {
    SyntheticDagSpec spec;
    spec.target_ops = 1000;
    spec.seed = 42;
    SyntheticDagWorkload workload = MakeSyntheticDag(spec);
    Dfs plain;
    Dfs crowded;
    for (const auto& [name, table] : workload.inputs) {
      plain.Put(name, table);
      crowded.Put(name, table);
    }
    Schema one_col;
    one_col.AddField({"x", FieldType::kInt64});
    auto unrelated = std::make_shared<Table>(one_col);
    unrelated->AddRow({int64_t{1}});
    for (int r = 0; r < kUnrelatedRelations; ++r) {
      crowded.Put("unrelated_" + std::to_string(r), unrelated);
    }
    WorkflowSpec wf{"synthetic", FrontendLanguage::kBeer, workload.source};
    RunOptions run_options;
    run_options.cluster = Ec2Cluster(16);
    auto time_plan = [&](Dfs* dfs, double* best) {
      Musketeer musketeer(dfs);
      auto start = Clock::now();
      auto plan = musketeer.Plan(wf, run_options);
      double ms = std::chrono::duration<double, std::milli>(Clock::now() -
                                                            start)
                      .count();
      if (!plan.ok()) {
        std::fprintf(stderr, "FATAL: planning in a crowded DFS failed: %s\n",
                     plan.status().ToString().c_str());
        std::exit(1);
      }
      *best = std::min(*best, ms);
    };
    for (int rep = 0; rep < 7; ++rep) {
      time_plan(&plain, &plain_ms);
      time_plan(&crowded, &crowded_ms);
    }
  }
  const double crowded_ratio = crowded_ms / plain_ms;
  PrintRow({"inputs only", Fmt(plain_ms, "%.2f"), Fmt(1.0, "%.3f")});
  PrintRow({"+10,000 unrelated", Fmt(crowded_ms, "%.2f"),
            Fmt(crowded_ratio, "%.3f")});
  if (crowded_ratio > kCrowdedDfsGate) {
    std::fprintf(stderr,
                 "GATE: planning with %d unrelated DFS relations took %.3fx "
                 "the input-only time (budget %.2fx)\n",
                 kUnrelatedRelations, crowded_ratio, kCrowdedDfsGate);
    ok = false;
  }

  const ScaleRecord& largest = scale.back();
  if (largest.plan_ms >= kLatencyGateMs) {
    std::fprintf(stderr,
                 "GATE: 1000-op DAG planned in %.2f ms, budget %.0f ms\n",
                 largest.plan_ms, kLatencyGateMs);
    ok = false;
  }
  if (largest.strategy != "dp") {
    std::fprintf(stderr,
                 "GATE: auto resolved to '%s' at 1000 ops, expected dp\n",
                 largest.strategy.c_str());
    ok = false;
  }

  // ---- Optimality gap: DP vs exhaustive on small DAGs --------------------
  PrintHeader("DP optimality gap",
              "exhaustive-search-feasible sizes; ratio = dp / exhaustive");
  PrintRow({"ops", "seed", "dp cost", "exhaustive", "ratio"});

  std::vector<GapRecord> gaps;
  for (int ops : {6, 9, 12}) {
    for (uint64_t seed : {7ull, 19ull}) {
      SyntheticDagSpec spec;
      spec.target_ops = ops;
      spec.seed = seed;
      SyntheticDagWorkload workload = MakeSyntheticDag(spec);
      Prepared p = Prepare(workload, model);

      PlannerConfig config;
      config.strategy = PartitionStrategyKind::kExhaustive;
      auto optimal = PartitionWorkflow(*p.dag, model, p.sizes, config);
      config.strategy = PartitionStrategyKind::kDp;
      auto dp = PartitionWorkflow(*p.dag, model, p.sizes, config);
      if (!optimal.ok() || !dp.ok()) {
        std::fprintf(stderr, "FATAL: small-DAG partitioning failed\n");
        return 1;
      }
      double ratio = dp->total_cost / optimal->total_cost;
      gaps.push_back({ops, seed, dp->total_cost, optimal->total_cost, ratio});
      PrintRow({Fmt(ops, "%.0f"), Fmt(static_cast<double>(seed), "%.0f"),
                Fmt(dp->total_cost, "%.2f"), Fmt(optimal->total_cost, "%.2f"),
                Fmt(ratio, "%.3f")});
      if (ratio > kGapGate) {
        std::fprintf(stderr,
                     "GATE: DP %.2fx the exhaustive optimum at %d ops seed "
                     "%llu (budget %.1fx)\n",
                     ratio, ops, (unsigned long long)seed, kGapGate);
        ok = false;
      }
    }
  }

  // ---- Machine-readable results ------------------------------------------
  const char* json_path = "BENCH_partitioner_scale.json";
  std::FILE* f = std::fopen(json_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "FATAL: cannot write %s\n", json_path);
    return 1;
  }
  std::fprintf(f, "{\n  \"latency\": [\n");
  for (size_t i = 0; i < scale.size(); ++i) {
    const ScaleRecord& r = scale[i];
    std::fprintf(f,
                 "    {\"ops\": %d, \"plan_ms\": %.3f, "
                 "\"musketeer_plan_ms\": %.3f, \"jobs\": %zu, "
                 "\"total_cost\": %.4f, \"strategy\": \"%s\"}%s\n",
                 r.ops, r.plan_ms, r.whole_plan_ms, r.jobs, r.total_cost,
                 r.strategy.c_str(),
                 i + 1 < scale.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"optimality_gap\": [\n");
  for (size_t i = 0; i < gaps.size(); ++i) {
    const GapRecord& r = gaps[i];
    std::fprintf(f,
                 "    {\"ops\": %d, \"seed\": %llu, \"dp_cost\": %.4f, "
                 "\"exhaustive_cost\": %.4f, \"ratio\": %.4f}%s\n",
                 r.ops, (unsigned long long)r.seed, r.dp_cost,
                 r.exhaustive_cost, r.ratio, i + 1 < gaps.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n  \"crowded_dfs\": {\"unrelated_relations\": %d, "
               "\"plan_ms\": %.3f, \"crowded_plan_ms\": %.3f, "
               "\"ratio\": %.4f},\n",
               kUnrelatedRelations, plain_ms, crowded_ms, crowded_ratio);
  std::fprintf(f,
               "  \"gates\": {\"latency_budget_ms\": %.1f, "
               "\"gap_budget\": %.2f, \"crowded_dfs_budget\": %.2f, "
               "\"passed\": %s}\n}\n",
               kLatencyGateMs, kGapGate, kCrowdedDfsGate, ok ? "true" : "false");
  std::fclose(f);
  std::printf("\nwrote %s (%zu latency + %zu gap records)\n", json_path,
              scale.size(), gaps.size());

  if (!ok) {
    std::fprintf(stderr, "partitioner-scale acceptance FAILED\n");
    return 1;
  }
  std::printf("partitioner-scale acceptance passed\n");
  return 0;
}
