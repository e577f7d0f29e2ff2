// Plan golden test: one canonical text dump of what Musketeer::Plan decides,
// compared line for line with tests/golden/plans.txt.
//
// The dump covers the nine evaluation workflows under every partitioning
// strategy (jobs, engines, `%a` costs and generated code in full), seeded
// synthetic DAGs of 100, 250 and 1000 operators with WHILE blocks under the
// DP strategies (one digest over the job lines per plan), and a 100-SELECT
// chain that runs the optimizer into its rewrite-round cap. Every case also
// prints the optimizer's statistics, a digest of the optimized DAG and the
// plan's total cost. Costs print as `%a`, so any change to one bit of a
// price moves the golden.
//
// The dump must be the same at one and at four threads. On a mismatch the
// test writes the actual dump next to the test binary and prints the `cp`
// that makes it the new golden; a change that means to move plans
// regenerates the golden that way and says which lines moved and why.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/base/parallel.h"
#include "src/cluster/dfs.h"
#include "src/core/musketeer.h"
#include "src/workloads/synthetic_dag.h"
#include "tests/workflow_setups.h"

namespace musketeer {
namespace {

constexpr PartitionStrategyKind kWorkflowStrategies[] = {
    PartitionStrategyKind::kAuto, PartitionStrategyKind::kDp,
    PartitionStrategyKind::kDpMultiOrder, PartitionStrategyKind::kExhaustive};
constexpr PartitionStrategyKind kSyntheticStrategies[] = {
    PartitionStrategyKind::kAuto, PartitionStrategyKind::kDp,
    PartitionStrategyKind::kDpMultiOrder};

// FNV-1a, 64 bit.
uint64_t Digest(const std::string& text) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : text) {
    h = (h ^ c) * 1099511628211ull;
  }
  return h;
}

std::string Hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

std::string Hex64(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// Every node's id, kind, parameters, output and inputs, WHILE bodies
// included, as one text the DAG digest is taken over.
void DescribeDag(const Dag& dag, std::ostringstream* os) {
  for (const OperatorNode& n : dag.nodes()) {
    *os << n.id << ' ' << n.DebugString() << ' ' << n.output << " <-";
    for (int in : n.inputs) {
      *os << ' ' << in;
    }
    *os << '\n';
    if (n.kind == OpKind::kWhile) {
      const auto& wp = std::get<WhileParams>(n.params);
      *os << "{ result " << wp.result << " fixpoint " << wp.until_fixpoint;
      for (const LoopBinding& b : wp.bindings) {
        *os << " bind " << b.loop_input << '=' << b.body_output;
      }
      *os << '\n';
      DescribeDag(*wp.body, os);
      *os << "}\n";
    }
  }
}

std::string JobLine(size_t i, const JobAssignment& job) {
  std::ostringstream os;
  os << "job " << i << " ops [";
  for (size_t k = 0; k < job.ops.size(); ++k) {
    os << (k > 0 ? "," : "") << job.ops[k];
  }
  os << "] engine " << EngineKindName(job.engine) << " cost " << Hex(job.cost);
  return os.str();
}

// Plans `workflow` with `strategy` and appends its dump. With `full_jobs`
// every job's line and generated code are printed; otherwise one digest
// over the job lines stands in for them.
void DumpPlan(const std::string& name, const Dfs& inputs,
              const WorkflowSpec& workflow, PartitionStrategyKind strategy,
              bool full_jobs, std::ostringstream* os) {
  Dfs dfs;
  for (const std::string& rel : inputs.ListRelations()) {
    dfs.Put(rel, *inputs.Get(rel));
  }
  Musketeer m(&dfs);
  RunOptions options;
  options.cluster = Ec2Cluster(16);
  options.planner.strategy = strategy;
  *os << "== " << name << ' ' << PartitionStrategyKindName(strategy) << '\n';
  auto plan = m.Plan(workflow, options);
  if (!plan.ok()) {
    *os << "error " << plan.status().ToString() << '\n';
    return;
  }
  const OptimizeStats& s = plan->optimizer_stats;
  *os << "optimizer pushed " << s.selections_pushed << " selects_fused "
      << s.selects_fused << " projects_fused " << s.projects_fused
      << " dead " << s.dead_removed << '\n';
  std::ostringstream dag_text;
  DescribeDag(*plan->dag, &dag_text);
  *os << "dag nodes " << plan->dag->num_nodes() << " digest "
      << Hex64(Digest(dag_text.str())) << '\n';
  *os << "strategy " << plan->partitioning.strategy << " jobs "
      << plan->partitioning.jobs.size() << " total "
      << Hex(plan->partitioning.total_cost) << '\n';
  std::string job_lines;
  for (size_t i = 0; i < plan->partitioning.jobs.size(); ++i) {
    std::string line = JobLine(i, plan->partitioning.jobs[i]);
    if (full_jobs) {
      *os << line << '\n' << plan->plans[i].generated_code;
      if (!plan->plans[i].generated_code.empty() &&
          plan->plans[i].generated_code.back() != '\n') {
        *os << '\n';
      }
    }
    job_lines += line;
    job_lines += '\n';
  }
  if (!full_jobs) {
    *os << "jobs digest " << Hex64(Digest(job_lines)) << '\n';
  }
}

std::string BuildDump() {
  std::ostringstream os;
  for (Wf wf : kAllWorkflows) {
    WfSetup setup = MakeSetup(wf);
    Dfs inputs;
    for (const auto& [name, table] : setup.inputs) {
      inputs.Put(name, table);
    }
    for (PartitionStrategyKind strategy : kWorkflowStrategies) {
      DumpPlan(WfName(wf), inputs, setup.workflow, strategy, true, &os);
    }
  }
  for (int ops : {100, 250, 1000}) {
    SyntheticDagSpec spec;
    spec.target_ops = ops;
    spec.seed = 42;
    SyntheticDagWorkload workload = MakeSyntheticDag(spec);
    Dfs inputs;
    for (const auto& [name, table] : workload.inputs) {
      inputs.Put(name, table);
    }
    WorkflowSpec workflow{"synthetic-" + std::to_string(ops),
                          FrontendLanguage::kBeer, workload.source};
    for (PartitionStrategyKind strategy : kSyntheticStrategies) {
      DumpPlan(workflow.id, inputs, workflow, strategy, false, &os);
    }
  }
  for (uint64_t seed : {5, 9, 13, 18, 29, 38}) {
    // More 1000-operator shapes, planned with the production default.
    SyntheticDagSpec spec;
    spec.target_ops = 1000;
    spec.seed = seed;
    SyntheticDagWorkload workload = MakeSyntheticDag(spec);
    Dfs inputs;
    for (const auto& [name, table] : workload.inputs) {
      inputs.Put(name, table);
    }
    WorkflowSpec workflow{"synthetic-1000-seed" + std::to_string(seed),
                          FrontendLanguage::kBeer, workload.source};
    DumpPlan(workflow.id, inputs, workflow, PartitionStrategyKind::kAuto, false,
             &os);
  }
  {
    // Every rewrite kind: a filter pushed into one side of a JOIN, two
    // adjacent filters fused and then pushed through a UNION, and two
    // adjacent projections fused.
    SyntheticDagSpec spec;
    spec.target_ops = 1;
    SyntheticDagWorkload base = MakeSyntheticDag(spec);
    Dfs inputs;
    for (const auto& [name, table] : base.inputs) {
      inputs.Put(name, table);
    }
    const std::string source = R"(
      a = MAP k, v AS va FROM syn0;
      b = MAP k AS kb, v AS vb FROM syn1;
      j = JOIN a, b ON a.k = b.kb;
      f = SELECT * FROM j WHERE va < 500;
      p1 = SELECT k, va, vb FROM f;
      p2 = SELECT k, vb FROM p1;
      u = UNION syn0, syn1;
      g = SELECT * FROM u WHERE v > 3;
      h = SELECT * FROM g WHERE v < 900;
      out = JOIN p2, h ON p2.k = h.k;
    )";
    WorkflowSpec workflow{"rewrite-mix", FrontendLanguage::kBeer, source};
    DumpPlan(workflow.id, inputs, workflow, PartitionStrategyKind::kAuto, true,
             &os);
  }
  {
    // 100 chained SELECTs: fusing them takes 99 rewrites, more than the
    // optimizer's 64-round cap.
    SyntheticDagSpec spec;
    spec.target_ops = 1;
    spec.base_relations = 1;
    SyntheticDagWorkload base = MakeSyntheticDag(spec);
    Dfs inputs;
    inputs.Put(base.inputs[0].first, base.inputs[0].second);
    std::ostringstream src;
    std::string prev = base.inputs[0].first;
    for (int i = 0; i < 100; ++i) {
      std::string name = "chain" + std::to_string(i);
      src << name << " = SELECT * FROM " << prev << " WHERE v < " << (1000 - i)
          << ";\n";
      prev = name;
    }
    WorkflowSpec workflow{"select-chain", FrontendLanguage::kBeer, src.str()};
    DumpPlan(workflow.id, inputs, workflow, PartitionStrategyKind::kAuto, true,
             &os);
  }
  return os.str();
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// 1-based number of the first line where `a` and `b` differ.
size_t FirstDifferentLine(const std::string& a, const std::string& b) {
  size_t line = 1;
  for (size_t i = 0; i < a.size() && i < b.size() && a[i] == b[i]; ++i) {
    line += a[i] == '\n' ? 1 : 0;
  }
  return line;
}

TEST(PlanGoldenTest, PlansMatchGoldenAtOneAndFourThreads) {
  std::string one;
  {
    ScopedParallelThreads threads(1);
    one = BuildDump();
  }
  std::string four;
  {
    ScopedParallelThreads threads(4);
    four = BuildDump();
  }
  EXPECT_TRUE(one == four) << "the plan dump differs between 1 and 4 threads "
                              "from line "
                           << FirstDifferentLine(one, four);

  const std::string golden = ReadFile(MUSKETEER_PLAN_GOLDEN);
  if (one != golden) {
    std::ofstream(MUSKETEER_PLAN_ACTUAL, std::ios::binary) << one;
    ADD_FAILURE() << "plan dump differs from the golden from line "
                  << FirstDifferentLine(one, golden) << ". The actual dump is "
                  << "in " << MUSKETEER_PLAN_ACTUAL << "; if the change is "
                  << "meant, regenerate the golden with:\n  cp "
                  << MUSKETEER_PLAN_ACTUAL << " " << MUSKETEER_PLAN_GOLDEN;
  }
}

}  // namespace
}  // namespace musketeer
