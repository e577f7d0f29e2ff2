// The Musketeer workflow manager (§4, Figure 5).
//
// End-to-end pipeline: front-end source is parsed to the IR DAG, the IR is
// optimized, the DAG is partitioned into back-end jobs with the cost
// function (automatically choosing engines, or restricted to user-specified
// ones), per-job code is generated, and the jobs execute on the simulated
// cluster against the shared DFS. Jobs run one at a time in plan order and
// hand data to each other only through the DFS. Independent jobs overlap on
// the simulated clock only: the workflow makespan is the critical path
// through the job graph.
//
// The pipeline is split at the plan/execute boundary: Plan() runs
// parse→optimize→partition→codegen and yields an immutable WorkflowPlan;
// Execute() runs a plan's jobs against the DFS. Run() composes the two.
// The split is what lets the concurrent workflow service (src/service/)
// cache plans for repeated submissions and jump straight to execution.
//
// Typical use:
//   Dfs dfs;
//   dfs.Put("edges", edge_table);
//   Musketeer m(&dfs);
//   WorkflowSpec wf{.id = "pagerank", .language = FrontendLanguage::kGas,
//                   .source = kPageRankGas};
//   auto result = m.Run(wf, {.cluster = Ec2Cluster(100)});
//   // result->makespan, result->plans[i].generated_code, result->outputs...

#ifndef MUSKETEER_SRC_CORE_MUSKETEER_H_
#define MUSKETEER_SRC_CORE_MUSKETEER_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/cluster/dfs.h"
#include "src/engines/engine.h"
#include "src/frontends/frontend.h"
#include "src/ir/eval.h"
#include "src/obs/runtime_history.h"
#include "src/opt/passes.h"
#include "src/scheduler/decision_tree.h"
#include "src/scheduler/partition_strategy.h"
#include "src/stream/fingerprint.h"

namespace musketeer {

struct WorkflowSpec {
  std::string id;  // stable name; keys the history store
  FrontendLanguage language = FrontendLanguage::kBeer;
  std::string source;
};

struct RunOptions {
  ClusterConfig cluster = LocalCluster();
  // Engines the partitioner may use; empty = all seven (automatic mapping).
  std::vector<EngineKind> engines;
  CodeGenOptions codegen;
  // Partitioning strategy and settings (src/scheduler/partition_strategy.h),
  // including the online re-planning policy (replan_threshold/max_replans)
  // Execute() applies mid-run.
  PlannerConfig planner;
  bool optimize_ir = true;
  // History store consulted by the cost model and updated with observed
  // relation sizes after the run (when non-null).
  HistoryStore* history = nullptr;
  // First-run conservatism (§5.2): refuse to merge past generative
  // operators whose output size history does not know yet.
  bool conservative_first_run = false;
  // Measured-runtime store (when non-null): Execute() records each job's
  // (simulated, wall-clock) runtime pair into it and reports prediction
  // error in RunResult; Plan() scales JobCost by the calibration it derives.
  // The observability analogue of `history` — sizes there, times here.
  RuntimeHistory* runtime_history = nullptr;

  // ---- Fault-tolerant execution (DESIGN.md "Fault tolerance") ----
  // Per-engine attempt budget and backoff; enable_failover also controls
  // whether retry exhaustion re-plans the job on the next-cheapest engine.
  RetryPolicy retry;
  // Injected-fault probability per (job@engine, attempt). 0 disables
  // injection. Decisions are a pure function of fault_seed, so a seed
  // reproduces the exact per-job fault/attempt sequence across runs.
  double fault_rate = 0.0;
  uint64_t fault_seed = 0;
  // Relative deadline for the whole run (Plan + Execute); zero = none.
  std::chrono::milliseconds deadline{0};
  // Absolute deadline; takes precedence over `deadline` when set. The
  // workflow service uses this form so queue wait burns deadline budget.
  DeadlinePoint absolute_deadline;
  // Cooperative cancellation handle. Default-constructed = not cancellable;
  // pass CancelToken::Make() and keep a copy to be able to cancel.
  CancelToken cancel;

  // ---- Incremental execution (DESIGN.md section of the same name) ----
  // Fingerprint store (when non-null): Execute() records a per-job input
  // fingerprint after every successful job. With `incremental` also set, a
  // job whose fingerprint matches the store and whose recorded outputs still
  // sit in the DFS unmodified is *reused* — skipped, outputs served from the
  // DFS — which turns a resubmission after a base-relation append into a
  // delta run that recomputes only the affected DAG suffix.
  FingerprintStore* fingerprints = nullptr;
  bool incremental = false;
};

// Everything Plan() produces and Execute() consumes. Immutable once built,
// so one plan may be shared (and executed) by concurrent runs.
struct WorkflowPlan {
  Partitioning partitioning;
  std::vector<JobPlan> plans;             // one per partition job
  std::vector<std::string> sink_relations;  // the workflow's output relations
  OptimizeStats optimizer_stats;
  // The optimized workflow DAG the job plans were generated from, and its
  // plan-wide schemas (base relations overlaid by every operator's output,
  // inferred once by Plan()). Retained so cross-engine failover and mid-run
  // re-planning can regenerate jobs for `dag` without re-inferring it.
  std::shared_ptr<const Dag> dag;
  PlanSchemas schemas;
};

// One execution attempt of a job, as seen by the retry dispatcher.
struct JobAttempt {
  int attempt = 0;  // 1-based, global across engines for this job
  EngineKind engine = EngineKind::kHadoop;
  StatusCode outcome = StatusCode::kOk;
};

// Recovery accounting for one job: how many attempts it took, whether it
// failed over to another engine, and the full attempt log (deterministic for
// a fixed fault seed — asserted by tests/fault_test.cc).
struct JobRecovery {
  std::string job;
  EngineKind planned_engine = EngineKind::kHadoop;
  EngineKind final_engine = EngineKind::kHadoop;
  int attempts = 0;
  int failovers = 0;
  int faults_injected = 0;
  std::vector<JobAttempt> attempt_log;
};

struct RunResult {
  SimSeconds makespan = 0;          // critical path over the job graph
  SimSeconds total_engine_time = 0; // sum of all job makespans
  Partitioning partitioning;
  std::vector<JobPlan> plans;            // one per partition job
  std::vector<JobResult> job_results;
  TableMap outputs;                      // the workflow's sink relations
  // Bytes this run moved through the DFS. Attributed per run via
  // ScopedDfsRunCounters, so the numbers are exact even while other
  // workflows execute concurrently against the same DFS.
  Bytes dfs_bytes_read = 0;
  Bytes dfs_bytes_written = 0;
  // Subset of dfs_bytes_read fetched from another shard's partition
  // (0 for unsharded runs; the locality objective is minimizing this).
  Bytes dfs_bytes_remote_read = 0;
  OptimizeStats optimizer_stats;
  // Cost-model calibration report, filled when options.runtime_history is
  // set: per-run sums of predicted and measured job wall seconds, and the
  // mean relative prediction error across jobs. Error shrinks on repeat
  // runs as the runtime history calibrates the simulated cost scale.
  double predicted_wall_seconds = 0;
  double measured_wall_seconds = 0;
  double cost_model_error = 0;
  // Per-job recovery records (parallel to `plans`) and run-level totals.
  // `plans` holds the plan that finally ran each job: after failover,
  // plans[i].engine differs from recovery[i].planned_engine.
  std::vector<JobRecovery> recovery;
  int total_retries = 0;          // failed attempts that were retried
  int total_failovers = 0;        // engine switches after retry exhaustion
  int total_faults_injected = 0;  // injected (not organic) attempt failures
  // Incremental accounting (src/stream/fingerprint.h).
  int jobs_reused = 0;  // jobs skipped on a fingerprint match
  // Planner accounting (DESIGN.md "Planner at scale"): the name of the
  // strategy that produced the partitioning, and how many times Execute
  // re-partitioned the remaining DAG suffix after a misprediction.
  std::string partition_strategy;
  int replans = 0;
};

// DFS bytes one job attempt charged, counted by a ScopedDfsRunCounters on
// the thread that ran it. Execute() sums them into RunResult.dfs_bytes_*.
struct DfsTraffic {
  Bytes read = 0;
  Bytes written = 0;
  Bytes remote_read = 0;  // subset of `read` fetched from another shard
};

// Runs one attempt of one job: the placement hook of Musketeer::Execute.
// The runner adds the DFS bytes the attempt charged, failed attempts
// included, to *charged — ExecuteJobCharged does that on whichever thread
// the job runs. Retryable error codes re-enter the recovery loop
// (src/core/job_dispatch.h); anything else ends the run.
using JobRunner = std::function<StatusOr<JobResult>(
    const JobPlan& job, const ExecutionContext& ctx, DfsTraffic* charged)>;

// ExecuteJob on the calling thread under a thread-scoped DFS byte counter;
// adds what the attempt charged to *charged, whether or not it succeeded.
StatusOr<JobResult> ExecuteJobCharged(const JobPlan& job,
                                      const ClusterConfig& cluster, Dfs* dfs,
                                      const ExecutionContext& ctx,
                                      DfsTraffic* charged);

// Resolves a relative `deadline` into `absolute_deadline` now (an explicit
// absolute deadline wins), so one budget spans everything that follows —
// Plan + Execute, or queue wait + both.
RunOptions PinDeadline(RunOptions options);

// The planner configuration a run partitions with: options.planner, whose
// empty engine set falls back to the run-level options.engines. Plan(),
// suffix re-planning, failover and the service's plan-cache key all read
// this.
PlannerConfig EffectivePlanner(const RunOptions& options);

// The cost model a run prices jobs with, for Plan(), suffix re-planning and
// failover alike: job costs are in measured-time units once the runtime
// history has observations. The model points at *calibration, which must
// outlive it.
CostModel CalibratedCostModel(const WorkflowSpec& workflow,
                              const RunOptions& options,
                              RuntimeCalibration* calibration);

class Musketeer {
 public:
  // `dfs` holds workflow inputs and receives outputs; not owned.
  explicit Musketeer(Dfs* dfs) : dfs_(dfs) {}

  // Parses and (optionally) optimizes a workflow without executing it.
  StatusOr<std::unique_ptr<Dag>> Lower(const WorkflowSpec& workflow,
                                       bool optimize = true) const;

  // Front half of the pipeline: parse, optimize, partition, generate.
  StatusOr<WorkflowPlan> Plan(const WorkflowSpec& workflow,
                              const RunOptions& options = {}) const;

  // Back half: executes a previously built plan's jobs against the DFS with
  // critical-path scheduling, collects sinks and records history. This is
  // the only job-execution loop: fingerprint reuse, retry and failover,
  // calibration and suffix re-planning all live here. `runner` places each
  // attempt; the default runs it inline via ExecuteJobCharged on this
  // DFS, and the sharded coordinator runs it inline on a placed shard's.
  StatusOr<RunResult> Execute(const WorkflowSpec& workflow,
                              const WorkflowPlan& plan,
                              const RunOptions& options = {},
                              const JobRunner& runner = {});

  // Full pipeline: parse, optimize, partition, generate, execute.
  StatusOr<RunResult> Run(const WorkflowSpec& workflow,
                          const RunOptions& options = {});

  // Runs the workflow operator-by-operator (merging disabled) purely to
  // populate `history` with every intermediate relation size — the paper's
  // per-operator profiling run that yields "full history" (§6.7).
  Status ProfileWorkflow(const WorkflowSpec& workflow, const RunOptions& options,
                         HistoryStore* history);

  // Schemas and nominal sizes of every relation currently in the DFS.
  SchemaMap DfsSchemas() const;
  RelationSizes DfsSizes() const;
  // Same, for only the relations `dag` reads (Dag::InputRelations), so
  // planning costs the workflow's inputs, not the DFS's contents.
  SchemaMap DfsSchemas(const Dag& dag) const;
  RelationSizes DfsSizes(const Dag& dag) const;

 private:
  SchemaMap DfsSchemasOf(const std::vector<std::string>& names) const;
  RelationSizes DfsSizesOf(const std::vector<std::string>& names) const;

  Dfs* dfs_;
};

}  // namespace musketeer

#endif  // MUSKETEER_SRC_CORE_MUSKETEER_H_
