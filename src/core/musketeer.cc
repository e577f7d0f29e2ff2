#include "src/core/musketeer.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "src/base/logging.h"
#include "src/core/job_dispatch.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace musketeer {

namespace {

// Resolves the run's absolute deadline: an explicit absolute point wins,
// otherwise a non-zero relative budget starts counting now.
DeadlinePoint EffectiveDeadline(const RunOptions& options) {
  if (options.absolute_deadline.has_value()) {
    return options.absolute_deadline;
  }
  if (options.deadline.count() > 0) {
    return std::chrono::steady_clock::now() + options.deadline;
  }
  return std::nullopt;
}

ExecutionContext MakeContext(const WorkflowSpec& workflow,
                             const RunOptions& options) {
  ExecutionContext ctx;
  ctx.workflow_id = workflow.id;
  ctx.cancel = options.cancel;
  ctx.deadline = EffectiveDeadline(options);
  ctx.faults = FaultInjector(options.fault_rate, options.fault_seed);
  ctx.retry = options.retry;
  if (ctx.retry.backoff_seed == 0) {
    // Default the jitter stream to the fault seed so a single seed pins the
    // whole run's randomness.
    ctx.retry.backoff_seed = options.fault_seed;
  }
  return ctx;
}

}  // namespace

RunOptions PinDeadline(RunOptions options) {
  options.absolute_deadline = EffectiveDeadline(options);
  return options;
}

PlannerConfig EffectivePlanner(const RunOptions& options) {
  PlannerConfig planner = options.planner;
  if (planner.engines.empty()) {
    planner.engines = options.engines;
  }
  return planner;
}

CostModel CalibratedCostModel(const WorkflowSpec& workflow,
                              const RunOptions& options,
                              RuntimeCalibration* calibration) {
  if (options.runtime_history != nullptr) {
    *calibration = options.runtime_history->Calibration();
  }
  return CostModel(options.cluster, options.history, workflow.id,
                   options.conservative_first_run,
                   calibration->has_observations ? calibration : nullptr);
}

SchemaMap Musketeer::DfsSchemas() const {
  return DfsSchemasOf(dfs_->ListRelations());
}

RelationSizes Musketeer::DfsSizes() const {
  return DfsSizesOf(dfs_->ListRelations());
}

SchemaMap Musketeer::DfsSchemas(const Dag& dag) const {
  return DfsSchemasOf(dag.InputRelations());
}

RelationSizes Musketeer::DfsSizes(const Dag& dag) const {
  return DfsSizesOf(dag.InputRelations());
}

SchemaMap Musketeer::DfsSchemasOf(const std::vector<std::string>& names) const {
  SchemaMap out;
  for (const std::string& name : names) {
    auto table = dfs_->Get(name);
    if (table.ok()) {
      out[name] = (*table)->schema();
    }
  }
  return out;
}

RelationSizes Musketeer::DfsSizesOf(const std::vector<std::string>& names) const {
  RelationSizes out;
  for (const std::string& name : names) {
    auto table = dfs_->Get(name);
    if (table.ok()) {
      out[name] = (*table)->nominal_bytes();
    }
  }
  return out;
}

StatusOr<std::unique_ptr<Dag>> Musketeer::Lower(const WorkflowSpec& workflow,
                                                bool optimize) const {
  MUSKETEER_ASSIGN_OR_RETURN(std::unique_ptr<Dag> dag,
                             ParseWorkflow(workflow.language, workflow.source));
  if (!optimize) {
    return dag;
  }
  return OptimizeDag(*dag, DfsSchemas(*dag));
}

StatusOr<WorkflowPlan> Musketeer::Plan(const WorkflowSpec& workflow,
                                       const RunOptions& options) const {
  // Cancellation/deadline checkpoints between pipeline stages.
  ExecutionContext ctx = MakeContext(workflow, options);
  MUSKETEER_RETURN_IF_ERROR(ctx.Check());

  // 1. Front-end translation to the IR.
  std::unique_ptr<Dag> dag;
  SchemaMap base_schemas;
  {
    Span span("stage.parse", "stage");
    MUSKETEER_ASSIGN_OR_RETURN(
        dag, ParseWorkflow(workflow.language, workflow.source));
    base_schemas = DfsSchemas(*dag);
  }
  MUSKETEER_RETURN_IF_ERROR(ctx.Check());

  WorkflowPlan out;

  // 2. IR optimization, then one schema inference over the optimized DAG
  // that every job's type check reads.
  {
    Span span("stage.optimize", "stage");
    if (options.optimize_ir) {
      MUSKETEER_ASSIGN_OR_RETURN(
          dag, OptimizeDag(*dag, base_schemas, {}, &out.optimizer_stats));
    } else {
      MUSKETEER_RETURN_IF_ERROR(dag->Validate());
    }
    out.schemas = InferPlanSchemas(*dag, base_schemas);
    MUSKETEER_RETURN_IF_ERROR(out.schemas.dag_status);
  }
  MUSKETEER_RETURN_IF_ERROR(ctx.Check());

  // 3. Partitioning + automatic (or restricted) engine mapping. When a
  // runtime history exists, snapshot its calibration so job costs are in
  // measured-time units rather than raw simulated units.
  {
    Span span("stage.partition", "stage");
    RuntimeCalibration calibration;
    CostModel model = CalibratedCostModel(workflow, options, &calibration);
    MUSKETEER_ASSIGN_OR_RETURN(std::vector<Bytes> sizes,
                               model.PredictSizes(*dag, DfsSizes(*dag)));
    MUSKETEER_ASSIGN_OR_RETURN(
        out.partitioning,
        PartitionWorkflow(*dag, model, sizes, EffectivePlanner(options)));
    if (span.active()) {
      span.SetAttr("jobs", std::to_string(out.partitioning.jobs.size()));
      span.SetAttr("strategy", out.partitioning.strategy);
    }
  }
  MUSKETEER_RETURN_IF_ERROR(ctx.Check());

  // 4. Code generation.
  {
    Span span("stage.codegen", "stage");
    for (const JobAssignment& job : out.partitioning.jobs) {
      MUSKETEER_ASSIGN_OR_RETURN(
          JobPlan plan, BackendFor(job.engine)
                            .GeneratePlan(*dag, job.ops, out.schemas,
                                          options.codegen));
      out.plans.push_back(std::move(plan));
    }
  }

  // Remember the sink relations so Execute() can collect outputs without
  // re-deriving the DAG.
  for (int sink : dag->Sinks()) {
    out.sink_relations.push_back(dag->node(sink).output);
  }
  // Retain the DAG for cross-engine failover and mid-run re-planning.
  out.dag = std::move(dag);
  return out;
}

StatusOr<RunResult> Musketeer::Execute(const WorkflowSpec& workflow,
                                       const WorkflowPlan& plan,
                                       const RunOptions& options,
                                       const JobRunner& runner) {
  RunResult result;
  result.partitioning = plan.partitioning;
  result.plans = plan.plans;
  result.optimizer_stats = plan.optimizer_stats;
  result.partition_strategy = plan.partitioning.strategy;

  // 5. Execution with critical-path scheduling. Jobs run one at a time in
  // plan order (a topological order) and hand data to each other only
  // through the DFS. On the simulated clock a job starts when every job
  // producing one of its inputs has finished, so independent jobs overlap
  // there, and only there. The run's DFS traffic is the sum of its jobs'
  // JobResult byte counts.
  Span exec_span("stage.execute", "stage");
  ExecutionContext ctx = MakeContext(workflow, options);
  const JobRunner run_inline = [&](const JobPlan& job,
                                   const ExecutionContext& c) {
    return ExecuteJob(job, options.cluster, dfs_, c);
  };
  const JobRunner& run_attempt = runner ? runner : run_inline;

  static Counter& reused_metric =
      MetricsRegistry::Global().counter("musketeer.stream.jobs_reused");
  static Counter& recomputed_metric =
      MetricsRegistry::Global().counter("musketeer.stream.jobs_recomputed");
  static Counter& replans_metric =
      MetricsRegistry::Global().counter("musketeer.execute.replans");

  std::unordered_map<std::string, SimSeconds> ready_at;  // relation -> time
  SimSeconds makespan = 0;
  int predicted_jobs = 0;
  double error_sum = 0;

  // True when the job may be skipped: recorded fingerprint matches the
  // current input versions and its outputs sit in the DFS unmodified.
  auto reusable = [&](size_t i) {
    if (!options.incremental || options.fingerprints == nullptr) {
      return false;
    }
    const JobPlan& job = result.plans[i];
    return options.fingerprints->CanReuse(
        workflow.id, job.name, FingerprintJob(workflow.id, job, *dfs_), *dfs_);
  };

  // Retry/failover dispatch (src/core/job_dispatch.h): up to max_attempts
  // per engine; on exhaustion, re-plan onto the next-cheapest capable
  // engine (when enabled). The shared dispatcher mutates plans[i] on
  // failover so result.plans[i] records what finally ran.
  auto dispatch = [&](size_t i) {
    JobDispatchEnv env;
    env.workflow = &workflow;
    env.plan = &plan;
    // The run's (possibly re-planned) operator set for this job; the shared
    // plan is immutable, so failover re-costing reads this copy.
    env.ops = &result.partitioning.jobs[i].ops;
    env.options = &options;
    env.runner = &run_attempt;
    env.dfs_sizes = [this, &plan] {
      return plan.dag != nullptr ? DfsSizes(*plan.dag) : RelationSizes{};
    };
    return DispatchJobWithRecovery(&result.plans[i], &ctx, env);
  };

  // Online re-planning signal (DESIGN.md "Planner at scale"): the most
  // recently folded job's predicted vs measured wall seconds. Invalid when
  // that job was reused or no runtime history is attached.
  double last_predicted = 0;
  double last_measured = 0;
  bool last_job_measured = false;
  int replans_done = 0;

  // Folds one job into the result arrays. `dispatched` is the job's
  // dispatch outcome, or null when the job was reused.
  auto fold = [&](size_t i, JobDispatchOutcome* dispatched) {
    last_job_measured = false;
    JobPlan& job = result.plans[i];
    SimSeconds start = 0;
    for (const std::string& in : job.inputs) {
      auto it = ready_at.find(in);
      if (it != ready_at.end()) {
        start = std::max(start, it->second);
      }
    }
    JobResult jr;
    if (dispatched == nullptr) {
      jr.reused = true;
      jr.internal_jobs = 0;  // no engine job ran
      jr.detail = std::string(EngineKindName(job.engine)) + " job '" +
                  job.name + "': reused (fingerprint match, " +
                  std::to_string(job.outputs.size()) +
                  " output(s) served from the DFS)";
      JobRecovery recovery;
      recovery.job = job.name;
      recovery.planned_engine = job.engine;
      recovery.final_engine = job.engine;
      result.recovery.push_back(std::move(recovery));
      ++result.jobs_reused;
      reused_metric.Increment();
    } else {
      jr = std::move(dispatched->result);
      result.total_retries += dispatched->retries;
      result.total_failovers += dispatched->failovers;
      result.total_faults_injected += dispatched->recovery.faults_injected;
      result.recovery.push_back(std::move(dispatched->recovery));
      if (options.fingerprints != nullptr) {
        // Record against post-commit versions: that is exactly the state a
        // later resubmission fingerprints against before dispatching.
        std::vector<std::pair<std::string, uint64_t>> outputs;
        outputs.reserve(job.outputs.size());
        for (const std::string& out : job.outputs) {
          outputs.emplace_back(out, dfs_->VersionOf(out));
        }
        options.fingerprints->Record(workflow.id, job.name,
                                     FingerprintJob(workflow.id, job, *dfs_),
                                     std::move(outputs));
        if (options.incremental) {
          recomputed_metric.Increment();
        }
      }
    }
    MLOG_INFO << jr.detail;
    // Calibration loop: predict this job's wall clock from the runtime
    // history (best available granularity), then record what actually
    // happened so the next run predicts better. Reused jobs never ran, so
    // they neither consume nor contribute calibration signal.
    if (options.runtime_history != nullptr && !jr.reused) {
      const std::string engine = EngineKindName(job.engine);
      const std::string signature = job.name + "@" + engine;
      double predicted = options.runtime_history->PredictWallSeconds(
          workflow.id, signature, engine, jr.makespan);
      result.predicted_wall_seconds += predicted;
      result.measured_wall_seconds += jr.wall_seconds;
      error_sum += std::abs(predicted - jr.wall_seconds) /
                   std::max(jr.wall_seconds, 1e-9);
      ++predicted_jobs;
      options.runtime_history->RecordJob(workflow.id, signature, engine,
                                         jr.makespan, jr.wall_seconds);
      last_predicted = predicted;
      last_measured = jr.wall_seconds;
      last_job_measured = true;
    }
    SimSeconds finish = start + jr.makespan;
    for (const std::string& out : job.outputs) {
      ready_at[out] = finish;
    }
    makespan = std::max(makespan, finish);
    result.total_engine_time += jr.makespan;
    result.dfs_bytes_read += jr.bytes_pulled;
    result.dfs_bytes_written += jr.bytes_pushed;
    result.dfs_bytes_remote_read += jr.bytes_pulled_remote;
    result.job_results.push_back(std::move(jr));
  };

  // Mid-run suffix re-planning: when the job just folded mispredicted by
  // more than the configured ratio, re-partition every not-yet-run job's
  // operators with the freshly recalibrated cost model and splice the new
  // jobs into the run's plan tail. The shared WorkflowPlan is never touched
  // (it may sit in the service's plan cache); only this run's copies change.
  // Regrouping moves job boundaries, not operator semantics, so outputs stay
  // bit-identical to a non-replanned run (asserted by planner_scale_test).
  auto maybe_replan = [&](size_t i) {
    if (options.planner.replan_threshold <= 0 || !last_job_measured ||
        options.runtime_history == nullptr || plan.dag == nullptr ||
        replans_done >= std::max(0, options.planner.max_replans)) {
      return;
    }
    if (RuntimeHistory::ErrorRatio(last_predicted, last_measured) <=
        options.planner.replan_threshold) {
      return;
    }
    const size_t remaining = result.plans.size() - (i + 1);
    if (remaining < 2) {
      return;  // nothing to regroup
    }
    std::vector<int> ops;
    for (size_t j = i + 1; j < result.plans.size(); ++j) {
      const std::vector<int>& job_ops = result.partitioning.jobs[j].ops;
      ops.insert(ops.end(), job_ops.begin(), job_ops.end());
    }
    RuntimeCalibration calibration;
    CostModel model = CalibratedCostModel(workflow, options, &calibration);
    // Sizes of the base relations the plan's DAG reads: predicting the
    // remaining jobs' inputs needs every upstream INPUT's size.
    auto sizes = model.PredictSizes(*plan.dag, DfsSizes(*plan.dag));
    if (!sizes.ok()) {
      return;
    }
    auto repart = PartitionRemainder(*plan.dag, model, *sizes,
                                     EffectivePlanner(options), ops);
    if (!repart.ok()) {
      return;
    }
    std::vector<JobPlan> new_plans;
    new_plans.reserve(repart->jobs.size());
    for (const JobAssignment& job : repart->jobs) {
      auto jp = BackendFor(job.engine)
                    .GeneratePlan(*plan.dag, job.ops, plan.schemas,
                                  options.codegen);
      if (!jp.ok()) {
        return;  // keep the original tail; re-planning is best-effort
      }
      new_plans.push_back(std::move(jp).value());
    }
    MLOG_INFO << "re-planning " << remaining << " remaining job(s) of '"
              << workflow.id << "' into " << new_plans.size()
              << " (prediction off by "
              << RuntimeHistory::ErrorRatio(last_predicted, last_measured)
              << "x, threshold " << options.planner.replan_threshold << ")";
    result.partitioning.jobs.resize(i + 1);
    for (JobAssignment& job : repart->jobs) {
      result.partitioning.jobs.push_back(std::move(job));
    }
    result.plans.resize(i + 1);
    for (JobPlan& jp : new_plans) {
      result.plans.push_back(std::move(jp));
    }
    ++result.replans;
    ++replans_done;
    replans_metric.Increment();
  };

  for (size_t i = 0; i < result.plans.size(); ++i) {
    if (reusable(i)) {
      fold(i, nullptr);
      continue;
    }
    MUSKETEER_ASSIGN_OR_RETURN(JobDispatchOutcome outcome, dispatch(i));
    fold(i, &outcome);
    maybe_replan(i);
  }
  result.makespan = makespan;
  if (predicted_jobs > 0) {
    result.cost_model_error = error_sum / predicted_jobs;
  }
  if (exec_span.active()) {
    exec_span.SetAttr("workflow", workflow.id);
    exec_span.SetAttr("jobs", std::to_string(result.plans.size()));
  }

  // 6. Collect the workflow's sink relations.
  for (const std::string& name : plan.sink_relations) {
    auto table = dfs_->Get(name);
    if (table.ok()) {
      result.outputs[name] = *table;
    }
  }

  // 7. Record observed sizes for future runs (§5.2 "workflow history"):
  // every job-output relation plus the loop-body internals each engine
  // observed at steady state.
  if (options.history != nullptr) {
    for (const JobPlan& job : result.plans) {
      for (const std::string& out : job.outputs) {
        auto table = dfs_->Get(out);
        if (table.ok()) {
          options.history->Record(workflow.id, out, (*table)->nominal_bytes());
        }
      }
    }
    for (const JobResult& jr : result.job_results) {
      for (const auto& [relation, bytes] : jr.observed_sizes) {
        options.history->Record(workflow.id, relation, bytes);
      }
    }
  }
  return result;
}

StatusOr<RunResult> Musketeer::Run(const WorkflowSpec& workflow,
                                   const RunOptions& options) {
  // Pin the deadline at entry so a relative budget spans Plan + Execute
  // instead of restarting at the plan/execute boundary.
  RunOptions pinned = PinDeadline(options);
  MUSKETEER_ASSIGN_OR_RETURN(WorkflowPlan plan, Plan(workflow, pinned));
  return Execute(workflow, plan, pinned);
}

Status Musketeer::ProfileWorkflow(const WorkflowSpec& workflow,
                                  const RunOptions& options,
                                  HistoryStore* history) {
  RunOptions profiling = options;
  profiling.planner.enable_merging = false;
  // Per-operator jobs; DP is instant.
  profiling.planner.strategy = PartitionStrategyKind::kDp;
  profiling.history = history;
  return Run(workflow, profiling).status();
}

}  // namespace musketeer
