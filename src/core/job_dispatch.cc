#include "src/core/job_dispatch.h"

#include <algorithm>
#include <limits>
#include <thread>

#include "src/base/logging.h"
#include "src/obs/metrics.h"

namespace musketeer {

Status BackoffSleep(std::chrono::milliseconds backoff,
                    const ExecutionContext& ctx) {
  auto wake = std::chrono::steady_clock::now() + backoff;
  while (std::chrono::steady_clock::now() < wake) {
    MUSKETEER_RETURN_IF_ERROR(ctx.Check());
    auto remaining = wake - std::chrono::steady_clock::now();
    std::this_thread::sleep_for(
        std::min<std::chrono::steady_clock::duration>(
            remaining, std::chrono::milliseconds(10)));
  }
  return ctx.Check();
}

StatusOr<EngineKind> NextFailoverEngine(const WorkflowSpec& workflow,
                                        const WorkflowPlan& wplan,
                                        const std::vector<int>& ops,
                                        const RunOptions& options,
                                        const RelationSizes& dfs_sizes,
                                        const std::vector<EngineKind>& tried) {
  RuntimeCalibration calibration;
  CostModel model = CalibratedCostModel(workflow, options, &calibration);
  MUSKETEER_ASSIGN_OR_RETURN(std::vector<Bytes> sizes,
                             model.PredictSizes(*wplan.dag, dfs_sizes));
  std::vector<EngineKind> candidates = EffectivePlanner(options).engines;
  if (candidates.empty()) {
    candidates.assign(kAllEngines.begin(), kAllEngines.end());
  }
  bool found = false;
  EngineKind best = EngineKind::kHadoop;
  double best_cost = std::numeric_limits<double>::infinity();
  for (EngineKind engine : candidates) {
    if (std::find(tried.begin(), tried.end(), engine) != tried.end()) {
      continue;
    }
    if (!BackendFor(engine).CanRunAsSingleJob(*wplan.dag, ops)) {
      continue;
    }
    double cost = model.JobCost(*wplan.dag, ops, engine, sizes);
    if (cost < best_cost) {  // excludes kInfiniteCost
      best = engine;
      best_cost = cost;
      found = true;
    }
  }
  if (!found) {
    return UnavailableError("no untried engine can run the job");
  }
  return best;
}

StatusOr<JobDispatchOutcome> DispatchJobWithRecovery(
    JobPlan* job, ExecutionContext* ctx, const JobDispatchEnv& env) {
  static Counter& retries_counter =
      MetricsRegistry::Global().counter("musketeer.execute.retries");
  static Counter& failovers_counter =
      MetricsRegistry::Global().counter("musketeer.execute.failovers");
  const WorkflowSpec& workflow = *env.workflow;
  const WorkflowPlan& plan = *env.plan;
  const RunOptions& options = *env.options;
  const int max_attempts = std::max(1, ctx->retry.max_attempts);

  JobDispatchOutcome out;
  out.recovery.job = job->name;
  out.recovery.planned_engine = job->engine;
  std::vector<EngineKind> tried;
  Status last_error = OkStatus();
  int global_attempt = 0;
  for (bool succeeded = false; !succeeded;) {
    tried.push_back(job->engine);
    const std::string engine_name = EngineKindName(job->engine);
    for (int local = 1; local <= max_attempts; ++local) {
      ++global_attempt;
      ctx->attempt = global_attempt;
      if (local > 1) {
        MUSKETEER_RETURN_IF_ERROR(BackoffSleep(
            ctx->retry.BackoffFor(local, job->name + "@" + engine_name), *ctx));
      }
      MUSKETEER_RETURN_IF_ERROR(ctx->Check());
      // Mirror the injector's (deterministic) decision for accounting;
      // ExecuteJob makes the identical call and fails accordingly.
      if (ctx->faults.ShouldFail(workflow.id, job->name + "@" + engine_name,
                                 global_attempt)) {
        ++out.recovery.faults_injected;
      }
      StatusOr<JobResult> attempt = (*env.runner)(*job, *ctx);
      ++out.recovery.attempts;
      out.recovery.attempt_log.push_back(
          {global_attempt, job->engine,
           attempt.ok() ? StatusCode::kOk : attempt.status().code()});
      if (attempt.ok()) {
        out.result = std::move(attempt).value();
        succeeded = true;
        break;
      }
      last_error = Annotate(
          attempt.status(), workflow.id + "/" + job->name + "@" + engine_name +
                                " attempt " + std::to_string(global_attempt));
      if (!IsRetryable(last_error.code())) {
        return last_error;
      }
      MLOG_INFO << "job attempt failed (" << last_error.ToString() << ")";
      if (local < max_attempts) {
        retries_counter.Increment();
        ++out.retries;
      }
    }
    if (succeeded) {
      break;
    }
    // Retries exhausted on this engine: cross-engine failover.
    if (!ctx->retry.enable_failover || plan.dag == nullptr) {
      return Annotate(last_error, "retries exhausted on " +
                                      std::string(EngineKindName(job->engine)));
    }
    const std::vector<int>& job_ops = *env.ops;
    StatusOr<EngineKind> next = NextFailoverEngine(
        workflow, plan, job_ops, options,
        env.dfs_sizes ? env.dfs_sizes() : RelationSizes{}, tried);
    if (!next.ok()) {
      return Annotate(last_error,
                      "failover exhausted: " + next.status().message());
    }
    MUSKETEER_ASSIGN_OR_RETURN(
        JobPlan replan,
        BackendFor(*next).GeneratePlan(*plan.dag, job_ops, plan.schemas,
                                       options.codegen));
    *job = std::move(replan);
    // The final failed attempt on the old engine continues as a failover.
    retries_counter.Increment();
    ++out.retries;
    failovers_counter.Increment();
    ++out.failovers;
    ++out.recovery.failovers;
    MLOG_INFO << "failing over job '" << out.recovery.job << "' to "
              << EngineKindName(job->engine);
  }
  out.recovery.final_engine = job->engine;
  return out;
}

}  // namespace musketeer
