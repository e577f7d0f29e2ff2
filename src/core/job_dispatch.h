// Per-job retry / cross-engine-failover dispatch for Musketeer::Execute.
//
// One job's journey from planned to done: up to retry.max_attempts tries on
// its planned engine (with deterministic backoff), then — if failover is
// enabled — a re-plan onto the next-cheapest engine the cost model says can
// run the job's sub-DAG, repeating until an attempt succeeds or no untried
// engine remains. Attempt numbers are global across engines so the fault
// injector's (workflow, job@engine, attempt) key never repeats within a run.
//
// Each attempt goes through the run's JobRunner, so placement composes with
// recovery: the sharded coordinator's runner places every attempt afresh
// among the shards alive at that moment and runs it on the calling thread,
// so a retry after a shard dies lands on a surviving shard.

#ifndef MUSKETEER_SRC_CORE_JOB_DISPATCH_H_
#define MUSKETEER_SRC_CORE_JOB_DISPATCH_H_

#include <functional>
#include <vector>

#include "src/core/musketeer.h"

namespace musketeer {

struct JobDispatchEnv {
  const WorkflowSpec* workflow = nullptr;
  // Plan the job came from: dag/schemas drive failover re-planning.
  const WorkflowPlan* plan = nullptr;
  // The run's own operator set for the job. The shared plan's job
  // boundaries no longer match after a mid-run suffix re-plan.
  const std::vector<int>* ops = nullptr;
  const RunOptions* options = nullptr;
  const JobRunner* runner = nullptr;
  // Current DFS base-relation sizes — queried lazily, only when a failover
  // actually needs to re-cost the job.
  std::function<RelationSizes()> dfs_sizes;
};

struct JobDispatchOutcome {
  JobResult result;
  JobRecovery recovery;
  int retries = 0;    // failed attempts that were retried (incl. failovers)
  int failovers = 0;  // engine switches after retry exhaustion
};

// Drives `*job` to success or terminal failure under `env`. On engine
// failover `*job` is replaced with the re-generated plan (so the caller's
// plans[i] records what finally ran). `ctx->attempt` advances monotonically.
StatusOr<JobDispatchOutcome> DispatchJobWithRecovery(JobPlan* job,
                                                     ExecutionContext* ctx,
                                                     const JobDispatchEnv& env);

// The failover choice: cheapest engine among the engines the run plans
// with (EffectivePlanner; empty = all seven), minus `tried`, that can run
// `ops` as a single job, priced by CalibratedCostModel — the same cost
// basis as the original partitioning.
StatusOr<EngineKind> NextFailoverEngine(const WorkflowSpec& workflow,
                                        const WorkflowPlan& wplan,
                                        const std::vector<int>& ops,
                                        const RunOptions& options,
                                        const RelationSizes& dfs_sizes,
                                        const std::vector<EngineKind>& tried);

// Sleeps for `backoff`, waking every 10ms to honor cancellation/deadline.
Status BackoffSleep(std::chrono::milliseconds backoff,
                    const ExecutionContext& ctx);

}  // namespace musketeer

#endif  // MUSKETEER_SRC_CORE_JOB_DISPATCH_H_
