#include "src/service/shard_coordinator.h"

#include <algorithm>
#include <future>

#include "src/base/logging.h"

namespace musketeer {

ShardCoordinator::ShardCoordinator(ShardedDfs* dfs, CoordinatorConfig config)
    : dfs_(dfs),
      config_(std::move(config)),
      placer_(&dfs->shard_map(), config_.placement, config_.placement_seed) {
  const int count = dfs_->num_shards();
  shards_.reserve(static_cast<size_t>(count));
  alive_.assign(static_cast<size_t>(count), 1);
  jobs_per_shard_.assign(static_cast<size_t>(count), 0);
  for (int k = 0; k < count; ++k) {
    ServiceConfig sc;
    sc.num_workers = std::max(1, config_.workers_per_shard);
    sc.threads = config_.threads;
    sc.plan_cache_capacity = 0;  // shards execute jobs, they do not plan
    shards_.push_back(
        std::make_unique<WorkflowService>(dfs_->View(k), std::move(sc)));
  }
}

ShardCoordinator::~ShardCoordinator() {
  for (auto& shard : shards_) {
    shard->Shutdown();
  }
}

std::vector<int> ShardCoordinator::AliveShardsLocked() const {
  std::vector<int> out;
  for (size_t k = 0; k < alive_.size(); ++k) {
    if (alive_[k]) {
      out.push_back(static_cast<int>(k));
    }
  }
  return out;
}

void ShardCoordinator::KillShardLocked(int shard) {
  if (shard < 0 || shard >= num_shards() || !alive_[static_cast<size_t>(shard)]) {
    return;
  }
  alive_[static_cast<size_t>(shard)] = 0;
  // Placement only: the partition's data survives (reads fall back to the
  // directory-repairing scan), which is what keeps failover bit-identical.
  dfs_->shard_map().RemoveShard(shard);
  MLOG_INFO << "shard " << shard << " removed from placement";
}

void ShardCoordinator::DrainShard(int shard) {
  std::lock_guard lock(mu_);
  KillShardLocked(shard);
}

bool ShardCoordinator::IsShardAlive(int shard) const {
  std::lock_guard lock(mu_);
  return shard >= 0 && shard < num_shards() &&
         alive_[static_cast<size_t>(shard)] != 0;
}

CoordinatorStats ShardCoordinator::stats() const {
  CoordinatorStats out;
  {
    std::lock_guard lock(mu_);
    out.jobs_dispatched = dispatches_;
    out.placements = placer_.placements();
    out.locality_hits = placer_.locality_hits();
    out.placed_cross_shard_bytes = placer_.cross_shard_bytes();
    out.shard_failovers = shard_failovers_;
    out.jobs_per_shard = jobs_per_shard_;
  }
  out.remote_fetches = dfs_->remote_fetches();
  out.remote_bytes_fetched = dfs_->remote_bytes_fetched();
  out.measured_remote_mbps = dfs_->measured_remote_mbps();
  return out;
}

StatusOr<JobResult> ShardCoordinator::DispatchAttempt(
    const JobPlan& job, const ExecutionContext& ctx, const RunOptions& options,
    DfsTraffic* charged) {
  // Placement inputs: the job's declared input relations at their *actual*
  // current nominal sizes (upstream jobs have already committed).
  std::vector<std::pair<std::string, Bytes>> inputs;
  inputs.reserve(job.inputs.size());
  for (const std::string& name : job.inputs) {
    auto table = dfs_->Get(name);
    inputs.emplace_back(name, table.ok() ? (*table)->nominal_bytes() : 0);
  }

  int shard = -1;
  {
    std::lock_guard lock(mu_);
    ++dispatches_;
    // Seeded shard fault: a deterministic point in the dispatch sequence at
    // which the victim's compute dies. Placement-visible immediately.
    if (config_.fault_shard >= 0 && !fault_fired_ &&
        dispatches_ > static_cast<uint64_t>(config_.fault_after_dispatches)) {
      fault_fired_ = true;
      KillShardLocked(config_.fault_shard);
    }
    std::vector<int> candidates = AliveShardsLocked();
    if (candidates.empty()) {
      return FailedPreconditionError("no shard left alive to place job '" +
                                     job.name + "'");
    }
    shard = placer_.Place(job.name, inputs, candidates).shard;
    ++jobs_per_shard_[static_cast<size_t>(shard)];
  }

  // Route the attempt to the placed shard's worker pool and wait for it.
  // The worker counts the DFS bytes the attempt charges on its own thread
  // (the coordinator thread never executes jobs); the future's wait makes
  // them visible here.
  StatusOr<JobResult> out = InternalError("shard task did not run");
  std::promise<void> done;
  std::future<void> done_future = done.get_future();
  ExecutionContext shard_ctx = ctx;
  shard_ctx.shard = shard;
  const bool accepted = shards_[static_cast<size_t>(shard)]->SubmitTask(
      [this, &job, &options, &shard_ctx, &out, &done, charged, shard] {
        out = ExecuteJobCharged(job, options.cluster, dfs_->View(shard),
                                shard_ctx, charged);
        done.set_value();
      });
  if (!accepted) {
    std::lock_guard lock(mu_);
    ++shard_failovers_;
    return UnavailableError("shard " + std::to_string(shard) +
                            " rejected job '" + job.name + "' (shut down)");
  }
  done_future.wait();

  if (!out.ok()) {
    // A dead shard surfaces as a retryable failure; the dispatcher's next
    // attempt re-places among the survivors.
    std::lock_guard lock(mu_);
    if (!alive_[static_cast<size_t>(shard)]) {
      ++shard_failovers_;
    }
  }
  return out;
}

StatusOr<RunResult> ShardCoordinator::Run(const WorkflowSpec& workflow) {
  return Run(workflow, config_.default_options);
}

StatusOr<RunResult> ShardCoordinator::Run(const WorkflowSpec& workflow,
                                          RunOptions options) {
  // Plan once, globally: the planner's Dfs view treats every relation as
  // local, so the plan is identical to an unsharded run's — placement, not
  // planning, is where shards enter.
  options = PinDeadline(std::move(options));
  Musketeer musketeer(dfs_);
  MUSKETEER_ASSIGN_OR_RETURN(WorkflowPlan plan,
                             musketeer.Plan(workflow, options));

  // Everything but placement — reuse, recovery, calibration, re-planning,
  // sinks and history — is Execute's one loop.
  return musketeer.Execute(
      workflow, plan, options,
      [&](const JobPlan& job, const ExecutionContext& ctx,
          DfsTraffic* charged) {
        return DispatchAttempt(job, ctx, options, charged);
      });
}

}  // namespace musketeer
