#include "src/service/shard_coordinator.h"

#include <algorithm>
#include <optional>

#include "src/base/logging.h"
#include "src/base/parallel.h"

namespace musketeer {

ShardCoordinator::ShardCoordinator(ShardedDfs* dfs, CoordinatorConfig config)
    : dfs_(dfs),
      config_(std::move(config)),
      placer_(&dfs->shard_map(), config_.placement, config_.placement_seed) {
  const auto count = static_cast<size_t>(dfs_->num_shards());
  alive_.assign(count, 1);
  jobs_per_shard_.assign(count, 0);
  in_flight_.assign(count, 0);
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
    std::unique_lock lock(mu_);
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
    // Concurrent Run callers share each shard's workers_per_shard slots.
    int& running = in_flight_[static_cast<size_t>(shard)];
    const int cap = std::max(1, config_.workers_per_shard);
    slot_free_.wait(lock, [&] { return running < cap; });
    ++running;
  }

  // Run the attempt here, against the placed shard's DFS view;
  // ExecuteJobCharged counts the bytes it charges on this thread.
  std::optional<ScopedParallelThreads> width;
  if (config_.threads > 0) {
    width.emplace(config_.threads);
  }
  ExecutionContext shard_ctx = ctx;
  shard_ctx.shard = shard;
  StatusOr<JobResult> out = ExecuteJobCharged(
      job, options.cluster, dfs_->View(shard), shard_ctx, charged);
  {
    std::lock_guard lock(mu_);
    --in_flight_[static_cast<size_t>(shard)];
  }
  slot_free_.notify_all();
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
