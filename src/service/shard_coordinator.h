// Cross-shard workflow fan-out.
//
// The ShardCoordinator is the front of a sharded Musketeer deployment: one
// ShardedDfs (M partitions behind a ShardMap directory) whose per-shard DFS
// views the jobs execute against. A workflow is planned ONCE against the
// global namespace — parse→optimize→partition→codegen are shard-agnostic —
// and then each job of the plan is *placed* by ShardPlacer
// (src/scheduler/placement.h):
//
//   - kLocality (default): the job goes to the alive shard holding the most
//     of its input bytes at their actual current DFS sizes, lowest shard id
//     on ties — the shard that fetches the fewest bytes cross-shard. Its
//     outputs are then pinned there (placement-near-data), so consumer jobs
//     chain onto the same shard unless a bigger input pulls them elsewhere.
//   - kRandom: seeded hash of the job name — the locality-blind control arm
//     bench_shard_scaling compares against.
//
// Placement is the coordinator's only job. It plugs into Musketeer::Execute
// as that loop's JobRunner, so a sharded run shares everything else with an
// unsharded one: fingerprint reuse, per-engine retries and cross-engine
// failover (src/core/job_dispatch.h), calibration, suffix re-planning, sink
// collection and history. Each attempt runs on the thread that called Run,
// against the placed shard's DFS view; the coordinator owns no threads.
// A dead shard (DrainShard, or the seeded shard-fault config) leaves
// placement, so later attempts place among the shards still alive by the
// same byte rule; an attempt already running there finishes.
// The dead shard's DFS partition survives (the HDFS-replication stand-in):
// reads fall back to a directory-repairing scan, so results stay
// Table::Identical to the 1-shard run even across shard deaths.

#ifndef MUSKETEER_SRC_SERVICE_SHARD_COORDINATOR_H_
#define MUSKETEER_SRC_SERVICE_SHARD_COORDINATOR_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/cluster/sharded_dfs.h"
#include "src/core/musketeer.h"
#include "src/scheduler/placement.h"

namespace musketeer {

struct CoordinatorConfig {
  PlacementPolicy placement = PlacementPolicy::kLocality;
  uint64_t placement_seed = 0;  // kRandom's determinism knob
  // The most attempts that run on one shard at once when several threads
  // call Run concurrently; a placed attempt waits for a free slot on its
  // shard. perfbench's shard_batch workload pins this field.
  int workers_per_shard = 2;
  // Intra-query width each attempt runs its kernels at; 0 inherits the
  // calling thread's.
  int threads = 0;
  // Seeded shard-fault injection: once the coordinator has dispatched
  // `fault_after_dispatches` jobs, shard `fault_shard`'s compute dies — it
  // is removed from placement, and that dispatch and every later one place
  // among the other shards. Its DFS partition stays readable. -1 disables.
  int fault_shard = -1;
  int fault_after_dispatches = 0;
  // Applied to Run(workflow) calls that carry no options.
  RunOptions default_options;
};

struct CoordinatorStats {
  uint64_t jobs_dispatched = 0;
  uint64_t placements = 0;
  uint64_t locality_hits = 0;       // chose a byte-optimal shard
  Bytes placed_cross_shard_bytes = 0;  // placer's accounting at decision time
  std::vector<uint64_t> jobs_per_shard;
  // Mirrors of the ShardedDfs fetch accounting (measured, not predicted).
  uint64_t remote_fetches = 0;
  Bytes remote_bytes_fetched = 0;
  double measured_remote_mbps = 0;
};

class ShardCoordinator {
 public:
  // `dfs` is the sharded storage layer; not owned, must outlive the
  // coordinator.
  explicit ShardCoordinator(ShardedDfs* dfs, CoordinatorConfig config = {});

  ShardCoordinator(const ShardCoordinator&) = delete;
  ShardCoordinator& operator=(const ShardCoordinator&) = delete;

  // Plans `workflow` against the global namespace and runs it through
  // Musketeer::Execute with placement as the job runner, so its jobs fan out
  // across the shards. Every attempt runs on the calling thread; several
  // threads may call Run at once. Blocking; the returned RunResult is
  // byte-for-byte comparable to an unsharded Musketeer::Run (same makespan
  // accounting, outputs Table::Identical at any shard count).
  StatusOr<RunResult> Run(const WorkflowSpec& workflow);
  StatusOr<RunResult> Run(const WorkflowSpec& workflow, RunOptions options);

  // Removes a shard from placement (its partition stays readable); jobs
  // re-place onto the remaining shards. Idempotent.
  void DrainShard(int shard);
  bool IsShardAlive(int shard) const;

  int num_shards() const { return dfs_->num_shards(); }
  ShardedDfs* dfs() { return dfs_; }

  CoordinatorStats stats() const;

 private:
  // The JobRunner Run() hands to Execute: place `job` and run it here
  // against the placed shard's DFS view.
  StatusOr<JobResult> DispatchAttempt(const JobPlan& job,
                                      const ExecutionContext& ctx,
                                      const RunOptions& options);

  std::vector<int> AliveShardsLocked() const;  // requires mu_
  void KillShardLocked(int shard);             // requires mu_

  ShardedDfs* const dfs_;
  const CoordinatorConfig config_;
  ShardPlacer placer_;  // guarded by mu_ (stats are plain members)

  mutable std::mutex mu_;
  std::condition_variable slot_free_;  // an in_flight_ count dropped
  std::vector<char> alive_;       // guarded by mu_
  uint64_t dispatches_ = 0;       // guarded by mu_
  bool fault_fired_ = false;      // guarded by mu_
  std::vector<uint64_t> jobs_per_shard_;  // guarded by mu_
  std::vector<int> in_flight_;    // guarded by mu_; attempts running per shard
};

}  // namespace musketeer

#endif  // MUSKETEER_SRC_SERVICE_SHARD_COORDINATOR_H_
