// Simulated execution engines.
//
// ExecuteJob runs a JobPlan against the DFS: it pulls the job's inputs,
// executes the plan's sub-DAG on real data once, through the shared
// relational kernel (TraceExecuteDag — the one IR interpreter of
// src/ir/eval.h, so results are engine-independent by construction), pushes
// the kernel's outputs back to the DFS, and returns the simulated makespan
// charged according to the engine's performance model (see
// src/backends/perf_model.cc for the calibration and DESIGN.md for the
// substitution rationale).
//
// The ExecutionContext overload is the execution boundary for fault-tolerant
// runs: it observes the context's cancellation token and deadline at phase
// boundaries (and, via ScopedInterrupt, inside the DAG walker's node loop
// and the WHILE driver's trips) and consults the seeded FaultInjector to
// decide whether this attempt fails. It commits the kernel's tables to the
// DFS, which makes cross-engine failover bit-identical (Table::Identical) by
// construction.
//
// Each engine also has its own execution substrate (MapReduce, partitioned
// RDDs, timely dataflow or the vertex runtime). Runs never execute it;
// VerifyOnSubstrate re-runs a job there and checks it against the kernel.

#ifndef MUSKETEER_SRC_ENGINES_ENGINE_H_
#define MUSKETEER_SRC_ENGINES_ENGINE_H_

#include <string>

#include "src/backends/job.h"
#include "src/backends/pricing.h"
#include "src/cluster/dfs.h"
#include "src/engines/execution_context.h"
#include "src/ir/eval.h"

namespace musketeer {

struct JobResult {
  SimSeconds makespan = 0;
  // Measured wall-clock seconds this job took to execute in-process; feeds
  // the RuntimeHistory calibration loop (src/obs/runtime_history.h).
  double wall_seconds = 0;
  Bytes bytes_pulled = 0;
  // Subset of bytes_pulled that came from another shard's DFS partition
  // (always 0 against an unsharded Dfs — see Dfs::IsLocal).
  Bytes bytes_pulled_remote = 0;
  Bytes bytes_pushed = 0;
  int internal_jobs = 1;   // engine jobs actually run (MR loops spawn many)
  int supersteps = 0;      // natively-run iterations
  std::string detail;      // human-readable phase breakdown
  // Observed nominal sizes of every relation the job computed, including
  // loop-body internals at steady state — harvested into the history store
  // so later cost estimates are exact (§5.2).
  std::vector<std::pair<std::string, Bytes>> observed_sizes;
  // True when the executor skipped this job and served its outputs from the
  // DFS on a fingerprint match (incremental resubmission). Set by the
  // executor, never by ExecuteJob.
  bool reused = false;
};

// Executes `plan` on `cluster` under `ctx`, reading inputs from and writing
// outputs to `dfs`. On success the job's output relations are stored in the
// DFS. Errors with a retryable code (see IsRetryable) leave the DFS
// untouched — outputs are committed only after the full attempt succeeds —
// so the dispatcher can re-run the job on the same or another engine.
StatusOr<JobResult> ExecuteJob(const JobPlan& plan, const ClusterConfig& cluster,
                               Dfs* dfs, const ExecutionContext& ctx);

// Re-runs `plan` on its engine's own substrate over `base` (the relations
// the job read) and checks every declared output against `kernel_outputs`
// (what the shared kernel committed for it). Substrates may legitimately
// differ from the kernel in row order and floating-point summation order
// (combiners, partitioned reduces), so the check is SameContent; a mismatch
// or a missing output is kAborted naming the output and `job@Engine`.
// SerialC has no substrate of its own — the kernel IS the serial
// implementation — so it always passes.
Status VerifyOnSubstrate(const JobPlan& plan, const TableMap& base,
                         const TableMap& kernel_outputs);

}  // namespace musketeer

#endif  // MUSKETEER_SRC_ENGINES_ENGINE_H_
