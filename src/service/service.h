// Concurrent multi-tenant workflow service.
//
// The paper's Musketeer is a long-running manager that many users submit
// workflows to; this service supplies that front door. Submissions enter a
// bounded queue (backpressure: a full queue REJECTs non-blocking submits)
// and a pool of worker threads drains it, each worker driving the full
// parse→optimize→partition→codegen→execute pipeline against one shared Dfs
// and one shared HistoryStore. Repeated submissions of an identical
// workflow hit the plan cache and skip straight to execution.
//
// Lifecycle of a submission:
//   Submit()         → QUEUED   (or REJECTED when the queue is full)
//   worker picks up  → RUNNING
//   pipeline result  → DONE / FAILED
//   Ticket::Cancel() → CANCELLED (queued work settles at pickup; running
//                      work unwinds at the next cooperative checkpoint)
//
// Deadlines (RunOptions::deadline) are enforced for queued AND running work:
// Enqueue pins the absolute deadline at submission time, so time spent
// waiting in the queue burns the same budget as execution.
//
// Every submission returns a WorkflowHandle — a future-like ticket with the
// terminal-state wait, the StatusOr<RunResult>, and queue/total latency
// measurements (the service's SLO surface).
//
// Thread-safety contract (see DESIGN.md "Workflow service"): Dfs and
// HistoryStore are internally synchronized; WorkflowPlan and Table are
// immutable once published; the service's own state (tickets, stats) is
// guarded by per-object mutexes. Per-run RunResult.dfs_bytes_* totals are
// the sums of the run's own JobResults, so each run's numbers are exact even
// while other workflows execute concurrently against the same DFS.

#ifndef MUSKETEER_SRC_SERVICE_SERVICE_H_
#define MUSKETEER_SRC_SERVICE_SERVICE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/core/musketeer.h"
#include "src/service/fair_queue.h"
#include "src/service/plan_cache.h"

namespace musketeer {

enum class WorkflowState {
  kQueued,
  kRunning,
  kDone,
  kFailed,
  kRejected,
  kCancelled,
};

const char* WorkflowStateName(WorkflowState state);

// Why a submission was REJECTED. The network edge maps these onto distinct
// HTTP status codes: over-quota is the tenant's own fault (429), queue-full
// and shutdown are service-side saturation (503).
enum class RejectReason {
  kNone,            // not rejected
  kQueueFull,       // shared submission queue at capacity
  kTenantOverQuota, // this tenant's max_queued allowance exhausted
  kShutdown,        // service no longer accepting work
};

const char* RejectReasonName(RejectReason reason);

// Future-like per-submission ticket. Created by WorkflowService::Submit;
// shared between the submitter and the worker that runs the workflow.
class WorkflowTicket {
 public:
  uint64_t id() const { return id_; }
  const WorkflowSpec& spec() const { return spec_; }
  // Tenant this submission was admitted under; "" is the default tenant.
  const std::string& tenant() const { return tenant_; }

  // Why the submission was REJECTED; kNone in every other state.
  RejectReason reject_reason() const;

  WorkflowState state() const;
  bool terminal() const;  // DONE, FAILED, REJECTED or CANCELLED

  // Requests cooperative cancellation. Queued work settles as CANCELLED at
  // worker pickup; running work unwinds at its next checkpoint (between
  // stages, jobs, or kernel batches) and settles as CANCELLED. Safe to call
  // from any thread, repeatedly, and in any state (no-op once terminal).
  void Cancel();

  // Blocks until the ticket reaches a terminal state.
  void Wait() const;
  // Bounded wait; false on timeout.
  bool WaitFor(std::chrono::milliseconds timeout) const;

  // The pipeline outcome. CONTRACT: only valid in a terminal state — call
  // Wait()/WaitFor() first; calling on a QUEUED or RUNNING ticket is a
  // programming error (asserts in debug builds). FAILED carries the pipeline
  // error, REJECTED a ResourceExhausted status, CANCELLED a Cancelled status.
  const StatusOr<RunResult>& result() const;

  // Seconds spent QUEUED (submit → worker pickup) and submit → terminal.
  // Wall-clock, not simulated time.
  double queue_seconds() const;
  double total_seconds() const;

  // True when execution reused a cached plan.
  bool plan_cache_hit() const;

 private:
  friend class WorkflowService;
  using Clock = std::chrono::steady_clock;

  WorkflowTicket(uint64_t id, WorkflowSpec spec, std::string tenant)
      : id_(id),
        spec_(std::move(spec)),
        tenant_(std::move(tenant)),
        submitted_at_(Clock::now()) {}

  void MarkRunning();
  void Finish(WorkflowState state, StatusOr<RunResult> result, bool cache_hit);
  void Finish(WorkflowState state, StatusOr<RunResult> result, bool cache_hit,
              RejectReason reject_reason);

  const uint64_t id_;
  const WorkflowSpec spec_;
  const std::string tenant_;
  const Clock::time_point submitted_at_;
  // Fires the run's cooperative cancellation. Set once by Enqueue (either
  // adopted from caller-supplied RunOptions or freshly made) before the
  // ticket is visible to a worker; the token itself is thread-safe.
  CancelToken cancel_;

  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  WorkflowState state_ = WorkflowState::kQueued;          // guarded by mu_
  RejectReason reject_reason_ = RejectReason::kNone;      // guarded by mu_
  StatusOr<RunResult> result_{InternalError("workflow not finished")};
  Clock::time_point started_at_{};                        // guarded by mu_
  Clock::time_point finished_at_{};                       // guarded by mu_
  bool plan_cache_hit_ = false;                           // guarded by mu_
};

using WorkflowHandle = std::shared_ptr<WorkflowTicket>;

// Runs on the worker that finished a submission successfully, after the run
// and before its ticket turns DONE, with the result the ticket is about to
// hold and whether the run reused a cached plan. Whatever it publishes is
// therefore in place before any thread can observe DONE; the network edge
// encodes the /result body here (src/net/server.h). Its time counts in the
// ticket's total_seconds, which ends at DONE, but not in
// musketeer.service.run_seconds, which is observed before it runs.
using DoneCallback = std::function<void(
    const WorkflowTicket& ticket, const RunResult& result, bool cache_hit)>;

struct ServiceConfig {
  int num_workers = 4;
  size_t queue_capacity = 64;
  // Plan cache for repeated submissions; capacity 0 disables it.
  size_t plan_cache_capacity = 128;
  // Applied to every submission that does not carry its own RunOptions.
  // `default_options.history` is how the shared HistoryStore is plumbed in.
  RunOptions default_options;
  // Intra-query parallelism per worker: each worker thread runs its
  // workflows' data-plane kernels at this width. 0 inherits the process
  // default (MUSKETEER_THREADS env, else hardware concurrency).
  int threads = 0;
  // Models the synchronous round-trip of dispatching one engine job to a
  // remote cluster (the paper's deployment blocks on Hadoop/Spark job
  // submission). Charged per engine job as real wall-clock sleep; this wait
  // — not CPU — is what the worker pool overlaps. 0 disables it.
  std::chrono::milliseconds dispatch_latency{0};
  // When set, the constructor does not spawn workers; call Start(). Lets
  // tests fill the queue deterministically before anything drains it.
  bool manual_start = false;
  // Per-tenant weighted-fair-share and admission bounds (see fair_queue.h).
  // Tenants not named here get TenantQuota{} (weight 1, no caps), so a
  // single anonymous tenant behaves like a plain FIFO service.
  std::vector<std::pair<std::string, TenantQuota>> tenant_quotas;
};

// Per-tenant slice of the service counters, keyed by tenant id in
// ServiceStats::tenants ("" = the default tenant).
struct TenantStats {
  uint64_t submitted = 0;
  uint64_t rejected = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t cancelled = 0;
};

struct ServiceStats {
  uint64_t submitted = 0;  // accepted into the queue
  uint64_t rejected = 0;   // bounced off the full queue or over quota
  uint64_t completed = 0;  // DONE
  uint64_t failed = 0;     // FAILED (including deadline expiry)
  uint64_t cancelled = 0;  // CANCELLED
  uint64_t plan_cache_hits = 0;
  uint64_t plan_cache_misses = 0;
  // Fingerprint-reused jobs across completed runs (incremental execution,
  // src/stream/fingerprint.h).
  uint64_t jobs_reused = 0;
  // Mid-run suffix re-partitions across completed runs (DESIGN.md "Planner
  // at scale").
  uint64_t replans = 0;
  size_t queue_depth = 0;  // instantaneous
  // Ordered so exposition (/metrics, /stats) is deterministic.
  std::map<std::string, TenantStats> tenants;
};

class WorkflowService {
 public:
  // `dfs` is the shared storage layer every workflow reads and writes; not
  // owned. Workers start immediately unless config.manual_start.
  explicit WorkflowService(Dfs* dfs, ServiceConfig config = {});

  // Drains in-flight work (Shutdown) before destruction.
  ~WorkflowService();

  WorkflowService(const WorkflowService&) = delete;
  WorkflowService& operator=(const WorkflowService&) = delete;

  // Spawns the worker pool. Idempotent; only needed with manual_start.
  void Start();

  // Non-blocking submission with the service-wide default options; returns
  // a REJECTED ticket when the queue is full, the tenant is over quota, or
  // the service is shut down (ticket->reject_reason() says which).
  WorkflowHandle Submit(WorkflowSpec spec);
  WorkflowHandle Submit(WorkflowSpec spec, RunOptions options);

  // Tenant-attributed submission: admitted against `tenant`'s quota and
  // scheduled in its weighted-fair lane. The plain Submit overloads are
  // equivalent to SubmitAs("", ...), the default tenant.
  WorkflowHandle SubmitAs(const std::string& tenant, WorkflowSpec spec);
  // `on_done`, when set, runs on the worker before the ticket turns DONE.
  WorkflowHandle SubmitAs(const std::string& tenant, WorkflowSpec spec,
                          RunOptions options, DoneCallback on_done = nullptr);

  // Blocking submission: waits for queue space (global and per-tenant)
  // instead of rejecting (REJECTED only if the service shuts down while
  // waiting).
  WorkflowHandle SubmitBlocking(WorkflowSpec spec);
  WorkflowHandle SubmitBlocking(WorkflowSpec spec, RunOptions options);

  // Incremental resubmission (DESIGN.md "Incremental execution"): re-runs
  // `spec` with RunOptions::incremental set, so any job whose input
  // fingerprint — recorded by this service's earlier run of the workflow —
  // still matches the DFS is skipped and its outputs served from storage.
  // After a base-relation append, only the affected DAG suffix recomputes;
  // the result is bit-identical to a cold run.
  WorkflowHandle ResubmitIncremental(WorkflowSpec spec);
  WorkflowHandle ResubmitIncrementalAs(const std::string& tenant,
                                       WorkflowSpec spec, RunOptions options,
                                       DoneCallback on_done = nullptr);

  // Blocks until every accepted submission has reached a terminal state.
  // New submissions may still arrive while draining.
  void Drain();

  // Stops accepting submissions, finishes queued + running work, joins the
  // workers. Idempotent.
  void Shutdown();

  // Counter visibility: a submission's terminal state is published to its
  // ticket *before* the service counters update, so after Ticket::Wait()
  // the ticket is settled but stats() may trail by that submission; after
  // Drain() the counters cover everything accepted so far.
  ServiceStats stats() const;

  int num_workers() const { return config_.num_workers; }
  size_t queue_capacity() const { return queue_.capacity(); }
  // The storage layer this service executes against.
  Dfs* dfs() const { return dfs_; }
  // The options applied to submissions that carry none — the network edge
  // copies these to layer per-request settings (deadlines) on top.
  const RunOptions& default_options() const { return config_.default_options; }
  // The service-owned fingerprint store every run records into (unless the
  // submission brought its own via RunOptions::fingerprints). Internally
  // synchronized; exposed so tests and embedding tools can inspect/clear it.
  FingerprintStore* fingerprint_store() { return &fingerprints_; }

 private:
  struct QueueItem {
    WorkflowHandle ticket;
    RunOptions options;
    DoneCallback on_done;  // optional; see SubmitAs
  };

  WorkflowHandle MakeTicket(WorkflowSpec spec, const std::string& tenant);
  WorkflowHandle Enqueue(const std::string& tenant, WorkflowSpec spec,
                         RunOptions options, bool blocking,
                         DoneCallback on_done = nullptr);
  void WorkerLoop();
  void RunOne(const QueueItem& item);
  void OnTicketTerminal(const std::string& tenant, WorkflowState state);

  Dfs* const dfs_;
  const ServiceConfig config_;
  FairQueue<QueueItem> queue_;
  PlanCache plan_cache_;
  // Per-job input fingerprints across every run this service executed;
  // consulted (and required) by ResubmitIncremental. FingerprintStore is
  // internally synchronized, so concurrent workers share it directly.
  FingerprintStore fingerprints_;

  mutable std::mutex mu_;
  std::condition_variable idle_cv_;
  std::vector<std::thread> workers_;  // guarded by mu_ (spawn/join)
  bool started_ = false;              // guarded by mu_
  bool shutdown_ = false;             // guarded by mu_
  uint64_t next_id_ = 1;              // guarded by mu_
  uint64_t outstanding_ = 0;          // accepted, not yet terminal
  ServiceStats stats_;                // guarded by mu_ (counter fields)
};

}  // namespace musketeer

#endif  // MUSKETEER_SRC_SERVICE_SERVICE_H_
