#include "src/service/service.h"

#include <algorithm>
#include <cassert>
#include <optional>
#include <utility>

#include "src/base/logging.h"
#include "src/base/parallel.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace musketeer {

namespace {

// Service metric handles (function-local statics: map lookup paid once).
Counter& SubmittedCounter() {
  static Counter& c =
      MetricsRegistry::Global().counter("musketeer.service.submitted");
  return c;
}
Counter& RejectedCounter() {
  static Counter& c =
      MetricsRegistry::Global().counter("musketeer.service.rejected");
  return c;
}
Counter& CompletedCounter() {
  static Counter& c =
      MetricsRegistry::Global().counter("musketeer.service.completed");
  return c;
}
Counter& FailedCounter() {
  static Counter& c =
      MetricsRegistry::Global().counter("musketeer.service.failed");
  return c;
}
Counter& PlanCacheHitCounter() {
  static Counter& c =
      MetricsRegistry::Global().counter("musketeer.service.plan_cache.hit");
  return c;
}
Counter& PlanCacheMissCounter() {
  static Counter& c =
      MetricsRegistry::Global().counter("musketeer.service.plan_cache.miss");
  return c;
}
Counter& CancelledCounter() {
  static Counter& c =
      MetricsRegistry::Global().counter("musketeer.service.cancelled");
  return c;
}

// Per-tenant counters carry the tenant id in the metric name, so they cannot
// be cached in function-local statics; the registry lookup is one mutex +
// hash per submission event, far off any kernel hot path.
Counter& TenantCounter(const std::string& tenant, const char* what) {
  return MetricsRegistry::Global().counter(
      "musketeer.service.tenant." + (tenant.empty() ? "default" : tenant) +
      "." + what);
}

}  // namespace

const char* WorkflowStateName(WorkflowState state) {
  switch (state) {
    case WorkflowState::kQueued:
      return "QUEUED";
    case WorkflowState::kRunning:
      return "RUNNING";
    case WorkflowState::kDone:
      return "DONE";
    case WorkflowState::kFailed:
      return "FAILED";
    case WorkflowState::kRejected:
      return "REJECTED";
    case WorkflowState::kCancelled:
      return "CANCELLED";
  }
  return "UNKNOWN";
}

const char* RejectReasonName(RejectReason reason) {
  switch (reason) {
    case RejectReason::kNone:
      return "NONE";
    case RejectReason::kQueueFull:
      return "QUEUE_FULL";
    case RejectReason::kTenantOverQuota:
      return "TENANT_OVER_QUOTA";
    case RejectReason::kShutdown:
      return "SHUTDOWN";
  }
  return "UNKNOWN";
}

// ---- WorkflowTicket --------------------------------------------------------

WorkflowState WorkflowTicket::state() const {
  std::lock_guard lock(mu_);
  return state_;
}

bool WorkflowTicket::terminal() const {
  std::lock_guard lock(mu_);
  return state_ != WorkflowState::kQueued && state_ != WorkflowState::kRunning;
}

void WorkflowTicket::Wait() const {
  std::unique_lock lock(mu_);
  cv_.wait(lock, [&] {
    return state_ != WorkflowState::kQueued && state_ != WorkflowState::kRunning;
  });
}

bool WorkflowTicket::WaitFor(std::chrono::milliseconds timeout) const {
  std::unique_lock lock(mu_);
  return cv_.wait_for(lock, timeout, [&] {
    return state_ != WorkflowState::kQueued && state_ != WorkflowState::kRunning;
  });
}

const StatusOr<RunResult>& WorkflowTicket::result() const {
  std::lock_guard lock(mu_);
  // Contract: result() is only valid once the ticket is terminal. (Checked
  // inline — terminal() would re-lock mu_ and deadlock.)
  assert(state_ != WorkflowState::kQueued && state_ != WorkflowState::kRunning &&
         "WorkflowTicket::result() called on a non-terminal ticket; "
         "call Wait() or WaitFor() first");
  return result_;
}

void WorkflowTicket::Cancel() { cancel_.RequestCancel(); }

RejectReason WorkflowTicket::reject_reason() const {
  std::lock_guard lock(mu_);
  return reject_reason_;
}

double WorkflowTicket::queue_seconds() const {
  std::lock_guard lock(mu_);
  const Clock::time_point until =
      started_at_ == Clock::time_point{} ? finished_at_ : started_at_;
  if (until == Clock::time_point{}) {
    return 0;
  }
  return std::chrono::duration<double>(until - submitted_at_).count();
}

double WorkflowTicket::total_seconds() const {
  std::lock_guard lock(mu_);
  if (finished_at_ == Clock::time_point{}) {
    return 0;
  }
  return std::chrono::duration<double>(finished_at_ - submitted_at_).count();
}

bool WorkflowTicket::plan_cache_hit() const {
  std::lock_guard lock(mu_);
  return plan_cache_hit_;
}

void WorkflowTicket::MarkRunning() {
  std::lock_guard lock(mu_);
  state_ = WorkflowState::kRunning;
  started_at_ = Clock::now();
}

void WorkflowTicket::Finish(WorkflowState state, StatusOr<RunResult> result,
                            bool cache_hit) {
  Finish(state, std::move(result), cache_hit, RejectReason::kNone);
}

void WorkflowTicket::Finish(WorkflowState state, StatusOr<RunResult> result,
                            bool cache_hit, RejectReason reject_reason) {
  {
    std::lock_guard lock(mu_);
    state_ = state;
    result_ = std::move(result);
    finished_at_ = Clock::now();
    plan_cache_hit_ = cache_hit;
    reject_reason_ = reject_reason;
  }
  cv_.notify_all();
}

// ---- WorkflowService -------------------------------------------------------

WorkflowService::WorkflowService(Dfs* dfs, ServiceConfig config)
    : dfs_(dfs),
      config_(std::move(config)),
      queue_(config_.queue_capacity),
      plan_cache_(config_.plan_cache_capacity) {
  for (const auto& [tenant, quota] : config_.tenant_quotas) {
    queue_.SetQuota(tenant, quota);
  }
  if (!config_.manual_start) {
    Start();
  }
}

WorkflowService::~WorkflowService() { Shutdown(); }

void WorkflowService::Start() {
  std::lock_guard lock(mu_);
  if (started_ || shutdown_) {
    return;
  }
  started_ = true;
  workers_.reserve(static_cast<size_t>(config_.num_workers));
  for (int i = 0; i < config_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

WorkflowHandle WorkflowService::MakeTicket(WorkflowSpec spec,
                                           const std::string& tenant) {
  uint64_t id;
  {
    std::lock_guard lock(mu_);
    id = next_id_++;
  }
  // private ctor: not reachable through make_shared
  return WorkflowHandle(new WorkflowTicket(id, std::move(spec), tenant));
}

WorkflowHandle WorkflowService::Submit(WorkflowSpec spec) {
  return Enqueue("", std::move(spec), config_.default_options,
                 /*blocking=*/false);
}

WorkflowHandle WorkflowService::Submit(WorkflowSpec spec, RunOptions options) {
  return Enqueue("", std::move(spec), std::move(options), /*blocking=*/false);
}

WorkflowHandle WorkflowService::SubmitAs(const std::string& tenant,
                                         WorkflowSpec spec) {
  return Enqueue(tenant, std::move(spec), config_.default_options,
                 /*blocking=*/false);
}

WorkflowHandle WorkflowService::SubmitAs(const std::string& tenant,
                                         WorkflowSpec spec, RunOptions options,
                                         DoneCallback on_done) {
  return Enqueue(tenant, std::move(spec), std::move(options),
                 /*blocking=*/false, std::move(on_done));
}

WorkflowHandle WorkflowService::SubmitBlocking(WorkflowSpec spec) {
  return Enqueue("", std::move(spec), config_.default_options,
                 /*blocking=*/true);
}

WorkflowHandle WorkflowService::SubmitBlocking(WorkflowSpec spec,
                                               RunOptions options) {
  return Enqueue("", std::move(spec), std::move(options), /*blocking=*/true);
}

WorkflowHandle WorkflowService::ResubmitIncremental(WorkflowSpec spec) {
  return ResubmitIncrementalAs("", std::move(spec), config_.default_options);
}

WorkflowHandle WorkflowService::ResubmitIncrementalAs(const std::string& tenant,
                                                      WorkflowSpec spec,
                                                      RunOptions options,
                                                      DoneCallback on_done) {
  options.incremental = true;
  return Enqueue(tenant, std::move(spec), std::move(options),
                 /*blocking=*/false, std::move(on_done));
}

WorkflowHandle WorkflowService::Enqueue(const std::string& tenant,
                                        WorkflowSpec spec, RunOptions options,
                                        bool blocking, DoneCallback on_done) {
  WorkflowHandle ticket = MakeTicket(std::move(spec), tenant);
  // Wire cancellation: adopt a caller-supplied token (so the submitter's own
  // handle also works) or mint one; either way Ticket::Cancel() fires it.
  // Done before the queue push — the ticket must be fully wired before any
  // worker can see it.
  if (options.cancel.valid()) {
    ticket->cancel_ = options.cancel;
  } else {
    ticket->cancel_ = CancelToken::Make();
    options.cancel = ticket->cancel_;
  }
  // Pin a relative deadline at submission time so queue wait burns the same
  // budget as execution (enforced at pickup and at every checkpoint after).
  options = PinDeadline(std::move(options));
  {
    // Count the submission as outstanding *before* it is visible to a
    // worker, so Drain() can never observe accepted-but-uncounted work.
    std::lock_guard lock(mu_);
    ++outstanding_;
  }
  QueueItem item{ticket, std::move(options), std::move(on_done)};
  const AdmitResult admitted = blocking
                                   ? queue_.Push(tenant, std::move(item))
                                   : queue_.TryPush(tenant, std::move(item));
  if (admitted != AdmitResult::kOk) {
    RejectReason reason = RejectReason::kShutdown;
    std::string message = "workflow service is shut down";
    if (admitted == AdmitResult::kQueueFull) {
      reason = RejectReason::kQueueFull;
      message = "workflow service queue is full (capacity " +
                std::to_string(queue_.capacity()) + ")";
    } else if (admitted == AdmitResult::kTenantOverQuota) {
      reason = RejectReason::kTenantOverQuota;
      message = "tenant '" + (tenant.empty() ? "default" : tenant) +
                "' is over its queued-submission quota";
    }
    ticket->Finish(WorkflowState::kRejected, ResourceExhaustedError(message),
                   /*cache_hit=*/false, reason);
    OnTicketTerminal(tenant, WorkflowState::kRejected);
    return ticket;
  }
  {
    std::lock_guard lock(mu_);
    ++stats_.submitted;
    ++stats_.tenants[tenant].submitted;
  }
  SubmittedCounter().Increment();
  TenantCounter(tenant, "submitted").Increment();
  return ticket;
}

void WorkflowService::WorkerLoop() {
  // Pin this worker's intra-query parallelism for every workflow it runs;
  // the override is thread-local, so concurrent workers do not interfere.
  std::optional<ScopedParallelThreads> width;
  if (config_.threads > 0) {
    width.emplace(config_.threads);
  }
  while (true) {
    std::optional<FairQueue<QueueItem>::Popped> popped = queue_.Pop();
    if (!popped.has_value()) {
      return;  // closed and drained
    }
    RunOne(popped->item);
    // Strict Pop/OnFinished pairing: releases this tenant's in-flight slot
    // after the run settled, re-arming its lane for the fair scheduler.
    queue_.OnFinished(popped->tenant);
  }
}

void WorkflowService::RunOne(const QueueItem& item) {
  // Enforce cancellation/deadline for work that never left the queue.
  if (item.options.cancel.cancel_requested()) {
    item.ticket->Finish(WorkflowState::kCancelled,
                        CancelledError("workflow '" + item.ticket->spec().id +
                                       "' cancelled while queued"),
                        /*cache_hit=*/false);
    OnTicketTerminal(item.ticket->tenant(), WorkflowState::kCancelled);
    return;
  }
  if (item.options.absolute_deadline.has_value() &&
      std::chrono::steady_clock::now() >= *item.options.absolute_deadline) {
    item.ticket->Finish(
        WorkflowState::kFailed,
        DeadlineExceededError("workflow '" + item.ticket->spec().id +
                              "' exceeded its deadline while queued"),
        /*cache_hit=*/false);
    OnTicketTerminal(item.ticket->tenant(), WorkflowState::kFailed);
    return;
  }
  item.ticket->MarkRunning();
  MLOG_DEBUG << "service: workflow '" << item.ticket->spec().id << "' (#"
             << item.ticket->id() << ") running";

  Span span("service.workflow", "service");
  static Histogram& queue_seconds = MetricsRegistry::Global().histogram(
      "musketeer.service.queue_seconds");
  static Histogram& run_seconds =
      MetricsRegistry::Global().histogram("musketeer.service.run_seconds");
  queue_seconds.Observe(item.ticket->queue_seconds());

  Musketeer m(dfs_);
  const WorkflowSpec& spec = item.ticket->spec();
  // Every run records into (and incremental resubmits reuse from) the
  // service-owned fingerprint store unless the submission brought its own.
  // Does not perturb the plan-cache key — PlanCacheKey hashes only
  // plan-affecting fields, so resubmissions still hit the cached plan.
  RunOptions options = item.options;
  if (options.fingerprints == nullptr) {
    options.fingerprints = &fingerprints_;
  }
  const std::string cache_key = PlanCacheKey(spec, options);

  bool cache_hit = false;
  std::shared_ptr<const WorkflowPlan> plan;
  if (config_.plan_cache_capacity > 0) {
    plan = plan_cache_.Get(cache_key);
    cache_hit = plan != nullptr;
    // Mirrors WorkflowTicket::plan_cache_hit exactly: incremented once per
    // submission that consults the cache (tests assert the agreement).
    if (cache_hit) {
      PlanCacheHitCounter().Increment();
    } else {
      PlanCacheMissCounter().Increment();
    }
  }
  StatusOr<RunResult> result = InternalError("unreachable");
  if (plan == nullptr) {
    StatusOr<WorkflowPlan> built = m.Plan(spec, options);
    if (!built.ok()) {
      result = built.status();
    } else {
      plan = std::make_shared<const WorkflowPlan>(std::move(built).value());
      if (config_.plan_cache_capacity > 0) {
        plan_cache_.Put(cache_key, plan);
      }
    }
  }
  if (plan != nullptr) {
    if (config_.dispatch_latency.count() > 0) {
      // Sliced sleep so a cancellation or deadline interrupts the simulated
      // cluster round-trip instead of blocking behind it.
      auto wake = std::chrono::steady_clock::now() +
                  config_.dispatch_latency * static_cast<int>(plan->plans.size());
      while (std::chrono::steady_clock::now() < wake &&
             !options.cancel.cancel_requested() &&
             !(options.absolute_deadline.has_value() &&
               std::chrono::steady_clock::now() >=
                   *options.absolute_deadline)) {
        auto remaining = wake - std::chrono::steady_clock::now();
        std::this_thread::sleep_for(
            std::min<std::chrono::steady_clock::duration>(
                remaining, std::chrono::milliseconds(10)));
      }
    }
    result = m.Execute(spec, *plan, options);
  }

  WorkflowState state =
      result.ok() ? WorkflowState::kDone : WorkflowState::kFailed;
  if (!result.ok() && result.status().code() == StatusCode::kCancelled) {
    state = WorkflowState::kCancelled;
  }
  if (result.ok()) {
    std::lock_guard lock(mu_);
    stats_.jobs_reused += static_cast<uint64_t>(result->jobs_reused);
    stats_.replans += static_cast<uint64_t>(result->replans);
  }
  if (span.active()) {
    span.SetAttr("workflow", spec.id);
    span.SetAttr("ticket", std::to_string(item.ticket->id()));
    span.SetAttr("cache_hit", cache_hit ? "true" : "false");
    span.SetAttr("state", WorkflowStateName(state));
  }
  run_seconds.Observe(span.elapsed_seconds());
  // Before Finish: a thread that sees DONE also sees what on_done wrote.
  if (state == WorkflowState::kDone && item.on_done) {
    item.on_done(*item.ticket, *result, cache_hit);
  }
  item.ticket->Finish(state, std::move(result), cache_hit);
  OnTicketTerminal(item.ticket->tenant(), state);
}

void WorkflowService::OnTicketTerminal(const std::string& tenant,
                                       WorkflowState state) {
  {
    std::lock_guard lock(mu_);
    TenantStats& tstats = stats_.tenants[tenant];
    switch (state) {
      case WorkflowState::kDone:
        ++stats_.completed;
        ++tstats.completed;
        CompletedCounter().Increment();
        TenantCounter(tenant, "completed").Increment();
        break;
      case WorkflowState::kFailed:
        ++stats_.failed;
        ++tstats.failed;
        FailedCounter().Increment();
        break;
      case WorkflowState::kRejected:
        ++stats_.rejected;
        ++tstats.rejected;
        RejectedCounter().Increment();
        TenantCounter(tenant, "rejected").Increment();
        break;
      case WorkflowState::kCancelled:
        ++stats_.cancelled;
        ++tstats.cancelled;
        CancelledCounter().Increment();
        break;
      default:
        break;
    }
    --outstanding_;
  }
  idle_cv_.notify_all();
}

void WorkflowService::Drain() {
  std::unique_lock lock(mu_);
  idle_cv_.wait(lock, [&] { return outstanding_ == 0; });
}

void WorkflowService::Shutdown() {
  std::vector<std::thread> workers;
  {
    std::lock_guard lock(mu_);
    if (shutdown_) {
      return;
    }
    shutdown_ = true;
    workers.swap(workers_);
  }
  queue_.Close();  // wakes idle workers; queued items still drain
  for (std::thread& t : workers) {
    t.join();
  }
}

ServiceStats WorkflowService::stats() const {
  ServiceStats out;
  {
    std::lock_guard lock(mu_);
    out = stats_;
  }
  out.plan_cache_hits = plan_cache_.hits();
  out.plan_cache_misses = plan_cache_.misses();
  out.queue_depth = queue_.size();
  return out;
}

}  // namespace musketeer
