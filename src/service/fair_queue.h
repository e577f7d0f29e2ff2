// Multi-tenant bounded queue with weighted fair scheduling and per-tenant
// admission control — the workflow service's one submission queue.
//
// A shared server needs one FIFO lane per tenant so a single heavy submitter
// cannot starve everyone behind it. FairQueue keeps a deque per tenant and
// picks the next item by stride
// scheduling: each tenant carries a virtual-time "pass", the eligible tenant
// with the smallest pass is served next, and serving advances its pass by
// 1/weight — so over any busy window tenants drain in proportion to their
// weights (weight 2 dequeues twice as often as weight 1), while a lone
// tenant degenerates to plain FIFO, preserving the single-tenant service
// semantics exactly.
//
// Admission control distinguishes two rejection causes so the HTTP edge can
// map them onto different status codes:
//   * kTenantOverQuota — the tenant exceeded its own max_queued bound
//     (HTTP 429: the client is over its allowance; others are unaffected);
//   * kQueueFull — the shared queue hit global capacity
//     (HTTP 503: the service as a whole is saturated).
// max_in_flight additionally caps how many of a tenant's items may be
// checked out (popped, not yet finished) at once: a tenant at its cap keeps
// its items queued and other tenants are served around it. Pop() and
// OnFinished() form a strict pair — every successful Pop must be matched by
// exactly one OnFinished(tenant) or eligibility accounting wedges.
//
// Backpressure: TryPush rejects when full, Push blocks the producer until a
// slot (and the tenant's allowance) frees up.
//
// Thread-safety: one mutex, two condition variables (producer/consumer);
// Close() makes the queue drain-only and wakes every waiter, which is how
// the service shuts its worker pool down without losing accepted work.

#ifndef MUSKETEER_SRC_SERVICE_FAIR_QUEUE_H_
#define MUSKETEER_SRC_SERVICE_FAIR_QUEUE_H_

#include <algorithm>
#include <cassert>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>

namespace musketeer {

// Per-tenant scheduling weight and admission bounds. The zero values mean
// "unlimited": a default-constructed quota schedules at weight 1 with no
// per-tenant cap, which is the pre-tenant service behavior.
struct TenantQuota {
  int weight = 1;           // relative dequeue share; clamped to >= 1
  size_t max_queued = 0;    // queued items per tenant; 0 = global bound only
  int max_in_flight = 0;    // popped-not-finished items; 0 = unlimited
};

enum class AdmitResult {
  kOk,
  kQueueFull,         // shared capacity exhausted (503)
  kTenantOverQuota,   // this tenant's max_queued exhausted (429)
  kClosed,            // queue shut down
};

template <typename T>
class FairQueue {
 public:
  struct Popped {
    std::string tenant;
    T item;
  };

  explicit FairQueue(size_t capacity) : capacity_(capacity) {}

  FairQueue(const FairQueue&) = delete;
  FairQueue& operator=(const FairQueue&) = delete;

  // Registers `quota` for `tenant`; submissions from unregistered tenants use
  // TenantQuota{}. Safe to call while the queue is live; applies to
  // subsequent admissions and pops.
  void SetQuota(const std::string& tenant, TenantQuota quota) {
    std::lock_guard lock(mu_);
    Lane& lane = lanes_[tenant];
    lane.quota = Clamp(quota);
  }

  // Non-blocking admission.
  AdmitResult TryPush(const std::string& tenant, T item) {
    std::unique_lock lock(mu_);
    AdmitResult verdict = Admissible(tenant);
    if (verdict != AdmitResult::kOk) {
      return verdict;
    }
    Accept(tenant, std::move(item));
    lock.unlock();
    not_empty_.notify_one();
    return AdmitResult::kOk;
  }

  // Blocking admission: waits for queue space (global *and* this tenant's
  // max_queued allowance) instead of rejecting; kClosed if the queue shuts
  // down while waiting.
  AdmitResult Push(const std::string& tenant, T item) {
    std::unique_lock lock(mu_);
    not_full_.wait(lock, [&] {
      return closed_ || Admissible(tenant) == AdmitResult::kOk;
    });
    if (closed_) {
      return AdmitResult::kClosed;
    }
    Accept(tenant, std::move(item));
    lock.unlock();
    not_empty_.notify_one();
    return AdmitResult::kOk;
  }

  // Blocks until some tenant is eligible (queued work and in-flight headroom);
  // nullopt once the queue is closed *and* fully drained. The caller must
  // pair every Popped with one OnFinished(popped.tenant).
  std::optional<Popped> Pop() {
    std::unique_lock lock(mu_);
    not_empty_.wait(lock, [&] {
      return (closed_ && total_queued_ == 0) || PickEligible() != nullptr;
    });
    auto [name, lane] = PickEligibleNamed();
    if (lane == nullptr) {
      return std::nullopt;  // closed and drained
    }
    Popped out{name, std::move(lane->items.front())};
    lane->items.pop_front();
    --total_queued_;
    ++lane->in_flight;
    // Advance virtual time to the served tenant, then charge it one quantum
    // scaled by weight — the stride-scheduling core.
    virtual_time_ = lane->pass;
    lane->pass += 1.0 / lane->quota.weight;
    lock.unlock();
    not_full_.notify_all();
    return out;
  }

  // Releases one in-flight slot for `tenant`, possibly making its queued
  // items eligible again.
  void OnFinished(const std::string& tenant) {
    {
      std::lock_guard lock(mu_);
      Lane& lane = lanes_[tenant];
      assert(lane.in_flight > 0 && "OnFinished without a matching Pop");
      --lane.in_flight;
    }
    not_empty_.notify_all();
  }

  // Makes the queue reject new items and wakes all waiters; queued items
  // still drain through Pop. Idempotent.
  void Close() {
    {
      std::lock_guard lock(mu_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  bool closed() const {
    std::lock_guard lock(mu_);
    return closed_;
  }

  size_t size() const {
    std::lock_guard lock(mu_);
    return total_queued_;
  }

  size_t capacity() const { return capacity_; }

  size_t QueuedFor(const std::string& tenant) const {
    std::lock_guard lock(mu_);
    auto it = lanes_.find(tenant);
    return it == lanes_.end() ? 0 : it->second.items.size();
  }

  int InFlightFor(const std::string& tenant) const {
    std::lock_guard lock(mu_);
    auto it = lanes_.find(tenant);
    return it == lanes_.end() ? 0 : it->second.in_flight;
  }

 private:
  struct Lane {
    std::deque<T> items;
    TenantQuota quota;
    int in_flight = 0;
    double pass = 0;  // stride-scheduling virtual time
  };

  static TenantQuota Clamp(TenantQuota quota) {
    quota.weight = std::max(quota.weight, 1);
    return quota;
  }

  AdmitResult Admissible(const std::string& tenant) {
    if (closed_) {
      return AdmitResult::kClosed;
    }
    if (total_queued_ >= capacity_) {
      return AdmitResult::kQueueFull;
    }
    Lane& lane = lanes_[tenant];
    if (lane.quota.max_queued > 0 &&
        lane.items.size() >= lane.quota.max_queued) {
      return AdmitResult::kTenantOverQuota;
    }
    return AdmitResult::kOk;
  }

  void Accept(const std::string& tenant, T item) {
    Lane& lane = lanes_[tenant];
    if (lane.items.empty()) {
      // A tenant (re)entering the busy set must not have banked credit from
      // its idle time: start at the current virtual time, keeping any debt
      // from its own recent dequeues.
      lane.pass = std::max(lane.pass, virtual_time_);
    }
    lane.items.push_back(std::move(item));
    ++total_queued_;
  }

  bool Eligible(const Lane& lane) const {
    return !lane.items.empty() &&
           (lane.quota.max_in_flight == 0 ||
            lane.in_flight < lane.quota.max_in_flight);
  }

  Lane* PickEligible() {
    return PickEligibleNamed().second;
  }

  // The eligible lane with the smallest pass; ties break on tenant name
  // (std::map iteration order) so scheduling is deterministic.
  std::pair<std::string, Lane*> PickEligibleNamed() {
    Lane* best = nullptr;
    std::string best_name;
    for (auto& [name, lane] : lanes_) {
      if (!Eligible(lane)) {
        continue;
      }
      if (best == nullptr || lane.pass < best->pass) {
        best = &lane;
        best_name = name;
      }
    }
    return {best_name, best};
  }

  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::map<std::string, Lane> lanes_;  // guarded by mu_; ordered for ties
  size_t total_queued_ = 0;            // guarded by mu_
  double virtual_time_ = 0;            // guarded by mu_
  bool closed_ = false;                // guarded by mu_
};

}  // namespace musketeer

#endif  // MUSKETEER_SRC_SERVICE_FAIR_QUEUE_H_
