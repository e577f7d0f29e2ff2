#include "src/service/plan_cache.h"

#include <algorithm>
#include <sstream>

namespace musketeer {

uint64_t HashSource(const std::string& source) {
  uint64_t h = 1469598103934665603ull;  // FNV offset basis
  for (unsigned char c : source) {
    h ^= c;
    h *= 1099511628211ull;  // FNV prime
  }
  return h;
}

std::string PlanCacheKey(const WorkflowSpec& spec, const RunOptions& options) {
  // The effective engine set is what the partitioner sees: the planner
  // override when present, the run-level restriction otherwise.
  std::vector<EngineKind> engines = EffectivePlanner(options).engines;
  std::sort(engines.begin(), engines.end());
  engines.erase(std::unique(engines.begin(), engines.end()), engines.end());

  // '\x1f' (unit separator) cannot appear in engine/cluster names and makes
  // the workflow-id prefix unambiguous for Invalidate().
  std::ostringstream key;
  key << spec.id << '\x1f' << static_cast<int>(spec.language) << '\x1f'
      << HashSource(spec.source) << '\x1f';
  for (EngineKind kind : engines) {
    key << EngineKindName(kind) << ',';
  }
  // Remaining knobs that change the plan (not just its execution): cluster,
  // codegen flavor, merging/partitioner settings.
  key << '\x1f' << options.cluster.name << ':' << options.cluster.num_nodes
      << '\x1f' << static_cast<int>(options.codegen.flavor) << ':'
      << options.codegen.shared_scans << ':' << options.optimize_ir << ':'
      << options.planner.enable_merging << ':'
      << PartitionStrategyKindName(options.planner.strategy) << ':'
      << options.conservative_first_run;
  return key.str();
}

std::shared_ptr<const WorkflowPlan> PlanCache::Get(const std::string& key) {
  std::lock_guard lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
  return it->second.plan;
}

void PlanCache::Put(const std::string& key,
                    std::shared_ptr<const WorkflowPlan> plan) {
  if (capacity_ == 0) {
    return;
  }
  std::lock_guard lock(mu_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    it->second.plan = std::move(plan);
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    return;
  }
  while (entries_.size() >= capacity_) {
    entries_.erase(lru_.back());
    lru_.pop_back();
  }
  lru_.push_front(key);
  entries_[key] = Entry{std::move(plan), lru_.begin()};
}

void PlanCache::Invalidate(const std::string& workflow_id) {
  const std::string prefix = workflow_id + '\x1f';
  std::lock_guard lock(mu_);
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->first.compare(0, prefix.size(), prefix) == 0) {
      lru_.erase(it->second.lru_pos);
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
}

void PlanCache::Clear() {
  std::lock_guard lock(mu_);
  entries_.clear();
  lru_.clear();
}

size_t PlanCache::size() const {
  std::lock_guard lock(mu_);
  return entries_.size();
}

uint64_t PlanCache::hits() const {
  std::lock_guard lock(mu_);
  return hits_;
}

uint64_t PlanCache::misses() const {
  std::lock_guard lock(mu_);
  return misses_;
}

}  // namespace musketeer
