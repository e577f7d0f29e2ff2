#include "src/scheduler/partition_strategy.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "src/base/parallel.h"
#include "src/base/rng.h"

namespace musketeer {

namespace {

std::vector<EngineKind> EnginesOrDefault(const PlannerConfig& config) {
  if (!config.engines.empty()) {
    return config.engines;
  }
  return std::vector<EngineKind>(kAllEngines.begin(), kAllEngines.end());
}

// Operator (non-INPUT) ids in topological order. Node ids are assigned in
// construction order, which the front-ends emit depth-first — this is the
// single linear ordering the DP heuristic explores (§5.1.2, §8/Fig. 16).
std::vector<int> OperatorOrder(const Dag& dag) {
  std::vector<int> ops;
  for (const OperatorNode& n : dag.nodes()) {
    if (n.kind != OpKind::kInput) {
      ops.push_back(n.id);
    }
  }
  return ops;
}

// Randomized Kahn's algorithm: an alternative topological order of the
// operators. A pure function of `seed` — no std::random_device anywhere —
// so any multi-order run replays bit-identically.
std::vector<int> RandomTopoOrder(const Dag& dag, uint64_t seed) {
  Rng rng(seed);
  std::vector<int> indegree(dag.num_nodes(), 0);
  for (const OperatorNode& n : dag.nodes()) {
    for (int in : n.inputs) {
      (void)in;
      ++indegree[n.id];
    }
  }
  std::vector<int> ready;
  for (const OperatorNode& n : dag.nodes()) {
    if (indegree[n.id] == 0) {
      ready.push_back(n.id);
    }
  }
  std::vector<int> order;
  while (!ready.empty()) {
    size_t pick = rng.NextBounded(ready.size());
    int id = ready[pick];
    ready.erase(ready.begin() + static_cast<long>(pick));
    if (dag.node(id).kind != OpKind::kInput) {
      order.push_back(id);
    }
    for (int c : dag.ConsumersOf(id)) {
      if (--indegree[c] == 0) {
        ready.push_back(c);
      }
    }
  }
  return order;
}

// Cheapest of `engines` for the summarized job, first on ties;
// kInfiniteCost if none prices it. Every engine must be able to run the job.
std::pair<EngineKind, double> CheapestEngine(const CostModel& model,
                                             const SegmentSummary& summary,
                                             const std::vector<EngineKind>& engines) {
  EngineKind best = engines[0];
  double best_cost = kInfiniteCost;
  for (EngineKind e : engines) {
    double c = model.PriceSummary(summary, e);
    if (c < best_cost) {
      best_cost = c;
      best = e;
    }
  }
  return {best, best_cost};
}

// Effective DP merge window. Unbounded DP is O(N²) segments with O(len)
// cost each — cubic, and dead at 1000 operators. A window keeps planning
// linear in N while giving up nothing in practice: a single job spanning
// dozens of operators never wins on cost (PUSH/PULL amortization saturates
// long before that), so segments beyond the window are noise. Within the
// window, an engine stops being priced at the first segment it cannot run
// as one job, so only runnable segments are priced.
int EffectiveSegmentCap(int n) {
  return n > kDpSegmentCapAbove ? kDpSegmentCap : n;
}

StatusOr<Partitioning> PartitionDpOnOrder(const Dag& dag, const CostModel& model,
                                          const std::vector<Bytes>& sizes,
                                          const PlannerConfig& config,
                                          const std::vector<int>& order) {
  std::vector<EngineKind> engines = EnginesOrDefault(config);
  const int n = static_cast<int>(order.size());
  if (n == 0) {
    return InvalidArgumentError("workflow has no operators");
  }
  const int cap = std::max(1, EffectiveSegmentCap(n));

  // best[i]: cheapest way to run the first i operators; boundary[i]/engine[i]
  // reconstruct the final segment of that prefix.
  std::vector<double> best(n + 1, kInfiniteCost);
  std::vector<int> boundary(n + 1, 0);
  std::vector<EngineKind> engine_of(n + 1, engines[0]);
  best[0] = 0;

  std::vector<int> segment;  // sorted by id
  std::vector<EngineKind> live;
  SegmentSummary summary;
  for (int i = 1; i <= n; ++i) {
    int min_k = config.enable_merging ? std::max(0, i - cap) : i - 1;
    // segment = order[k, i), grown one operator per step and kept sorted
    // by insertion (CanRunAsSingleJob does not depend on its order).
    // CanRunAsSingleJob is monotone under growth: an unsupported operator
    // stays in the segment, and shuffle count and loop-singleton size only
    // grow. So an engine that rejects the segment rejects every longer one:
    // drop it for the rest of the window, and end the window when no
    // engine is left. Each segment is summarized once and priced for every
    // live engine.
    segment.clear();
    live = engines;
    for (int k = i - 1; k >= min_k; --k) {
      segment.insert(
          std::lower_bound(segment.begin(), segment.end(), order[k]),
          order[k]);
      live.erase(std::remove_if(live.begin(), live.end(),
                                [&](EngineKind e) {
                                  return !BackendFor(e).CanRunAsSingleJob(
                                      dag, segment);
                                }),
                 live.end());
      if (live.empty()) {
        break;
      }
      if (best[k] == kInfiniteCost) {
        continue;
      }
      model.Summarize(dag, segment, sizes, &summary);
      auto [eng, cost] = CheapestEngine(model, summary, live);
      if (cost == kInfiniteCost) {
        continue;
      }
      if (best[k] + cost < best[i]) {
        best[i] = best[k] + cost;
        boundary[i] = k;
        engine_of[i] = eng;
      }
    }
  }

  if (best[n] == kInfiniteCost) {
    return FailedPreconditionError(
        "no engine combination can execute this workflow");
  }

  Partitioning out;
  out.total_cost = best[n];
  int i = n;
  while (i > 0) {
    int k = boundary[i];
    JobAssignment job;
    job.ops.assign(order.begin() + k, order.begin() + i);
    job.engine = engine_of[i];
    job.cost = best[i] - best[k];
    out.jobs.push_back(std::move(job));
    i = k;
  }
  std::reverse(out.jobs.begin(), out.jobs.end());
  return out;
}

// DP over the construction order plus `orders - 1` seeded shuffles; the
// cheapest partitioning over all orders wins (§8's remedy for merge
// opportunities one linear order breaks, Fig. 16).
StatusOr<Partitioning> PartitionDpMulti(const Dag& dag, const CostModel& model,
                                        const std::vector<Bytes>& sizes,
                                        const PlannerConfig& config,
                                        int orders) {
  auto best = PartitionDpOnOrder(dag, model, sizes, config, OperatorOrder(dag));
  for (int i = 1; i < orders; ++i) {
    std::vector<int> order =
        RandomTopoOrder(dag, kDpOrderSeed + static_cast<uint64_t>(i));
    auto candidate = PartitionDpOnOrder(dag, model, sizes, config, order);
    if (!candidate.ok()) {
      continue;
    }
    if (!best.ok() || candidate->total_cost < best->total_cost) {
      best = std::move(candidate);
    }
  }
  return best;
}

bool ConnectedToJob(const Dag& dag, int op, const std::vector<int>& job) {
  for (int in : dag.node(op).inputs) {
    for (int member : job) {
      if (member == in) {
        return true;
      }
    }
  }
  return false;
}

bool SomeEngineRuns(const Dag& dag, const std::vector<EngineKind>& engines,
                    const std::vector<int>& job) {
  for (EngineKind e : engines) {
    if (BackendFor(e).CanRunAsSingleJob(dag, job)) {
      return true;
    }
  }
  return false;
}

// Exhaustive enumeration state. One instance searches either the full tree
// (Run) or, when seeded with a prefix assignment, one subtree of the
// parallel search (Seed + Search).
class ExhaustiveSearch {
 public:
  ExhaustiveSearch(const Dag& dag, const CostModel& model,
                   const std::vector<Bytes>& sizes,
                   const std::vector<EngineKind>& engines, bool enable_merging)
      : dag_(dag),
        model_(model),
        sizes_(sizes),
        engines_(engines),
        merging_(enable_merging),
        order_(OperatorOrder(dag)) {}

  StatusOr<Partitioning> Run() {
    if (order_.empty()) {
      return InvalidArgumentError("workflow has no operators");
    }
    assignment_.assign(dag_.num_nodes(), -1);
    Recurse(0);
    if (best_cost_ == kInfiniteCost) {
      return FailedPreconditionError(
          "no engine combination can execute this workflow");
    }
    Partitioning out;
    out.total_cost = best_cost_;
    out.jobs = best_jobs_;
    return out;
  }

  // Seeds the search with a fixed assignment of the first `idx` operators in
  // enumeration order; Search() then explores exactly the completions of
  // that prefix (one subtree of the sequential recursion).
  void Seed(const std::vector<std::vector<int>>& jobs, size_t idx) {
    assignment_.assign(dag_.num_nodes(), -1);
    jobs_ = jobs;
    for (size_t j = 0; j < jobs_.size(); ++j) {
      for (int op : jobs_[j]) {
        assignment_[op] = static_cast<int>(j);
      }
    }
    seed_idx_ = idx;
  }

  // A shared lower bound on the cost of the best candidate any concurrent
  // subtree has committed. Pruning against it is strict (>), so a candidate
  // tying the global minimum is never pruned — the winning subtree finds
  // exactly the candidate the sequential search would.
  void set_shared_bound(std::atomic<double>* bound) { shared_bound_ = bound; }

  void Search() { Recurse(seed_idx_); }

  bool found() const { return best_cost_ < kInfiniteCost; }
  double best_cost() const { return best_cost_; }
  const std::vector<JobAssignment>& best_jobs() const { return best_jobs_; }

 private:
  void Recurse(size_t idx) {
    if (idx == order_.size()) {
      Finalize();
      return;
    }
    int op = order_[idx];
    if (merging_) {
      // Try extending every existing job the operator connects to.
      for (size_t j = 0; j < jobs_.size(); ++j) {
        if (!ConnectedToJob(dag_, op, jobs_[j])) {
          continue;
        }
        jobs_[j].push_back(op);
        if (SomeEngineRuns(dag_, engines_, jobs_[j])) {
          assignment_[op] = static_cast<int>(j);
          Recurse(idx + 1);
          assignment_[op] = -1;
        }
        jobs_[j].pop_back();
      }
    }
    // Or start a fresh job.
    jobs_.push_back({op});
    assignment_[op] = static_cast<int>(jobs_.size()) - 1;
    Recurse(idx + 1);
    assignment_[op] = -1;
    jobs_.pop_back();
  }

  // Quotient graph over jobs must be acyclic (a job can only start once all
  // jobs it reads from finished).
  bool QuotientAcyclic() const {
    size_t m = jobs_.size();
    std::vector<std::unordered_set<int>> succ(m);
    std::vector<int> indegree(m, 0);
    for (size_t j = 0; j < m; ++j) {
      for (int op : jobs_[j]) {
        for (int in : dag_.node(op).inputs) {
          int pj = assignment_[in];
          if (pj >= 0 && pj != static_cast<int>(j)) {
            if (succ[pj].insert(static_cast<int>(j)).second) {
              ++indegree[j];
            }
          }
        }
      }
    }
    std::vector<int> queue;
    for (size_t j = 0; j < m; ++j) {
      if (indegree[j] == 0) {
        queue.push_back(static_cast<int>(j));
      }
    }
    size_t seen = 0;
    while (seen < queue.size()) {
      int j = queue[seen++];
      for (int s : succ[j]) {
        if (--indegree[s] == 0) {
          queue.push_back(s);
        }
      }
    }
    return seen == m;
  }

  void Finalize() {
    if (!QuotientAcyclic()) {
      return;
    }
    double total = 0;
    std::vector<JobAssignment> result;
    for (const std::vector<int>& job : jobs_) {
      auto [eng, cost] = CachedBestEngine(job);
      if (cost == kInfiniteCost) {
        return;
      }
      total += cost;
      if (total >= best_cost_) {
        return;  // prune
      }
      if (shared_bound_ != nullptr &&
          total > shared_bound_->load(std::memory_order_relaxed)) {
        return;  // prune against concurrent subtrees (strict: ties survive)
      }
      JobAssignment a;
      a.ops = job;
      std::sort(a.ops.begin(), a.ops.end());
      a.engine = eng;
      a.cost = cost;
      result.push_back(std::move(a));
    }
    best_cost_ = total;
    if (shared_bound_ != nullptr) {
      double cur = shared_bound_->load(std::memory_order_relaxed);
      while (total < cur &&
             !shared_bound_->compare_exchange_weak(cur, total,
                                                   std::memory_order_relaxed)) {
      }
    }
    // Order jobs topologically over the quotient graph so downstream
    // execution can run them front-to-back.
    size_t m = result.size();
    std::vector<std::unordered_set<int>> succ(m);
    std::vector<int> indegree(m, 0);
    std::unordered_map<int, int> job_of;
    for (size_t j = 0; j < m; ++j) {
      for (int op : result[j].ops) {
        job_of[op] = static_cast<int>(j);
      }
    }
    for (size_t j = 0; j < m; ++j) {
      for (int op : result[j].ops) {
        for (int in : dag_.node(op).inputs) {
          auto it = job_of.find(in);
          if (it != job_of.end() && it->second != static_cast<int>(j)) {
            if (succ[it->second].insert(static_cast<int>(j)).second) {
              ++indegree[j];
            }
          }
        }
      }
    }
    std::vector<JobAssignment> ordered;
    std::vector<int> queue;
    for (size_t j = 0; j < m; ++j) {
      if (indegree[j] == 0) {
        queue.push_back(static_cast<int>(j));
      }
    }
    // Stable tie-break by smallest op id keeps output deterministic.
    std::sort(queue.begin(), queue.end(), [&result](int a, int b) {
      return result[a].ops.front() < result[b].ops.front();
    });
    size_t head = 0;
    while (head < queue.size()) {
      int j = queue[head++];
      ordered.push_back(result[j]);
      for (int s : succ[j]) {
        if (--indegree[s] == 0) {
          queue.push_back(s);
        }
      }
    }
    best_jobs_ = std::move(ordered);
  }

  std::pair<EngineKind, double> CachedBestEngine(const std::vector<int>& job) {
    std::vector<int> key = job;
    std::sort(key.begin(), key.end());
    auto it = cost_cache_.find(key);
    if (it != cost_cache_.end()) {
      return it->second;
    }
    std::vector<EngineKind> runnable;
    for (EngineKind e : engines_) {
      if (BackendFor(e).CanRunAsSingleJob(dag_, key)) {
        runnable.push_back(e);
      }
    }
    std::pair<EngineKind, double> result{engines_[0], kInfiniteCost};
    if (!runnable.empty()) {
      model_.Summarize(dag_, key, sizes_, &summary_);
      result = CheapestEngine(model_, summary_, runnable);
    }
    cost_cache_.emplace(std::move(key), result);
    return result;
  }

  const Dag& dag_;
  const CostModel& model_;
  const std::vector<Bytes>& sizes_;
  std::vector<EngineKind> engines_;
  bool merging_;
  std::vector<int> order_;

  std::vector<std::vector<int>> jobs_;
  std::vector<int> assignment_;  // node id -> job index (-1 = unassigned)
  size_t seed_idx_ = 0;
  std::atomic<double>* shared_bound_ = nullptr;
  double best_cost_ = kInfiniteCost;
  std::vector<JobAssignment> best_jobs_;
  std::map<std::vector<int>, std::pair<EngineKind, double>> cost_cache_;
  SegmentSummary summary_;  // scratch for CachedBestEngine
};

// A fixed assignment of the first `idx` operators (in enumeration order) —
// the root of one search subtree.
struct SearchPrefix {
  std::vector<std::vector<int>> jobs;
  size_t idx = 0;
};

// Level-synchronous expansion of the recursion's first levels until at least
// `target` subtree roots exist. Children are generated in the exact order
// Recurse tries them (extend job 0..k, then a fresh job), so the returned
// prefixes enumerate subtrees in the sequential DFS encounter order — the
// property the deterministic reduction in the exhaustive strategy relies on.
std::vector<SearchPrefix> EnumeratePrefixes(
    const Dag& dag, const std::vector<EngineKind>& engines, bool merging,
    const std::vector<int>& order, size_t target) {
  std::vector<SearchPrefix> frontier{SearchPrefix{}};
  while (frontier.size() < target && frontier.front().idx < order.size()) {
    std::vector<SearchPrefix> next;
    for (const SearchPrefix& p : frontier) {
      int op = order[p.idx];
      if (merging) {
        for (size_t j = 0; j < p.jobs.size(); ++j) {
          if (!ConnectedToJob(dag, op, p.jobs[j])) {
            continue;
          }
          SearchPrefix child = p;
          child.jobs[j].push_back(op);
          child.idx = p.idx + 1;
          if (SomeEngineRuns(dag, engines, child.jobs[j])) {
            next.push_back(std::move(child));
          }
        }
      }
      SearchPrefix fresh = p;
      fresh.jobs.push_back({op});
      fresh.idx = p.idx + 1;
      next.push_back(std::move(fresh));
    }
    frontier = std::move(next);
  }
  return frontier;
}

StatusOr<Partitioning> RunExhaustive(const Dag& dag, const CostModel& model,
                                     const std::vector<Bytes>& sizes,
                                     const PlannerConfig& config) {
  std::vector<EngineKind> engines = EnginesOrDefault(config);
  std::vector<int> order = OperatorOrder(dag);
  if (order.empty()) {
    return InvalidArgumentError("workflow has no operators");
  }
  int threads = ParallelThreads();
  if (threads <= 1 || order.size() < 4) {
    ExhaustiveSearch search(dag, model, sizes, engines, config.enable_merging);
    return search.Run();
  }

  // Parallel search: fan the top levels of the enumeration out as seeded
  // subtree searches sharing a best-cost bound, then reduce
  // deterministically. Strict-> pruning plus a strict-< reduction in subtree
  // (DFS encounter) order make the chosen partitioning identical to the
  // sequential search's, independent of thread scheduling.
  std::vector<SearchPrefix> prefixes = EnumeratePrefixes(
      dag, engines, config.enable_merging, order,
      static_cast<size_t>(threads) * 4);
  std::atomic<double> bound{kInfiniteCost};
  std::vector<std::unique_ptr<ExhaustiveSearch>> searches(prefixes.size());
  ParallelChunks(prefixes.size(), 1, [&](size_t i, size_t, size_t) {
    auto search = std::make_unique<ExhaustiveSearch>(dag, model, sizes, engines,
                                                     config.enable_merging);
    search->Seed(prefixes[i].jobs, prefixes[i].idx);
    search->set_shared_bound(&bound);
    search->Search();
    searches[i] = std::move(search);
  });
  const ExhaustiveSearch* best = nullptr;
  for (const auto& search : searches) {
    if (search->found() &&
        (best == nullptr || search->best_cost() < best->best_cost())) {
      best = search.get();
    }
  }
  if (best == nullptr) {
    return FailedPreconditionError(
        "no engine combination can execute this workflow");
  }
  Partitioning out;
  out.total_cost = best->best_cost();
  out.jobs = best->best_jobs();
  return out;
}

}  // namespace

const char* PartitionStrategyKindName(PartitionStrategyKind kind) {
  switch (kind) {
    case PartitionStrategyKind::kAuto:
      return "auto";
    case PartitionStrategyKind::kDp:
      return "dp";
    case PartitionStrategyKind::kExhaustive:
      return "exhaustive";
    case PartitionStrategyKind::kDpMultiOrder:
      return "dp-multi";
  }
  return "auto";
}

std::optional<PartitionStrategyKind> PartitionStrategyKindFromName(
    std::string_view name) {
  if (name == "auto") {
    return PartitionStrategyKind::kAuto;
  }
  if (name == "dp") {
    return PartitionStrategyKind::kDp;
  }
  if (name == "exhaustive") {
    return PartitionStrategyKind::kExhaustive;
  }
  if (name == "dp-multi" || name == "dp_multi") {
    return PartitionStrategyKind::kDpMultiOrder;
  }
  return std::nullopt;
}

StatusOr<Partitioning> PartitionWorkflow(const Dag& dag, const CostModel& model,
                                         const std::vector<Bytes>& sizes,
                                         const PlannerConfig& config) {
  PartitionStrategyKind kind = config.strategy;
  if (kind == PartitionStrategyKind::kAuto) {
    kind = static_cast<int>(OperatorOrder(dag).size()) <= kExhaustiveThreshold
               ? PartitionStrategyKind::kExhaustive
               : PartitionStrategyKind::kDp;
  }
  StatusOr<Partitioning> out =
      InvalidArgumentError("unknown partition strategy");
  switch (kind) {
    case PartitionStrategyKind::kExhaustive:
      out = RunExhaustive(dag, model, sizes, config);
      break;
    case PartitionStrategyKind::kDp:
      out = PartitionDpMulti(dag, model, sizes, config, 1);
      break;
    case PartitionStrategyKind::kDpMultiOrder:
      out = PartitionDpMulti(dag, model, sizes, config, kDpMultiOrders);
      break;
    case PartitionStrategyKind::kAuto:  // resolved above
      break;
  }
  if (out.ok()) {
    out->strategy = PartitionStrategyKindName(kind);
  }
  return out;
}

StatusOr<Partitioning> PartitionRemainder(const Dag& dag, const CostModel& model,
                                          const std::vector<Bytes>& sizes,
                                          const PlannerConfig& config,
                                          const std::vector<int>& ops) {
  std::unordered_set<int> remaining(ops.begin(), ops.end());
  std::vector<int> order;
  for (int id : OperatorOrder(dag)) {
    if (remaining.count(id)) {
      order.push_back(id);
    }
  }
  if (order.empty()) {
    return InvalidArgumentError("no remaining operators to re-plan");
  }
  // Always the DP: re-planning happens on the execution critical path, where
  // exhaustive search would cost more than the mispredictions it fixes.
  auto out = PartitionDpOnOrder(dag, model, sizes, config, order);
  if (out.ok()) {
    out->strategy = "dp";
  }
  return out;
}

}  // namespace musketeer
