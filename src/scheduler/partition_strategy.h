// Pluggable partitioning strategies (§5) behind one planner configuration.
//
// At production scale the planner needs to be selectable, parameterized and
// extensible without touching src/core/. This header is its whole surface:
//
//   * PartitionStrategyKind — the built-in strategies: kAuto (exhaustive up
//     to a size threshold, DP above it — the paper's switch), kDp (§5.1.2
//     single linear order), kExhaustive (§5.1.1 optimal search), and
//     kDpMultiOrder (§8/Fig. 16: DP over several seeded random topological
//     orders, cheapest partitioning wins).
//   * PlannerConfig — every knob the planner takes, including the online
//     re-planning policy Execute() applies mid-run.
//   * PartitionStrategy — the strategy interface. Implementations register
//     with PartitionStrategyRegistry under a name; new strategies (beam
//     search, ILP, ...) slot in by registering, with no core changes.
//   * PartitionWorkflow — the single entry point Musketeer::Plan calls.

#ifndef MUSKETEER_SRC_SCHEDULER_PARTITION_STRATEGY_H_
#define MUSKETEER_SRC_SCHEDULER_PARTITION_STRATEGY_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/scheduler/cost_model.h"

namespace musketeer {

struct JobAssignment {
  std::vector<int> ops;  // node ids in the workflow DAG
  EngineKind engine = EngineKind::kHadoop;
  double cost = 0;
};

struct Partitioning {
  std::vector<JobAssignment> jobs;  // in execution (topological) order
  double total_cost = 0;
  bool used_exhaustive = false;
  // Registry name of the strategy that produced this partitioning
  // ("auto" resolves to the concrete strategy it dispatched to).
  std::string strategy;
};

enum class PartitionStrategyKind {
  kAuto,         // exhaustive ≤ threshold, DP above (the paper's prototype)
  kDp,           // §5.1.2 DP over the front-end's linear order
  kExhaustive,   // §5.1.1 optimal search, exponential time
  kDpMultiOrder, // §8/Fig. 16 DP over several seeded random orders
};

// Canonical registry names: "auto", "dp", "exhaustive", "dp-multi".
const char* PartitionStrategyKindName(PartitionStrategyKind kind);
std::optional<PartitionStrategyKind> PartitionStrategyKindFromName(
    std::string_view name);

// One coherent planner configuration, consumed by Musketeer::Plan.
struct PlannerConfig {
  PartitionStrategyKind strategy = PartitionStrategyKind::kAuto;
  // When non-empty, resolved against the registry instead of `strategy` —
  // the extension point for strategies registered outside this file.
  std::string custom_strategy;

  // Engines considered; empty = all seven (automatic mapping, §5.2).
  std::vector<EngineKind> engines;
  // §4.3.2 / Fig. 12 ablation: with merging disabled every operator becomes
  // its own job.
  bool enable_merging = true;
  // kAuto switches from exhaustive to DP above this many operators (the
  // paper's prototype switches at ~18; exhaustive cost grows sharply past
  // 13, Fig. 13).
  int exhaustive_threshold = 12;
  // Orders explored by kDpMultiOrder; order i is the seeded shuffle
  // dp_order_seed + i, so the whole multi-order search replays bit-identically
  // from the seed. ≤1 under kDpMultiOrder still explores a default of 8.
  int dp_linear_orders = 1;
  uint64_t dp_order_seed = 0x9e3779b9u;
  // Longest operator run the DP may merge into one job; 0 = auto (unbounded
  // on small DAGs, capped on 100–1000-op DAGs where the O(N²·cap) segment
  // scan must stay interactive). Merging hundreds of operators into one job
  // is never cost-optimal here, so the cap trades nothing measurable.
  int dp_segment_cap = 0;

  // ---- Online re-planning (Execute(), DESIGN.md "Planner at scale") ----
  // When > 0: after each job whose measured wall_seconds disagree with the
  // runtime-history prediction by more than this ratio (max of over/under
  // estimate, e.g. 2.0 = off by 2x), re-partition the *remaining* DAG suffix
  // with the freshly recalibrated cost model. 0 disables re-planning.
  double replan_threshold = 0;
  // Upper bound on mid-run re-plans per execution.
  int max_replans = 1;
};

// Strategy interface. Implementations must be stateless and thread-safe:
// one registered instance serves concurrent plans.
class PartitionStrategy {
 public:
  virtual ~PartitionStrategy() = default;
  virtual std::string_view name() const = 0;
  virtual StatusOr<Partitioning> Partition(const Dag& dag,
                                           const CostModel& model,
                                           const std::vector<Bytes>& sizes,
                                           const PlannerConfig& config) const = 0;
};

// Name -> strategy registry. Built-ins self-register; user strategies add
// themselves via Register (last registration under a name wins).
class PartitionStrategyRegistry {
 public:
  static PartitionStrategyRegistry& Global();

  void Register(std::string name, std::unique_ptr<PartitionStrategy> strategy);
  // nullptr when unknown.
  const PartitionStrategy* Find(std::string_view name) const;
  std::vector<std::string> Names() const;

 private:
  PartitionStrategyRegistry();
  std::vector<std::pair<std::string, std::unique_ptr<PartitionStrategy>>>
      strategies_;
};

// The planner entry point: resolves config.custom_strategy / config.strategy
// against the registry and partitions. The returned Partitioning.strategy
// names the concrete strategy that ran.
StatusOr<Partitioning> PartitionWorkflow(const Dag& dag, const CostModel& model,
                                         const std::vector<Bytes>& sizes,
                                         const PlannerConfig& config);

// Re-partitions only `ops` (a not-yet-executed DAG suffix) with the DP
// strategy, treating every operator outside the set as already materialized.
// Execute()'s online re-planning path: cheap enough to run mid-flight, and
// grouping changes never change produced bytes — only job boundaries.
StatusOr<Partitioning> PartitionRemainder(const Dag& dag, const CostModel& model,
                                          const std::vector<Bytes>& sizes,
                                          const PlannerConfig& config,
                                          const std::vector<int>& ops);

}  // namespace musketeer

#endif  // MUSKETEER_SRC_SCHEDULER_PARTITION_STRATEGY_H_
