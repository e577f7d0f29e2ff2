// Partitioning strategies (§5) behind one planner configuration.
//
//   * PartitionStrategyKind — the four strategies: kAuto (exhaustive up to
//     kExhaustiveThreshold operators, DP above it — the paper's switch), kDp
//     (§5.1.2 single linear order), kExhaustive (§5.1.1 optimal search), and
//     kDpMultiOrder (§8/Fig. 16: DP over several seeded random topological
//     orders, cheapest partitioning wins).
//   * PlannerConfig — every setting the planner takes, including the online
//     re-planning policy Execute() applies mid-run.
//   * PartitionWorkflow — the single entry point Musketeer::Plan calls.

#ifndef MUSKETEER_SRC_SCHEDULER_PARTITION_STRATEGY_H_
#define MUSKETEER_SRC_SCHEDULER_PARTITION_STRATEGY_H_

#include <cstdint>
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
  // Name of the strategy that produced this partitioning ("auto" resolves
  // to the concrete strategy it dispatched to).
  std::string strategy;
};

enum class PartitionStrategyKind {
  kAuto,         // exhaustive ≤ threshold, DP above (the paper's prototype)
  kDp,           // §5.1.2 DP over the front-end's linear order
  kExhaustive,   // §5.1.1 optimal search, exponential time
  kDpMultiOrder, // §8/Fig. 16 DP over several seeded random orders
};

// Canonical names: "auto", "dp", "exhaustive", "dp-multi".
const char* PartitionStrategyKindName(PartitionStrategyKind kind);
std::optional<PartitionStrategyKind> PartitionStrategyKindFromName(
    std::string_view name);

// One coherent planner configuration, consumed by Musketeer::Plan.
struct PlannerConfig {
  PartitionStrategyKind strategy = PartitionStrategyKind::kAuto;
  // Engines considered; empty = all seven (automatic mapping, §5.2).
  std::vector<EngineKind> engines;
  // §4.3.2 / Fig. 12 ablation: with merging disabled every operator becomes
  // its own job.
  bool enable_merging = true;

  // ---- Online re-planning (Execute(), DESIGN.md "Planner at scale") ----
  // When > 0: after each job whose measured wall_seconds disagree with the
  // runtime-history prediction by more than this ratio (max of over/under
  // estimate, e.g. 2.0 = off by 2x), re-partition the *remaining* DAG suffix
  // with the freshly recalibrated cost model. 0 disables re-planning.
  double replan_threshold = 0;
  // Upper bound on mid-run re-plans per execution.
  int max_replans = 1;
};

// kAuto switches from exhaustive to DP above this many operators (the
// paper's prototype switches at ~18; exhaustive cost grows sharply past 13,
// Fig. 13).
inline constexpr int kExhaustiveThreshold = 12;
// kDpMultiOrder explores the construction order plus seeded shuffles; order
// i is the shuffle seeded kDpOrderSeed + i, so the whole search replays
// bit-identically.
inline constexpr int kDpMultiOrders = 8;
inline constexpr uint64_t kDpOrderSeed = 0x9e3779b9u;
// Longest operator run the DP may merge into one job on DAGs of more than
// kDpSegmentCapAbove operators (smaller DAGs are unbounded). The cap keeps
// the O(N²·cap) segment scan interactive at 100–1000 operators; merging
// dozens of operators into one job is never cost-optimal here, so it trades
// nothing measurable.
inline constexpr int kDpSegmentCap = 24;
inline constexpr int kDpSegmentCapAbove = 64;

// The planner entry point: partitions with config.strategy. The returned
// Partitioning.strategy names the concrete strategy that ran.
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
