// The cost function (§5.2).
//
// Scores running a set of operators as one job on a given engine. Three
// ingredients, exactly as in the paper:
//  1. Data volume: per-operator output-size bounds applied to the run-time
//     input sizes predict intermediate and output volumes. Generative
//     operators (JOIN) have no useful bound, so without history the model
//     uses a conservative multiple of the inputs.
//  2. Operator performance: the one-off calibrated PULL/LOAD/PROCESS/PUSH
//     rates per engine (src/backends/perf_model.cc, the paper's Table 1).
//  3. Workflow history: observed relation sizes from prior runs of the same
//     workflow replace the bounds (src/scheduler/history.h).
// The model chooses engines and job boundaries, not shards: a job's price
// is the same on every shard, and a sharded run places each job by the
// input bytes each shard holds (src/scheduler/placement.h).

#ifndef MUSKETEER_SRC_SCHEDULER_COST_MODEL_H_
#define MUSKETEER_SRC_SCHEDULER_COST_MODEL_H_

#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/backends/backend.h"
#include "src/backends/pricing.h"
#include "src/cluster/cluster.h"
#include "src/obs/runtime_history.h"
#include "src/scheduler/history.h"

namespace musketeer {

inline constexpr double kInfiniteCost = std::numeric_limits<double>::infinity();

// Known sizes of the workflow's base (DFS-resident) relations.
using RelationSizes = std::unordered_map<std::string, Bytes>;

// The engine-independent half of a job's price: everything JobCost derives
// from the operator set alone, before it looks at the engine. The DP builds
// one per candidate segment and prices it for each engine that can run the
// segment, instead of re-deriving it per engine.
struct SegmentSummary {
  // The set cannot be priced on any engine: conservative merging vetoed
  // it, or a WHILE body's sizes could not be predicted.
  bool infeasible = false;
  // Externally produced inputs, deduplicated, in first-read order.
  std::vector<int> pulled;
  // What the pricing policy (src/backends/pricing.h) prices: the pulled
  // bytes, the bytes leaving the job, and one record per operator in id
  // order. A WHILE operator contributes its body's records for one
  // predicted trip, weighted by its iteration count, and its trips.
  JobVolumes volumes;
  // The set holds a WHILE operator (a job that can run holds at most one)
  // and whether it matches the vertex-centric graph idiom: together with
  // the engine they pick the loop mode.
  bool loop = false;
  bool loop_idiom = false;
};

class CostModel {
 public:
  // `history` may be nullptr (first run, no workflow knowledge).
  // With `conservative_merging` set, the model refuses to merge past a
  // generative operator whose output size is not known from history (§5.2:
  // on first execution Musketeer "only merges selective operators and
  // generative operators with small output bounds", so JOINs end their job
  // until history tightens their bounds).
  // `calibration` (optional, not owned, must outlive the model) rescales
  // every JobCost by the measured wall-per-sim time scale of the candidate
  // engine, so partitioning decisions reflect observed runtimes rather than
  // the perf model's a-priori constants (src/obs/runtime_history.h).
  CostModel(ClusterConfig cluster, const HistoryStore* history,
            std::string workflow_id, bool conservative_merging = false,
            const RuntimeCalibration* calibration = nullptr);

  // Predicts the nominal output bytes of every node. Base INPUT sizes come
  // from `base_sizes` (run-time information: the inputs sit in the DFS).
  StatusOr<std::vector<Bytes>> PredictSizes(const Dag& dag,
                                            const RelationSizes& base_sizes) const;

  // Estimated makespan of running `ops` as a single job on `engine`;
  // kInfiniteCost when the engine cannot run the set as one job.
  // `sizes` must come from PredictSizes on the same DAG.
  double JobCost(const Dag& dag, const std::vector<int>& ops, EngineKind engine,
                 const std::vector<Bytes>& sizes) const;

  // JobCost in two steps. Summarize fills *out with the engine-independent
  // facts of running `sorted_ops` (ascending ids) as one job; PriceSummary
  // prices that summary on `engine`, which the caller has checked can run
  // the set as one job (Backend::CanRunAsSingleJob). JobCost is exactly
  // these two steps, so every caller shares one definition of cost, bit
  // for bit.
  void Summarize(const Dag& dag, const std::vector<int>& sorted_ops,
                 const std::vector<Bytes>& sizes, SegmentSummary* out) const;
  double PriceSummary(const SegmentSummary& summary, EngineKind engine) const;

  const ClusterConfig& cluster() const { return cluster_; }

  // Conservative output multiplier for generative operators without history.
  static constexpr double kConservativeGenerativeFactor = 3.0;

 private:
  // Predicted size of one operator's output from its input sizes.
  Bytes PredictNodeSize(const Dag& dag, const OperatorNode& node,
                        const std::vector<Bytes>& in_bytes) const;

  ClusterConfig cluster_;
  const HistoryStore* history_;  // not owned, may be null
  std::string workflow_id_;
  bool conservative_merging_;
  const RuntimeCalibration* calibration_;  // not owned, may be null
};

}  // namespace musketeer

#endif  // MUSKETEER_SRC_SCHEDULER_COST_MODEL_H_
