#include "src/backends/pricing.h"

#include <algorithm>
#include <variant>

namespace musketeer {

namespace {

// True when the chain of single in-job row-wise consumers from `join` ends
// at a GROUP BY keyed other than by the join key alone, or at an AGG.
template <typename InJob>
bool MissesFusion(const Dag& dag, const OperatorNode& join,
                  const InJob& in_job) {
  const auto& jp = std::get<JoinParams>(join.params);
  int cur = join.id;
  bool reshaped = false;
  while (true) {
    const OperatorNode* consumer = nullptr;
    for (int c : dag.ConsumersOf(cur)) {
      if (!in_job(c)) {
        continue;
      }
      if (consumer != nullptr) {
        return false;
      }
      consumer = &dag.node(c);
    }
    if (consumer == nullptr) {
      return false;
    }
    if (IsRowwiseOp(consumer->kind)) {
      reshaped = true;
      cur = consumer->id;
      continue;
    }
    if (consumer->kind == OpKind::kGroupBy) {
      const auto& gp = std::get<GroupByParams>(consumer->params);
      return reshaped || gp.group_columns.size() != 1 ||
             gp.group_columns[0] != jp.left_key;
    }
    return consumer->kind == OpKind::kAgg;
  }
}

// `node` itself when it is the miss join, or for a WHILE the first miss
// join in its body (a body lies wholly inside the job); else nullptr.
template <typename InJob>
const OperatorNode* MissJoinAt(const Dag& dag, const OperatorNode& node,
                               const InJob& in_job) {
  if (node.kind == OpKind::kWhile) {
    return TypeInferenceMissJoin(*std::get<WhileParams>(node.params).body);
  }
  if (node.kind == OpKind::kJoin && MissesFusion(dag, node, in_job)) {
    return &node;
  }
  return nullptr;
}

}  // namespace

const OperatorNode* TypeInferenceMissJoin(const Dag& job) {
  auto in_job = [](int) { return true; };
  for (const OperatorNode& node : job.nodes()) {
    if (const OperatorNode* miss = MissJoinAt(job, node, in_job)) {
      return miss;
    }
  }
  return nullptr;
}

const OperatorNode* TypeInferenceMissJoin(const Dag& dag,
                                          const std::vector<int>& sorted_ops) {
  auto in_job = [&sorted_ops](int id) {
    return std::binary_search(sorted_ops.begin(), sorted_ops.end(), id);
  };
  for (int id : sorted_ops) {
    if (const OperatorNode* miss = MissJoinAt(dag, dag.node(id), in_job)) {
      return miss;
    }
  }
  return nullptr;
}

void ShapeJob(EngineKind engine, const PlanQuirks& quirks, WhileExec mode,
              const JobVolumes& volumes, JobShape* shape) {
  shape->pull_bytes = volumes.pull_bytes;
  shape->push_bytes = volumes.push_bytes;
  shape->load_bytes = RatesFor(engine).load_mbps > 0 ? volumes.pull_bytes : 0;
  shape->ops.clear();
  shape->job_count = 1;
  shape->supersteps = 0;
  shape->process_efficiency = quirks.process_efficiency;
  shape->single_threaded_io = quirks.single_threaded_io;

  // Vertex-centric runtimes do not execute a loop body as dataflow
  // operators: per superstep they stream the edges once through the
  // scatter/gather program (one graph-rate pass) and pay network for the
  // gather communication; the apply step is local and free.
  const bool vertex = mode == WhileExec::kVertexRuntime;
  int trip = -1;
  bool scanned = false;
  bool gathered = false;
  // Per-iteration jobs: shuffles in one trip, and the bytes every trip's
  // shuffles write to the DFS for the next job to read.
  int trip_shuffles = 0;
  Bytes materialized = 0;
  for (const OpVolume& op : volumes.ops) {
    const bool gather = op.kind == OpKind::kGroupBy || op.kind == OpKind::kAgg;
    if (vertex && op.trip >= 0) {
      if (op.trip != trip) {
        trip = op.trip;
        scanned = false;
        gathered = false;
      }
      if (op.kind == OpKind::kJoin && !scanned) {
        scanned = true;
        shape->ops.push_back(PricedOp{.in_bytes = op.in_bytes * op.weight,
                                      .shuffle = false,
                                      .charge_process = true,
                                      .graph_path = true});
      } else if (gather && !gathered) {
        gathered = true;
        shape->ops.push_back(PricedOp{.in_bytes = op.in_bytes * op.weight,
                                      .shuffle = true,
                                      .charge_process = false,
                                      .graph_path = true});
      }
      continue;
    }
    shape->ops.push_back(
        PricedOp{.in_bytes = op.in_bytes * op.weight,
                 .shuffle = op.shuffle,
                 .charge_process = !quirks.shared_scans || !op.rowwise,
                 .single_node = quirks.single_node_group_by && gather});
    if (op.miss_join && quirks.model_type_inference_miss) {
      // The unfused re-keying map: an extra pass over the join output.
      shape->ops.push_back(PricedOp{.in_bytes = op.out_bytes * op.weight,
                                    .shuffle = false,
                                    .charge_process = true});
    }
    if (op.trip >= 0 && op.shuffle) {
      trip_shuffles += op.trip == 0 ? 1 : 0;
      materialized += op.out_bytes * op.weight;
    }
  }

  // GraphChi streams from memory instead of disk when the graph fits.
  if (engine == EngineKind::kGraphChi &&
      volumes.pull_bytes < kGraphChiInMemoryBytes) {
    shape->process_efficiency *= kGraphChiInMemoryBoost;
  }

  switch (mode) {
    case WhileExec::kNone:
      break;
    case WhileExec::kNativeLoop:
    case WhileExec::kVertexRuntime:
      shape->supersteps = volumes.trips;
      break;
    case WhileExec::kPerIterationJobs:
      // Every shuffle inside the loop body starts a fresh MapReduce job,
      // and each job's output is materialized to the DFS and re-read by the
      // next one — the core structural disadvantage of MR for iteration.
      shape->job_count = std::max(1, std::max(1, trip_shuffles) * volumes.trips);
      shape->pull_bytes += materialized;
      shape->push_bytes += materialized;
      break;
  }
}

SimSeconds PriceJob(EngineKind engine, const ClusterConfig& cluster,
                    const JobShape& shape) {
  const EngineRates& rates = RatesFor(engine);
  int nodes = EffectiveNodes(engine, cluster);

  SimSeconds t = rates.job_overhead_s * std::max(1, shape.job_count);

  // PULL: stream inputs from the DFS.
  double pull_bw = PullBandwidth(engine, cluster);
  if (shape.single_threaded_io) {
    pull_bw = MBps(kSingleThreadedPullMbps) * nodes;
  }
  if (shape.pull_bytes > 0) {
    t += shape.pull_bytes / pull_bw;
  }

  // LOAD: engine-specific materialization (RDDs, graph shards).
  double load_bw = LoadBandwidth(engine, cluster);
  if (shape.load_bytes > 0 && load_bw > 0) {
    t += shape.load_bytes / load_bw;
  }

  // PROCESS + shuffle per charged operator.
  double shuffle_bw = ShuffleBandwidth(engine, cluster);
  const double process_bws[2] = {
      ProcessBandwidth(engine, cluster, false) * shape.process_efficiency,
      ProcessBandwidth(engine, cluster, true) * shape.process_efficiency};
  for (const PricedOp& op : shape.ops) {
    double process_bw = process_bws[op.graph_path ? 1 : 0];
    if (op.single_node) {
      // Non-associative operator: the whole input funnels through one
      // worker's NIC before the operator can be applied.
      t += op.in_bytes / MBps(kSingleNodeCollectMbps);
      continue;
    }
    if (op.shuffle) {
      // Generated code also shuffles less efficiently than hand-tuned jobs
      // (no combiners, generic serialization) — same efficiency knob.
      t += op.in_bytes * rates.shuffle_fraction /
           (shuffle_bw * shape.process_efficiency);
    }
    if (op.charge_process) {
      t += op.in_bytes / process_bw;
    } else {
      t += op.in_bytes * kFusedProcessFraction / process_bw;
    }
  }

  // Iteration synchronization and driver coordination.
  if (shape.supersteps > 0) {
    t += shape.supersteps *
         (rates.superstep_s + rates.coord_s_per_node * nodes);
  }

  // PUSH: write results back to the DFS.
  if (shape.push_bytes > 0) {
    double push_bw = PushBandwidth(engine, cluster);
    if (shape.single_threaded_io) {
      push_bw = MBps(kSingleThreadedPullMbps) * nodes;
    }
    t += shape.push_bytes / push_bw;
  }
  return t;
}

}  // namespace musketeer
