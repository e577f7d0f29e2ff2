#include "src/backends/pricing.h"

#include <algorithm>

namespace musketeer {

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
