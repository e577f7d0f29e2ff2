// The pricing policy: how a job's data volumes become its price.
//
// Both sides of Musketeer price jobs with it:
//  * the cost model (§5.2) prices *predicted* volumes when partitioning the
//    DAG and choosing engines, and
//  * the engines price *observed* volumes when executing.
// Each side only collects a JobVolumes: the executor from its trace, one
// record per traced operator execution; the planner from predicted sizes,
// one record per operator with a WHILE body's single predicted trip
// weighted by its iteration count. ShapeJob turns either into the JobShape
// PriceJob prices, so every engine rule (shared scans, loop modes, the
// generated-code quirks) exists once and the planner's price equals the
// engine's charge up to size-prediction error — precisely the error the
// paper's history mechanism (Fig. 14) exists to remove.

#ifndef MUSKETEER_SRC_BACKENDS_PRICING_H_
#define MUSKETEER_SRC_BACKENDS_PRICING_H_

#include <vector>

#include "src/backends/job.h"
#include "src/backends/perf_model.h"

namespace musketeer {

// One operator execution as the pricing policy sees it.
struct OpVolume {
  Bytes in_bytes = 0;
  Bytes out_bytes = 0;
  double weight = 1.0;  // executions the record stands for
  OpKind kind = OpKind::kInput;
  int trip = -1;           // loop trip; -1 for top-level operators
  bool shuffle = false;    // IsShuffleOp(kind)
  bool rowwise = false;    // IsRowwiseOp(kind)
  bool miss_join = false;  // the job's TypeInferenceMissJoin
};

// The record for `weight` executions of `node` in loop trip `trip`.
inline OpVolume VolumeOf(const OperatorNode& node, Bytes in_bytes,
                         Bytes out_bytes, int trip, double weight,
                         bool miss_join) {
  return {.in_bytes = in_bytes,
          .out_bytes = out_bytes,
          .weight = weight,
          .kind = node.kind,
          .trip = trip,
          .shuffle = IsShuffleOp(node.kind),
          .rowwise = IsRowwiseOp(node.kind),
          .miss_join = miss_join};
}

// Everything a job's price depends on besides its engine, quirks and loop
// mode.
struct JobVolumes {
  Bytes pull_bytes = 0;  // read from the DFS at job start
  Bytes push_bytes = 0;  // written back at job end
  std::vector<OpVolume> ops;  // in execution order
  int trips = 0;              // loop trips the job runs
};

// One operator's charge.
struct PricedOp {
  Bytes in_bytes = 0;
  bool shuffle = false;         // repartitions its input over the network
  bool charge_process = true;   // starts its own pass over the data
  bool single_node = false;     // collapses to one machine (Lindi GROUP BY)
  bool graph_path = false;      // runs on the engine's vertex-centric path
};

struct JobShape {
  Bytes pull_bytes = 0;  // read from the DFS at job start
  Bytes push_bytes = 0;  // written back at job end
  Bytes load_bytes = 0;  // through the engine's LOAD phase (0 = skip)
  std::vector<PricedOp> ops;
  int job_count = 1;     // internal engine jobs (MR loops spawn many)
  int supersteps = 0;    // iterations run natively inside the engine
  double process_efficiency = 1.0;
  bool single_threaded_io = false;
};

// Fraction of the normal PROCESS cost charged for operators fused into an
// enclosing scan (they still consume CPU, just no extra pass over the data).
inline constexpr double kFusedProcessFraction = 0.10;

// Per-node input rate when an engine reads with one thread per machine.
inline constexpr double kSingleThreadedPullMbps = 15.0;

// NIC-limited rate at which a single worker collects a non-associative
// operator's entire input (native Lindi GROUP BY, §6.2).
inline constexpr double kSingleNodeCollectMbps = 120.0;

// GraphChi keeps the working set in memory when the graph is small enough,
// skipping its out-of-core shard streaming (§2.2: it is surprisingly
// competitive on the small Orkut graph).
inline constexpr Bytes kGraphChiInMemoryBytes = 8.0 * 1024 * 1024 * 1024;
inline constexpr double kGraphChiInMemoryBoost = 1.8;

// Fills *shape (reusing its ops buffer) with the shape of a job running
// `volumes` on `engine` with `quirks`, executing its loop as `mode`.
void ShapeJob(EngineKind engine, const PlanQuirks& quirks, WhileExec mode,
              const JobVolumes& volumes, JobShape* shape);

// Simulated seconds to run a job of this shape on this engine and cluster.
SimSeconds PriceJob(EngineKind engine, const ClusterConfig& cluster,
                    const JobShape& shape);

// The join whose re-keying map Musketeer's simple look-ahead type inference
// cannot fuse (§6.4: "an extra pass"), so a job with the
// model_type_inference_miss quirk pays one extra pass over its output in
// every execution: the first JOIN in id order, WHILE bodies included, whose
// chain of single row-wise consumers inside the job (the NetFlix
// join->map->group-by pattern) ends at a GROUP BY keyed other than by the
// join key alone, or at an AGG. nullptr when the job has none.
// For a job DAG (every node is inside the job):
const OperatorNode* TypeInferenceMissJoin(const Dag& job);
// For the operators `sorted_ops` (ascending ids) of `dag` run as one job:
const OperatorNode* TypeInferenceMissJoin(const Dag& dag,
                                          const std::vector<int>& sorted_ops);

}  // namespace musketeer

#endif  // MUSKETEER_SRC_BACKENDS_PRICING_H_
