// Back-end jobs: the unit of work Musketeer dispatches to an execution
// engine. The DAG partitioner (§5) splits the IR into jobs; each back-end's
// code generator turns a job's sub-DAG into an executable JobPlan.

#ifndef MUSKETEER_SRC_BACKENDS_JOB_H_
#define MUSKETEER_SRC_BACKENDS_JOB_H_

#include <memory>
#include <string>
#include <vector>

#include "src/backends/engine_kind.h"
#include "src/ir/dag.h"

namespace musketeer {

// How a job executes WHILE loops it contains.
enum class WhileExec {
  kNone,              // job has no loop
  kNativeLoop,        // engine iterates in memory (Naiad, Spark driver loop)
  kPerIterationJobs,  // every iteration spawns fresh job(s) and materializes
                      // loop state to the DFS (Hadoop, Metis)
  kVertexRuntime,     // executed by a vertex-centric runtime after idiom
                      // conversion (PowerGraph, GraphChi, GraphLINQ path)
};

const char* WhileExecName(WhileExec mode);

// How `kind` executes a WHILE loop; `vertex_idiom` says whether the loop
// matched the graph idiom (enables GraphLINQ-style execution on Naiad).
WhileExec WhileModeFor(EngineKind kind, bool vertex_idiom);

// Plan-level quirks that model where generated (or native front-end) code
// deviates from the hand-tuned ideal. These are what the overhead
// experiments (Figs. 10/11) and the Lindi GROUP BY experiment (Fig. 7)
// measure.
struct PlanQuirks {
  // Generated code runs PROCESS at this fraction of the hand-tuned rate
  // (template-generality cost: suboptimal data structures, genericity).
  double process_efficiency = 1.0;
  // Inputs are read by a single thread per machine (native Lindi I/O, §2.1).
  bool single_threaded_io = false;
  // GROUP BY is non-associative: all data for the operator is collected on
  // one machine before applying it (native Lindi GROUP BY, §6.2).
  bool single_node_group_by = false;
  // Musketeer's simple look-ahead type inference missed a fusion: charge an
  // extra pass over a JOIN output that feeds a differently-keyed GROUP BY
  // (remaining Spark overhead, §6.4).
  bool model_type_inference_miss = false;
  // Intra-job shared scans and operator fusion are enabled (§4.3.3); turned
  // off for the Fig. 12 ablation.
  bool shared_scans = true;
};

// The quirks of Musketeer's generated code for `kind`: the plans its code
// generation emits by default, and what the cost model prices every
// candidate job with.
PlanQuirks GeneratedQuirks(EngineKind kind);

// An executable back-end job.
struct JobPlan {
  EngineKind engine = EngineKind::kHadoop;
  std::string name;
  // The job's operators: kInput nodes read relations from the DFS; sink and
  // externally-consumed relations are written back to the DFS.
  std::shared_ptr<const Dag> dag;
  std::vector<std::string> inputs;   // DFS relations read
  std::vector<std::string> outputs;  // DFS relations written
  WhileExec while_mode = WhileExec::kNone;
  // True when this job runs a recognized graph idiom on a specialized path.
  bool graph_path = false;
  PlanQuirks quirks;
  // Human-readable generated source (what Musketeer would submit).
  std::string generated_code;
};

// Operators whose input must be repartitioned by key (they delimit MapReduce
// jobs and cost network shuffle in distributed engines).
bool IsShuffleOp(OpKind kind);

// Row-at-a-time operators that fuse into the enclosing scan when shared
// scans are enabled.
bool IsRowwiseOp(OpKind kind);

}  // namespace musketeer

#endif  // MUSKETEER_SRC_BACKENDS_JOB_H_
