// A Pregel-style vertex-centric runtime — the execution substrate behind
// PowerGraph, GraphChi and Naiad's GraphLINQ path.
//
// A WHILE loop that matched the graph idiom (§4.3.1) is converted from its
// dataflow form back into a vertex program: the scatter JOIN + message MAP
// become a per-edge message function, the GROUP BY becomes the gather
// aggregation, and the re-join + apply MAP become the per-vertex update.
// Execution then proceeds in supersteps over an adjacency structure with
// per-vertex message buckets, exactly like a GAS engine — no relational
// operators involved. Results match the dataflow interpretation (identical
// up to floating-point message-summation order; verified by the cross-engine
// equivalence tests).

#ifndef MUSKETEER_SRC_ENGINES_VERTEX_RUNTIME_H_
#define MUSKETEER_SRC_ENGINES_VERTEX_RUNTIME_H_

#include "src/ir/eval.h"

namespace musketeer {

struct VertexRuntimeStats {
  int supersteps = 0;
  int64_t messages_sent = 0;
  int64_t vertex_updates = 0;
};

struct VertexRuntimeResult {
  TableMap relations;
  VertexRuntimeStats stats;
};

// Executes `dag` with every graph-idiom WHILE run as a vertex program;
// non-loop operators (batch pre/post-processing) run through the shared DAG
// walker and relational kernel. Fails if a WHILE does not match the idiom.
StatusOr<VertexRuntimeResult> ExecuteViaVertexRuntime(const Dag& dag,
                                                      const TableMap& base);

}  // namespace musketeer

#endif  // MUSKETEER_SRC_ENGINES_VERTEX_RUNTIME_H_
