// A simplified timely-dataflow runtime — the execution substrate behind
// Naiad's generic (non-GraphLINQ) path.
//
// The job DAG is instantiated as a push-based operator graph: sources stream
// input rows record-at-a-time; row-wise operators (SELECT/PROJECT/MAP)
// transform and forward each record immediately without materializing
// anything (this is why Naiad needs no LOAD phase and pipelines whole
// workflows in one job); stateful operators (JOIN, GROUP BY, set operations,
// extremes) buffer their inputs and emit when an end-of-stream notification
// arrives, in dataflow order. WHILE loops run as successive epochs through
// the same operator graph, feeding each epoch's loop output back as the next
// epoch's input.
//
// Results match the shared IR interpreter (identical up to floating-point
// summation order); the stats expose how much of the workflow streamed
// without buffering — the structural property the paper's Naiad numbers
// come from.

#ifndef MUSKETEER_SRC_ENGINES_TIMELY_RUNTIME_H_
#define MUSKETEER_SRC_ENGINES_TIMELY_RUNTIME_H_

#include "src/ir/eval.h"

namespace musketeer {

struct TimelyStats {
  int64_t records_streamed = 0;  // rows forwarded record-at-a-time
  int64_t records_buffered = 0;  // rows held by stateful operators
  int notifications = 0;         // end-of-stream notifications delivered
  int epochs = 0;                // loop trips executed
};

struct TimelyResult {
  TableMap relations;
  TimelyStats stats;
};

StatusOr<TimelyResult> ExecuteViaTimely(const Dag& dag, const TableMap& base);

}  // namespace musketeer

#endif  // MUSKETEER_SRC_ENGINES_TIMELY_RUNTIME_H_
