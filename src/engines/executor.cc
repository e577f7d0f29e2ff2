#include "src/engines/executor.h"

namespace musketeer {

namespace {

// Walks `dag`, appending one OpTrace per executed operator; `iteration` is
// the enclosing loop trip (-1 at top level).
StatusOr<TableMap> TraceWalk(const Dag& dag, const TableMap& base,
                             int iteration, ExecTrace* trace) {
  return WalkDag(
      dag, base,
      [trace, iteration](const OperatorNode& node,
                         const std::vector<const Table*>& inputs)
          -> StatusOr<Table> {
        Bytes in_bytes = 0;
        for (const Table* t : inputs) {
          in_bytes += t->nominal_bytes();
        }
        MUSKETEER_ASSIGN_OR_RETURN(Table out, EvaluateOperator(node, inputs));
        trace->ops.push_back(OpTrace{.node = &node,
                                     .kind = node.kind,
                                     .in_bytes = in_bytes,
                                     .out_bytes = out.nominal_bytes(),
                                     .iteration = iteration});
        return out;
      },
      [trace](const Dag& outer, const OperatorNode& node,
              const TableMap& outer_base, const std::vector<TablePtr>& inputs) {
        return RunWhileLoop(
            outer, node, outer_base, inputs,
            [trace](const Dag& body, const TableMap& trip_base, int trip) {
              ++trace->total_iterations;
              return TraceWalk(body, trip_base, trip, trace);
            });
      });
}

}  // namespace

StatusOr<ExecTrace> TraceExecuteDag(const Dag& dag, const TableMap& base) {
  ExecTrace trace;
  MUSKETEER_ASSIGN_OR_RETURN(trace.relations,
                             TraceWalk(dag, base, /*iteration=*/-1, &trace));
  return trace;
}

}  // namespace musketeer
