// The production kernel: a traced walk of the IR interpreter.
//
// Runs a job's sub-DAG on real data through the one DAG walker and WHILE
// driver of src/ir/eval.h — identical semantics for every engine — with an
// operator callback that records, per executed operator, the nominal data
// volumes flowing through it (one record per loop trip for WHILE bodies).
// Engine simulators price these traces according to their own execution
// strategy.

#ifndef MUSKETEER_SRC_ENGINES_EXECUTOR_H_
#define MUSKETEER_SRC_ENGINES_EXECUTOR_H_

#include <vector>

#include "src/ir/eval.h"

namespace musketeer {

struct OpTrace {
  const OperatorNode* node = nullptr;  // identity within its owning DAG
  OpKind kind = OpKind::kInput;
  Bytes in_bytes = 0;   // nominal bytes entering the operator
  Bytes out_bytes = 0;  // nominal bytes produced
  int iteration = -1;   // loop trip index; -1 for top-level operators
};

struct ExecTrace {
  // Every relation produced (top-level names; loop internals excluded).
  TableMap relations;
  std::vector<OpTrace> ops;
  // Total number of loop iterations executed across all WHILE nodes.
  int total_iterations = 0;
};

StatusOr<ExecTrace> TraceExecuteDag(const Dag& dag, const TableMap& base);

}  // namespace musketeer

#endif  // MUSKETEER_SRC_ENGINES_EXECUTOR_H_
