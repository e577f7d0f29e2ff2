// The IR's execution semantics, defined once.
//
// Three pieces: EvaluateOperator (what one operator computes), WalkDag (one
// DAG walker: INPUT resolution, per-node bookkeeping, one CheckInterrupt per
// operator, node-prefixed errors) and RunWhileLoop (one WHILE driver: seeding,
// trip bound, per-trip CheckInterrupt, the until_fixpoint test, binding and
// result lookup). Every execution path is built from them, so all back-ends
// agree on what a DAG means by construction: EvaluateDag is the plain walk;
// the production kernel (TraceExecuteDag, src/engines/executor.h) is a walk
// whose operator callback records volumes; the MapReduce and vertex
// substrates walk with their own callbacks; the RDD and Timely substrates
// keep their own node loops (their per-node values are partitions and
// pushed records) and drive every WHILE through RunWhileLoop.

#ifndef MUSKETEER_SRC_IR_EVAL_H_
#define MUSKETEER_SRC_IR_EVAL_H_

#include <functional>
#include <unordered_map>

#include "src/ir/dag.h"
#include "src/relational/table.h"

namespace musketeer {

using TableMap = std::unordered_map<std::string, TablePtr>;

// Executes one non-INPUT, non-WHILE operator on resolved inputs.
StatusOr<Table> EvaluateOperator(const OperatorNode& node,
                                 const std::vector<const Table*>& inputs);

// How a walk evaluates one non-INPUT, non-WHILE operator.
using OperatorEval = std::function<StatusOr<Table>(
    const OperatorNode& node, const std::vector<const Table*>& inputs)>;

// How a walk evaluates one WHILE node of `dag`. `inputs[i]` is the value of
// node.inputs[i]; `base` is the walk's base relations.
using WhileEval = std::function<StatusOr<TablePtr>(
    const Dag& dag, const OperatorNode& node, const TableMap& base,
    const std::vector<TablePtr>& inputs)>;

// Walks `dag` in node order: INPUT nodes read `base`, operators run through
// `op`, WHILE nodes through `loop`. Checks CheckInterrupt before every node
// and prefixes operator errors with the node. Returns the output of every
// non-INPUT node, keyed by relation name.
StatusOr<TableMap> WalkDag(const Dag& dag, const TableMap& base,
                           const OperatorEval& op, const WhileEval& loop);

// Runs one trip of a WHILE body against `inputs` and returns the relations
// the trip produced. `trip` counts from 0.
using TripFn = std::function<StatusOr<TableMap>(
    const Dag& body, const TableMap& inputs, int trip)>;

// Drives the WHILE `node` of `dag`. The first trip's inputs are `base` plus
// the loop-carried relations seeded from `inputs[0..bindings)` under their
// loop names and the loop-invariant ones from the rest under their producers'
// names. Runs at most `iterations` trips (CheckInterrupt before each) and
// stops early once an until_fixpoint loop's carried relations are
// SameContent. Binding and result names resolve against the trip's outputs
// first, then its inputs — so yielding a loop variable returns the value the
// last trip read.
StatusOr<TablePtr> RunWhileLoop(const Dag& dag, const OperatorNode& node,
                                const TableMap& base,
                                const std::vector<TablePtr>& inputs,
                                const TripFn& trip);

// Executes a whole DAG (including WHILE loops) against `base` relations.
// Returns `base` plus every node output (keyed by relation name).
StatusOr<TableMap> EvaluateDag(const Dag& dag, const TableMap& base);

// Convenience: evaluates and returns only the relation `name`.
StatusOr<Table> EvaluateDagRelation(const Dag& dag, const TableMap& base,
                                    const std::string& name);

}  // namespace musketeer

#endif  // MUSKETEER_SRC_IR_EVAL_H_
