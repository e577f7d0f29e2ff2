// IR operator nodes.
//
// Musketeer's intermediate representation is a DAG of data-flow operators
// (§4.2 of the paper). The initial operator set is loosely based on
// relational algebra — SELECT, PROJECT, UNION, INTERSECT, JOIN, DIFFERENCE,
// aggregators (AGG, GROUP BY), column-level algebraic operations
// (SUM/SUB/DIV/MUL, here a generalized MAP over expressions), extremes
// (MAX/MIN) — plus WHILE for data-dependent iteration, UDFs and black-box
// operators for computations with no native IR equivalent.

#ifndef MUSKETEER_SRC_IR_OPERATOR_H_
#define MUSKETEER_SRC_IR_OPERATOR_H_

#include <functional>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "src/ir/expr.h"
#include "src/relational/table.h"

namespace musketeer {

class Dag;  // defined in src/ir/dag.h; WHILE bodies are nested DAGs

enum class OpKind {
  kInput,       // reads a named base relation from the DFS
  kSelect,      // filter rows by a predicate expression
  kProject,     // keep a subset of columns
  kMap,         // computed projection (column arithmetic: SUM/SUB/MUL/DIV)
  kJoin,        // equi-join on one key column per side
  kCrossJoin,   // Cartesian product
  kUnion,       // bag union
  kIntersect,   // set intersection
  kDifference,  // set difference
  kDistinct,    // duplicate elimination
  kGroupBy,     // group by columns + aggregations
  kAgg,         // global aggregation (GROUP BY with no keys)
  kMax,         // row with the maximum value of a column
  kMin,         // row with the minimum value of a column
  kTopN,        // N rows with the largest values of a column (extension)
  kSort,        // order by columns (extension)
  kWhile,       // fixed-trip-count loop over a nested sub-DAG
  kUdf,         // registered user-defined table function
  kBlackBox,    // native code for a specific back-end, opaque to Musketeer
};

const char* OpKindName(OpKind kind);

// How an operator's output size relates to its input size; drives the cost
// model's data-volume bounds (§5.2: "each operator has bounds on its output
// size based on its behavior").
enum class SizeBehavior {
  kSelective,   // |out| <= |in|               (SELECT, INTERSECT, DISTINCT, ...)
  kPreserving,  // |out| == |in| (maybe narrower rows)   (PROJECT, MAP)
  kAdditive,    // |out| == sum of inputs       (UNION)
  kGenerative,  // unbounded without history    (JOIN, CROSS JOIN, UDF)
  kConstant,    // O(1) rows                    (AGG, MAX, MIN, TOP-N)
};

SizeBehavior OpSizeBehavior(OpKind kind);

// Sample row count and nominal-size scale of one operator input.
struct ScaledRows {
  double rows = 0;
  double scale = 1.0;
};

// Nominal-size scale of an operator's output, by the relational kernel's
// propagation rules: row-weighted mean for additive operators (the first
// input's scale when every input is empty), 1 for constant-size ones, the
// largest input scale otherwise. Substrates that rebuild tables outside the
// kernel restamp their outputs with it.
double OutputScale(OpKind kind, const std::vector<ScaledRows>& inputs);

// ---- Per-kind parameter payloads -----------------------------------------

struct InputParams {
  std::string relation;  // DFS name of the base relation
};

struct SelectParams {
  ExprPtr condition;
};

struct ProjectParams {
  std::vector<std::string> columns;
};

// One output column of a MAP: name plus defining expression.
struct NamedExpr {
  std::string name;
  ExprPtr expr;
};

struct MapParams {
  std::vector<NamedExpr> outputs;  // full output column list, in order
};

struct JoinParams {
  std::string left_key;
  std::string right_key;
};

struct CrossJoinParams {};
struct UnionParams {};
struct IntersectParams {};
struct DifferenceParams {};
struct DistinctParams {};

// Named aggregation: function, input column (unused for COUNT), output name.
struct NamedAgg {
  AggFn fn;
  std::string column;
  std::string output_name;
};

struct GroupByParams {
  std::vector<std::string> group_columns;
  std::vector<NamedAgg> aggs;
};

struct AggParams {
  std::vector<NamedAgg> aggs;
};

struct ExtremeParams {
  std::string column;  // maximized for kMax, minimized for kMin
};

struct TopNParams {
  std::string column;
  int64_t n = 1;
};

struct SortParams {
  std::vector<std::string> columns;
};

// Rebinds a relation between loop iterations: the body reads `loop_input`,
// and after every iteration it is replaced by the body relation
// `body_output`. The WHILE node's inputs provide initial values, positionally
// matching `bindings`.
struct LoopBinding {
  std::string loop_input;
  std::string body_output;
};

struct WhileParams {
  int64_t iterations = 1;               // trip count (ITERATION_STOP), or the
                                        // upper bound when until_fixpoint
  std::shared_ptr<const Dag> body;      // nested sub-DAG executed per trip
  std::vector<LoopBinding> bindings;    // loop-carried relations
  std::string result;                   // body relation returned after the loop
  // Data-dependent iteration (§4.2: the WHILE operator extends the DAG based
  // on operators' output): stop as soon as every loop-carried relation is
  // unchanged from the previous trip, up to `iterations` trips.
  bool until_fixpoint = false;
};

using UdfFn =
    std::function<StatusOr<Table>(const std::vector<const Table*>& inputs)>;

struct UdfParams {
  std::string name;
  Schema output_schema;
  UdfFn fn;  // executed by all engines; engines charge generic UDF rates
};

struct BlackBoxParams {
  std::string backend;  // only this engine can run the operator
  std::string code;     // opaque native job payload (displayed, not parsed)
  Schema output_schema;
  UdfFn fn;  // simulation hook so results stay computable
};

using OpParams =
    std::variant<InputParams, SelectParams, ProjectParams, MapParams, JoinParams,
                 CrossJoinParams, UnionParams, IntersectParams, DifferenceParams,
                 DistinctParams, GroupByParams, AggParams, ExtremeParams,
                 TopNParams, SortParams, WhileParams, UdfParams, BlackBoxParams>;

// A node in the IR DAG. `inputs` reference producing node ids in the same
// DAG and are always smaller than the node's own id (DAGs are built in
// topological order, which also guarantees acyclicity).
struct OperatorNode {
  int id = -1;
  OpKind kind = OpKind::kInput;
  std::string output;       // name of the relation this operator defines
  std::vector<int> inputs;  // producer node ids
  OpParams params;

  // Short human-readable description, e.g. "JOIN[locs.id=prices.id] -> id_price".
  std::string DebugString() const;
};

// Expected number of data inputs for an operator kind (-1 = variable).
int OpArity(OpKind kind);

}  // namespace musketeer

#endif  // MUSKETEER_SRC_IR_OPERATOR_H_
