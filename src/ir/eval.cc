#include "src/ir/eval.h"

#include "src/base/cancel.h"
#include "src/relational/ops.h"

namespace musketeer {

namespace {

// Runs a kGroupBy/kAgg node: resolves its column names against `in`, then
// aggregates.
StatusOr<Table> EvalGroupByLike(const OperatorNode& node, const Table& in) {
  std::vector<std::string> group_columns;
  std::vector<NamedAgg> aggs;
  if (node.kind == OpKind::kGroupBy) {
    const auto& p = std::get<GroupByParams>(node.params);
    group_columns = p.group_columns;
    aggs = p.aggs;
  } else {
    aggs = std::get<AggParams>(node.params).aggs;
  }
  std::vector<int> group_idx;
  for (const std::string& c : group_columns) {
    auto idx = in.schema().IndexOf(c);
    if (!idx.has_value()) {
      return InvalidArgumentError("GROUP BY: no column '" + c + "'");
    }
    group_idx.push_back(*idx);
  }
  std::vector<AggSpec> specs;
  for (const NamedAgg& a : aggs) {
    int col = 0;
    if (a.fn != AggFn::kCount) {
      auto idx = in.schema().IndexOf(a.column);
      if (!idx.has_value()) {
        return InvalidArgumentError("AGG: no column '" + a.column + "'");
      }
      col = *idx;
    }
    specs.push_back(AggSpec{a.fn, col, a.output_name});
  }
  return GroupByAgg(in, group_idx, specs);
}

// Compiles a kMap node's output expressions against `schema`, inserting the
// int64 → double widening wrapper where the inferred type is kDouble (a
// mixed int/double expression can evaluate integral; downstream type checks
// rely on the inferred schema).
Status CompileMapExprs(const MapParams& p, const Schema& schema,
                       Schema* out_schema, std::vector<BatchEval>* exprs) {
  for (const NamedExpr& ne : p.outputs) {
    MUSKETEER_ASSIGN_OR_RETURN(FieldType t, ne.expr->InferType(schema));
    out_schema->AddField({ne.name, t});
    MUSKETEER_ASSIGN_OR_RETURN(BatchEval eval, ne.expr->CompileBatch(schema));
    if (t == FieldType::kDouble) {
      exprs->emplace_back([eval](const Table& in, size_t begin,
                                 size_t end) -> Column {
        Column c = eval(in, begin, end);
        if (c.type() != FieldType::kInt64) {
          return c;
        }
        Column out(FieldType::kDouble);
        std::vector<double>& v = *out.mutable_doubles();
        const std::vector<int64_t>& iv = c.ints();
        v.reserve(iv.size());
        for (int64_t x : iv) v.push_back(static_cast<double>(x));
        return out;
      });
    } else {
      exprs->push_back(eval);
    }
  }
  return OkStatus();
}

}  // namespace

StatusOr<Table> EvaluateOperator(const OperatorNode& node,
                                 const std::vector<const Table*>& inputs) {
  switch (node.kind) {
    case OpKind::kInput:
    case OpKind::kWhile:
      return InternalError(std::string(OpKindName(node.kind)) +
                           " must be handled by the DAG walker");
    case OpKind::kSelect: {
      const auto& p = std::get<SelectParams>(node.params);
      // Selection-bitmap predicate evaluation: the compiled mask writes one
      // byte per row and the kernel compacts survivors branch-free — no
      // intermediate 0/1 column (kept set identical to CompilePredicate).
      MUSKETEER_ASSIGN_OR_RETURN(MaskEval pred,
                                 p.condition->CompileMask(inputs[0]->schema()));
      return SelectRowsMask(*inputs[0], pred);
    }
    case OpKind::kProject: {
      const auto& p = std::get<ProjectParams>(node.params);
      std::vector<int> cols;
      for (const std::string& c : p.columns) {
        auto idx = inputs[0]->schema().IndexOf(c);
        if (!idx.has_value()) {
          return InvalidArgumentError("PROJECT: no column '" + c + "' in " +
                                      inputs[0]->schema().ToString());
        }
        cols.push_back(*idx);
      }
      return ProjectColumns(*inputs[0], cols);
    }
    case OpKind::kMap: {
      const auto& p = std::get<MapParams>(node.params);
      Schema out_schema;
      std::vector<BatchEval> exprs;
      MUSKETEER_RETURN_IF_ERROR(
          CompileMapExprs(p, inputs[0]->schema(), &out_schema, &exprs));
      return MapRowsBatch(*inputs[0], out_schema, exprs);
    }
    case OpKind::kJoin: {
      const auto& p = std::get<JoinParams>(node.params);
      auto li = inputs[0]->schema().IndexOf(p.left_key);
      auto ri = inputs[1]->schema().IndexOf(p.right_key);
      if (!li.has_value() || !ri.has_value()) {
        return InvalidArgumentError("JOIN: key column missing");
      }
      return HashJoin(*inputs[0], *inputs[1], *li, *ri);
    }
    case OpKind::kCrossJoin:
      return CrossJoin(*inputs[0], *inputs[1]);
    case OpKind::kUnion:
      return UnionAll(*inputs[0], *inputs[1]);
    case OpKind::kIntersect:
      return Intersect(*inputs[0], *inputs[1]);
    case OpKind::kDifference:
      return Difference(*inputs[0], *inputs[1]);
    case OpKind::kDistinct:
      return Distinct(*inputs[0]);
    case OpKind::kGroupBy:
    case OpKind::kAgg:
      return EvalGroupByLike(node, *inputs[0]);
    case OpKind::kMax:
    case OpKind::kMin: {
      const auto& p = std::get<ExtremeParams>(node.params);
      auto idx = inputs[0]->schema().IndexOf(p.column);
      if (!idx.has_value()) {
        return InvalidArgumentError("MAX/MIN: no column '" + p.column + "'");
      }
      return ExtremeRow(*inputs[0], *idx, node.kind == OpKind::kMax);
    }
    case OpKind::kTopN: {
      const auto& p = std::get<TopNParams>(node.params);
      auto idx = inputs[0]->schema().IndexOf(p.column);
      if (!idx.has_value()) {
        return InvalidArgumentError("TOP_N: no column '" + p.column + "'");
      }
      return TopNBy(*inputs[0], *idx, static_cast<size_t>(p.n));
    }
    case OpKind::kSort: {
      const auto& p = std::get<SortParams>(node.params);
      std::vector<int> cols;
      for (const std::string& c : p.columns) {
        auto idx = inputs[0]->schema().IndexOf(c);
        if (!idx.has_value()) {
          return InvalidArgumentError("SORT: no column '" + c + "'");
        }
        cols.push_back(*idx);
      }
      return SortBy(*inputs[0], cols);
    }
    case OpKind::kUdf: {
      const auto& p = std::get<UdfParams>(node.params);
      if (!p.fn) {
        return FailedPreconditionError("UDF '" + p.name + "' has no implementation");
      }
      return p.fn(inputs);
    }
    case OpKind::kBlackBox: {
      const auto& p = std::get<BlackBoxParams>(node.params);
      if (!p.fn) {
        return FailedPreconditionError("black-box operator has no simulation hook");
      }
      return p.fn(inputs);
    }
  }
  return InternalError("bad op kind");
}

StatusOr<TableMap> WalkDag(const Dag& dag, const TableMap& base,
                           const OperatorEval& op, const WhileEval& loop) {
  TableMap produced;
  std::vector<TablePtr> by_node(dag.num_nodes());
  std::vector<const Table*> inputs;
  std::vector<TablePtr> loop_inputs;
  for (const OperatorNode& node : dag.nodes()) {
    // Cooperative cancellation/deadline checkpoint: a no-op unless the
    // executing thread has a ScopedInterrupt installed.
    MUSKETEER_RETURN_IF_ERROR(CheckInterrupt());
    if (node.kind == OpKind::kInput) {
      const auto& p = std::get<InputParams>(node.params);
      auto it = base.find(p.relation);
      if (it == base.end()) {
        return NotFoundError("base relation '" + p.relation + "' not provided");
      }
      by_node[node.id] = it->second;
      continue;
    }
    TablePtr table;
    if (node.kind == OpKind::kWhile) {
      loop_inputs.clear();
      for (int i : node.inputs) {
        loop_inputs.push_back(by_node[i]);
      }
      MUSKETEER_ASSIGN_OR_RETURN(table, loop(dag, node, base, loop_inputs));
    } else {
      inputs.clear();
      for (int i : node.inputs) {
        inputs.push_back(by_node[i].get());
      }
      auto result = op(node, inputs);
      if (!result.ok()) {
        return Status(result.status().code(),
                      node.DebugString() + ": " + result.status().message());
      }
      table = std::make_shared<Table>(std::move(result).value());
    }
    by_node[node.id] = table;
    produced[node.output] = std::move(table);
  }
  return produced;
}

StatusOr<TablePtr> RunWhileLoop(const Dag& dag, const OperatorNode& node,
                                const TableMap& base,
                                const std::vector<TablePtr>& inputs,
                                const TripFn& trip) {
  const auto& p = std::get<WhileParams>(node.params);
  TableMap state = base;
  for (size_t i = 0; i < p.bindings.size(); ++i) {
    state[p.bindings[i].loop_input] = inputs[i];
  }
  for (size_t i = p.bindings.size(); i < node.inputs.size(); ++i) {
    state[dag.node(node.inputs[i]).output] = inputs[i];
  }
  std::vector<TablePtr> next(p.bindings.size());
  for (int64_t t = 0; t < p.iterations; ++t) {
    MUSKETEER_RETURN_IF_ERROR(CheckInterrupt());
    MUSKETEER_ASSIGN_OR_RETURN(TableMap out,
                               trip(*p.body, state, static_cast<int>(t)));
    auto resolve = [&](const std::string& name) -> TablePtr {
      auto it = out.find(name);
      if (it != out.end()) {
        return it->second;
      }
      it = state.find(name);
      return it != state.end() ? it->second : nullptr;
    };
    bool stable = p.until_fixpoint;
    for (size_t i = 0; i < p.bindings.size(); ++i) {
      next[i] = resolve(p.bindings[i].body_output);
      if (next[i] == nullptr) {
        return InternalError("loop relation '" + p.bindings[i].body_output +
                             "' missing");
      }
      stable = stable && Table::SameContent(*state[p.bindings[i].loop_input],
                                            *next[i]);
    }
    if (stable || t + 1 == p.iterations) {
      TablePtr result = resolve(p.result);
      if (result == nullptr) {
        return InternalError("WHILE result relation '" + p.result +
                             "' missing");
      }
      return result;
    }
    for (size_t i = 0; i < p.bindings.size(); ++i) {
      state[p.bindings[i].loop_input] = std::move(next[i]);
    }
  }
  return InternalError("WHILE '" + node.output + "' ran no trips");
}

namespace {

StatusOr<TableMap> EvaluateWalk(const Dag& dag, const TableMap& base) {
  return WalkDag(
      dag, base, EvaluateOperator,
      [](const Dag& outer, const OperatorNode& node, const TableMap& outer_base,
         const std::vector<TablePtr>& inputs) {
        return RunWhileLoop(outer, node, outer_base, inputs,
                            [](const Dag& body, const TableMap& trip_base,
                               int) { return EvaluateWalk(body, trip_base); });
      });
}

}  // namespace

StatusOr<TableMap> EvaluateDag(const Dag& dag, const TableMap& base) {
  MUSKETEER_ASSIGN_OR_RETURN(TableMap produced, EvaluateWalk(dag, base));
  TableMap relations = base;
  for (auto& [name, table] : produced) {
    relations[name] = std::move(table);
  }
  return relations;
}

StatusOr<Table> EvaluateDagRelation(const Dag& dag, const TableMap& base,
                                    const std::string& name) {
  MUSKETEER_ASSIGN_OR_RETURN(TableMap all, EvaluateDag(dag, base));
  auto it = all.find(name);
  if (it == all.end()) {
    return NotFoundError("relation '" + name + "' not produced by the workflow");
  }
  return *it->second;
}

}  // namespace musketeer
