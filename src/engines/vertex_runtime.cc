#include "src/engines/vertex_runtime.h"

#include <algorithm>
#include <iterator>
#include <unordered_map>
#include <utility>

#include "src/base/cancel.h"
#include "src/base/parallel.h"
#include "src/opt/idiom.h"
#include "src/relational/ops.h"

namespace musketeer {

namespace {

struct ValueHash {
  size_t operator()(const Value& v) const { return HashValue(v); }
};
struct ValueEq {
  bool operator()(const Value& a, const Value& b) const {
    return ValuesEqual(a, b);
  }
};

// Compiled MAP: output schema plus per-column projectors with the same type
// coercion the kernel's MAP applies.
struct CompiledMap {
  Schema schema;
  std::vector<RowProjector> projectors;
};

StatusOr<CompiledMap> CompileMap(const MapParams& params, const Schema& in) {
  CompiledMap out;
  for (const NamedExpr& ne : params.outputs) {
    MUSKETEER_ASSIGN_OR_RETURN(FieldType t, ne.expr->InferType(in));
    out.schema.AddField({ne.name, t});
    MUSKETEER_ASSIGN_OR_RETURN(RowProjector proj, ne.expr->Compile(in));
    if (t == FieldType::kDouble) {
      out.projectors.emplace_back(
          [proj](const Row& row) -> Value { return AsDouble(proj(row)); });
    } else {
      out.projectors.push_back(proj);
    }
  }
  return out;
}

// Builds a join output row with the kernel's (key, left-rest, right-rest)
// layout.
Row JoinRow(const Row& lrow, int lkey, const Row& rrow, int rkey) {
  Row row;
  row.reserve(lrow.size() + rrow.size() - 1);
  row.push_back(lrow[lkey]);
  for (size_t c = 0; c < lrow.size(); ++c) {
    if (static_cast<int>(c) != lkey) {
      row.push_back(lrow[c]);
    }
  }
  for (size_t c = 0; c < rrow.size(); ++c) {
    if (static_cast<int>(c) != rkey) {
      row.push_back(rrow[c]);
    }
  }
  return row;
}

// The vertex program extracted from a graph-idiom WHILE body.
struct VertexProgram {
  // Scatter: JOIN(edge-side, vertex-side) + message MAP.
  const OperatorNode* scatter_join = nullptr;
  bool vertex_on_left = false;  // which join input carries the loop state
  int edge_key = 0;             // key column in the edge relation
  int vertex_key = 0;           // key (id) column in the vertex relation
  CompiledMap message;          // (destination id, message value)
  std::optional<CompiledMap> self_message;  // MIN/MAX gathers (SSSP)
  // Gather.
  AggFn gather = AggFn::kSum;
  FieldType msg_type = FieldType::kDouble;
  // Apply: JOIN(vertex, gathered) + update MAP.
  bool rejoin_vertex_on_left = true;
  CompiledMap apply;
  // Edge relation name (loop-invariant input).
  std::string edge_relation;
};

// Walks the idiom body and compiles it into a VertexProgram. The body must
// have the shape idiom recognition accepted: scatter JOIN -> message MAP
// [-> UNION with a vertex self-message MAP] -> GROUP BY -> rejoin JOIN ->
// apply MAP.
StatusOr<VertexProgram> ExtractProgram(const Dag& body,
                                       const std::string& loop_input,
                                       const SchemaMap& body_schemas_base) {
  MUSKETEER_ASSIGN_OR_RETURN(std::vector<Schema> schemas,
                             body.InferSchemas(body_schemas_base));

  auto reads_loop = [&](int id, auto&& self) -> bool {
    const OperatorNode& n = body.node(id);
    if (n.kind == OpKind::kInput) {
      return std::get<InputParams>(n.params).relation == loop_input;
    }
    for (int in : n.inputs) {
      if (self(in, self)) {
        return true;
      }
    }
    return false;
  };

  VertexProgram program;

  // 1. The scatter join: a JOIN with exactly one loop-state side.
  const OperatorNode* scatter = nullptr;
  for (const OperatorNode& n : body.nodes()) {
    if (n.kind != OpKind::kJoin) {
      continue;
    }
    bool left_loop = reads_loop(n.inputs[0], reads_loop);
    bool right_loop = reads_loop(n.inputs[1], reads_loop);
    if (left_loop != right_loop) {
      scatter = &n;
      program.vertex_on_left = left_loop;
      break;
    }
  }
  if (scatter == nullptr) {
    return FailedPreconditionError("vertex runtime: no scatter join in loop body");
  }
  program.scatter_join = scatter;
  {
    const auto& jp = std::get<JoinParams>(scatter->params);
    int vin = scatter->inputs[program.vertex_on_left ? 0 : 1];
    int ein = scatter->inputs[program.vertex_on_left ? 1 : 0];
    const Schema& vschema = schemas[vin];
    const Schema& eschema = schemas[ein];
    const std::string& vkey = program.vertex_on_left ? jp.left_key : jp.right_key;
    const std::string& ekey = program.vertex_on_left ? jp.right_key : jp.left_key;
    auto vidx = vschema.IndexOf(vkey);
    auto eidx = eschema.IndexOf(ekey);
    if (!vidx.has_value() || !eidx.has_value()) {
      return FailedPreconditionError("vertex runtime: join keys unresolved");
    }
    program.vertex_key = *vidx;
    program.edge_key = *eidx;
    // Edge relation name: the INPUT the edge side reads.
    const OperatorNode& edge_node = body.node(ein);
    if (edge_node.kind != OpKind::kInput) {
      return FailedPreconditionError(
          "vertex runtime: edge side must be a direct input");
    }
    program.edge_relation = std::get<InputParams>(edge_node.params).relation;
  }

  // 2. Message MAP directly consuming the join.
  std::vector<int> consumers = body.ConsumersOf(scatter->id);
  if (consumers.size() != 1 || body.node(consumers[0]).kind != OpKind::kMap) {
    return FailedPreconditionError("vertex runtime: missing message map");
  }
  const OperatorNode& msg_map = body.node(consumers[0]);
  {
    const auto& mp = std::get<MapParams>(msg_map.params);
    if (mp.outputs.size() != 2) {
      return FailedPreconditionError("vertex runtime: message map must be "
                                     "(destination, message)");
    }
    MUSKETEER_ASSIGN_OR_RETURN(program.message,
                               CompileMap(mp, schemas[scatter->id]));
  }

  // 3. Optional UNION with vertex self-messages, then the gather GROUP BY.
  int cursor = msg_map.id;
  consumers = body.ConsumersOf(cursor);
  if (consumers.size() == 1 && body.node(consumers[0]).kind == OpKind::kUnion) {
    const OperatorNode& u = body.node(consumers[0]);
    int other = u.inputs[0] == cursor ? u.inputs[1] : u.inputs[0];
    const OperatorNode& self_map = body.node(other);
    if (self_map.kind != OpKind::kMap || !reads_loop(other, reads_loop)) {
      return FailedPreconditionError("vertex runtime: unsupported union arm");
    }
    const auto& sp = std::get<MapParams>(self_map.params);
    if (sp.outputs.size() != 2) {
      return FailedPreconditionError("vertex runtime: self-message map shape");
    }
    MUSKETEER_ASSIGN_OR_RETURN(CompiledMap self,
                               CompileMap(sp, schemas[self_map.inputs[0]]));
    program.self_message = std::move(self);
    cursor = u.id;
    consumers = body.ConsumersOf(cursor);
  }
  if (consumers.size() != 1 || body.node(consumers[0]).kind != OpKind::kGroupBy) {
    return FailedPreconditionError("vertex runtime: missing gather group-by");
  }
  const OperatorNode& gather = body.node(consumers[0]);
  {
    const auto& gp = std::get<GroupByParams>(gather.params);
    if (gp.group_columns.size() != 1 || gp.aggs.size() != 1) {
      return FailedPreconditionError("vertex runtime: gather must aggregate one "
                                     "message column by vertex id");
    }
    program.gather = gp.aggs[0].fn;
    program.msg_type = program.message.schema.field(1).type;
  }

  // 4. Rejoin + apply.
  consumers = body.ConsumersOf(gather.id);
  if (consumers.size() != 1 || body.node(consumers[0]).kind != OpKind::kJoin) {
    return FailedPreconditionError("vertex runtime: missing apply join");
  }
  const OperatorNode& rejoin = body.node(consumers[0]);
  program.rejoin_vertex_on_left = reads_loop(rejoin.inputs[0], reads_loop);

  consumers = body.ConsumersOf(rejoin.id);
  if (consumers.size() != 1 || body.node(consumers[0]).kind != OpKind::kMap) {
    return FailedPreconditionError("vertex runtime: missing apply map");
  }
  const OperatorNode& apply_map = body.node(consumers[0]);
  MUSKETEER_ASSIGN_OR_RETURN(
      program.apply,
      CompileMap(std::get<MapParams>(apply_map.params), schemas[rejoin.id]));
  return program;
}

// Message accumulator with GroupByAgg-identical semantics.
struct Gathered {
  double sum = 0;
  double min = 1e300;
  double max = -1e300;
  int64_t count = 0;

  void Add(const Value& v) {
    double d = AsDouble(v);
    sum += d;
    min = std::min(min, d);
    max = std::max(max, d);
    ++count;
  }

  // Folds another accumulator in (associative; AVG via (sum, count)).
  void Merge(const Gathered& o) {
    sum += o.sum;
    min = std::min(min, o.min);
    max = std::max(max, o.max);
    count += o.count;
  }

  Value Finalize(AggFn fn, FieldType msg_type) const {
    double v = 0;
    switch (fn) {
      case AggFn::kSum:
        v = sum;
        break;
      case AggFn::kCount:
        return count;
      case AggFn::kMin:
        v = min;
        break;
      case AggFn::kMax:
        v = max;
        break;
      case AggFn::kAvg:
        return count > 0 ? sum / static_cast<double>(count) : 0.0;
    }
    // SUM/MIN/MAX of an integer message stays integral (kernel rule).
    if (msg_type == FieldType::kInt64) {
      return static_cast<int64_t>(v);
    }
    return v;
  }
};

// Runs the compiled program for `iterations` supersteps (stopping early at
// a vertex-state fixpoint when requested).
StatusOr<Table> RunSupersteps(const VertexProgram& program, const Table& vertices,
                              const Table& edges, int64_t iterations,
                              bool until_fixpoint, VertexRuntimeStats* stats) {
  std::vector<Row> state = vertices.MaterializeRows();
  // The vertex program is row-at-a-time (compiled RowProjectors); edges are
  // loop-invariant, so materialize them once outside the supersteps.
  const std::vector<Row> erows = edges.MaterializeRows();

  for (int64_t iter = 0; iter < iterations; ++iter) {
    MUSKETEER_RETURN_IF_ERROR(CheckInterrupt());
    ++stats->supersteps;
    // Vertex index on the id column.
    std::unordered_map<Value, const Row*, ValueHash, ValueEq> index;
    index.reserve(state.size());
    for (const Row& v : state) {
      index.emplace(v[program.vertex_key], &v);
    }

    // Scatter: per-edge messages to destination buckets. Edge morsels fill
    // chunk-local inboxes in parallel (the vertex index is read-only here);
    // the per-destination accumulators then merge in chunk order, a fixed
    // tree independent of the thread count.
    using Inbox = std::unordered_map<Value, Gathered, ValueHash, ValueEq>;
    auto chunk_inboxes = ParallelMapChunks<std::pair<Inbox, int64_t>>(
        erows.size(), kMorselRows,
        [&](size_t, size_t begin, size_t end) {
          std::pair<Inbox, int64_t> out;
          for (size_t e = begin; e < end; ++e) {
            const Row& edge = erows[e];
            auto it = index.find(edge[program.edge_key]);
            if (it == index.end()) {
              continue;  // dangling edge: inner-join semantics
            }
            Row joined = program.vertex_on_left
                             ? JoinRow(*it->second, program.vertex_key, edge,
                                       program.edge_key)
                             : JoinRow(edge, program.edge_key, *it->second,
                                       program.vertex_key);
            Value dst = program.message.projectors[0](joined);
            Value msg = program.message.projectors[1](joined);
            out.first[dst].Add(msg);
            ++out.second;
          }
          return out;
        });
    Inbox inbox;
    for (auto& [chunk_inbox, sent] : chunk_inboxes) {
      stats->messages_sent += sent;
      for (auto& [dst, gathered] : chunk_inbox) {
        inbox[dst].Merge(gathered);
      }
    }
    // Self-messages (extremum gathers keep the current state alive).
    if (program.self_message.has_value()) {
      for (const Row& v : state) {
        Value dst = program.self_message->projectors[0](v);
        Value msg = program.self_message->projectors[1](v);
        inbox[dst].Add(msg);
        ++stats->messages_sent;
      }
    }

    // Gather + apply: vertices with messages produce the next state. State
    // morsels apply in parallel against the read-only inbox; per-chunk next
    // vectors concatenate in chunk order (= state order, as sequentially).
    auto apply_parts = ParallelMapChunks<std::vector<Row>>(
        state.size(), kMorselRows, [&](size_t, size_t begin, size_t end) {
          std::vector<Row> chunk_next;
          for (size_t s = begin; s < end; ++s) {
            const Row& v = state[s];
            auto it = inbox.find(v[program.vertex_key]);
            if (it == inbox.end()) {
              continue;  // no messages: dropped by the rejoin (inner join)
            }
            Row acc_row{it->first,
                        it->second.Finalize(program.gather, program.msg_type)};
            Row joined = program.rejoin_vertex_on_left
                             ? JoinRow(v, program.vertex_key, acc_row, 0)
                             : JoinRow(acc_row, 0, v, program.vertex_key);
            Row updated;
            updated.reserve(program.apply.projectors.size());
            for (const RowProjector& proj : program.apply.projectors) {
              updated.push_back(proj(joined));
            }
            chunk_next.push_back(std::move(updated));
          }
          return chunk_next;
        });
    std::vector<Row> next;
    next.reserve(inbox.size());
    for (std::vector<Row>& part : apply_parts) {
      stats->vertex_updates += static_cast<int64_t>(part.size());
      next.insert(next.end(), std::make_move_iterator(part.begin()),
                  std::make_move_iterator(part.end()));
    }
    if (until_fixpoint) {
      Table before(program.apply.schema, state);
      Table after(program.apply.schema, next);
      if (iter == 0) {
        // First trip: `state` still has the seed schema; compare by content
        // only when arities agree.
        before = Table(vertices.schema(), state);
      }
      if (before.schema().num_fields() == after.schema().num_fields() &&
          Table::SameContent(before, after)) {
        state = std::move(next);
        break;
      }
    }
    state = std::move(next);
  }

  Table out(program.apply.schema, std::move(state));
  out.set_scale(vertices.scale());
  return out;
}

}  // namespace

StatusOr<VertexRuntimeResult> ExecuteViaVertexRuntime(const Dag& dag,
                                                      const TableMap& base) {
  VertexRuntimeResult result;
  // Batch pre/post-processing operators run through the kernel; each WHILE
  // runs as supersteps of its extracted vertex program.
  auto supersteps = [&result](const Dag& outer, const OperatorNode& node,
                              const TableMap&,
                              const std::vector<TablePtr>& inputs)
      -> StatusOr<TablePtr> {
    if (!IsGraphIdiom(outer, node.id)) {
      return FailedPreconditionError(
          "vertex runtime can only execute graph-idiom loops");
    }
    const auto& wp = std::get<WhileParams>(node.params);
    if (wp.bindings.size() != 1) {
      return FailedPreconditionError(
          "vertex runtime expects one loop-carried vertex relation");
    }
    // Schemas for the body: loop seed + loop-invariant inputs.
    SchemaMap body_base;
    TableMap body_tables;
    body_base[wp.bindings[0].loop_input] = inputs[0]->schema();
    body_tables[wp.bindings[0].loop_input] = inputs[0];
    for (size_t i = 1; i < node.inputs.size(); ++i) {
      const std::string& name = outer.node(node.inputs[i]).output;
      body_base[name] = inputs[i]->schema();
      body_tables[name] = inputs[i];
    }
    MUSKETEER_ASSIGN_OR_RETURN(
        VertexProgram program,
        ExtractProgram(*wp.body, wp.bindings[0].loop_input, body_base));
    auto edges_it = body_tables.find(program.edge_relation);
    if (edges_it == body_tables.end()) {
      return FailedPreconditionError("vertex runtime: edge relation '" +
                                     program.edge_relation +
                                     "' is not a loop input");
    }
    MUSKETEER_ASSIGN_OR_RETURN(
        Table final_state,
        RunSupersteps(program, *inputs[0], *edges_it->second, wp.iterations,
                      wp.until_fixpoint, &result.stats));
    return TablePtr(std::make_shared<Table>(std::move(final_state)));
  };
  MUSKETEER_ASSIGN_OR_RETURN(result.relations,
                             WalkDag(dag, base, EvaluateOperator, supersteps));
  return result;
}

}  // namespace musketeer
