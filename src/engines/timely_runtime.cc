#include "src/engines/timely_runtime.h"

#include <algorithm>

#include "src/backends/job.h"
#include "src/relational/ops.h"

// Parallelism note: this runtime is deliberately NOT morsel-parallelized.
// It models Naiad's record-at-a-time dataflow — operators hold mutable
// per-port state (buffers, notifications) that a streamed record mutates on
// every OnRecv, so the whole dataflow is one sequential pass by
// construction. Stateful operators that evaluate a whole relation at a
// notification barrier call the shared relational kernels, which
// parallelize internally (see DESIGN.md "Parallel data plane").

namespace musketeer {

namespace {

// One instantiated dataflow over a DAG (the WHILE bodies get their own
// instantiation per epoch).
class TimelyGraph {
 public:
  TimelyGraph(const Dag& dag, const TableMap& base, TimelyStats* stats)
      : dag_(dag), base_(base), stats_(stats) {}

  Status Run(TableMap* produced) {
    MUSKETEER_RETURN_IF_ERROR(Build());
    // Drive: stream every source, then notify its consumers; stateful
    // operators fire once all of their ports have been notified, so the
    // source order does not matter on an acyclic graph.
    for (const OperatorNode& node : dag_.nodes()) {
      if (node.kind == OpKind::kInput) {
        const auto& p = std::get<InputParams>(node.params);
        auto it = relations_.find(p.relation);
        if (it == relations_.end()) {
          return NotFoundError("base relation '" + p.relation + "' not provided");
        }
        for (size_t i = 0; i < it->second->num_rows(); ++i) {
          MUSKETEER_RETURN_IF_ERROR(Fanout(node.id, it->second->MaterializeRow(i)));
        }
        MUSKETEER_RETURN_IF_ERROR(NotifyDownstream(node.id));
        ops_[node.id].collected = nullptr;  // inputs pass through untouched
        relations_[node.output] = it->second;
        continue;
      }
      if (node.kind == OpKind::kWhile) {
        MUSKETEER_RETURN_IF_ERROR(RunWhile(node, produced));
        continue;
      }
    }
    // Collect every operator's emissions as its relation.
    for (const OperatorNode& node : dag_.nodes()) {
      if (node.kind == OpKind::kInput || node.kind == OpKind::kWhile) {
        continue;
      }
      OpState& op = ops_[node.id];
      if (op.collected == nullptr) {
        return InternalError("operator '" + node.output + "' never fired");
      }
      std::vector<ScaledRows> scales;
      for (int in : node.inputs) {
        scales.push_back({SourceRows(in), SourceScale(in)});
      }
      op.collected->set_scale(OutputScale(node.kind, scales));
      relations_[node.output] = op.collected;
      (*produced)[node.output] = op.collected;
    }
    return OkStatus();
  }

 private:
  struct PortRef {
    int consumer = -1;
    int port = 0;
  };

  struct OpState {
    // Streaming transforms (row-wise operators only).
    RowPredicate predicate;                 // kSelect
    std::vector<RowProjector> projectors;   // kProject / kMap
    // Buffers for stateful operators, one per input port.
    std::vector<Table> buffers;
    // Downstream wiring and notification accounting.
    std::vector<PortRef> fanout;
    int ports = 0;
    int ports_notified = 0;
    bool fired = false;
    bool streaming = false;  // forwards records without buffering
    std::shared_ptr<Table> collected;
    Schema out_schema;
  };

  Status Build() {
    relations_ = base_;
    ops_.resize(dag_.num_nodes());

    // Infer schemas so streaming transforms can be compiled.
    SchemaMap schema_base;
    for (const auto& [name, table] : relations_) {
      schema_base[name] = table->schema();
    }
    MUSKETEER_ASSIGN_OR_RETURN(std::vector<Schema> schemas,
                               dag_.InferSchemas(schema_base));

    for (const OperatorNode& node : dag_.nodes()) {
      OpState& op = ops_[node.id];
      op.ports = static_cast<int>(node.inputs.size());
      op.out_schema = schemas[node.id];
      op.collected = std::make_shared<Table>(op.out_schema);
      for (size_t k = 0; k < node.inputs.size(); ++k) {
        ops_[node.inputs[k]].fanout.push_back(
            PortRef{node.id, static_cast<int>(k)});
      }
      if (node.kind == OpKind::kWhile) {
        // Loop ingress: buffer each input port with its proper schema.
        for (int k = 0; k < op.ports; ++k) {
          op.buffers.emplace_back(schemas[node.inputs[k]]);
        }
        continue;
      }
      if (node.kind == OpKind::kInput) {
        continue;
      }
      const Schema& in_schema = schemas[node.inputs[0]];
      switch (node.kind) {
        case OpKind::kSelect: {
          const auto& p = std::get<SelectParams>(node.params);
          MUSKETEER_ASSIGN_OR_RETURN(op.predicate,
                                     p.condition->CompilePredicate(in_schema));
          op.streaming = true;
          break;
        }
        case OpKind::kProject: {
          const auto& p = std::get<ProjectParams>(node.params);
          for (const std::string& name : p.columns) {
            auto idx = in_schema.IndexOf(name);
            if (!idx.has_value()) {
              return InvalidArgumentError("timely: missing column '" + name + "'");
            }
            int i = *idx;
            op.projectors.emplace_back([i](const Row& row) { return row[i]; });
          }
          op.streaming = true;
          break;
        }
        case OpKind::kMap: {
          const auto& p = std::get<MapParams>(node.params);
          for (size_t i = 0; i < p.outputs.size(); ++i) {
            MUSKETEER_ASSIGN_OR_RETURN(RowProjector proj,
                                       p.outputs[i].expr->Compile(in_schema));
            if (op.out_schema.field(i).type == FieldType::kDouble) {
              op.projectors.emplace_back([proj](const Row& row) -> Value {
                return AsDouble(proj(row));
              });
            } else {
              op.projectors.push_back(proj);
            }
          }
          op.streaming = true;
          break;
        }
        case OpKind::kUnion:
          op.streaming = true;  // forwards both ports record-at-a-time
          break;
        default:
          // Stateful: buffer per port until notified on every port.
          for (int k = 0; k < op.ports; ++k) {
            op.buffers.emplace_back(schemas[node.inputs[k]]);
          }
          break;
      }
    }
    return OkStatus();
  }

  Status Fanout(int producer, const Row& row) {
    for (const PortRef& ref : ops_[producer].fanout) {
      MUSKETEER_RETURN_IF_ERROR(OnRecv(ref.consumer, ref.port, row));
    }
    return OkStatus();
  }

  Status Emit(int node, const Row& row) {
    ops_[node].collected->AddRow(row);
    return Fanout(node, row);
  }

  Status OnRecv(int node_id, int port, const Row& row) {
    const OperatorNode& node = dag_.node(node_id);
    OpState& op = ops_[node_id];
    if (node.kind == OpKind::kWhile) {
      // Loop inputs buffer at the loop boundary (the ingress vertex).
      op.buffers[port].AddRow(row);
      ++stats_->records_buffered;
      return OkStatus();
    }
    if (op.streaming) {
      ++stats_->records_streamed;
      switch (node.kind) {
        case OpKind::kSelect:
          if (op.predicate(row)) {
            return Emit(node_id, row);
          }
          return OkStatus();
        case OpKind::kProject:
        case OpKind::kMap: {
          Row out;
          out.reserve(op.projectors.size());
          for (const RowProjector& proj : op.projectors) {
            out.push_back(proj(row));
          }
          return Emit(node_id, std::move(out));
        }
        case OpKind::kUnion:
          return Emit(node_id, row);
        default:
          return InternalError("streaming flag on stateful operator");
      }
    }
    op.buffers[port].AddRow(row);
    ++stats_->records_buffered;
    return OkStatus();
  }

  Status NotifyDownstream(int producer) {
    for (const PortRef& ref : ops_[producer].fanout) {
      MUSKETEER_RETURN_IF_ERROR(OnNotify(ref.consumer));
    }
    return OkStatus();
  }

  Status OnNotify(int node_id) {
    const OperatorNode& node = dag_.node(node_id);
    OpState& op = ops_[node_id];
    ++op.ports_notified;
    ++stats_->notifications;
    if (op.ports_notified < op.ports || op.fired) {
      return OkStatus();
    }
    op.fired = true;
    if (node.kind == OpKind::kWhile) {
      return OkStatus();  // loops fire from Run() once their inputs settled
    }
    if (!op.streaming) {
      // Stateful operator: evaluate the buffered ports, stream the result.
      std::vector<const Table*> inputs;
      for (const Table& t : op.buffers) {
        inputs.push_back(&t);
      }
      MUSKETEER_ASSIGN_OR_RETURN(Table result, EvaluateOperator(node, inputs));
      for (size_t i = 0; i < result.num_rows(); ++i) {
        Row row = result.MaterializeRow(i);
        MUSKETEER_RETURN_IF_ERROR(Fanout(node_id, row));
        op.collected->AddRow(row);
      }
    }
    return NotifyDownstream(node_id);
  }

  Status RunWhile(const OperatorNode& node, TableMap* produced) {
    OpState& op = ops_[node.id];
    // Loop ingress: the buffered ports become the loop's seeds.
    std::vector<TablePtr> seeds;
    for (size_t i = 0; i < node.inputs.size(); ++i) {
      auto seed = std::make_shared<Table>(std::move(op.buffers[i]));
      seed->set_scale(SourceScale(node.inputs[i]));
      seeds.push_back(std::move(seed));
    }
    // Each trip is one epoch through a fresh instantiation of the body.
    MUSKETEER_ASSIGN_OR_RETURN(
        TablePtr result,
        RunWhileLoop(dag_, node, base_, seeds,
                     [this](const Dag& body, const TableMap& trip_base,
                            int) -> StatusOr<TableMap> {
                       ++stats_->epochs;
                       TableMap out;
                       TimelyGraph epoch(body, trip_base, stats_);
                       MUSKETEER_RETURN_IF_ERROR(epoch.Run(&out));
                       return out;
                     }));
    // Egress: stream the loop result onward.
    for (size_t i = 0; i < result->num_rows(); ++i) {
      MUSKETEER_RETURN_IF_ERROR(Fanout(node.id, result->MaterializeRow(i)));
    }
    MUSKETEER_RETURN_IF_ERROR(NotifyDownstream(node.id));
    op.collected = nullptr;
    relations_[node.output] = result;
    (*produced)[node.output] = result;
    return OkStatus();
  }

  double SourceScale(int id) const {
    auto it = relations_.find(dag_.node(id).output);
    return it != relations_.end() ? it->second->scale() : 1.0;
  }
  double SourceRows(int id) const {
    auto it = relations_.find(dag_.node(id).output);
    return it != relations_.end() ? static_cast<double>(it->second->num_rows())
                                  : 0.0;
  }

  const Dag& dag_;
  TableMap base_;
  TableMap relations_;
  std::vector<OpState> ops_;
  TimelyStats* stats_;
};

}  // namespace

StatusOr<TimelyResult> ExecuteViaTimely(const Dag& dag, const TableMap& base) {
  TimelyResult result;
  TimelyGraph graph(dag, base, &result.stats);
  MUSKETEER_RETURN_IF_ERROR(graph.Run(&result.relations));
  return result;
}

}  // namespace musketeer
