#include "src/ir/dag.h"

#include <sstream>
#include <unordered_set>

namespace musketeer {

namespace {

// Infers the output schema of a single (non-WHILE) operator from its input
// schemas. Shared by Dag::InferSchemas.
StatusOr<Schema> InferNodeSchema(const OperatorNode& node,
                                 const std::vector<const Schema*>& in) {
  switch (node.kind) {
    case OpKind::kInput:
      return InternalError("kInput handled by caller");
    case OpKind::kSelect: {
      const auto& p = std::get<SelectParams>(node.params);
      if (!p.condition->ResolvesAgainst(*in[0])) {
        return InvalidArgumentError("SELECT '" + node.output + "': condition " +
                                    p.condition->ToString() +
                                    " references columns missing from " +
                                    in[0]->ToString());
      }
      return *in[0];
    }
    case OpKind::kProject: {
      const auto& p = std::get<ProjectParams>(node.params);
      Schema out;
      for (const std::string& c : p.columns) {
        auto idx = in[0]->IndexOf(c);
        if (!idx.has_value()) {
          return InvalidArgumentError("PROJECT '" + node.output + "': no column '" +
                                      c + "' in " + in[0]->ToString());
        }
        out.AddField(in[0]->field(*idx));
      }
      return out;
    }
    case OpKind::kMap: {
      const auto& p = std::get<MapParams>(node.params);
      Schema out;
      for (const NamedExpr& ne : p.outputs) {
        MUSKETEER_ASSIGN_OR_RETURN(FieldType t, ne.expr->InferType(*in[0]));
        out.AddField({ne.name, t});
      }
      return out;
    }
    case OpKind::kJoin: {
      const auto& p = std::get<JoinParams>(node.params);
      auto li = in[0]->IndexOf(p.left_key);
      auto ri = in[1]->IndexOf(p.right_key);
      if (!li.has_value() || !ri.has_value()) {
        return InvalidArgumentError("JOIN '" + node.output + "': key missing (" +
                                    p.left_key + " in " + in[0]->ToString() + "; " +
                                    p.right_key + " in " + in[1]->ToString() + ")");
      }
      Schema out;
      out.AddField(in[0]->field(*li));
      for (size_t c = 0; c < in[0]->num_fields(); ++c) {
        if (static_cast<int>(c) != *li) {
          out.AddField(in[0]->field(c));
        }
      }
      for (size_t c = 0; c < in[1]->num_fields(); ++c) {
        if (static_cast<int>(c) != *ri) {
          out.AddField(in[1]->field(c));
        }
      }
      return out;
    }
    case OpKind::kCrossJoin: {
      Schema out;
      for (const Field& f : in[0]->fields()) {
        out.AddField(f);
      }
      for (const Field& f : in[1]->fields()) {
        out.AddField(f);
      }
      return out;
    }
    case OpKind::kUnion:
    case OpKind::kIntersect:
    case OpKind::kDifference: {
      if (in[0]->num_fields() != in[1]->num_fields()) {
        return InvalidArgumentError(std::string(OpKindName(node.kind)) + " '" +
                                    node.output + "': arity mismatch " +
                                    in[0]->ToString() + " vs " + in[1]->ToString());
      }
      return *in[0];
    }
    case OpKind::kDistinct:
    case OpKind::kSort:
      return *in[0];
    case OpKind::kGroupBy:
    case OpKind::kAgg: {
      std::vector<std::string> group_columns;
      std::vector<NamedAgg> aggs;
      if (node.kind == OpKind::kGroupBy) {
        const auto& p = std::get<GroupByParams>(node.params);
        group_columns = p.group_columns;
        aggs = p.aggs;
      } else {
        aggs = std::get<AggParams>(node.params).aggs;
      }
      Schema out;
      for (const std::string& c : group_columns) {
        auto idx = in[0]->IndexOf(c);
        if (!idx.has_value()) {
          return InvalidArgumentError("GROUP BY '" + node.output + "': no column '" +
                                      c + "' in " + in[0]->ToString());
        }
        out.AddField(in[0]->field(*idx));
      }
      for (const NamedAgg& a : aggs) {
        FieldType t = FieldType::kDouble;
        if (a.fn == AggFn::kCount) {
          t = FieldType::kInt64;
        } else {
          auto idx = in[0]->IndexOf(a.column);
          if (!idx.has_value()) {
            return InvalidArgumentError("AGG '" + node.output + "': no column '" +
                                        a.column + "' in " + in[0]->ToString());
          }
          if (in[0]->field(*idx).type == FieldType::kInt64 &&
              (a.fn == AggFn::kSum || a.fn == AggFn::kMin || a.fn == AggFn::kMax)) {
            t = FieldType::kInt64;
          }
          if (in[0]->field(*idx).type == FieldType::kString) {
            return InvalidArgumentError("AGG '" + node.output +
                                        "': aggregating string column '" + a.column +
                                        "'");
          }
        }
        out.AddField({a.output_name, t});
      }
      return out;
    }
    case OpKind::kMax:
    case OpKind::kMin: {
      const auto& p = std::get<ExtremeParams>(node.params);
      if (!in[0]->IndexOf(p.column).has_value()) {
        return InvalidArgumentError(std::string(OpKindName(node.kind)) + " '" +
                                    node.output + "': no column '" + p.column +
                                    "' in " + in[0]->ToString());
      }
      return *in[0];
    }
    case OpKind::kTopN: {
      const auto& p = std::get<TopNParams>(node.params);
      if (!in[0]->IndexOf(p.column).has_value()) {
        return InvalidArgumentError("TOP_N '" + node.output + "': no column '" +
                                    p.column + "' in " + in[0]->ToString());
      }
      return *in[0];
    }
    case OpKind::kWhile:
      return InternalError("kWhile handled by caller");
    case OpKind::kUdf:
      return std::get<UdfParams>(node.params).output_schema;
    case OpKind::kBlackBox:
      return std::get<BlackBoxParams>(node.params).output_schema;
  }
  return InternalError("bad op kind");
}

}  // namespace

int Dag::AddNode(OpKind kind, std::string output, std::vector<int> inputs,
                 OpParams params) {
  OperatorNode node;
  node.id = static_cast<int>(nodes_.size());
  node.kind = kind;
  node.output = std::move(output);
  node.inputs = std::move(inputs);
  node.params = std::move(params);
  consumers_.emplace_back();
  for (int in : node.inputs) {
    if (in >= 0 && in < static_cast<int>(consumers_.size())) {
      // A node reading the same producer twice (self-join) is one consumer.
      if (consumers_[in].empty() || consumers_[in].back() != node.id) {
        consumers_[in].push_back(node.id);
      }
    }
  }
  nodes_.push_back(std::move(node));
  return nodes_.back().id;
}

int Dag::AddInput(const std::string& relation) {
  return AddNode(OpKind::kInput, relation, {}, InputParams{relation});
}

int Dag::ProducerOf(const std::string& name) const {
  int found = -1;
  for (const OperatorNode& n : nodes_) {
    if (n.output == name) {
      found = n.id;
    }
  }
  return found;
}

const std::vector<int>& Dag::ConsumersOf(int id) const {
  return consumers_[id];
}

std::vector<int> Dag::Sinks() const {
  std::vector<bool> consumed(nodes_.size(), false);
  for (const OperatorNode& n : nodes_) {
    for (int in : n.inputs) {
      consumed[in] = true;
    }
  }
  std::vector<int> out;
  for (const OperatorNode& n : nodes_) {
    if (!consumed[n.id]) {
      out.push_back(n.id);
    }
  }
  return out;
}

Status Dag::Validate() const {
  std::unordered_set<std::string> names;
  for (const OperatorNode& n : nodes_) {
    for (int in : n.inputs) {
      if (in < 0 || in >= n.id) {
        return InternalError("node " + std::to_string(n.id) +
                             " references input id " + std::to_string(in) +
                             " (must be an earlier node)");
      }
    }
    int arity = OpArity(n.kind);
    if (arity >= 0 && static_cast<int>(n.inputs.size()) != arity) {
      return InvalidArgumentError(std::string(OpKindName(n.kind)) + " '" + n.output +
                                  "' expects " + std::to_string(arity) +
                                  " inputs, has " + std::to_string(n.inputs.size()));
    }
    if (!names.insert(n.output).second) {
      return InvalidArgumentError("relation '" + n.output + "' defined twice");
    }
    if (n.kind == OpKind::kWhile) {
      const auto& p = std::get<WhileParams>(n.params);
      if (p.body == nullptr) {
        return InvalidArgumentError("WHILE '" + n.output + "' has no body");
      }
      if (p.iterations < 1) {
        return InvalidArgumentError("WHILE '" + n.output + "' has trip count " +
                                    std::to_string(p.iterations));
      }
      if (p.bindings.size() > n.inputs.size()) {
        return InvalidArgumentError("WHILE '" + n.output +
                                    "' has more bindings than inputs");
      }
      MUSKETEER_RETURN_IF_ERROR(p.body->Validate());
      for (const LoopBinding& b : p.bindings) {
        if (p.body->ProducerOf(b.body_output) < 0) {
          return InvalidArgumentError("WHILE '" + n.output + "': body relation '" +
                                      b.body_output + "' not produced by body");
        }
      }
      if (p.body->ProducerOf(p.result) < 0) {
        return InvalidArgumentError("WHILE '" + n.output + "': result relation '" +
                                    p.result + "' not produced by body");
      }
    }
  }
  return OkStatus();
}

StatusOr<std::vector<Schema>> Dag::InferSchemas(const SchemaMap& base) const {
  std::vector<Schema> schemas(nodes_.size());
  for (const OperatorNode& n : nodes_) {
    if (n.kind == OpKind::kInput) {
      const auto& p = std::get<InputParams>(n.params);
      auto it = base.find(p.relation);
      if (it == base.end()) {
        return NotFoundError("base relation '" + p.relation + "' has no schema");
      }
      schemas[n.id] = it->second;
      continue;
    }
    if (n.kind == OpKind::kWhile) {
      const auto& p = std::get<WhileParams>(n.params);
      // Body base schemas: the outer base relations the body reads, plus
      // loop-carried bindings seeded from the WHILE node's own inputs
      // (positional). Only names the body's INPUT nodes read are copied:
      // `base` may be a whole plan's relations.
      SchemaMap body_base;
      for (const std::string& rel : p.body->InputRelations()) {
        auto it = base.find(rel);
        if (it != base.end()) {
          body_base.emplace(rel, it->second);
        }
      }
      for (size_t i = 0; i < p.bindings.size(); ++i) {
        body_base[p.bindings[i].loop_input] = schemas[n.inputs[i]];
      }
      // Non-binding extra inputs are visible under their producing relation
      // names (loop-invariant relations such as the edge list).
      for (size_t i = p.bindings.size(); i < n.inputs.size(); ++i) {
        body_base[nodes_[n.inputs[i]].output] = schemas[n.inputs[i]];
      }
      MUSKETEER_ASSIGN_OR_RETURN(std::vector<Schema> body_schemas,
                                 p.body->InferSchemas(body_base));
      // Loop-carried schemas must be stable across iterations.
      for (size_t i = 0; i < p.bindings.size(); ++i) {
        const Schema& fed = schemas[n.inputs[i]];
        const Schema& produced = body_schemas[p.body->ProducerOf(p.bindings[i].body_output)];
        if (fed.num_fields() != produced.num_fields()) {
          return InvalidArgumentError(
              "WHILE '" + n.output + "': loop-carried relation '" +
              p.bindings[i].loop_input + "' changes arity across iterations (" +
              fed.ToString() + " vs " + produced.ToString() + ")");
        }
      }
      schemas[n.id] = body_schemas[p.body->ProducerOf(p.result)];
      continue;
    }
    std::vector<const Schema*> in;
    in.reserve(n.inputs.size());
    for (int i : n.inputs) {
      in.push_back(&schemas[i]);
    }
    MUSKETEER_ASSIGN_OR_RETURN(schemas[n.id], InferNodeSchema(n, in));
  }
  return schemas;
}

namespace {

void CollectInputRelations(const Dag& dag, std::unordered_set<std::string>* seen,
                           std::vector<std::string>* out) {
  for (const OperatorNode& n : dag.nodes()) {
    if (n.kind == OpKind::kInput) {
      const std::string& rel = std::get<InputParams>(n.params).relation;
      if (seen->insert(rel).second) {
        out->push_back(rel);
      }
    } else if (n.kind == OpKind::kWhile) {
      const auto& body = std::get<WhileParams>(n.params).body;
      if (body != nullptr) {
        CollectInputRelations(*body, seen, out);
      }
    }
  }
}

}  // namespace

std::vector<std::string> Dag::InputRelations() const {
  std::unordered_set<std::string> seen;
  std::vector<std::string> out;
  CollectInputRelations(*this, &seen, &out);
  return out;
}

int Dag::TotalOperatorCount() const {
  int count = 0;
  for (const OperatorNode& n : nodes_) {
    if (n.kind == OpKind::kInput) {
      continue;
    }
    if (n.kind == OpKind::kWhile) {
      count += std::get<WhileParams>(n.params).body->TotalOperatorCount();
    } else {
      ++count;
    }
  }
  return count;
}

std::unique_ptr<Dag> Dag::Clone() const {
  auto out = std::make_unique<Dag>();
  for (const OperatorNode& n : nodes_) {
    OpParams params = n.params;
    if (n.kind == OpKind::kWhile) {
      auto& p = std::get<WhileParams>(params);
      p.body = std::shared_ptr<const Dag>(p.body->Clone().release());
    }
    out->AddNode(n.kind, n.output, n.inputs, std::move(params));
  }
  return out;
}

std::string Dag::ToDot() const {
  std::ostringstream os;
  os << "digraph musketeer_ir {\n  rankdir=TB;\n  node [shape=box];\n";
  for (const OperatorNode& n : nodes_) {
    os << "  n" << n.id << " [label=\"" << OpKindName(n.kind) << "\\n" << n.output
       << "\"];\n";
    for (int in : n.inputs) {
      os << "  n" << in << " -> n" << n.id << ";\n";
    }
  }
  os << "}\n";
  return os.str();
}

std::string Dag::DebugString() const {
  std::ostringstream os;
  for (const OperatorNode& n : nodes_) {
    os << n.id << ": " << n.DebugString();
    if (!n.inputs.empty()) {
      os << "  <- [";
      for (size_t i = 0; i < n.inputs.size(); ++i) {
        os << (i > 0 ? "," : "") << n.inputs[i];
      }
      os << "]";
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace musketeer
