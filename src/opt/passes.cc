#include "src/opt/passes.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

namespace musketeer {

namespace {

// Name-linked operator list, easier to rewrite than the id-linked Dag.
struct LNode {
  OpKind kind;
  std::string output;
  std::vector<std::string> inputs;  // producing relation names
  OpParams params;
  bool erased = false;  // removed by a rewrite; skipped everywhere
};

std::vector<LNode> ToLogical(const Dag& dag) {
  std::vector<LNode> out;
  out.reserve(dag.nodes().size());
  for (const OperatorNode& n : dag.nodes()) {
    LNode l;
    l.kind = n.kind;
    l.output = n.output;
    l.params = n.params;
    for (int in : n.inputs) {
      l.inputs.push_back(dag.node(in).output);
    }
    out.push_back(std::move(l));
  }
  return out;
}

// Builds the Dag of the live nodes in one pass. The order is the one a
// repeated in-order scan placing every node whose inputs are placed would
// give: node i lands in scan pass max over inputs j of
// pass(j) + [j later in the list than i], and nodes are added by (pass,
// list index).
StatusOr<std::unique_ptr<Dag>> FromLogical(const std::vector<LNode>& all) {
  std::vector<const LNode*> nodes;
  nodes.reserve(all.size());
  for (const LNode& n : all) {
    if (!n.erased) {
      nodes.push_back(&n);
    }
  }
  const size_t count = nodes.size();
  std::unordered_map<std::string, size_t> index;
  index.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    index.emplace(nodes[i]->output, i);
  }
  // Kahn's algorithm over input edges; a missing producer or a cycle leaves
  // nodes unplaced.
  std::vector<std::vector<size_t>> inputs(count);
  std::vector<std::vector<size_t>> consumers(count);
  std::vector<int> waiting(count, 0);
  std::vector<size_t> ready;
  bool unresolved = false;
  for (size_t i = 0; i < count; ++i) {
    for (const std::string& in : nodes[i]->inputs) {
      auto it = index.find(in);
      if (it == index.end()) {
        unresolved = true;
        break;
      }
      inputs[i].push_back(it->second);
      consumers[it->second].push_back(i);
      ++waiting[i];
    }
    if (waiting[i] == 0 && nodes[i]->inputs.empty()) {
      ready.push_back(i);
    }
  }
  std::vector<size_t> pass(count, 0);
  size_t placed = 0;
  while (!unresolved && placed < ready.size()) {
    size_t j = ready[placed++];
    for (size_t c : consumers[j]) {
      pass[c] = std::max(pass[c], pass[j] + (j > c ? 1 : 0));
      if (--waiting[c] == 0) {
        ready.push_back(c);
      }
    }
  }
  if (unresolved || placed < count) {
    return InternalError("optimizer produced an unresolvable operator list");
  }
  std::vector<size_t> order(count);
  for (size_t i = 0; i < count; ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [&pass](size_t a, size_t b) {
    return pass[a] != pass[b] ? pass[a] < pass[b] : a < b;
  });
  auto dag = std::make_unique<Dag>();
  std::vector<int> id_of(count, -1);
  for (size_t i : order) {
    std::vector<int> ids;
    ids.reserve(inputs[i].size());
    for (size_t in : inputs[i]) {
      ids.push_back(id_of[in]);
    }
    id_of[i] = dag->AddNode(nodes[i]->kind, nodes[i]->output, std::move(ids),
                            nodes[i]->params);
  }
  return dag;
}

// The operator list under rewrite, with the indexes the rewrites read kept
// current across rewrites instead of rebuilt per round: each relation's
// producer, its consumer count and its schema. Every rewrite keeps the
// schema bound to each name, and a pushed filter takes its input's schema,
// so the schemas inferred once up front stay exact.
class Rewriter {
 public:
  Rewriter(std::vector<LNode> nodes, const Dag& dag,
           const std::vector<Schema>& schemas)
      : nodes_(std::move(nodes)) {
    for (size_t i = 0; i < nodes_.size(); ++i) {
      producer_.emplace(nodes_[i].output, i);
      Link(nodes_[i]);
    }
    for (const OperatorNode& n : dag.nodes()) {
      schemas_[n.output] = schemas[n.id];
    }
  }

  const std::vector<LNode>& nodes() const { return nodes_; }

  // ---- Individual rewrites -------------------------------------------------
  // Each returns true if it changed the list (one rewrite per call, at the
  // first match in list order; OptimizeDag repeats rounds to fixpoint).

  // SELECT(SELECT(x)) -> SELECT(x) with AND-ed condition, when the inner
  // select has no other consumers.
  bool FuseAdjacentSelects() {
    for (size_t i = 0; i < nodes_.size(); ++i) {
      LNode& outer = nodes_[i];
      if (outer.erased || outer.kind != OpKind::kSelect) {
        continue;
      }
      LNode* inner = Producer(outer.inputs[0]);
      if (inner == nullptr || inner->kind != OpKind::kSelect ||
          consumers_[inner->output] != 1) {
        continue;
      }
      ExprPtr combined = Expr::Binary(
          BinOp::kAnd, std::get<SelectParams>(inner->params).condition,
          std::get<SelectParams>(outer.params).condition);
      Unlink(outer);
      outer.params = SelectParams{std::move(combined)};
      outer.inputs[0] = inner->inputs[0];
      Link(outer);
      Erase(inner);
      return true;
    }
    return false;
  }

  // PROJECT(PROJECT(x)) -> PROJECT(x), when the inner project is
  // sole-consumed.
  bool FuseAdjacentProjects() {
    for (size_t i = 0; i < nodes_.size(); ++i) {
      LNode& outer = nodes_[i];
      if (outer.erased || outer.kind != OpKind::kProject) {
        continue;
      }
      LNode* inner = Producer(outer.inputs[0]);
      if (inner == nullptr || inner->kind != OpKind::kProject ||
          consumers_[inner->output] != 1) {
        continue;
      }
      // The outer column list is already expressed in the inner's output
      // namespace, which is a subset of the inner's input namespace — so it
      // is valid directly against the inner input.
      Unlink(outer);
      outer.inputs[0] = inner->inputs[0];
      Link(outer);
      Erase(inner);
      return true;
    }
    return false;
  }

  // SELECT over JOIN or UNION: push the filter toward the inputs.
  //   y = SELECT c FROM (a JOIN b)  ->  y = (SELECT c FROM a) JOIN b
  // when c only references columns of one side and the join is
  // sole-consumed.
  //   y = SELECT c FROM (a UNION b) ->  y = (SELECT c FROM a) UNION (SELECT c FROM b)
  bool PushDownSelections(int* uniq) {
    for (size_t i = 0; i < nodes_.size(); ++i) {
      if (nodes_[i].erased || nodes_[i].kind != OpKind::kSelect) {
        continue;
      }
      LNode* prod = Producer(nodes_[i].inputs[0]);
      if (prod == nullptr || consumers_[prod->output] != 1) {
        continue;
      }
      const ExprPtr cond = std::get<SelectParams>(nodes_[i].params).condition;

      if (prod->kind == OpKind::kJoin) {
        for (int side = 0; side < 2; ++side) {
          if (!cond->ResolvesAgainst(schemas_.at(prod->inputs[side]))) {
            continue;
          }
          // Insert a filter on this side; the join keeps the select's name
          // so downstream consumers are unaffected; the select node
          // disappears.
          std::string filter =
              AddFilter(prod->inputs[side], cond, (*uniq)++);
          prod = Producer(nodes_[i].inputs[0]);  // AddFilter may reallocate
          RenameInput(prod, side, filter);
          ReplaceSelect(i, prod);
          return true;
        }
        continue;
      }

      // A UNION takes its column names from its left side; the filter only
      // moves when it also resolves against the right side's names.
      if (prod->kind == OpKind::kUnion &&
          cond->ResolvesAgainst(schemas_.at(prod->inputs[1]))) {
        const std::string left = prod->inputs[0];
        const std::string right = prod->inputs[1];
        std::string fa = AddFilter(left, cond, (*uniq)++);
        std::string fb = AddFilter(right, cond, (*uniq)++);
        prod = Producer(nodes_[i].inputs[0]);
        RenameInput(prod, 0, fa);
        RenameInput(prod, 1, fb);
        ReplaceSelect(i, prod);
        return true;
      }
    }
    return false;
  }

  // Removes operators that no workflow output depends on. INPUT nodes are
  // kept only if consumed (unconsumed inputs were either user mistakes or
  // left over from rewrites). Nodes that were sinks in the *original* DAG
  // are the workflow outputs and always survive.
  bool EliminateDead(const std::unordered_set<std::string>& outputs) {
    std::unordered_set<std::string> live = outputs;
    std::vector<std::string> stack(outputs.begin(), outputs.end());
    while (!stack.empty()) {
      LNode* n = Producer(stack.back());
      stack.pop_back();
      if (n == nullptr) {
        continue;
      }
      for (const std::string& in : n->inputs) {
        if (live.insert(in).second) {
          stack.push_back(in);
        }
      }
    }
    for (LNode& n : nodes_) {
      if (!n.erased && live.count(n.output) == 0) {
        Erase(&n);
        return true;
      }
    }
    return false;
  }

 private:
  // The live node producing `name`, or null.
  LNode* Producer(const std::string& name) {
    auto it = producer_.find(name);
    return it == producer_.end() ? nullptr : &nodes_[it->second];
  }

  void Link(const LNode& n) {
    for (const std::string& in : n.inputs) {
      ++consumers_[in];
    }
  }
  void Unlink(const LNode& n) {
    for (const std::string& in : n.inputs) {
      --consumers_[in];
    }
  }

  void Erase(LNode* n) {
    Unlink(*n);
    producer_.erase(n->output);
    n->erased = true;
  }

  void RenameInput(LNode* n, int side, const std::string& name) {
    --consumers_[n->inputs[side]];
    n->inputs[side] = name;
    ++consumers_[name];
  }

  // Appends `y = SELECT cond FROM input` under a fresh name, with the
  // input's schema, and returns the name.
  std::string AddFilter(std::string input, const ExprPtr& cond, int uniq) {
    LNode filter;
    filter.kind = OpKind::kSelect;
    filter.output = input + "__pushed" + std::to_string(uniq);
    filter.inputs = {input};
    filter.params = SelectParams{cond};
    schemas_[filter.output] = schemas_.at(input);
    producer_.emplace(filter.output, nodes_.size());
    Link(filter);
    nodes_.push_back(std::move(filter));
    return nodes_.back().output;
  }

  // The select at `sel` is absorbed: `prod` takes over its name (and so its
  // consumers), and the select node disappears.
  void ReplaceSelect(size_t sel, LNode* prod) {
    std::string name = nodes_[sel].output;
    Erase(&nodes_[sel]);
    producer_.erase(prod->output);
    prod->output = name;
    producer_[name] = static_cast<size_t>(prod - nodes_.data());
  }

  std::vector<LNode> nodes_;
  std::unordered_map<std::string, size_t> producer_;  // name -> live slot
  std::unordered_map<std::string, int> consumers_;    // name -> reads
  std::unordered_map<std::string, Schema> schemas_;
};

}  // namespace

StatusOr<std::unique_ptr<Dag>> OptimizeDag(const Dag& dag, const SchemaMap& base,
                                           const OptimizeOptions& options,
                                           OptimizeStats* stats) {
  MUSKETEER_RETURN_IF_ERROR(dag.Validate());
  // Sanity: the input must type-check before we rely on schemas for
  // rewrites. These schemas are the only inference the rewrites need.
  MUSKETEER_ASSIGN_OR_RETURN(std::vector<Schema> schemas, dag.InferSchemas(base));

  Rewriter rewriter(ToLogical(dag), dag, schemas);
  std::unordered_set<std::string> outputs;
  for (int sink : dag.Sinks()) {
    outputs.insert(dag.node(sink).output);
  }

  OptimizeStats local;
  int uniq = 0;
  for (int round = 0; round < options.max_rewrite_rounds; ++round) {
    bool changed = false;
    if (options.fuse_adjacent_selects && rewriter.FuseAdjacentSelects()) {
      ++local.selects_fused;
      changed = true;
    }
    if (!changed && options.fuse_adjacent_projects &&
        rewriter.FuseAdjacentProjects()) {
      ++local.projects_fused;
      changed = true;
    }
    if (!changed && options.push_down_selections &&
        rewriter.PushDownSelections(&uniq)) {
      ++local.selections_pushed;
      changed = true;
    }
    if (!changed && options.eliminate_dead_operators &&
        rewriter.EliminateDead(outputs)) {
      ++local.dead_removed;
      changed = true;
    }
    if (!changed) {
      break;
    }
  }

  if (stats != nullptr) {
    *stats = local;
  }
  MUSKETEER_ASSIGN_OR_RETURN(std::unique_ptr<Dag> out,
                             FromLogical(rewriter.nodes()));
  MUSKETEER_RETURN_IF_ERROR(out->Validate());
  MUSKETEER_RETURN_IF_ERROR(out->InferSchemas(base).status());
  return out;
}

}  // namespace musketeer
