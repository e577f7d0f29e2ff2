#include "src/opt/idiom.h"

namespace musketeer {

namespace {

// Follows single-consumer row-wise chains downstream from `id` and returns
// the first structural consumer, or -1. UNION is treated as part of the
// message stream: merging edge messages with vertex self-messages (the MIN/
// MAX-gather lowering) is still the scatter->gather shape.
int SkipRowwiseOps(const Dag& body, int id) {
  while (true) {
    std::vector<int> consumers = body.ConsumersOf(id);
    if (consumers.size() != 1) {
      return consumers.empty() ? -1 : consumers[0];
    }
    const OperatorNode& next = body.node(consumers[0]);
    if (next.kind == OpKind::kMap || next.kind == OpKind::kProject ||
        next.kind == OpKind::kSelect || next.kind == OpKind::kUnion) {
      id = next.id;
      continue;
    }
    return next.id;
  }
}

// True if node `id` in the body transitively reads the loop-carried input
// relation named `loop_input`.
bool ReadsLoopInput(const Dag& body, int id, const std::string& loop_input) {
  const OperatorNode& n = body.node(id);
  if (n.kind == OpKind::kInput) {
    return std::get<InputParams>(n.params).relation == loop_input;
  }
  for (int in : n.inputs) {
    if (ReadsLoopInput(body, in, loop_input)) {
      return true;
    }
  }
  return false;
}

}  // namespace

std::optional<GraphIdiomMatch> MatchGraphIdiom(const Dag& dag, int node_id) {
  const OperatorNode& n = dag.node(node_id);
  if (n.kind != OpKind::kWhile) {
    return std::nullopt;
  }
  const auto& wp = std::get<WhileParams>(n.params);
  const Dag& body = *wp.body;
  for (const OperatorNode& candidate : body.nodes()) {
    if (candidate.kind != OpKind::kJoin) {
      continue;
    }
    // The join must combine two distinct relations (vertices and edges).
    if (candidate.inputs[0] == candidate.inputs[1]) {
      continue;
    }
    // It must be followed — possibly through row-wise ops — by a GROUP BY.
    int downstream = SkipRowwiseOps(body, candidate.id);
    if (downstream < 0 || body.node(downstream).kind != OpKind::kGroupBy) {
      continue;
    }
    const auto& gp = std::get<GroupByParams>(body.node(downstream).params);
    if (gp.group_columns.size() != 1) {
      continue;  // vertex-keyed aggregation groups by exactly the vertex id
    }
    GraphIdiomMatch m;
    m.while_node = n.id;
    m.scatter_join = candidate.id;
    m.gather_group_by = downstream;
    // Strict vertex-centric form: *exactly one* join side carries the loop
    // state (the vertex relation); the other is the static edge set. A
    // join whose both sides derive from the loop (e.g. k-means' distance
    // join) is not a scatter and cannot run on a GAS engine.
    for (const LoopBinding& b : wp.bindings) {
      bool left = ReadsLoopInput(body, candidate.inputs[0], b.loop_input);
      bool right = ReadsLoopInput(body, candidate.inputs[1], b.loop_input);
      if (left != right) {
        m.vertex_centric = true;
        break;
      }
    }
    return m;  // one match per WHILE is enough
  }
  return std::nullopt;
}

std::vector<GraphIdiomMatch> DetectGraphIdioms(const Dag& dag) {
  std::vector<GraphIdiomMatch> matches;
  for (const OperatorNode& n : dag.nodes()) {
    if (auto m = MatchGraphIdiom(dag, n.id)) {
      matches.push_back(*m);
    }
  }
  return matches;
}

bool IsGraphIdiom(const Dag& dag, int while_id) {
  auto m = MatchGraphIdiom(dag, while_id);
  return m.has_value() && m->vertex_centric;
}

}  // namespace musketeer
