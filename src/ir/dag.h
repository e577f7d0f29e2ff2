// The IR DAG: a directed acyclic graph of data-flow operators with edges
// corresponding to input-output dependencies (§4.2).

#ifndef MUSKETEER_SRC_IR_DAG_H_
#define MUSKETEER_SRC_IR_DAG_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/ir/operator.h"

namespace musketeer {

// Maps relation names to schemas; used for base (DFS) relations and for
// inference results.
using SchemaMap = std::unordered_map<std::string, Schema>;

class Dag {
 public:
  Dag() = default;

  // Appends a node; `inputs` must reference existing (smaller) ids, which
  // keeps the graph acyclic by construction. Returns the new node's id.
  int AddNode(OpKind kind, std::string output, std::vector<int> inputs,
              OpParams params);

  // Convenience for base-relation reads.
  int AddInput(const std::string& relation);

  const std::vector<OperatorNode>& nodes() const { return nodes_; }
  const OperatorNode& node(int id) const { return nodes_[id]; }
  OperatorNode* mutable_node(int id) { return &nodes_[id]; }
  int num_nodes() const { return static_cast<int>(nodes_.size()); }

  // Node id producing relation `name`, or -1. When a name is defined more
  // than once (not allowed outside WHILE bodies), the last definition wins.
  int ProducerOf(const std::string& name) const;

  // Ids of nodes consuming node `id`'s output. O(out-degree): the adjacency
  // is maintained incrementally by AddNode (planning a 1000-operator DAG
  // calls this in every JobCost, so a linear scan here is a planner
  // bottleneck, not a convenience).
  const std::vector<int>& ConsumersOf(int id) const;

  // Ids of nodes with no consumers (workflow results).
  std::vector<int> Sinks() const;

  // Structural checks: input ids in range and increasing, arities match,
  // output names unique, WHILE params well-formed.
  Status Validate() const;

  // Computes the output schema of every node given base-relation schemas.
  // Fails if an expression references a missing column, arities mismatch, etc.
  StatusOr<std::vector<Schema>> InferSchemas(const SchemaMap& base) const;

  // Relations this DAG's INPUT nodes read, WHILE bodies included, each
  // once, in first-read order. A WHILE body's list also names its
  // loop-carried and loop-invariant inputs, which its INPUT nodes read too.
  std::vector<std::string> InputRelations() const;

  // Number of operators counting WHILE bodies recursively (WHILE itself is
  // not counted; its body operators are).
  int TotalOperatorCount() const;

  // Deep copy (WHILE bodies included).
  std::unique_ptr<Dag> Clone() const;

  // Graphviz rendering for debugging and docs.
  std::string ToDot() const;

  std::string DebugString() const;

 private:
  std::vector<OperatorNode> nodes_;
  std::vector<std::vector<int>> consumers_;  // node id -> consumer ids
};

}  // namespace musketeer

#endif  // MUSKETEER_SRC_IR_DAG_H_
