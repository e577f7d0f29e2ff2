// Idiom recognition (§4.3.1).
//
// Specialized back-ends (PowerGraph, GraphChi) can only run computations that
// fit their vertex-centric / GAS model. Musketeer therefore detects
// vertex-oriented graph processing in the IR — even when the workflow was
// written in a relational front-end — using the reverse of the way GraphX
// abstracts graph computation as data-flow operators:
//
//   The body of a WHILE loop must contain a JOIN whose two inputs represent
//   vertices and edges, followed (possibly through a MAP) by a GROUP BY that
//   groups by the vertex column. The JOIN is the "scatter"/message-send, the
//   GROUP BY the "gather"/message-receive, and remaining body operators form
//   the "apply" step.
//
// The detection is sound but not complete: a triangle-counting workflow that
// joins the edge relation with itself twice and filters (no WHILE) is not
// recognized, exactly as the paper's §8 discusses.

#ifndef MUSKETEER_SRC_OPT_IDIOM_H_
#define MUSKETEER_SRC_OPT_IDIOM_H_

#include <optional>
#include <vector>

#include "src/ir/dag.h"

namespace musketeer {

struct GraphIdiomMatch {
  int while_node = -1;     // id of the WHILE operator in the outer DAG
  int scatter_join = -1;   // id of the message-send JOIN in the body
  int gather_group_by = -1;  // id of the message-receive GROUP BY in the body
  // True when the loop-carried vertex relation is one of the join inputs
  // (strict vertex-centric shape; required by PowerGraph/GraphChi).
  bool vertex_centric = false;
};

// Matches node `node_id` alone: the idiom when it is a WHILE whose body
// holds it, else nothing. Inspects only that node's body.
std::optional<GraphIdiomMatch> MatchGraphIdiom(const Dag& dag, int node_id);

// Scans the DAG's WHILE operators for the graph-processing idiom
// (MatchGraphIdiom over every node).
std::vector<GraphIdiomMatch> DetectGraphIdioms(const Dag& dag);

// Convenience: true if `while_id` matches the idiom in its strict
// vertex-centric form (i.e., it can execute on a vertex-centric runtime).
// Costs the size of that node's body, not of the DAG.
bool IsGraphIdiom(const Dag& dag, int while_id);

}  // namespace musketeer

#endif  // MUSKETEER_SRC_OPT_IDIOM_H_
