#include "src/scheduler/cost_model.h"

#include <algorithm>

#include "src/opt/idiom.h"

namespace musketeer {

CostModel::CostModel(ClusterConfig cluster, const HistoryStore* history,
                     std::string workflow_id, bool conservative_merging,
                     const RuntimeCalibration* calibration)
    : cluster_(std::move(cluster)),
      history_(history),
      workflow_id_(std::move(workflow_id)),
      conservative_merging_(conservative_merging),
      calibration_(calibration) {}

Bytes CostModel::PredictNodeSize(const Dag& /*dag*/, const OperatorNode& node,
                                 const std::vector<Bytes>& in_bytes) const {
  // Observed history beats any bound.
  if (history_ != nullptr) {
    auto h = history_->Lookup(workflow_id_, node.output);
    if (h.has_value()) {
      return *h;
    }
  }
  Bytes total_in = 0;
  for (Bytes b : in_bytes) {
    total_in += b;
  }
  switch (OpSizeBehavior(node.kind)) {
    case SizeBehavior::kSelective:
    case SizeBehavior::kPreserving:
      // Conservative upper bound: no more data than came in.
      return in_bytes.empty() ? 0 : in_bytes[0];
    case SizeBehavior::kAdditive:
      return total_in;
    case SizeBehavior::kConstant:
      return 128.0;
    case SizeBehavior::kGenerative:
      // JOIN & friends: unknown bound; be conservative until history says
      // otherwise ("Musketeer applies conservative data size bounds", §5.2).
      return kConservativeGenerativeFactor * total_in;
  }
  return total_in;
}

StatusOr<std::vector<Bytes>> CostModel::PredictSizes(
    const Dag& dag, const RelationSizes& base_sizes) const {
  std::vector<Bytes> sizes(dag.num_nodes(), 0);
  for (const OperatorNode& node : dag.nodes()) {
    if (node.kind == OpKind::kInput) {
      const std::string& rel = std::get<InputParams>(node.params).relation;
      auto it = base_sizes.find(rel);
      if (it != base_sizes.end()) {
        sizes[node.id] = it->second;
        continue;
      }
      if (history_ != nullptr) {
        auto h = history_->Lookup(workflow_id_, rel);
        if (h.has_value()) {
          sizes[node.id] = *h;
          continue;
        }
      }
      return NotFoundError("no size information for base relation '" + rel + "'");
    }
    if (node.kind == OpKind::kWhile) {
      const auto& wp = std::get<WhileParams>(node.params);
      // Predict one loop trip (steady-state approximation): the body sees
      // the outer base relations it reads, the loop seeds and the
      // loop-invariant extra inputs.
      RelationSizes body_base;
      for (const std::string& rel : wp.body->InputRelations()) {
        auto it = base_sizes.find(rel);
        if (it != base_sizes.end()) {
          body_base.emplace(rel, it->second);
        }
      }
      for (size_t i = 0; i < wp.bindings.size(); ++i) {
        body_base[wp.bindings[i].loop_input] = sizes[node.inputs[i]];
      }
      for (size_t i = wp.bindings.size(); i < node.inputs.size(); ++i) {
        body_base[dag.node(node.inputs[i]).output] = sizes[node.inputs[i]];
      }
      MUSKETEER_ASSIGN_OR_RETURN(std::vector<Bytes> body_sizes,
                                 PredictSizes(*wp.body, body_base));
      sizes[node.id] = body_sizes[wp.body->ProducerOf(wp.result)];
      continue;
    }
    std::vector<Bytes> in;
    for (int i : node.inputs) {
      in.push_back(sizes[i]);
    }
    sizes[node.id] = PredictNodeSize(dag, node, in);
  }
  return sizes;
}

double CostModel::JobCost(const Dag& dag, const std::vector<int>& ops,
                          EngineKind engine,
                          const std::vector<Bytes>& sizes) const {
  if (!BackendFor(engine).CanRunAsSingleJob(dag, ops)) {
    return kInfiniteCost;
  }
  std::vector<int> sorted = ops;
  std::sort(sorted.begin(), sorted.end());
  SegmentSummary summary;
  Summarize(dag, sorted, sizes, &summary);
  return PriceSummary(summary, engine);
}

void CostModel::Summarize(const Dag& dag, const std::vector<int>& sorted,
                          const std::vector<Bytes>& sizes,
                          SegmentSummary* out) const {
  out->infeasible = false;
  out->pulled.clear();
  out->volumes.pull_bytes = 0;
  out->volumes.push_bytes = 0;
  out->volumes.ops.clear();
  out->volumes.trips = 0;
  out->loop = false;
  out->loop_idiom = false;
  auto in_set = [&sorted](int id) {
    return std::binary_search(sorted.begin(), sorted.end(), id);
  };

  // Conservative first-run merge gating (§5.2): a generative operator with
  // no historical output size ends its job — its consumers cannot share it.
  if (conservative_merging_) {
    for (int id : sorted) {
      const OperatorNode& node = dag.node(id);
      if (node.kind != OpKind::kWhile &&
          OpSizeBehavior(node.kind) == SizeBehavior::kGenerative) {
        bool known = history_ != nullptr &&
                     history_->Lookup(workflow_id_, node.output).has_value();
        if (!known) {
          for (int c : dag.ConsumersOf(id)) {
            if (in_set(c)) {
              out->infeasible = true;
              return;
            }
          }
        }
      }
    }
  }

  // PULL: externally-produced inputs (deduplicated per producer).
  for (int id : sorted) {
    for (int p : dag.node(id).inputs) {
      if (!in_set(p) &&
          std::find(out->pulled.begin(), out->pulled.end(), p) ==
              out->pulled.end()) {
        out->pulled.push_back(p);
        out->volumes.pull_bytes += sizes[p];
      }
    }
  }

  // PUSH: outputs leaving the job.
  for (int id : sorted) {
    const std::vector<int>& consumers = dag.ConsumersOf(id);
    bool external = consumers.empty();
    for (int c : consumers) {
      external = external || !in_set(c);
    }
    if (external) {
      out->volumes.push_bytes += sizes[id];
    }
  }

  // Per-operator volumes: a WHILE operator's body, predicted for one trip,
  // stands for all of its trips.
  const OperatorNode* miss = TypeInferenceMissJoin(dag, sorted);
  for (int id : sorted) {
    const OperatorNode& node = dag.node(id);
    if (node.kind == OpKind::kWhile) {
      const auto& wp = std::get<WhileParams>(node.params);
      RelationSizes body_base;
      for (size_t i = 0; i < wp.bindings.size(); ++i) {
        body_base[wp.bindings[i].loop_input] = sizes[node.inputs[i]];
      }
      for (size_t i = wp.bindings.size(); i < node.inputs.size(); ++i) {
        body_base[dag.node(node.inputs[i]).output] = sizes[node.inputs[i]];
      }
      auto body_sizes_or = PredictSizes(*wp.body, body_base);
      if (!body_sizes_or.ok()) {
        out->infeasible = true;
        return;
      }
      const std::vector<Bytes>& body_sizes = *body_sizes_or;
      out->loop = true;
      out->loop_idiom = IsGraphIdiom(dag, id);
      out->volumes.trips += static_cast<int>(wp.iterations);
      const double iterations = static_cast<double>(wp.iterations);
      for (const OperatorNode& bn : wp.body->nodes()) {
        if (bn.kind == OpKind::kInput) {
          continue;
        }
        Bytes in_bytes = 0;
        for (int bi : bn.inputs) {
          in_bytes += body_sizes[bi];
        }
        out->volumes.ops.push_back(VolumeOf(bn, in_bytes, body_sizes[bn.id],
                                            /*trip=*/0, iterations,
                                            &bn == miss));
      }
      continue;
    }

    Bytes in_bytes = 0;
    for (int i : node.inputs) {
      in_bytes += sizes[i];
    }
    out->volumes.ops.push_back(
        VolumeOf(node, in_bytes, sizes[id], /*trip=*/-1, 1.0, &node == miss));
  }
}

double CostModel::PriceSummary(const SegmentSummary& summary,
                               EngineKind engine) const {
  if (summary.infeasible) {
    return kInfiniteCost;
  }
  // One shape per thread: the DP prices thousands of segments per plan, and
  // the ops buffer keeps its capacity.
  thread_local JobShape shape;
  WhileExec mode = summary.loop ? WhileModeFor(engine, summary.loop_idiom)
                                : WhileExec::kNone;
  ShapeJob(engine, GeneratedQuirks(engine), mode, summary.volumes, &shape);
  double cost = PriceJob(engine, cluster_, shape);
  if (calibration_ != nullptr && calibration_->has_observations) {
    cost *= calibration_->TimeScale(EngineKindName(engine));
  }
  return cost;
}

}  // namespace musketeer
