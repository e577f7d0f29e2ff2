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
  out->pull_bytes = 0;
  out->push_bytes = 0;
  out->entries.clear();
  out->loops.clear();
  out->spark_miss_after = -1;
  out->spark_miss_bytes = 0;
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
        out->pull_bytes += sizes[p];
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
      out->push_bytes += sizes[id];
    }
  }

  // Per-operator processing.
  for (int id : sorted) {
    const OperatorNode& node = dag.node(id);
    if (node.kind == OpKind::kWhile) {
      const auto& wp = std::get<WhileParams>(node.params);
      SegmentSummary::Loop loop;
      loop.idiom = IsGraphIdiom(dag, id);
      loop.iterations = wp.iterations;
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
      for (const OperatorNode& bn : wp.body->nodes()) {
        if (bn.kind == OpKind::kInput) {
          continue;
        }
        Bytes in_bytes = 0;
        for (int bi : bn.inputs) {
          in_bytes += body_sizes[bi];
        }
        loop.body.push_back({bn.kind, in_bytes, body_sizes[bn.id]});
      }
      SegmentSummary::Entry entry;
      entry.loop = static_cast<int>(out->loops.size());
      out->entries.push_back(entry);
      out->loops.push_back(std::move(loop));
      continue;
    }

    Bytes in_bytes = 0;
    for (int i : node.inputs) {
      in_bytes += sizes[i];
    }
    PricedOp priced;
    priced.in_bytes = in_bytes;
    priced.shuffle = IsShuffleOp(node.kind);
    priced.charge_process = !IsRowwiseOp(node.kind);
    out->entries.push_back({priced});

    // Spark type-inference miss (mirrors the executor): a join feeding a
    // differently-keyed aggregation — possibly through row-wise reshaping —
    // costs an extra pass over the join output.
    if (out->spark_miss_after < 0 && node.kind == OpKind::kJoin) {
      const auto& jp = std::get<JoinParams>(node.params);
      int cur = id;
      bool reshaped = false;
      while (true) {
        const std::vector<int>& consumers = dag.ConsumersOf(cur);
        if (consumers.size() != 1 || !in_set(consumers[0])) {
          break;
        }
        const OperatorNode& consumer = dag.node(consumers[0]);
        if (IsRowwiseOp(consumer.kind)) {
          reshaped = true;
          cur = consumer.id;
          continue;
        }
        bool miss = false;
        if (consumer.kind == OpKind::kGroupBy) {
          const auto& gp = std::get<GroupByParams>(consumer.params);
          miss = reshaped || gp.group_columns.size() != 1 ||
                 gp.group_columns[0] != jp.left_key;
        } else if (consumer.kind == OpKind::kAgg) {
          miss = true;
        }
        if (miss) {
          out->spark_miss_after = static_cast<int>(out->entries.size()) - 1;
          out->spark_miss_bytes = sizes[id];
        }
        break;
      }
    }
  }
}

double CostModel::PriceSummary(const SegmentSummary& summary,
                               EngineKind engine) const {
  if (summary.infeasible) {
    return kInfiniteCost;
  }
  // One shape per thread, reset per call: the DP prices thousands of
  // segments per plan, and the ops buffer keeps its capacity.
  thread_local JobShape shape;
  shape = JobShape{.ops = std::move(shape.ops)};
  shape.ops.clear();
  shape.process_efficiency = BackendFor(engine).generated_process_efficiency();
  shape.pull_bytes = summary.pull_bytes;
  if (RatesFor(engine).load_mbps > 0) {
    shape.load_bytes = shape.pull_bytes;
  }
  shape.push_bytes = summary.push_bytes;

  for (size_t e = 0; e < summary.entries.size(); ++e) {
    const SegmentSummary::Entry& entry = summary.entries[e];
    if (entry.loop < 0) {
      shape.ops.push_back(entry.op);
    } else {
      const SegmentSummary::Loop& loop = summary.loops[entry.loop];
      const double iterations = static_cast<double>(loop.iterations);
      WhileExec mode = WhileModeFor(engine, loop.idiom);
      bool graph_path = mode == WhileExec::kVertexRuntime;
      int body_shuffles = 0;
      Bytes materialized = 0;
      bool charged_scan = false;
      bool charged_gather = false;
      for (const SegmentSummary::Loop::BodyOp& bn : loop.body) {
        if (graph_path) {
          // Vertex runtime: one graph-rate edge scan plus gather
          // communication per superstep (mirrors ExecuteJob's model).
          if (bn.kind == OpKind::kJoin && !charged_scan) {
            charged_scan = true;
            shape.ops.push_back(PricedOp{.in_bytes = bn.in_bytes * iterations,
                                         .shuffle = false,
                                         .charge_process = true,
                                         .graph_path = true});
          } else if ((bn.kind == OpKind::kGroupBy ||
                      bn.kind == OpKind::kAgg) &&
                     !charged_gather) {
            charged_gather = true;
            shape.ops.push_back(PricedOp{.in_bytes = bn.in_bytes * iterations,
                                         .shuffle = true,
                                         .charge_process = false,
                                         .graph_path = true});
          }
          continue;
        }
        PricedOp priced;
        priced.in_bytes = bn.in_bytes * iterations;
        priced.shuffle = IsShuffleOp(bn.kind);
        priced.charge_process = !IsRowwiseOp(bn.kind);
        shape.ops.push_back(priced);
        if (IsShuffleOp(bn.kind)) {
          ++body_shuffles;
          materialized += bn.out_bytes * iterations;
        }
      }
      switch (mode) {
        case WhileExec::kPerIterationJobs:
          shape.job_count += std::max(1, body_shuffles) *
                             static_cast<int>(loop.iterations) - 1;
          shape.pull_bytes += materialized;
          shape.push_bytes += materialized;
          break;
        default:
          shape.supersteps += static_cast<int>(loop.iterations);
          break;
      }
    }
    if (engine == EngineKind::kSpark &&
        static_cast<int>(e) == summary.spark_miss_after) {
      shape.ops.push_back(PricedOp{.in_bytes = summary.spark_miss_bytes,
                                   .shuffle = false,
                                   .charge_process = true});
    }
  }

  if (engine == EngineKind::kGraphChi &&
      shape.pull_bytes < kGraphChiInMemoryBytes) {
    shape.process_efficiency *= kGraphChiInMemoryBoost;
  }
  double cost = PriceJob(engine, cluster_, shape);
  if (calibration_ != nullptr && calibration_->has_observations) {
    cost *= calibration_->TimeScale(EngineKindName(engine));
  }
  return cost;
}

}  // namespace musketeer
