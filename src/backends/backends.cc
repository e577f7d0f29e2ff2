#include "src/backends/backend.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "src/backends/codegen.h"
#include "src/opt/idiom.h"

namespace musketeer {

PlanSchemas InferPlanSchemas(const Dag& dag, const SchemaMap& base) {
  PlanSchemas out;
  out.relations = base;
  auto inferred = dag.InferSchemas(base);
  if (!inferred.ok()) {
    out.dag_status = inferred.status();
    return out;
  }
  for (const OperatorNode& n : dag.nodes()) {
    out.relations[n.output] = (*inferred)[n.id];
  }
  return out;
}

StatusOr<JobPlan> Backend::GeneratePlan(const Dag& dag,
                                        const std::vector<int>& ops,
                                        const SchemaMap& base,
                                        const CodeGenOptions& options) const {
  return GeneratePlan(dag, ops, InferPlanSchemas(dag, base), options);
}

StatusOr<JobExtraction> ExtractJobDag(const Dag& dag, const std::vector<int>& ops) {
  std::vector<int> sorted = ops;
  std::sort(sorted.begin(), sorted.end());
  std::unordered_set<int> opset(sorted.begin(), sorted.end());

  auto plan = std::make_shared<Dag>();
  std::unordered_map<int, int> outer_to_plan;
  std::unordered_map<std::string, int> input_nodes;

  for (int id : sorted) {
    const OperatorNode& n = dag.node(id);
    if (n.kind == OpKind::kInput) {
      return InvalidArgumentError("job operator sets must not contain INPUT nodes");
    }
    std::vector<int> plan_inputs;
    for (int p : n.inputs) {
      if (opset.count(p) > 0) {
        plan_inputs.push_back(outer_to_plan.at(p));
        continue;
      }
      const std::string& rel = dag.node(p).output;
      auto it = input_nodes.find(rel);
      if (it == input_nodes.end()) {
        int in_id = plan->AddInput(rel);
        it = input_nodes.emplace(rel, in_id).first;
      }
      plan_inputs.push_back(it->second);
    }
    OpParams params = n.params;
    if (n.kind == OpKind::kWhile) {
      // Share the (immutable) body.
      params = std::get<WhileParams>(n.params);
    }
    int plan_id = plan->AddNode(n.kind, n.output, std::move(plan_inputs),
                                std::move(params));
    outer_to_plan[id] = plan_id;
  }

  JobExtraction out;
  for (const auto& [rel, id] : input_nodes) {
    out.inputs.push_back(rel);
  }
  std::sort(out.inputs.begin(), out.inputs.end());

  // Outputs: operators consumed outside the set, or workflow sinks.
  for (int id : sorted) {
    std::vector<int> consumers = dag.ConsumersOf(id);
    bool external = consumers.empty();
    for (int c : consumers) {
      external = external || opset.count(c) == 0;
    }
    if (external) {
      out.outputs.push_back(dag.node(id).output);
    }
  }
  MUSKETEER_RETURN_IF_ERROR(plan->Validate());
  out.dag = std::move(plan);
  return out;
}

namespace {

struct BackendTraits {
  EngineKind kind;
  // Max key-repartitioning operators per job; -1 = unlimited. MapReduce-
  // family engines support exactly one group-by-key per job (§4.3.2).
  int max_shuffles = -1;
  bool graph_only = false;
};

class EngineBackend : public Backend {
 public:
  explicit EngineBackend(BackendTraits traits) : traits_(traits) {}

  EngineKind kind() const override { return traits_.kind; }

  bool SupportsOperator(const Dag& dag, int node_id) const override {
    const OperatorNode& n = dag.node(node_id);
    if (n.kind == OpKind::kInput) {
      return false;
    }
    if (n.kind == OpKind::kBlackBox) {
      return std::get<BlackBoxParams>(n.params).backend == name();
    }
    if (traits_.graph_only) {
      return IsGraphIdiom(dag, node_id);
    }
    return true;
  }

  bool CanRunAsSingleJob(const Dag& dag, const std::vector<int>& ops) const override {
    if (ops.empty()) {
      return false;
    }
    int shuffles = 0;
    bool has_while = false;
    for (int id : ops) {
      if (id < 0 || id >= dag.num_nodes() || !SupportsOperator(dag, id)) {
        return false;
      }
      const OperatorNode& n = dag.node(id);
      has_while = has_while || n.kind == OpKind::kWhile;
      shuffles += IsShuffleOp(n.kind) ? 1 : 0;
    }
    // Loops always form singleton jobs: "one job" for an iterative workflow
    // means the engine runs the whole loop (§4.3.2, §6.2).
    if (has_while) {
      return ops.size() == 1;
    }
    if (traits_.max_shuffles >= 0 && shuffles > traits_.max_shuffles) {
      return false;
    }
    return true;
  }

  using Backend::GeneratePlan;

  StatusOr<JobPlan> GeneratePlan(const Dag& dag, const std::vector<int>& ops,
                                 const PlanSchemas& schemas,
                                 const CodeGenOptions& options) const override {
    if (!CanRunAsSingleJob(dag, ops)) {
      return FailedPreconditionError(name() +
                                     " cannot run this operator set as one job");
    }
    MUSKETEER_ASSIGN_OR_RETURN(JobExtraction extraction, ExtractJobDag(dag, ops));
    // Type-check the job against the plan's schemas before shipping it.
    MUSKETEER_RETURN_IF_ERROR(ValidateSchemas(extraction, schemas));

    JobPlan plan;
    plan.engine = traits_.kind;
    plan.dag = extraction.dag;
    plan.inputs = std::move(extraction.inputs);
    plan.outputs = std::move(extraction.outputs);
    plan.name = name() + ":" + (plan.outputs.empty() ? "job" : plan.outputs[0]);

    // Loop execution mode + specialized graph path.
    bool has_while = false;
    bool idiom = false;
    for (const OperatorNode& n : plan.dag->nodes()) {
      if (n.kind == OpKind::kWhile) {
        has_while = true;
        idiom = IsGraphIdiom(*plan.dag, n.id);
      }
    }
    if (has_while) {
      // Native Lindi code does not use the vertex-optimized path (it is not
      // optimized for graph computations, §2.2 fn. 4); Musketeer's own code
      // generation picks the engine's best primitive when the idiom matched.
      bool allow_vertex_path =
          options.flavor != CodeGenOptions::Flavor::kNativeLindi;
      plan.while_mode = WhileModeFor(traits_.kind, idiom && allow_vertex_path);
      plan.graph_path = plan.while_mode == WhileExec::kVertexRuntime;
    }

    // Flavor-specific quirks.
    switch (options.flavor) {
      case CodeGenOptions::Flavor::kMusketeer:
        plan.quirks = GeneratedQuirks(traits_.kind);
        break;
      case CodeGenOptions::Flavor::kIdealHandTuned:
        plan.quirks.process_efficiency = 1.0;
        break;
      case CodeGenOptions::Flavor::kNativeLindi:
        if (traits_.kind != EngineKind::kNaiad) {
          return InvalidArgumentError("native Lindi code only targets Naiad");
        }
        plan.quirks.process_efficiency = 0.95;
        plan.quirks.single_threaded_io = true;
        plan.quirks.single_node_group_by = true;
        break;
      case CodeGenOptions::Flavor::kNativeHive:
        if (traits_.kind != EngineKind::kHadoop) {
          return InvalidArgumentError("native Hive plans only target Hadoop");
        }
        plan.quirks.process_efficiency = 0.85;
        break;
    }
    plan.quirks.shared_scans = options.shared_scans;

    plan.generated_code = GenerateJobCode(plan);
    return plan;
  }

 private:
  // Checks the job dag's schemas resolve; job INPUT relations may come from
  // the base map or from other jobs (outer node outputs). When the outer DAG
  // failed to infer, a job reading another job's output reports that error.
  static Status ValidateSchemas(const JobExtraction& job,
                                const PlanSchemas& schemas) {
    if (!schemas.dag_status.ok()) {
      for (const std::string& rel : job.inputs) {
        if (schemas.relations.count(rel) == 0) {
          return schemas.dag_status;
        }
      }
    }
    return job.dag->InferSchemas(schemas.relations).status();
  }

  BackendTraits traits_;
};

const EngineBackend& Instance(EngineKind kind) {
  static const EngineBackend hadoop({.kind = EngineKind::kHadoop,
                                     .max_shuffles = 1});
  static const EngineBackend spark({.kind = EngineKind::kSpark});
  static const EngineBackend naiad({.kind = EngineKind::kNaiad});
  static const EngineBackend powergraph({.kind = EngineKind::kPowerGraph,
                                         .graph_only = true});
  static const EngineBackend graphchi({.kind = EngineKind::kGraphChi,
                                       .graph_only = true});
  static const EngineBackend metis({.kind = EngineKind::kMetis,
                                    .max_shuffles = 1});
  static const EngineBackend serial({.kind = EngineKind::kSerialC});
  switch (kind) {
    case EngineKind::kHadoop:
      return hadoop;
    case EngineKind::kSpark:
      return spark;
    case EngineKind::kNaiad:
      return naiad;
    case EngineKind::kPowerGraph:
      return powergraph;
    case EngineKind::kGraphChi:
      return graphchi;
    case EngineKind::kMetis:
      return metis;
    case EngineKind::kSerialC:
      return serial;
  }
  return hadoop;
}

}  // namespace

const Backend& BackendFor(EngineKind kind) { return Instance(kind); }

std::vector<const Backend*> AllBackends() {
  std::vector<const Backend*> out;
  for (EngineKind kind : kAllEngines) {
    out.push_back(&BackendFor(kind));
  }
  return out;
}

}  // namespace musketeer
