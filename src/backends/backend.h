// Back-end translators (§4.3): per-engine operator support, mergeability
// rules and code generation from IR sub-DAGs to executable JobPlans.

#ifndef MUSKETEER_SRC_BACKENDS_BACKEND_H_
#define MUSKETEER_SRC_BACKENDS_BACKEND_H_

#include <memory>
#include <string>
#include <vector>

#include "src/backends/job.h"

namespace musketeer {

struct CodeGenOptions {
  enum class Flavor {
    kMusketeer,       // Musketeer's generated code (default)
    kIdealHandTuned,  // hand-optimized baseline: no generated-code quirks
    kNativeLindi,     // the Lindi front-end's own Naiad code (single-threaded
                      // I/O, non-associative GROUP BY) — §2.1, §6.2
    kNativeHive,      // Hive's own Hadoop plans (rigid stages, generic code)
  };
  Flavor flavor = Flavor::kMusketeer;
  // §4.3.3 shared scans / operator fusion; disabled for the Fig. 12 ablation.
  bool shared_scans = true;
};

// The schemas every job of one plan is type-checked against: the base
// relations overlaid by the output of every operator in the workflow DAG,
// so a job may read base relations and other jobs' outputs alike. WHILE
// bodies inside a job resolve relations they read by name from this map too.
struct PlanSchemas {
  SchemaMap relations;
  // Non-OK when inferring the workflow DAG failed. `relations` then holds the
  // base relations only, and a job reading any other relation fails with
  // this error (it names the operator that failed).
  Status dag_status;
};

// Infers `dag` once against `base` and builds its PlanSchemas.
PlanSchemas InferPlanSchemas(const Dag& dag, const SchemaMap& base);

class Backend {
 public:
  virtual ~Backend() = default;

  virtual EngineKind kind() const = 0;
  std::string name() const { return EngineKindName(kind()); }

  // True if this engine could run the operator in *some* job. Graph-only
  // engines support exactly WHILE nodes matching the vertex-centric idiom.
  virtual bool SupportsOperator(const Dag& dag, int node_id) const = 0;

  // True if the operator set can execute as a single back-end job. This is
  // the set-level form of the paper's per-back-end mergeability rules
  // (§4.3.2): MapReduce-family engines allow at most one key-repartitioning
  // operator per job; WHILE operators always form singleton jobs (running a
  // loop inside one engine job is exactly what "mapping the whole iterative
  // workflow to one back-end" means).
  virtual bool CanRunAsSingleJob(const Dag& dag,
                                 const std::vector<int>& ops) const = 0;

  // Generates the executable plan (and human-readable code) for one job.
  // The job's sub-DAG is type-checked against `schemas`, which must be
  // InferPlanSchemas(dag, ...) for this same `dag`: the check reads the map
  // without copying it, so it costs the job's size, not the DAG's.
  virtual StatusOr<JobPlan> GeneratePlan(const Dag& dag,
                                         const std::vector<int>& ops,
                                         const PlanSchemas& schemas,
                                         const CodeGenOptions& options) const = 0;

  // Same, from base-relation schemas: infers the whole DAG and then
  // delegates, so each call costs O(DAG). Callers generating every job of
  // one DAG build PlanSchemas once instead.
  StatusOr<JobPlan> GeneratePlan(const Dag& dag, const std::vector<int>& ops,
                                 const SchemaMap& base,
                                 const CodeGenOptions& options) const;
};

// Singleton registry.
const Backend& BackendFor(EngineKind kind);

// All backends, in kAllEngines order.
std::vector<const Backend*> AllBackends();

// Shared helper: extracts the job sub-DAG for `ops`, adding INPUT reads for
// externally-produced relations, and computes the job's DFS inputs/outputs.
struct JobExtraction {
  std::shared_ptr<const Dag> dag;
  std::vector<std::string> inputs;
  std::vector<std::string> outputs;
};
StatusOr<JobExtraction> ExtractJobDag(const Dag& dag, const std::vector<int>& ops);

}  // namespace musketeer

#endif  // MUSKETEER_SRC_BACKENDS_BACKEND_H_
