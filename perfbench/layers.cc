// The traced run's layer-at-a-time pass. Each public call into a layer sits
// in a Span named after the per-layer metric it feeds; the metric is that
// span's self time taken from the tracer, so the pass needs no span or
// counter inside src/.
//
// ExecuteJob runs the shared kernel, then the engine's substrate, verifies
// the two with Table::SameContent and commits the kernel's tables. The job
// anatomy below repeats the kernel, substrate and verify steps with the
// options ExecuteJob uses (src/engines/engine.cc); if ExecuteJob changes
// what it runs, engines.residual_ms shows the difference.

#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "perfbench/bench.h"
#include "src/backends/backend.h"
#include "src/base/parallel.h"
#include "src/engines/engine.h"
#include "src/engines/executor.h"
#include "src/engines/mapreduce_runtime.h"
#include "src/engines/rdd_runtime.h"
#include "src/engines/timely_runtime.h"
#include "src/engines/vertex_runtime.h"
#include "src/obs/trace.h"
#include "src/opt/passes.h"

namespace musketeer::perfbench {

namespace {

StatusOr<TableMap> RunSubstrate(const JobPlan& job, const TableMap& base) {
  switch (job.engine) {
    case EngineKind::kHadoop:
    case EngineKind::kMetis: {
      MapReduceOptions mr;
      mr.num_mappers = job.engine == EngineKind::kHadoop ? 8 : 4;
      mr.num_reducers = 4;
      MUSKETEER_ASSIGN_OR_RETURN(MapReduceResult sub,
                                 ExecuteViaMapReduce(*job.dag, base, mr));
      return std::move(sub.relations);
    }
    case EngineKind::kSpark: {
      MUSKETEER_ASSIGN_OR_RETURN(
          RddResult sub, ExecuteViaRdd(*job.dag, base, {.num_partitions = 4}));
      return std::move(sub.relations);
    }
    case EngineKind::kNaiad:
      if (!job.graph_path) {
        MUSKETEER_ASSIGN_OR_RETURN(TimelyResult sub,
                                   ExecuteViaTimely(*job.dag, base));
        return std::move(sub.relations);
      }
      [[fallthrough]];
    case EngineKind::kPowerGraph:
    case EngineKind::kGraphChi: {
      MUSKETEER_ASSIGN_OR_RETURN(VertexRuntimeResult sub,
                                 ExecuteViaVertexRuntime(*job.dag, base));
      return std::move(sub.relations);
    }
    case EngineKind::kSerialC:
      break;
  }
  return InternalError("SerialC has no substrate");
}

// Kernel, substrate and verify of one committed job, on its pulled inputs.
// Returns false when a step fails or the substrate diverges.
bool JobAnatomy(const JobPlan& job, const Dfs& dfs) {
  TableMap base;
  for (const std::string& name : job.inputs) {
    auto table = dfs.Get(name);
    if (!table.ok()) {
      return false;
    }
    base[name] = *table;
  }
  // ExecuteJob's single-threaded engines run kernel and substrate at width 1.
  std::optional<ScopedParallelThreads> serial;
  if (job.engine == EngineKind::kSerialC || job.quirks.single_threaded_io) {
    serial.emplace(1);
  }
  StatusOr<ExecTrace> trace = InternalError("not run");
  {
    Span span("engines.kernel_ms", "perfbench");
    trace = TraceExecuteDag(*job.dag, base);
  }
  if (!trace.ok()) {
    return false;
  }
  StatusOr<TableMap> substrate = trace->relations;
  if (job.engine != EngineKind::kSerialC) {
    Span span("engines.substrate_ms", "perfbench");
    substrate = RunSubstrate(job, base);
  }
  if (!substrate.ok()) {
    return false;
  }
  Span span("relational.verify_ms", "perfbench");
  for (const std::string& name : job.outputs) {
    auto kernel = trace->relations.find(name);
    auto engine = substrate->find(name);
    if (kernel == trace->relations.end() || engine == substrate->end() ||
        !Table::SameContent(*kernel->second, *engine->second)) {
      return false;
    }
  }
  return true;
}

// Parse → optimize → predict sizes → partition → codegen → ExecuteJob per
// job, as Musketeer::Plan and Musketeer::Execute order them. Returns the
// job plans, or nothing when a layer fails or the sinks differ from the
// reference.
std::optional<std::vector<JobPlan>> LayerAtATime(const Target& t,
                                                 const RunOptions& options,
                                                 Dfs* dfs) {
  Musketeer m(dfs);
  std::unique_ptr<Dag> dag;
  {
    Span span("frontends.parse_ms", "perfbench");
    auto parsed = ParseWorkflow(t.spec.language, t.spec.source);
    if (!parsed.ok()) {
      return std::nullopt;
    }
    dag = std::move(parsed).value();
  }
  SchemaMap schemas;
  {
    Span span("opt.optimize_ms", "perfbench");
    schemas = m.DfsSchemas();
    auto optimized = OptimizeDag(*dag, schemas);
    if (!optimized.ok()) {
      return std::nullopt;
    }
    dag = std::move(optimized).value();
  }
  CostModel model(options.cluster, options.history, t.spec.id);
  StatusOr<std::vector<Bytes>> sizes = InternalError("not run");
  {
    Span span("scheduler.predict_sizes_ms", "perfbench");
    sizes = model.PredictSizes(*dag, m.DfsSizes());
  }
  if (!sizes.ok()) {
    return std::nullopt;
  }
  PlannerConfig planner = options.planner;
  if (planner.engines.empty()) {
    planner.engines = options.engines;
  }
  StatusOr<Partitioning> partitioning = InternalError("not run");
  {
    Span span("scheduler.partition_ms", "perfbench");
    partitioning = PartitionWorkflow(*dag, model, *sizes, planner);
  }
  if (!partitioning.ok()) {
    return std::nullopt;
  }
  std::vector<JobPlan> jobs;
  {
    Span span("backends.codegen_ms", "perfbench");
    for (const JobAssignment& job : partitioning->jobs) {
      auto plan = BackendFor(job.engine).GeneratePlan(*dag, job.ops, schemas,
                                                      options.codegen);
      if (!plan.ok()) {
        return std::nullopt;
      }
      jobs.push_back(std::move(plan).value());
    }
  }
  ExecutionContext ctx;
  ctx.workflow_id = t.spec.id;
  for (const JobPlan& job : jobs) {
    Span span("engines.execute_job_ms", "perfbench");
    if (!ExecuteJob(job, options.cluster, dfs, ctx).ok()) {
      return std::nullopt;
    }
  }
  TableMap outputs;
  for (int sink : dag->Sinks()) {
    const std::string& name = dag->node(sink).output;
    auto table = dfs->Get(name);
    if (table.ok()) {
      outputs[name] = *table;
    }
  }
  if (!SameOutputs(t.reference, outputs)) {
    return std::nullopt;
  }
  return jobs;
}

}  // namespace

const std::vector<std::string>& LayerSpanNames() {
  static const std::vector<std::string> kNames = {
      "core.run_ms",           "core.plan_ms",
      "core.execute_ms",       "frontends.parse_ms",
      "opt.optimize_ms",       "scheduler.predict_sizes_ms",
      "scheduler.partition_ms", "backends.codegen_ms",
      "engines.execute_job_ms", "engines.kernel_ms",
      "engines.substrate_ms",  "relational.verify_ms",
  };
  return kNames;
}

AnatomyResult RunAnatomy(const std::vector<Target>& targets) {
  AnatomyResult out;
  for (const Target& t : targets) {
    const RunOptions& options = t.options;
    Span request("request:" + t.label, "perfbench");
    ++out.requests;
    // Each of the three runs starts from a fresh DFS, as measured requests
    // do.
    bool ok = true;
    {
      std::unique_ptr<Dfs> dfs = LoadDfs(t.inputs);
      Musketeer m(dfs.get());
      Span span("core.run_ms", "perfbench");
      auto run = m.Run(t.spec, options);
      ok = run.ok() && SameOutputs(t.reference, run->outputs);
    }
    {
      std::unique_ptr<Dfs> dfs = LoadDfs(t.inputs);
      Musketeer m(dfs.get());
      StatusOr<WorkflowPlan> plan = InternalError("not run");
      {
        Span span("core.plan_ms", "perfbench");
        plan = m.Plan(t.spec, options);
      }
      if (plan.ok()) {
        Span span("core.execute_ms", "perfbench");
        auto run = m.Execute(t.spec, *plan, options);
        ok = ok && run.ok() && SameOutputs(t.reference, run->outputs);
      } else {
        ok = false;
      }
    }
    std::unique_ptr<Dfs> dfs = LoadDfs(t.inputs);
    std::optional<std::vector<JobPlan>> jobs =
        LayerAtATime(t, options, dfs.get());
    if (!jobs.has_value()) {
      ++out.failed;
      continue;
    }
    out.jobs += static_cast<int>(jobs->size());
    if (static_cast<int>(jobs->size()) != t.jobs) {
      out.jobs_match = false;
    }
    for (const JobPlan& job : *jobs) {
      ok = JobAnatomy(job, *dfs) && ok;
    }
    if (!ok) {
      ++out.failed;
    }
  }
  return out;
}

std::map<std::string, double> SelfTimesMs(
    const std::vector<std::string>& names) {
  const std::unordered_set<std::string> wanted(names.begin(), names.end());
  const std::vector<SpanRecord> spans = Tracer::Global().Snapshot();
  std::unordered_map<uint64_t, const SpanRecord*> by_id;
  for (const SpanRecord& s : spans) {
    by_id[s.id] = &s;
  }
  // Time of each wanted span covered by its nearest wanted descendants.
  std::unordered_map<uint64_t, double> covered_us;
  for (const SpanRecord& s : spans) {
    if (wanted.count(s.name) == 0) {
      continue;
    }
    for (uint64_t p = s.parent_id; p != 0;) {
      auto it = by_id.find(p);
      if (it == by_id.end()) {
        break;
      }
      if (wanted.count(it->second->name) > 0) {
        covered_us[p] += s.dur_us;
        break;
      }
      p = it->second->parent_id;
    }
  }
  std::map<std::string, double> out;
  for (const std::string& name : names) {
    out[name] = 0;
  }
  for (const SpanRecord& s : spans) {
    if (wanted.count(s.name) > 0) {
      out[s.name] += (s.dur_us - covered_us[s.id]) / 1000.0;
    }
  }
  return out;
}

}  // namespace musketeer::perfbench
