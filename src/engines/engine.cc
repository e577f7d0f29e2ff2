#include "src/engines/engine.h"

#include <algorithm>
#include <optional>
#include <sstream>

#include "src/base/memory.h"
#include "src/base/parallel.h"
#include "src/base/strings.h"
#include "src/engines/executor.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/engines/mapreduce_runtime.h"
#include "src/engines/rdd_runtime.h"
#include "src/engines/timely_runtime.h"
#include "src/engines/vertex_runtime.h"

namespace musketeer {

namespace {

// Every program that executes jobs keeps freed kernel buffers in one heap
// (src/base/memory.h). Set during static initialization, before main can
// start a thread.
[[maybe_unused]] const bool kFreedBlocksKept =
    (KeepFreedBlocksInHeap(), true);

}  // namespace

Status VerifyOnSubstrate(const JobPlan& plan, const TableMap& base,
                         const TableMap& kernel_outputs) {
  TableMap substrate_relations;
  switch (plan.engine) {
    case EngineKind::kHadoop:
    case EngineKind::kMetis: {
      MapReduceOptions mr;
      // Metis runs one mapper per core on a single machine.
      mr.num_mappers = plan.engine == EngineKind::kHadoop ? 8 : 4;
      mr.num_reducers = 4;
      MUSKETEER_ASSIGN_OR_RETURN(MapReduceResult sub,
                                 ExecuteViaMapReduce(*plan.dag, base, mr));
      substrate_relations = std::move(sub.relations);
      break;
    }
    case EngineKind::kSpark: {
      MUSKETEER_ASSIGN_OR_RETURN(RddResult sub,
                                 ExecuteViaRdd(*plan.dag, base, {.num_partitions = 4}));
      substrate_relations = std::move(sub.relations);
      break;
    }
    case EngineKind::kNaiad:
      if (!plan.graph_path) {
        MUSKETEER_ASSIGN_OR_RETURN(TimelyResult sub,
                                   ExecuteViaTimely(*plan.dag, base));
        substrate_relations = std::move(sub.relations);
        break;
      }
      [[fallthrough]];  // GraphLINQ-on-Naiad runs the vertex runtime
    case EngineKind::kPowerGraph:
    case EngineKind::kGraphChi: {
      MUSKETEER_ASSIGN_OR_RETURN(VertexRuntimeResult sub,
                                 ExecuteViaVertexRuntime(*plan.dag, base));
      substrate_relations = std::move(sub.relations);
      break;
    }
    case EngineKind::kSerialC:
      return OkStatus();
  }
  for (const std::string& name : plan.outputs) {
    auto it = substrate_relations.find(name);
    if (it == substrate_relations.end()) {
      return AbortedError("engine substrate did not produce '" + name + "'");
    }
    auto kernel_it = kernel_outputs.find(name);
    if (kernel_it == kernel_outputs.end()) {
      return InvalidArgumentError("no kernel output '" + name + "' to check");
    }
    if (!Table::SameContent(*kernel_it->second, *it->second)) {
      return AbortedError("substrate output '" + name + "' diverged from the "
                          "shared kernel on " + plan.name + "@" +
                          EngineKindName(plan.engine));
    }
  }
  return OkStatus();
}

StatusOr<JobResult> ExecuteJob(const JobPlan& plan, const ClusterConfig& cluster,
                               Dfs* dfs, const ExecutionContext& ctx) {
  Span span("job:" + plan.name, "job");
  if (span.active()) {
    span.SetAttr("engine", EngineKindName(plan.engine));
    span.SetAttr("inputs", std::to_string(plan.inputs.size()));
    span.SetAttr("attempt", std::to_string(ctx.attempt));
  }
  static Counter& jobs =
      MetricsRegistry::Global().counter("musketeer.engine.jobs");
  static Counter& faults_injected =
      MetricsRegistry::Global().counter("musketeer.engine.faults_injected");
  static Histogram& job_wall = MetricsRegistry::Global().histogram(
      "musketeer.engine.job_wall_seconds");
  jobs.Increment();

  // Register the context's token/deadline as this thread's interrupt state so
  // the DAG walker's node loop and the WHILE driver's trips (which cannot
  // take a context parameter) observe them via CheckInterrupt.
  ScopedInterrupt interrupt(ctx.cancel, ctx.deadline);
  MUSKETEER_RETURN_IF_ERROR(ctx.Check());

  // Seeded fault injection: whether this (workflow, job@engine, attempt)
  // fails is a pure function of the injector's seed, so fault sweeps are
  // reproducible. The fault models a substrate that died before committing
  // anything — retryable kUnavailable.
  const std::string job_signature =
      plan.name + "@" + EngineKindName(plan.engine);
  if (ctx.faults.ShouldFail(ctx.workflow_id, job_signature, ctx.attempt)) {
    faults_injected.Increment();
    return UnavailableError("injected fault: " + job_signature + " attempt " +
                            std::to_string(ctx.attempt));
  }

  // 1. Pull the job's inputs from the DFS. Inputs another shard owns are a
  // cross-shard fetch (IsLocal answers from the relation-location
  // directory; always local on an unsharded Dfs) and are accounted
  // separately so a sharded run reports the bytes it moved between shards.
  TableMap base;
  Bytes pull_bytes = 0;
  Bytes pull_remote_bytes = 0;
  for (const std::string& name : plan.inputs) {
    const bool local = dfs->IsLocal(name);
    MUSKETEER_ASSIGN_OR_RETURN(TablePtr table, dfs->Get(name));
    base[name] = table;
    pull_bytes += table->nominal_bytes();
    if (!local) {
      pull_remote_bytes += table->nominal_bytes();
    }
  }

  // Data-plane parallelism fidelity: engines the paper models as
  // single-threaded degrade to one thread for the whole job — SerialC's
  // generated C program is sequential by construction, and a
  // single_threaded_io quirk (native Lindi, §2.1) pins the job's I/O path to
  // one thread. Everything else runs at the session's thread budget.
  std::optional<ScopedParallelThreads> forced_serial;
  if (plan.engine == EngineKind::kSerialC || plan.quirks.single_threaded_io) {
    forced_serial.emplace(1);
  }

  // 2. Execute the sub-DAG on real data through the shared kernel, tracing
  // volumes. Its tables are what the job commits and its trace drives the
  // performance model; the engine's own substrate (MapReduce, partitioned
  // RDDs, timely dataflow or the vertex runtime) does not run here — see
  // VerifyOnSubstrate.
  MUSKETEER_ASSIGN_OR_RETURN(ExecTrace trace, TraceExecuteDag(*plan.dag, base));

  // 3. Shape the traced volumes with the planner's pricing policy.
  JobVolumes volumes;
  volumes.pull_bytes = pull_bytes;
  for (const std::string& name : plan.outputs) {
    auto it = trace.relations.find(name);
    if (it == trace.relations.end()) {
      return InternalError("job did not produce declared output '" + name + "'");
    }
    volumes.push_bytes += it->second->nominal_bytes();
  }
  volumes.trips = trace.total_iterations;
  const OperatorNode* miss = TypeInferenceMissJoin(*plan.dag);
  volumes.ops.reserve(trace.ops.size());
  for (const OpTrace& op : trace.ops) {
    volumes.ops.push_back(VolumeOf(*op.node, op.in_bytes, op.out_bytes,
                                   op.iteration, 1.0, op.node == miss));
  }
  JobShape shape;
  ShapeJob(plan.engine, plan.quirks, plan.while_mode, volumes, &shape);

  // 4. Price and commit results to the DFS.
  JobResult result;
  result.makespan = PriceJob(plan.engine, cluster, shape);
  result.bytes_pulled = shape.pull_bytes;
  result.bytes_pulled_remote = pull_remote_bytes;
  result.bytes_pushed = shape.push_bytes;
  result.internal_jobs = shape.job_count;
  result.supersteps = shape.supersteps;

  MUSKETEER_RETURN_IF_ERROR(ctx.Check());
  // Commit atomically so a failed attempt never leaves partial outputs
  // behind for a retry to trip over (every declared output was looked up
  // above). The kernel's tables are what every engine commits, which lets
  // failover guarantee Table::Identical results.
  for (const std::string& name : plan.outputs) {
    dfs->Put(name, trace.relations.at(name));
  }

  // Harvest observed sizes: top-level operators plus the final iteration of
  // loop bodies (the steady state the cost model should predict).
  int last_iteration = -1;
  for (const OpTrace& op : trace.ops) {
    last_iteration = std::max(last_iteration, op.iteration);
  }
  for (const OpTrace& op : trace.ops) {
    if (op.iteration == -1 || op.iteration == last_iteration) {
      result.observed_sizes.emplace_back(op.node->output, op.out_bytes);
    }
  }

  std::ostringstream detail;
  detail << EngineKindName(plan.engine) << " job '" << plan.name << "': "
         << HumanSeconds(result.makespan) << ", pull " << HumanBytes(pull_bytes)
         << ", push " << HumanBytes(volumes.push_bytes) << ", " << shape.job_count
         << " engine job(s)";
  if (pull_remote_bytes > 0) {
    detail << ", " << HumanBytes(pull_remote_bytes) << " fetched cross-shard";
  }
  if (ctx.shard >= 0) {
    detail << " [shard " << ctx.shard << "]";
  }
  if (shape.supersteps > 0) {
    detail << ", " << shape.supersteps << " supersteps";
  }
  result.detail = detail.str();
  result.wall_seconds = span.elapsed_seconds();
  job_wall.Observe(result.wall_seconds);
  return result;
}

}  // namespace musketeer
