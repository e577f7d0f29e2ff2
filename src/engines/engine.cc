#include "src/engines/engine.h"

#include <algorithm>
#include <optional>
#include <sstream>
#include <unordered_set>

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

// Joins whose downstream aggregation (possibly through row-wise reshaping
// operators — the NetFlix join->map->group-by pattern) keys by something
// other than the join key: Musketeer's simple look-ahead type inference
// cannot fuse the re-keying map into the join, costing one extra pass over
// the data per job (§6.4: "an extra pass"); the first qualifying join in
// plan order pays it.
void CollectTypeInferenceMisses(const Dag& dag,
                                std::unordered_set<const OperatorNode*>* out) {
  for (const OperatorNode& n : dag.nodes()) {
    if (!out->empty()) {
      return;
    }
    if (n.kind == OpKind::kWhile) {
      CollectTypeInferenceMisses(*std::get<WhileParams>(n.params).body, out);
      continue;
    }
    if (n.kind != OpKind::kJoin) {
      continue;
    }
    const auto& jp = std::get<JoinParams>(n.params);
    // Walk forward through single-consumer row-wise chains.
    int cur = n.id;
    bool reshaped = false;
    while (true) {
      std::vector<int> consumers = dag.ConsumersOf(cur);
      if (consumers.size() != 1) {
        break;
      }
      const OperatorNode& consumer = dag.node(consumers[0]);
      if (IsRowwiseOp(consumer.kind)) {
        reshaped = true;
        cur = consumer.id;
        continue;
      }
      if (consumer.kind == OpKind::kGroupBy) {
        const auto& gp = std::get<GroupByParams>(consumer.params);
        bool same_key = !reshaped && gp.group_columns.size() == 1 &&
                        gp.group_columns[0] == jp.left_key;
        if (!same_key) {
          out->insert(&n);
        }
      } else if (consumer.kind == OpKind::kAgg) {
        out->insert(&n);
      }
      break;
    }
  }
}

int ShufflesPerIteration(const ExecTrace& trace) {
  int count = 0;
  for (const OpTrace& op : trace.ops) {
    if (op.iteration == 0 && IsShuffleOp(op.kind)) {
      ++count;
    }
  }
  return count;
}

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

  std::unordered_set<const OperatorNode*> misses;
  if (plan.quirks.model_type_inference_miss) {
    CollectTypeInferenceMisses(*plan.dag, &misses);
  }

  // 3. Assemble the pricing shape.
  JobShape shape;
  shape.pull_bytes = pull_bytes;
  shape.process_efficiency = plan.quirks.process_efficiency;
  shape.single_threaded_io = plan.quirks.single_threaded_io;
  if (RatesFor(plan.engine).load_mbps > 0) {
    shape.load_bytes = pull_bytes;
  }

  Bytes push_bytes = 0;
  for (const std::string& name : plan.outputs) {
    auto it = trace.relations.find(name);
    if (it == trace.relations.end()) {
      return InternalError("job did not produce declared output '" + name + "'");
    }
    push_bytes += it->second->nominal_bytes();
  }
  shape.push_bytes = push_bytes;

  if (plan.while_mode == WhileExec::kVertexRuntime) {
    // Vertex-centric runtimes do not execute the loop body as dataflow
    // operators: per superstep they stream the edges once through the
    // scatter/gather program (one graph-rate pass) and pay network for the
    // gather communication; the apply step is local and free.
    int cur_iter = -2;
    bool charged_scan = false;
    bool charged_gather = false;
    for (const OpTrace& op : trace.ops) {
      if (op.iteration < 0) {
        PricedOp priced;
        priced.in_bytes = op.in_bytes;
        priced.shuffle = IsShuffleOp(op.kind);
        priced.charge_process = !plan.quirks.shared_scans || !IsRowwiseOp(op.kind);
        shape.ops.push_back(priced);
        continue;
      }
      if (op.iteration != cur_iter) {
        cur_iter = op.iteration;
        charged_scan = false;
        charged_gather = false;
      }
      if (op.kind == OpKind::kJoin && !charged_scan) {
        charged_scan = true;
        shape.ops.push_back(PricedOp{.in_bytes = op.in_bytes,
                                     .shuffle = false,
                                     .charge_process = true,
                                     .graph_path = true});
      } else if ((op.kind == OpKind::kGroupBy || op.kind == OpKind::kAgg) &&
                 !charged_gather) {
        charged_gather = true;
        shape.ops.push_back(PricedOp{.in_bytes = op.in_bytes,
                                     .shuffle = true,
                                     .charge_process = false,
                                     .graph_path = true});
      }
      // All other body operators are the local apply step: free.
    }
  } else {
    for (const OpTrace& op : trace.ops) {
      PricedOp priced;
      priced.in_bytes = op.in_bytes;
      priced.shuffle = IsShuffleOp(op.kind);
      priced.charge_process = !plan.quirks.shared_scans || !IsRowwiseOp(op.kind);
      priced.single_node = plan.quirks.single_node_group_by &&
                           (op.kind == OpKind::kGroupBy || op.kind == OpKind::kAgg);
      shape.ops.push_back(priced);
      if (misses.count(op.node) > 0) {
        // Type-inference miss: an extra re-keying pass over the join output.
        shape.ops.push_back(PricedOp{.in_bytes = op.out_bytes,
                                     .shuffle = false,
                                     .charge_process = true});
      }
    }
  }

  // GraphChi streams from memory instead of disk when the graph fits.
  if (plan.engine == EngineKind::kGraphChi &&
      shape.pull_bytes < kGraphChiInMemoryBytes) {
    shape.process_efficiency *= kGraphChiInMemoryBoost;
  }

  // 4. Loop execution strategy.
  switch (plan.while_mode) {
    case WhileExec::kNone:
      shape.job_count = 1;
      break;
    case WhileExec::kNativeLoop:
    case WhileExec::kVertexRuntime:
      shape.job_count = 1;
      shape.supersteps = trace.total_iterations;
      break;
    case WhileExec::kPerIterationJobs: {
      // Every shuffle inside the loop body starts a fresh MapReduce job, and
      // each job's output is materialized to the DFS and re-read by the next
      // one — the core structural disadvantage of MR for iteration.
      int jobs_per_iter = std::max(1, ShufflesPerIteration(trace));
      shape.job_count = std::max(1, jobs_per_iter * trace.total_iterations);
      Bytes materialized = 0;
      for (const OpTrace& op : trace.ops) {
        if (op.iteration >= 0 && IsShuffleOp(op.kind)) {
          materialized += op.out_bytes;
        }
      }
      shape.pull_bytes += materialized;
      shape.push_bytes += materialized;
      break;
    }
  }

  shape.job_count += plan.quirks.extra_jobs;

  // 5. Price and commit results to the DFS.
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
         << ", push " << HumanBytes(push_bytes) << ", " << shape.job_count
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
