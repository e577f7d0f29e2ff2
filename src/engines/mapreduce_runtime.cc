#include "src/engines/mapreduce_runtime.h"

#include <algorithm>
#include <unordered_map>

#include "src/backends/job.h"
#include "src/base/parallel.h"
#include "src/relational/ops.h"

namespace musketeer {

namespace {

// ---- task plumbing ---------------------------------------------------------

// Contiguous input splits, one per map task (column slices, no row copies of
// variant cells).
std::vector<Table> SplitTable(const Table& in, int n) {
  std::vector<Table> splits;
  n = std::max(1, n);
  size_t per = (in.num_rows() + n - 1) / std::max<size_t>(1, n);
  per = std::max<size_t>(per, 1);
  for (size_t start = 0; start < in.num_rows(); start += per) {
    size_t end = std::min(in.num_rows(), start + per);
    splits.push_back(in.Slice(start, end));
  }
  if (splits.empty()) {
    splits.emplace_back(in.schema());
  }
  return splits;
}

int PartitionOf(const Table& t, size_t row, const std::vector<int>& key_cols,
                int reducers) {
  if (key_cols.empty()) {
    return 0;  // global operators gather on one reducer
  }
  return static_cast<int>(HashRow(t, row, key_cols) %
                          static_cast<size_t>(reducers));
}

// Runs the map phase of one input: splits the table, applies `map_fn` per
// split (fused row-wise work happens inside), and scatters output rows to
// reducer buckets by key hash. Map tasks run in parallel on the shared task
// pool; each scatters into task-private buckets which are concatenated in
// split order, so bucket contents are identical to the sequential execution.
// `combined_records` is the task's combiner-output delta (stats are
// aggregated by the caller after the parallel phase).
using SplitFn =
    std::function<StatusOr<Table>(Table split, int64_t* combined_records)>;

struct ShuffleBuckets {
  // buckets[reducer] = rows destined for that reduce task. Every bucket
  // carries the mapped schema even when empty.
  std::vector<Table> buckets;
};

Status MapAndScatter(const Table& input, int num_mappers, int num_reducers,
                     const std::vector<int>& key_cols, const SplitFn& map_fn,
                     ShuffleBuckets* out, MapReduceStats* stats) {
  std::vector<Table> splits = SplitTable(input, num_mappers);
  struct MapTaskOut {
    Status status;
    std::vector<Table> buckets;
    int64_t map_output = 0;
    int64_t combined = 0;
  };
  std::vector<MapTaskOut> tasks(splits.size());
  ParallelChunks(splits.size(), 1, [&](size_t t, size_t, size_t) {
    MapTaskOut& o = tasks[t];
    StatusOr<Table> mapped = map_fn(std::move(splits[t]), &o.combined);
    if (!mapped.ok()) {
      o.status = mapped.status();
      return;
    }
    o.map_output = static_cast<int64_t>(mapped->num_rows());
    o.buckets.assign(num_reducers, Table(mapped->schema()));
    for (size_t i = 0; i < mapped->num_rows(); ++i) {
      o.buckets[PartitionOf(*mapped, i, key_cols, num_reducers)].AppendRowFrom(
          *mapped, i);
    }
  });
  out->buckets.resize(num_reducers);
  for (MapTaskOut& o : tasks) {
    MUSKETEER_RETURN_IF_ERROR(o.status);
    ++stats->map_tasks;
    stats->map_output_records += o.map_output;
    stats->combined_output_records += o.combined;
    for (int r = 0; r < num_reducers; ++r) {
      out->buckets[r].AppendTable(std::move(o.buckets[r]));
    }
  }
  for (const Table& b : out->buckets) {
    stats->shuffled_records += static_cast<int64_t>(b.num_rows());
  }
  return OkStatus();
}

// ---- combiner support ------------------------------------------------------

// Decomposes aggregations into partial (map-side) and final (reduce-side)
// steps; AVG becomes (SUM, COUNT), COUNT becomes COUNT then SUM.
struct CombinerPlan {
  std::vector<AggSpec> partial;           // run on each map task's output
  std::vector<int> partial_group;         // group columns in the input
  // For final assembly: per original agg, indices of its partial columns
  // (offset *after* the group columns in the partial schema).
  struct FinalAgg {
    AggFn fn;
    int partial_a = 0;   // first partial column
    int partial_b = -1;  // second (AVG count), -1 if unused
  };
  std::vector<FinalAgg> finals;
};

StatusOr<CombinerPlan> PlanCombiner(const std::vector<int>& group_cols,
                                    const std::vector<NamedAgg>& aggs,
                                    const Schema& in_schema) {
  CombinerPlan plan;
  plan.partial_group = group_cols;
  int next = 0;
  for (const NamedAgg& agg : aggs) {
    int col = 0;
    if (agg.fn != AggFn::kCount) {
      auto idx = in_schema.IndexOf(agg.column);
      if (!idx.has_value()) {
        return InvalidArgumentError("AGG column '" + agg.column + "' missing");
      }
      col = *idx;
    }
    CombinerPlan::FinalAgg f;
    f.fn = agg.fn;
    switch (agg.fn) {
      case AggFn::kSum:
      case AggFn::kMin:
      case AggFn::kMax:
        plan.partial.push_back({agg.fn, col, agg.output_name});
        f.partial_a = next++;
        break;
      case AggFn::kCount:
        plan.partial.push_back({AggFn::kCount, col, agg.output_name});
        f.partial_a = next++;
        break;
      case AggFn::kAvg:
        plan.partial.push_back({AggFn::kSum, col, agg.output_name + "__sum"});
        plan.partial.push_back({AggFn::kCount, col, agg.output_name + "__n"});
        f.partial_a = next++;
        f.partial_b = next++;
        break;
    }
    plan.finals.push_back(f);
  }
  return plan;
}

// Merges combined partial rows on the reduce side into the final schema
// produced by the reference GroupByAgg. Group keys are materialized to
// row-of-variants keys: partial tables are tiny (one row per distinct group
// per map task), so the compatibility path costs nothing measurable.
StatusOr<Table> FinalizeCombined(const Table& partial_rows,
                                 const CombinerPlan& plan,
                                 const Schema& out_schema, size_t num_group) {
  struct Acc {
    Row group;
    std::vector<double> sums;
    std::vector<double> mins;
    std::vector<double> maxs;
  };
  size_t num_partial = plan.partial.size();
  std::unordered_map<Row, Acc, RowHash, RowEq> groups;
  for (size_t i = 0; i < partial_rows.num_rows(); ++i) {
    Row key;
    key.reserve(num_group);
    for (size_t c = 0; c < num_group; ++c) {
      key.push_back(partial_rows.ValueAt(i, c));
    }
    Acc& acc = groups[key];
    if (acc.sums.empty()) {
      acc.group = key;
      acc.sums.assign(num_partial, 0.0);
      acc.mins.assign(num_partial, 1e300);
      acc.maxs.assign(num_partial, -1e300);
    }
    for (size_t j = 0; j < num_partial; ++j) {
      double v = AsDouble(partial_rows.ValueAt(i, num_group + j));
      acc.sums[j] += v;  // SUM/COUNT partials merge by summation
      acc.mins[j] = std::min(acc.mins[j], v);
      acc.maxs[j] = std::max(acc.maxs[j], v);
    }
  }
  Table out(out_schema);
  for (auto& [key, acc] : groups) {
    Row row = acc.group;
    for (size_t j = 0; j < plan.finals.size(); ++j) {
      const CombinerPlan::FinalAgg& f = plan.finals[j];
      double v = 0;
      switch (f.fn) {
        case AggFn::kSum:
        case AggFn::kCount:
          v = acc.sums[f.partial_a];
          break;
        case AggFn::kMin:
          v = acc.mins[f.partial_a];
          break;
        case AggFn::kMax:
          v = acc.maxs[f.partial_a];
          break;
        case AggFn::kAvg: {
          double n = acc.sums[f.partial_b];
          v = n > 0 ? acc.sums[f.partial_a] / n : 0;
          break;
        }
      }
      if (out_schema.field(num_group + j).type == FieldType::kInt64) {
        row.push_back(static_cast<int64_t>(v));
      } else {
        row.push_back(v);
      }
    }
    out.AddRow(row);
  }
  return out;
}

// ---- the runtime -----------------------------------------------------------

class MapReduceRuntime {
 public:
  MapReduceRuntime(const MapReduceOptions& options, MapReduceStats* stats)
      : options_(options), stats_(stats) {}

  StatusOr<TableMap> Run(const Dag& dag, const TableMap& base) {
    return WalkDag(
        dag, base,
        [this](const OperatorNode& node,
               const std::vector<const Table*>& inputs) -> StatusOr<Table> {
          MUSKETEER_ASSIGN_OR_RETURN(Table result, RunOperator(node, inputs));
          std::vector<ScaledRows> scales;
          for (const Table* t : inputs) {
            scales.push_back(
                {static_cast<double>(t->num_rows()), t->scale()});
          }
          result.set_scale(OutputScale(node.kind, scales));
          return result;
        },
        [this](const Dag& outer, const OperatorNode& node,
               const TableMap& outer_base,
               const std::vector<TablePtr>& inputs) {
          // One body pass per trip.
          return RunWhileLoop(
              outer, node, outer_base, inputs,
              [this](const Dag& body, const TableMap& trip_base, int) {
                return Run(body, trip_base);
              });
        });
  }

 private:
  StatusOr<Table> RunOperator(const OperatorNode& node,
                              const std::vector<const Table*>& inputs) {
    if (IsRowwiseOp(node.kind) || node.kind == OpKind::kUnion) {
      return RunMapOnly(node, inputs);
    }
    if (!IsShuffleOp(node.kind)) {
      // UDFs / black boxes run as one opaque task.
      ++stats_->stages;
      ++stats_->map_tasks;
      return EvaluateOperator(node, inputs);
    }
    return RunShuffleStage(node, inputs);
  }

  // Map-only stage: row-wise operators (and UNION's concatenation) applied
  // per input split; no shuffle.
  StatusOr<Table> RunMapOnly(const OperatorNode& node,
                             const std::vector<const Table*>& inputs) {
    ++stats_->stages;
    if (node.kind == OpKind::kUnion) {
      stats_->map_tasks += 2;
      return EvaluateOperator(node, inputs);
    }
    std::vector<Table> splits = SplitTable(*inputs[0], options_.num_mappers);
    struct TaskOut {
      Status status;
      Table table;
    };
    std::vector<TaskOut> parts(splits.size());
    ParallelChunks(splits.size(), 1, [&](size_t t, size_t, size_t) {
      splits[t].set_scale(inputs[0]->scale());
      StatusOr<Table> part = EvaluateOperator(node, {&splits[t]});
      if (part.ok()) {
        parts[t].table = std::move(*part);
      } else {
        parts[t].status = part.status();
      }
    });
    Table out;
    for (TaskOut& t : parts) {
      MUSKETEER_RETURN_IF_ERROR(t.status);
      ++stats_->map_tasks;
      out.AppendTable(std::move(t.table));
    }
    return out;
  }

  StatusOr<Table> RunShuffleStage(const OperatorNode& node,
                                  const std::vector<const Table*>& inputs) {
    ++stats_->stages;
    switch (node.kind) {
      case OpKind::kGroupBy:
        return RunGroupBy(node, *inputs[0]);
      case OpKind::kJoin:
        return RunJoin(node, *inputs[0], *inputs[1]);
      case OpKind::kDistinct:
      case OpKind::kIntersect:
      case OpKind::kDifference:
        return RunSetOp(node, inputs);
      default:
        return RunGlobal(node, inputs);
    }
  }

  StatusOr<Table> RunGroupBy(const OperatorNode& node, const Table& in) {
    const auto& p = std::get<GroupByParams>(node.params);
    std::vector<int> group_cols;
    for (const std::string& name : p.group_columns) {
      auto idx = in.schema().IndexOf(name);
      if (!idx.has_value()) {
        return InvalidArgumentError("GROUP BY column '" + name + "' missing");
      }
      group_cols.push_back(*idx);
    }
    // Output schema, computed cheaply on an empty input.
    Table empty_in(in.schema());
    MUSKETEER_ASSIGN_OR_RETURN(Table schema_probe,
                               EvaluateOperator(node, {&empty_in}));
    const Schema& out_schema = schema_probe.schema();

    if (!options_.use_combiners) {
      // Plain path: scatter raw rows by group key, reduce with the kernel.
      ShuffleBuckets buckets;
      MUSKETEER_RETURN_IF_ERROR(MapAndScatter(
          in, options_.num_mappers, options_.num_reducers, group_cols,
          [](Table split, int64_t*) { return split; }, &buckets, stats_));
      struct ReduceOut {
        Status status;
        Table table;
      };
      std::vector<ReduceOut> parts(buckets.buckets.size());
      ParallelChunks(buckets.buckets.size(), 1, [&](size_t r, size_t, size_t) {
        if (buckets.buckets[r].num_rows() == 0) {
          return;  // empty partitions contribute nothing
        }
        StatusOr<Table> part = EvaluateOperator(node, {&buckets.buckets[r]});
        if (part.ok()) {
          parts[r].table = std::move(*part);
        } else {
          parts[r].status = part.status();
        }
      });
      Table out(out_schema);
      for (ReduceOut& r : parts) {
        ++stats_->reduce_tasks;
        MUSKETEER_RETURN_IF_ERROR(r.status);
        out.AppendTable(std::move(r.table));
      }
      if (group_cols.empty() && out.num_rows() == 0) {
        return EvaluateOperator(node, {&in});  // global agg over empty input
      }
      return out;
    }

    // Combiner path: per-map partial aggregation, reduce merges partials.
    // Partial rows lead with the group columns.
    MUSKETEER_ASSIGN_OR_RETURN(CombinerPlan plan,
                               PlanCombiner(group_cols, p.aggs, in.schema()));
    std::vector<int> partial_key_cols(group_cols.size());
    for (size_t i = 0; i < group_cols.size(); ++i) {
      partial_key_cols[i] = static_cast<int>(i);
    }
    ShuffleBuckets buckets;
    MUSKETEER_RETURN_IF_ERROR(MapAndScatter(
        in, options_.num_mappers, options_.num_reducers, partial_key_cols,
        [&](Table split, int64_t* combined) -> StatusOr<Table> {
          if (split.num_rows() == 0) {
            return Table(split.schema());
          }
          MUSKETEER_ASSIGN_OR_RETURN(Table partial,
                                     GroupByAgg(split, group_cols, plan.partial));
          *combined += static_cast<int64_t>(partial.num_rows());
          return partial;
        },
        &buckets, stats_));

    struct ReduceOut {
      Status status;
      Table table;
    };
    std::vector<ReduceOut> parts(buckets.buckets.size());
    ParallelChunks(buckets.buckets.size(), 1, [&](size_t r, size_t, size_t) {
      if (buckets.buckets[r].num_rows() == 0) {
        return;
      }
      StatusOr<Table> part = FinalizeCombined(buckets.buckets[r], plan,
                                              out_schema, group_cols.size());
      if (part.ok()) {
        parts[r].table = std::move(*part);
      } else {
        parts[r].status = part.status();
      }
    });
    Table out(out_schema);
    for (ReduceOut& r : parts) {
      ++stats_->reduce_tasks;
      MUSKETEER_RETURN_IF_ERROR(r.status);
      out.AppendTable(std::move(r.table));
    }
    if (group_cols.empty() && out.num_rows() == 0) {
      return EvaluateOperator(node, {&in});
    }
    return out;
  }

  StatusOr<Table> RunJoin(const OperatorNode& node, const Table& left,
                          const Table& right) {
    const auto& p = std::get<JoinParams>(node.params);
    auto li = left.schema().IndexOf(p.left_key);
    auto ri = right.schema().IndexOf(p.right_key);
    if (!li.has_value() || !ri.has_value()) {
      return InvalidArgumentError("JOIN key missing in MapReduce stage");
    }
    ShuffleBuckets lbuckets;
    ShuffleBuckets rbuckets;
    MUSKETEER_RETURN_IF_ERROR(MapAndScatter(
        left, options_.num_mappers, options_.num_reducers, {*li},
        [](Table s, int64_t*) { return s; }, &lbuckets, stats_));
    MUSKETEER_RETURN_IF_ERROR(MapAndScatter(
        right, options_.num_mappers, options_.num_reducers, {*ri},
        [](Table s, int64_t*) { return s; }, &rbuckets, stats_));
    struct ReduceOut {
      Status status;
      Table table;
    };
    std::vector<ReduceOut> parts(options_.num_reducers);
    ParallelChunks(parts.size(), 1, [&](size_t r, size_t, size_t) {
      StatusOr<Table> part =
          HashJoin(lbuckets.buckets[r], rbuckets.buckets[r], *li, *ri);
      if (part.ok()) {
        parts[r].table = std::move(*part);
      } else {
        parts[r].status = part.status();
      }
    });
    Table out;
    for (ReduceOut& r : parts) {
      ++stats_->reduce_tasks;
      MUSKETEER_RETURN_IF_ERROR(r.status);
      out.AppendTable(std::move(r.table));
    }
    return out;
  }

  StatusOr<Table> RunSetOp(const OperatorNode& node,
                           const std::vector<const Table*>& inputs) {
    // Whole-row keys: co-partition all inputs and apply the kernel per
    // reducer (identical rows meet on the same reducer).
    std::vector<int> key_cols;
    for (size_t c = 0; c < inputs[0]->schema().num_fields(); ++c) {
      key_cols.push_back(static_cast<int>(c));
    }
    std::vector<ShuffleBuckets> buckets(inputs.size());
    for (size_t i = 0; i < inputs.size(); ++i) {
      if (inputs[i]->schema().num_fields() != inputs[0]->schema().num_fields()) {
        return InvalidArgumentError("set-operation arity mismatch");
      }
      MUSKETEER_RETURN_IF_ERROR(MapAndScatter(
          *inputs[i], options_.num_mappers, options_.num_reducers, key_cols,
          [](Table s, int64_t*) { return s; }, &buckets[i], stats_));
    }
    struct ReduceOut {
      Status status;
      Table table;
    };
    std::vector<ReduceOut> results(options_.num_reducers);
    ParallelChunks(results.size(), 1, [&](size_t r, size_t, size_t) {
      std::vector<const Table*> part_ptrs;
      for (size_t i = 0; i < inputs.size(); ++i) {
        part_ptrs.push_back(&buckets[i].buckets[r]);
      }
      StatusOr<Table> part = EvaluateOperator(node, part_ptrs);
      if (part.ok()) {
        results[r].table = std::move(*part);
      } else {
        results[r].status = part.status();
      }
    });
    Table out(inputs[0]->schema());
    for (ReduceOut& r : results) {
      ++stats_->reduce_tasks;
      MUSKETEER_RETURN_IF_ERROR(r.status);
      out.AppendTable(std::move(r.table));
    }
    return out;
  }

  // Global operators (AGG, MAX, MIN, TOP-N, SORT, CROSS JOIN): a map-side
  // pre-reduction where valid, then a single reduce task.
  StatusOr<Table> RunGlobal(const OperatorNode& node,
                            const std::vector<const Table*>& inputs) {
    bool pre_reducible = node.kind == OpKind::kMax || node.kind == OpKind::kMin ||
                         node.kind == OpKind::kTopN;
    if (pre_reducible && options_.use_combiners) {
      std::vector<Table> splits = SplitTable(*inputs[0], options_.num_mappers);
      struct TaskOut {
        Status status;
        Table table;
      };
      std::vector<TaskOut> parts(splits.size());
      ParallelChunks(splits.size(), 1, [&](size_t t, size_t, size_t) {
        if (splits[t].num_rows() == 0) {
          return;
        }
        StatusOr<Table> part = EvaluateOperator(node, {&splits[t]});
        if (part.ok()) {
          parts[t].table = std::move(*part);
        } else {
          parts[t].status = part.status();
        }
      });
      Table gathered(inputs[0]->schema());
      for (TaskOut& t : parts) {
        ++stats_->map_tasks;
        MUSKETEER_RETURN_IF_ERROR(t.status);
        stats_->combined_output_records +=
            static_cast<int64_t>(t.table.num_rows());
        gathered.AppendTable(std::move(t.table));
      }
      ++stats_->reduce_tasks;
      stats_->shuffled_records += static_cast<int64_t>(gathered.num_rows());
      return EvaluateOperator(node, {&gathered});
    }
    ++stats_->map_tasks;
    ++stats_->reduce_tasks;
    for (const Table* t : inputs) {
      stats_->shuffled_records += static_cast<int64_t>(t->num_rows());
    }
    return EvaluateOperator(node, inputs);
  }

  MapReduceOptions options_;
  MapReduceStats* stats_;
};

}  // namespace

StatusOr<MapReduceResult> ExecuteViaMapReduce(const Dag& dag, const TableMap& base,
                                              const MapReduceOptions& options) {
  MapReduceResult result;
  MapReduceRuntime runtime(options, &result.stats);
  MUSKETEER_ASSIGN_OR_RETURN(result.relations, runtime.Run(dag, base));
  return result;
}

}  // namespace musketeer
