#include "src/engines/rdd_runtime.h"

#include <algorithm>

#include "src/backends/job.h"
#include "src/base/parallel.h"
#include "src/relational/ops.h"

namespace musketeer {

namespace {

// An in-memory partitioned dataset. Each partition is a columnar Table
// sharing the dataset schema (possibly with different field names after a
// UNION, but always the same column types).
struct Rdd {
  Schema schema;
  std::vector<Table> partitions;
  double scale = 1.0;

  size_t TotalRows() const {
    size_t n = 0;
    for (const Table& p : partitions) {
      n += p.num_rows();
    }
    return n;
  }
};

Rdd Parallelize(const Table& table, int num_partitions) {
  Rdd rdd;
  rdd.schema = table.schema();
  rdd.scale = table.scale();
  rdd.partitions.assign(std::max(1, num_partitions), Table(table.schema()));
  for (size_t i = 0; i < table.num_rows(); ++i) {
    rdd.partitions[i % rdd.partitions.size()].AppendRowFrom(table, i);
  }
  return rdd;
}

Table Collect(const Rdd& rdd) {
  Table out(rdd.schema);
  out.set_scale(rdd.scale);
  for (const Table& partition : rdd.partitions) {
    out.AppendTableCopy(partition);
  }
  return out;
}

class RddRuntime {
 public:
  RddRuntime(const RddOptions& options, RddStats* stats)
      : p_(std::max(1, options.num_partitions)), stats_(stats) {}

  StatusOr<TableMap> Run(const Dag& dag, const TableMap& base) {
    TableMap produced;
    std::vector<std::shared_ptr<Rdd>> by_node(dag.num_nodes());
    for (const OperatorNode& node : dag.nodes()) {
      if (node.kind == OpKind::kInput) {
        const auto& p = std::get<InputParams>(node.params);
        auto it = base.find(p.relation);
        if (it == base.end()) {
          return NotFoundError("base relation '" + p.relation + "' not provided");
        }
        by_node[node.id] = std::make_shared<Rdd>(Parallelize(*it->second, p_));
        continue;
      }
      if (node.kind == OpKind::kWhile) {
        // Driver iterations over collected, in-memory relations.
        std::vector<TablePtr> seeds;
        for (int i : node.inputs) {
          seeds.push_back(std::make_shared<Table>(Collect(*by_node[i])));
        }
        MUSKETEER_ASSIGN_OR_RETURN(
            TablePtr result,
            RunWhileLoop(dag, node, base, seeds,
                         [this](const Dag& body, const TableMap& trip_base,
                                int) { return Run(body, trip_base); }));
        by_node[node.id] = std::make_shared<Rdd>(Parallelize(*result, p_));
        produced[node.output] = std::move(result);
        continue;
      }

      std::vector<const Rdd*> inputs;
      for (int i : node.inputs) {
        inputs.push_back(by_node[i].get());
      }
      MUSKETEER_ASSIGN_OR_RETURN(Rdd result, RunOperator(node, inputs));
      std::vector<ScaledRows> scales;
      for (const Rdd* r : inputs) {
        scales.push_back({static_cast<double>(r->TotalRows()), r->scale});
      }
      result.scale = OutputScale(node.kind, scales);
      auto rdd = std::make_shared<Rdd>(std::move(result));
      by_node[node.id] = rdd;
      produced[node.output] = std::make_shared<Table>(Collect(*rdd));
    }
    return produced;
  }

 private:
  StatusOr<Rdd> RunOperator(const OperatorNode& node,
                            const std::vector<const Rdd*>& inputs) {
    if (IsRowwiseOp(node.kind)) {
      return RunNarrow(node, *inputs[0]);
    }
    if (node.kind == OpKind::kUnion) {
      return RunUnion(*inputs[0], *inputs[1]);
    }
    if (node.kind == OpKind::kGroupBy) {
      return RunKeyed(node, inputs, GroupKeyCols(node, inputs[0]->schema));
    }
    if (node.kind == OpKind::kJoin) {
      return RunJoin(node, *inputs[0], *inputs[1]);
    }
    if (node.kind == OpKind::kDistinct || node.kind == OpKind::kIntersect ||
        node.kind == OpKind::kDifference) {
      std::vector<int> all_cols;
      for (size_t c = 0; c < inputs[0]->schema.num_fields(); ++c) {
        all_cols.push_back(static_cast<int>(c));
      }
      return RunKeyed(node, inputs, all_cols);
    }
    // Global operators (AGG, MAX, MIN, TOP-N, SORT, CROSS JOIN, UDF):
    // collect to the driver and apply the kernel — the single-partition path.
    ++stats_->wide_stages;
    std::vector<Table> collected;
    std::vector<const Table*> ptrs;
    for (const Rdd* r : inputs) {
      stats_->shuffled_records += static_cast<int64_t>(r->TotalRows());
      collected.push_back(Collect(*r));
    }
    for (const Table& t : collected) {
      ptrs.push_back(&t);
    }
    MUSKETEER_ASSIGN_OR_RETURN(Table out, EvaluateOperator(node, ptrs));
    return Parallelize(out, 1);
  }

  // Narrow dependency: apply per partition, no data movement. Partition
  // tasks run in parallel; each writes only its own output slot.
  StatusOr<Rdd> RunNarrow(const OperatorNode& node, const Rdd& in) {
    Rdd out;
    out.partitions.resize(in.partitions.size());
    std::vector<Status> statuses(in.partitions.size());
    ParallelChunks(in.partitions.size(), 1, [&](size_t i, size_t, size_t) {
      StatusOr<Table> result = EvaluateOperator(node, {&in.partitions[i]});
      if (!result.ok()) {
        statuses[i] = result.status();
        return;
      }
      out.partitions[i] = std::move(*result);
    });
    for (const Status& s : statuses) {
      MUSKETEER_RETURN_IF_ERROR(s);
    }
    stats_->narrow_tasks += static_cast<int>(in.partitions.size());
    if (!out.partitions.empty()) {
      out.schema = out.partitions[0].schema();
    }
    return out;
  }

  StatusOr<Rdd> RunUnion(const Rdd& a, const Rdd& b) {
    if (a.schema.num_fields() != b.schema.num_fields()) {
      return InvalidArgumentError("UNION arity mismatch");
    }
    Rdd out;
    out.schema = a.schema;
    out.partitions = a.partitions;
    for (const Table& bp : b.partitions) {
      // Keep b partitions column-compatible with a's schema: same-typed
      // columns concatenate untouched; mixed numeric columns coerce cell-wise
      // (the UnionAll kernel's rule); string/numeric mismatch is an error.
      bool same_types = true;
      for (size_t c = 0; c < a.schema.num_fields(); ++c) {
        FieldType at = a.schema.field(c).type;
        FieldType bt = bp.schema().field(c).type;
        if (at != bt) {
          same_types = false;
          if ((at == FieldType::kString) != (bt == FieldType::kString)) {
            return InvalidArgumentError("UNION type mismatch on column " +
                                        std::to_string(c));
          }
        }
      }
      if (same_types) {
        out.partitions.push_back(bp);
      } else {
        Table coerced(a.schema);
        coerced.Reserve(bp.num_rows());
        for (size_t i = 0; i < bp.num_rows(); ++i) {
          coerced.AddRow(bp.MaterializeRow(i));
        }
        out.partitions.push_back(std::move(coerced));
      }
    }
    stats_->narrow_tasks += static_cast<int>(out.partitions.size());
    return out;
  }

  static std::vector<int> GroupKeyCols(const OperatorNode& node,
                                       const Schema& schema) {
    std::vector<int> cols;
    for (const std::string& name :
         std::get<GroupByParams>(node.params).group_columns) {
      auto idx = schema.IndexOf(name);
      if (idx.has_value()) {
        cols.push_back(*idx);
      }
    }
    return cols;
  }

  // Hash-repartitions `in` by `cols` into p_ partitions. Source partitions
  // scatter in parallel into source-private buckets, concatenated in source
  // order — identical bucket contents to the sequential scatter.
  std::vector<Table> Repartition(const Rdd& in, const std::vector<int>& cols) {
    ++stats_->wide_stages;
    std::vector<std::vector<Table>> scattered(in.partitions.size());
    ParallelChunks(in.partitions.size(), 1, [&](size_t i, size_t, size_t) {
      const Table& src = in.partitions[i];
      std::vector<Table>& buckets = scattered[i];
      buckets.assign(p_, Table(src.schema()));
      for (size_t row = 0; row < src.num_rows(); ++row) {
        buckets[HashRow(src, row, cols) % static_cast<size_t>(p_)]
            .AppendRowFrom(src, row);
      }
    });
    std::vector<Table> out(p_);
    for (size_t i = 0; i < scattered.size(); ++i) {
      for (int b = 0; b < p_; ++b) {
        out[b].AppendTable(std::move(scattered[i][b]));
      }
      stats_->shuffled_records +=
          static_cast<int64_t>(in.partitions[i].num_rows());
    }
    return out;
  }

  // Wide dependency with key-local semantics: repartition every input by the
  // operator's key, apply the kernel per co-partition.
  StatusOr<Rdd> RunKeyed(const OperatorNode& node,
                         const std::vector<const Rdd*>& inputs,
                         const std::vector<int>& key_cols) {
    if (key_cols.empty()) {
      // Global aggregation: single partition.
      ++stats_->wide_stages;
      std::vector<Table> collected;
      std::vector<const Table*> ptrs;
      for (const Rdd* r : inputs) {
        stats_->shuffled_records += static_cast<int64_t>(r->TotalRows());
        collected.push_back(Collect(*r));
      }
      for (const Table& t : collected) {
        ptrs.push_back(&t);
      }
      MUSKETEER_ASSIGN_OR_RETURN(Table out, EvaluateOperator(node, ptrs));
      return Parallelize(out, 1);
    }
    std::vector<std::vector<Table>> parts;
    for (const Rdd* r : inputs) {
      parts.push_back(Repartition(*r, key_cols));
    }
    Rdd out;
    out.partitions.resize(p_);
    std::vector<Status> statuses(p_);
    ParallelChunks(p_, 1, [&](size_t i, size_t, size_t) {
      std::vector<const Table*> ptrs;
      for (size_t j = 0; j < inputs.size(); ++j) {
        ptrs.push_back(&parts[j][i]);
      }
      StatusOr<Table> result = EvaluateOperator(node, ptrs);
      if (!result.ok()) {
        statuses[i] = result.status();
        return;
      }
      out.partitions[i] = std::move(*result);
    });
    for (const Status& s : statuses) {
      MUSKETEER_RETURN_IF_ERROR(s);
    }
    out.schema = out.partitions[0].schema();
    return out;
  }

  StatusOr<Rdd> RunJoin(const OperatorNode& node, const Rdd& left,
                        const Rdd& right) {
    const auto& p = std::get<JoinParams>(node.params);
    auto li = left.schema.IndexOf(p.left_key);
    auto ri = right.schema.IndexOf(p.right_key);
    if (!li.has_value() || !ri.has_value()) {
      return InvalidArgumentError("JOIN key missing in RDD stage");
    }
    std::vector<Table> lparts = Repartition(left, {*li});
    std::vector<Table> rparts = Repartition(right, {*ri});
    Rdd out;
    out.partitions.resize(p_);
    std::vector<Status> statuses(p_);
    ParallelChunks(p_, 1, [&](size_t i, size_t, size_t) {
      StatusOr<Table> result = HashJoin(lparts[i], rparts[i], *li, *ri);
      if (!result.ok()) {
        statuses[i] = result.status();
        return;
      }
      out.partitions[i] = std::move(*result);
    });
    for (const Status& s : statuses) {
      MUSKETEER_RETURN_IF_ERROR(s);
    }
    out.schema = out.partitions[0].schema();
    return out;
  }

  int p_;
  RddStats* stats_;
};

}  // namespace

StatusOr<RddResult> ExecuteViaRdd(const Dag& dag, const TableMap& base,
                                  const RddOptions& options) {
  RddResult result;
  RddRuntime runtime(options, &result.stats);
  MUSKETEER_ASSIGN_OR_RETURN(result.relations, runtime.Run(dag, base));
  return result;
}

}  // namespace musketeer
