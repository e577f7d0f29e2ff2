// A partitioned, lineage-style dataset runtime — the execution substrate
// behind the Spark engine simulator (and Naiad's generic dataflow path).
//
// Relations live as P horizontal partitions. Narrow transformations
// (SELECT/PROJECT/MAP, UNION) run independently per partition; wide
// transformations (JOIN, GROUP BY, set operations) hash-repartition their
// inputs by key first — Spark's narrow/wide dependency distinction. Loops
// run as driver iterations over in-memory partitions (no materialization
// between trips). Results match the shared IR interpreter, identical up to
// floating-point summation order across partitions.

#ifndef MUSKETEER_SRC_ENGINES_RDD_RUNTIME_H_
#define MUSKETEER_SRC_ENGINES_RDD_RUNTIME_H_

#include "src/ir/eval.h"

namespace musketeer {

struct RddStats {
  int narrow_tasks = 0;      // per-partition task executions
  int wide_stages = 0;       // shuffles
  int64_t shuffled_records = 0;
};

struct RddOptions {
  int num_partitions = 4;
};

struct RddResult {
  TableMap relations;
  RddStats stats;
};

StatusOr<RddResult> ExecuteViaRdd(const Dag& dag, const TableMap& base,
                                  const RddOptions& options = {});

}  // namespace musketeer

#endif  // MUSKETEER_SRC_ENGINES_RDD_RUNTIME_H_
