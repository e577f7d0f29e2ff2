// A MapReduce runtime, built from scratch.
//
// This is the execution substrate behind the Hadoop and Metis engine
// simulators: job sub-DAGs are compiled into a sequence of MapReduce stages
// (one per key-repartitioning operator, §4.3.2) and executed the way a real
// MapReduce system does — input splits feed map tasks, map output is
// partitioned by key hash across reducers, optionally pre-aggregated by a
// combiner when the aggregation is associative, sorted/grouped per reducer,
// and reduced. Row-wise operators fuse into the surrounding map phases.
//
// Results match the shared IR interpreter (identical up to floating-point
// summation order — combiners and partitioned reduces legitimately reorder
// double addition; verified by the cross-engine equivalence tests). The
// returned statistics expose the volumes a real deployment would shuffle.

#ifndef MUSKETEER_SRC_ENGINES_MAPREDUCE_RUNTIME_H_
#define MUSKETEER_SRC_ENGINES_MAPREDUCE_RUNTIME_H_

#include "src/ir/eval.h"

namespace musketeer {

struct MapReduceStats {
  int stages = 0;            // MapReduce jobs launched (map-only ones too)
  int map_tasks = 0;         // total map tasks across stages
  int reduce_tasks = 0;      // total reduce tasks across stages
  int64_t map_output_records = 0;      // records emitted by all mappers
  int64_t combined_output_records = 0; // records after the combiner pass
  int64_t shuffled_records = 0;        // records crossing the shuffle
};

struct MapReduceOptions {
  int num_mappers = 4;   // input splits per stage
  int num_reducers = 3;  // shuffle partitions
  bool use_combiners = true;  // pre-aggregate associative aggregations
};

struct MapReduceResult {
  TableMap relations;  // every relation the DAG defines
  MapReduceStats stats;
};

// Executes `dag` (including WHILE loops, one body pass per trip) against
// `base` through the MapReduce runtime.
StatusOr<MapReduceResult> ExecuteViaMapReduce(const Dag& dag, const TableMap& base,
                                              const MapReduceOptions& options = {});

}  // namespace musketeer

#endif  // MUSKETEER_SRC_ENGINES_MAPREDUCE_RUNTIME_H_
