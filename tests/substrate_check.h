// Re-checks a finished run on the engines' own substrates. A run executes
// every job once, on the shared relational kernel (src/engines/engine.h);
// tests whose subject is an engine's substrate (MapReduce, RDD, timely or
// vertex runtime) call VerifyRunOnSubstrates on the run's result to re-run
// each job there and compare it with what the kernel committed.

#ifndef MUSKETEER_TESTS_SUBSTRATE_CHECK_H_
#define MUSKETEER_TESTS_SUBSTRATE_CHECK_H_

#include <string>
#include <vector>

#include "src/cluster/dfs.h"
#include "src/core/musketeer.h"
#include "src/engines/engine.h"

namespace musketeer {

// Reads `names` from the DFS a run committed to.
inline StatusOr<TableMap> ReadCommitted(const Dfs& dfs,
                                        const std::vector<std::string>& names) {
  TableMap tables;
  for (const std::string& name : names) {
    MUSKETEER_ASSIGN_OR_RETURN(TablePtr table, dfs.Get(name));
    tables[name] = std::move(table);
  }
  return tables;
}

// Runs VerifyOnSubstrate on every job of `result`, with the job's inputs
// and the kernel's outputs read back from `dfs`, the DFS the run committed
// to. Returns the first job's error.
inline Status VerifyRunOnSubstrates(const RunResult& result, const Dfs& dfs) {
  for (const JobPlan& plan : result.plans) {
    MUSKETEER_ASSIGN_OR_RETURN(TableMap base, ReadCommitted(dfs, plan.inputs));
    MUSKETEER_ASSIGN_OR_RETURN(TableMap kernel,
                               ReadCommitted(dfs, plan.outputs));
    MUSKETEER_RETURN_IF_ERROR(VerifyOnSubstrate(plan, base, kernel));
  }
  return OkStatus();
}

}  // namespace musketeer

#endif  // MUSKETEER_TESTS_SUBSTRATE_CHECK_H_
