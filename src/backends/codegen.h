// Code generation: renders a job's sub-DAG as source text in the style of
// the target engine's programming interface (§4.3). The engines execute the
// plan's DAG directly (the text is what Musketeer would submit and is used
// by tests to verify that merging/scan-sharing shaped the code correctly).

#ifndef MUSKETEER_SRC_BACKENDS_CODEGEN_H_
#define MUSKETEER_SRC_BACKENDS_CODEGEN_H_

#include <string>

#include "src/backends/job.h"

namespace musketeer {

// Renders source for `plan.dag` targeting `plan.engine`. The quirks influence
// the emitted code: a type-inference miss shows up as an extra .map() after
// the join that pays it (TypeInferenceMissJoin).
std::string GenerateJobCode(const JobPlan& plan);

}  // namespace musketeer

#endif  // MUSKETEER_SRC_BACKENDS_CODEGEN_H_
