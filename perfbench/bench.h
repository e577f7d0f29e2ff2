// Shared declarations of the repository benchmark (perfbench/README.md).
//
// The benchmark drives Musketeer only through its public entry points
// (Musketeer::Run, WorkflowService behind HttpServer, ShardCoordinator) and
// times the calls into each layer from its own files, so nothing under src/
// carries benchmark code.

#ifndef MUSKETEER_PERFBENCH_BENCH_H_
#define MUSKETEER_PERFBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/core/musketeer.h"

namespace musketeer::perfbench {

// One workflow with its generated base relations and the options it runs
// with.
struct WorkflowInput {
  std::string label;  // request class shown in the per-class table
  WorkflowSpec spec;
  TableMap inputs;
  RunOptions options;
};

// A workflow with the outputs an in-process Musketeer::Run produced from
// its inputs. Every measured request's sinks must be Table::Identical to
// `reference`.
struct Target {
  std::string label;
  WorkflowSpec spec;
  TableMap inputs;
  RunOptions options;
  TableMap reference;
  int jobs = 0;  // plan jobs of the reference run
};

// Input sizes: kFull is what the benchmark measures, kTiny the smoke mode.
enum class Size { kFull, kTiny };

// ---- inputs.cc -------------------------------------------------------------

// Prints the message and exits with status 1.
[[noreturn]] void Fatal(const std::string& message);

// Independent seed for generator stream `stream` of benchmark seed `seed`.
uint64_t SubSeed(uint64_t seed, uint64_t stream);

// Seeded Fisher-Yates shuffle.
template <typename T>
void Shuffle(std::vector<T>* v, uint64_t seed) {
  Rng rng(seed);
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng.NextBounded(i)]);
  }
}

// The nine paper workflows (§6.1). `factor` scales every sample; at 0.5 the
// nine take from about 10 to 100 ms each at kernel width 1.
std::vector<WorkflowInput> NineWorkflows(uint64_t seed, double factor);

// Six fixed synthetic DAG programs at each of 250, 500 and 1000 operators
// (64-row samples), in seeded order.
std::vector<WorkflowInput> SyntheticDags(uint64_t seed, Size size);

// serve_mix inputs, all with the service's options. Readers' workflows
// share one DFS, so their relation names are disjoint; the writer owns
// `written_relation` and nothing else reads it or the writer workflow's
// intermediates.
struct ServeInputs {
  std::vector<WorkflowInput> reads;
  WorkflowInput write;
  std::string written_relation;
  TablePtr appended;  // `written_relation` with extra rows
};
ServeInputs ServeMix(uint64_t seed, Size size);

// True when `got` holds exactly the relations of `want`, each identical.
bool SameOutputs(const TableMap& want, const TableMap& got);

// A fresh DFS holding `inputs`: every in-process run starts from one, so
// no request sees relations an earlier request left behind.
std::unique_ptr<Dfs> LoadDfs(const TableMap& inputs);

// Runs `input` in-process and keeps the outputs as the reference. Exits the
// process on failure: nothing can be verified then.
Target MakeTarget(const WorkflowInput& input);

// ---- workloads.cc ----------------------------------------------------------

// How long a pass runs: whole cycles until `seconds` have elapsed and (for
// a single caller) at least `min_requests` were sent, or exactly `cycles`
// cycles when that is positive. `probe` collects the per-layer values a
// surface reports, at the cost of extra requests.
struct Limit {
  double seconds = 0;
  int min_requests = 0;
  int cycles = 0;
  bool probe = false;
};

// A stretch of a pass: one request cycle of a single caller, or one
// sampling window of concurrent callers.
struct Segment {
  double wall_s = 0;
  double cpu_ms = 0;
  int verified = 0;
};

// Outcome of one closed-loop pass.
struct Pass {
  std::vector<double> latency_ms;  // verified requests only
  std::map<std::string, std::vector<double>> class_latency_ms;
  int attempted = 0;
  int failed = 0;
  double wall_s = 0;
  std::vector<Segment> segments;
  // Sums over the pass that must repeat exactly for a fixed sequence.
  std::map<std::string, double> counts;
  // Sums of per-layer values the surface reports (probe passes only).
  std::map<std::string, double> layer;
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Generates the inputs, loads them and starts what serves requests: the
  // part timed as setup_s.
  virtual void Setup() = 0;
  // Computes the reference outputs of every request (untimed).
  virtual void ComputeReferences() = 0;
  virtual Pass RunPass(const Limit& limit) = 0;
  // The workload's workflows, for the traced run's layer-at-a-time pass.
  const std::vector<Target>& targets() const { return targets_; }

 protected:
  std::vector<Target> targets_;
};

// User plus system CPU time of the whole process so far.
double ProcessCpuMs();

// nullptr for an unknown name. `threads` is the host's CPU count.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       Size size, int threads);

// ---- layers.cc -------------------------------------------------------------

// Names of the spans the layer-at-a-time pass records.
const std::vector<std::string>& LayerSpanNames();

struct AnatomyResult {
  int requests = 0;
  int failed = 0;  // a layer failed or outputs differed from the reference
  int jobs = 0;
  bool jobs_match = true;  // every target planned its reference job count
};

// Runs every target through Musketeer::Run, through Musketeer::Plan +
// Execute, and through the pipeline one layer at a time in the order Plan
// and Execute use; then takes each job apart into kernel, substrate and
// verify on its pulled inputs. Every call sits in a span named after its
// metric.
AnatomyResult RunAnatomy(const std::vector<Target>& targets);

// Sum of self times in ms per span name, over the recorded spans whose name
// is in `names`. Self time excludes the part covered by nested spans from
// `names` only; spans recorded inside src/ do not count as children.
std::map<std::string, double> SelfTimesMs(
    const std::vector<std::string>& names);

}  // namespace musketeer::perfbench

#endif  // MUSKETEER_PERFBENCH_BENCH_H_
