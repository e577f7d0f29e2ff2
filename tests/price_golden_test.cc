// Price golden test: one canonical text dump of what the planner predicts
// and what the engines charge for every job, compared line for line with
// tests/golden/prices.txt.
//
// The dump covers the nine evaluation workflows, each forced onto every
// engine alone (`engines = {e}`), on a local and a 16-node EC2 cluster,
// under Musketeer's generated code, the hand-tuned ideal and generated code
// with shared scans off; plus native Lindi code on Naiad and native Hive
// plans on Hadoop. Per job it prints the engine, the loop mode, the planned
// cost and the executed makespan (both `%a`, so one bit of either moves the
// golden), the engine jobs and supersteps the job ran, and the bytes it
// pulled and pushed. A workflow an engine cannot run alone prints one line
// saying so.
//
// The dump must be the same at one and at four threads. On a mismatch the
// test writes the actual dump next to the test binary and prints the `cp`
// that makes it the new golden; a change that means to move prices
// regenerates the golden that way and says which lines moved and why.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "src/base/parallel.h"
#include "src/cluster/dfs.h"
#include "src/core/musketeer.h"
#include "tests/workflow_setups.h"

namespace musketeer {
namespace {

std::string Hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

struct Flavor {
  const char* name;
  CodeGenOptions codegen;
};

// Runs `setup` with `options` and appends one line per job.
void DumpRun(const std::string& title, const WfSetup& setup,
             const RunOptions& options, std::ostringstream* os) {
  Dfs dfs;
  for (const auto& [name, table] : setup.inputs) {
    dfs.Put(name, table);
  }
  Musketeer m(&dfs);
  *os << "== " << title << '\n';
  auto run = m.Run(setup.workflow, options);
  if (!run.ok()) {
    *os << "cannot run alone\n";
    return;
  }
  for (size_t i = 0; i < run->plans.size(); ++i) {
    const JobPlan& plan = run->plans[i];
    const JobResult& job = run->job_results[i];
    *os << "job " << i << ' ' << EngineKindName(plan.engine) << ' '
        << WhileExecName(plan.while_mode) << " planned "
        << Hex(run->partitioning.jobs[i].cost) << " executed "
        << Hex(job.makespan) << " internal_jobs " << job.internal_jobs
        << " supersteps " << job.supersteps << " pulled "
        << Hex(job.bytes_pulled) << " pushed " << Hex(job.bytes_pushed)
        << '\n';
  }
}

std::string BuildDump() {
  CodeGenOptions no_shared_scans;
  no_shared_scans.shared_scans = false;
  const Flavor flavors[] = {
      {"musketeer", {}},
      {"ideal", {.flavor = CodeGenOptions::Flavor::kIdealHandTuned}},
      {"no-shared-scans", no_shared_scans},
  };
  const ClusterConfig clusters[] = {LocalCluster(), Ec2Cluster(16)};

  std::ostringstream os;
  for (Wf wf : kAllWorkflows) {
    WfSetup setup = MakeSetup(wf);
    for (const ClusterConfig& cluster : clusters) {
      RunOptions options;
      options.cluster = cluster;
      for (EngineKind engine : kAllEngines) {
        options.engines = {engine};
        for (const Flavor& flavor : flavors) {
          options.codegen = flavor.codegen;
          DumpRun(std::string(WfName(wf)) + ' ' + EngineKindName(engine) +
                      ' ' + cluster.name + ' ' + flavor.name,
                  setup, options, &os);
        }
      }
      options.engines = {EngineKind::kNaiad};
      options.codegen = {.flavor = CodeGenOptions::Flavor::kNativeLindi};
      DumpRun(std::string(WfName(wf)) + " Naiad " + cluster.name +
                  " native-lindi",
              setup, options, &os);
      options.engines = {EngineKind::kHadoop};
      options.codegen = {.flavor = CodeGenOptions::Flavor::kNativeHive};
      DumpRun(std::string(WfName(wf)) + " Hadoop " + cluster.name +
                  " native-hive",
              setup, options, &os);
    }
  }
  return os.str();
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// 1-based number of the first line where `a` and `b` differ.
size_t FirstDifferentLine(const std::string& a, const std::string& b) {
  size_t line = 1;
  for (size_t i = 0; i < a.size() && i < b.size() && a[i] == b[i]; ++i) {
    line += a[i] == '\n' ? 1 : 0;
  }
  return line;
}

TEST(PriceGoldenTest, PricesMatchGoldenAtOneAndFourThreads) {
  std::string one;
  {
    ScopedParallelThreads threads(1);
    one = BuildDump();
  }
  std::string four;
  {
    ScopedParallelThreads threads(4);
    four = BuildDump();
  }
  EXPECT_TRUE(one == four) << "the price dump differs between 1 and 4 "
                              "threads from line "
                           << FirstDifferentLine(one, four);

  const std::string golden = ReadFile(MUSKETEER_PRICE_GOLDEN);
  if (one != golden) {
    std::ofstream(MUSKETEER_PRICE_ACTUAL, std::ios::binary) << one;
    ADD_FAILURE() << "price dump differs from the golden from line "
                  << FirstDifferentLine(one, golden) << ". The actual dump "
                  << "is in " << MUSKETEER_PRICE_ACTUAL << "; if the change "
                  << "is meant, regenerate the golden with:\n  cp "
                  << MUSKETEER_PRICE_ACTUAL << " " << MUSKETEER_PRICE_GOLDEN;
  }
}

}  // namespace
}  // namespace musketeer
