// Sharded execution tests. The contract under test: a workflow fanned out
// across M shards by the ShardCoordinator produces BIT-identical
// outputs (Table::Identical, not just SameContent) to the unsharded
// Musketeer::Run — at every shard count, under locality or random placement,
// with a shard drained ahead of the run, and across a seeded mid-run shard
// death. Placement accounting (locality hit rate, cross-shard bytes) is
// asserted against the random control arm, mirroring bench_shard_scaling.

#include "src/service/shard_coordinator.h"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <iterator>
#include <map>
#include <thread>

#include "src/core/musketeer.h"
#include "src/obs/trace.h"
#include "tests/workflow_setups.h"

namespace musketeer {
namespace {

RunOptions BaseOptions() {
  RunOptions options;
  options.cluster = Ec2Cluster(16);
  return options;
}

StatusOr<RunResult> RunUnsharded(const WfSetup& setup) {
  Dfs dfs;
  for (const auto& [name, table] : setup.inputs) {
    dfs.Put(name, table);
  }
  Musketeer m(&dfs);
  return m.Run(setup.workflow, BaseOptions());
}

// One sharded run in a fresh cluster: its outputs plus the coordinator's
// accounting, harvested before the coordinator is torn down.
struct ShardedRun {
  StatusOr<RunResult> result = InternalError("not run");
  CoordinatorStats stats;
  std::vector<bool> alive;
};

ShardedRun RunSharded(const WfSetup& setup, int shards,
                      CoordinatorConfig config = {},
                      const std::vector<int>& drained = {}) {
  ShardedDfs dfs(shards);
  for (const auto& [name, table] : setup.inputs) {
    dfs.Put(name, table);
  }
  ShardCoordinator coordinator(&dfs, config);
  for (int shard : drained) {
    coordinator.DrainShard(shard);
  }
  ShardedRun run;
  run.result = coordinator.Run(setup.workflow, BaseOptions());
  run.stats = coordinator.stats();
  for (int k = 0; k < shards; ++k) {
    run.alive.push_back(coordinator.IsShardAlive(k));
  }
  return run;
}

class ShardEquivalenceTest : public ::testing::TestWithParam<Wf> {};

// The headline guarantee: sharding is invisible in the bits. Also checks the
// dispatch accounting is whole (every dispatched job landed on some shard).
TEST_P(ShardEquivalenceTest, AnyShardCountMatchesUnshardedBitIdentical) {
  WfSetup setup = MakeSetup(GetParam());
  auto baseline = RunUnsharded(setup);
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  ASSERT_EQ(baseline->outputs.count(setup.result_relation), 1u);
  const Table& expected = *baseline->outputs[setup.result_relation];

  for (int shards : {1, 2, 3}) {
    ShardedRun run = RunSharded(setup, shards);
    ASSERT_TRUE(run.result.ok())
        << "M=" << shards << ": " << run.result.status();
    ASSERT_EQ(run.result->outputs.count(setup.result_relation), 1u);
    EXPECT_TRUE(Table::Identical(
        expected, *run.result->outputs[setup.result_relation]))
        << WfName(GetParam()) << " diverged from the unsharded run at M="
        << shards;

    uint64_t landed = 0;
    for (uint64_t jobs : run.stats.jobs_per_shard) {
      landed += jobs;
    }
    EXPECT_EQ(landed, run.stats.jobs_dispatched);
    EXPECT_GE(run.stats.jobs_dispatched, run.result->plans.size());
    if (shards == 1) {
      // One shard owns everything: nothing can cross.
      EXPECT_EQ(run.stats.remote_fetches, 0u);
      EXPECT_DOUBLE_EQ(run.stats.remote_bytes_fetched, 0.0);
    }
  }
}

// Mid-run shard death (the seeded fault): the victim's compute leaves
// placement after `fault_after_dispatches`, its partition stays readable, and
// the output bits do not move.
TEST_P(ShardEquivalenceTest, SeededShardDeathStaysBitIdentical) {
  WfSetup setup = MakeSetup(GetParam());
  auto baseline = RunUnsharded(setup);
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  ASSERT_EQ(baseline->outputs.count(setup.result_relation), 1u);

  CoordinatorConfig config;
  config.fault_shard = 0;
  config.fault_after_dispatches = 1;
  config.default_options.retry.max_attempts = 2;
  ShardedRun run = RunSharded(setup, /*shards=*/3, config);
  ASSERT_TRUE(run.result.ok()) << run.result.status();
  ASSERT_EQ(run.result->outputs.count(setup.result_relation), 1u);
  EXPECT_TRUE(
      Table::Identical(*baseline->outputs[setup.result_relation],
                       *run.result->outputs[setup.result_relation]))
      << WfName(GetParam()) << " diverged across a shard death";
  if (run.stats.jobs_dispatched > 1) {
    // The fault fired: shard 0 must be out of placement...
    EXPECT_FALSE(run.alive[0]);
    EXPECT_TRUE(run.alive[1]);
    EXPECT_TRUE(run.alive[2]);
    // ...and every post-fault job must have gone elsewhere (shard 0 can have
    // received at most the single pre-fault dispatch).
    EXPECT_LE(run.stats.jobs_per_shard[0], 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkflows, ShardEquivalenceTest,
                         ::testing::ValuesIn(kAllWorkflows),
                         [](const ::testing::TestParamInfo<Wf>& info) {
                           return WfName(info.param);
                         });

// A drained shard gets no jobs, yet its partition's relations stay readable
// (directory repair re-pins them) — so results still match the baseline.
TEST(ShardCoordinatorTest, DrainedShardGetsNoJobsAndLosesNoData) {
  WfSetup setup = MakeSetup(Wf::kTpchHive);
  auto baseline = RunUnsharded(setup);
  ASSERT_TRUE(baseline.ok()) << baseline.status();

  ShardedRun run =
      RunSharded(setup, /*shards=*/3, CoordinatorConfig{}, /*drained=*/{2});
  ASSERT_TRUE(run.result.ok()) << run.result.status();
  EXPECT_FALSE(run.alive[2]);
  EXPECT_EQ(run.stats.jobs_per_shard[2], 0u);
  EXPECT_GT(run.stats.jobs_dispatched, 0u);
  ASSERT_EQ(run.result->outputs.count(setup.result_relation), 1u);
  EXPECT_TRUE(
      Table::Identical(*baseline->outputs[setup.result_relation],
                       *run.result->outputs[setup.result_relation]));
}

TEST(ShardCoordinatorTest, DrainingEveryShardFailsTheRun) {
  WfSetup setup = MakeSetup(Wf::kSimpleJoin);
  ShardedRun run = RunSharded(setup, /*shards=*/2, CoordinatorConfig{},
                              /*drained=*/{0, 1});
  EXPECT_FALSE(run.result.ok());
}

// The placement argument itself, over the full evaluation suite at M=3:
// locality placement achieves the byte-optimal shard for every job and
// moves strictly fewer cross-shard bytes than the seeded-random control
// arm. Random placement must still be bit-identical (placement may never
// change semantics).
TEST(ShardCoordinatorTest, LocalityBeatsRandomPlacementAcrossTheSuite) {
  uint64_t locality_placements = 0;
  uint64_t locality_hits = 0;
  Bytes locality_cross = 0;
  Bytes random_cross = 0;

  for (Wf wf : kAllWorkflows) {
    WfSetup setup = MakeSetup(wf);

    CoordinatorConfig locality;
    locality.placement = PlacementPolicy::kLocality;
    ShardedRun local_run = RunSharded(setup, /*shards=*/3, locality);
    ASSERT_TRUE(local_run.result.ok())
        << WfName(wf) << ": " << local_run.result.status();

    CoordinatorConfig random;
    random.placement = PlacementPolicy::kRandom;
    random.placement_seed = 42;
    ShardedRun random_run = RunSharded(setup, /*shards=*/3, random);
    ASSERT_TRUE(random_run.result.ok())
        << WfName(wf) << ": " << random_run.result.status();

    ASSERT_EQ(local_run.result->outputs.count(setup.result_relation), 1u);
    ASSERT_EQ(random_run.result->outputs.count(setup.result_relation), 1u);
    EXPECT_TRUE(Table::Identical(
        *local_run.result->outputs[setup.result_relation],
        *random_run.result->outputs[setup.result_relation]))
        << WfName(wf) << " bits depend on the placement policy";

    locality_placements += local_run.stats.placements;
    locality_hits += local_run.stats.locality_hits;
    locality_cross += local_run.stats.placed_cross_shard_bytes;
    random_cross += random_run.stats.placed_cross_shard_bytes;
  }

  // Locality placement is the byte rule itself, so every placement is a hit.
  ASSERT_GT(locality_placements, 0u);
  EXPECT_EQ(locality_hits, locality_placements);
  EXPECT_LT(locality_cross, random_cross);
}

// The fetch accounting surfaced through CoordinatorStats mirrors the DFS:
// cross-shard reads show up as remote fetches with a measured byte rate.
TEST(ShardCoordinatorTest, StatsMirrorDfsFetchAccounting) {
  WfSetup setup = MakeSetup(Wf::kTpchHive);
  ShardedDfs dfs(3);
  for (const auto& [name, table] : setup.inputs) {
    dfs.Put(name, table);
  }
  ShardCoordinator coordinator(&dfs);
  auto result = coordinator.Run(setup.workflow, BaseOptions());
  ASSERT_TRUE(result.ok()) << result.status();
  CoordinatorStats stats = coordinator.stats();
  EXPECT_EQ(stats.remote_fetches, dfs.remote_fetches());
  EXPECT_DOUBLE_EQ(stats.remote_bytes_fetched, dfs.remote_bytes_fetched());
  EXPECT_DOUBLE_EQ(stats.measured_remote_mbps, dfs.measured_remote_mbps());
  if (stats.remote_fetches > 0) {
    EXPECT_GT(stats.remote_bytes_fetched, 0.0);
    EXPECT_GT(stats.measured_remote_mbps, 0.0);
  }
}

// A run's DFS byte totals are exactly its jobs' JobResult byte counts: one
// ledger, whatever ran the attempts. Checked unsharded, on three shards, and
// unsharded under seeded faults, where failed attempts move no bytes.
TEST(ShardCoordinatorTest, RunByteTotalsAreTheJobSums) {
  auto expect_sums = [](const RunResult& run, const std::string& what) {
    Bytes pulled = 0;
    Bytes pushed = 0;
    Bytes remote = 0;
    for (const JobResult& job : run.job_results) {
      pulled += job.bytes_pulled;
      pushed += job.bytes_pushed;
      remote += job.bytes_pulled_remote;
    }
    EXPECT_DOUBLE_EQ(run.dfs_bytes_read, pulled) << what;
    EXPECT_DOUBLE_EQ(run.dfs_bytes_written, pushed) << what;
    EXPECT_DOUBLE_EQ(run.dfs_bytes_remote_read, remote) << what;
  };
  RunOptions faulty = BaseOptions();
  faulty.fault_rate = 0.3;
  faulty.fault_seed = 42;
  faulty.retry.max_attempts = 4;
  faulty.retry.initial_backoff = std::chrono::milliseconds(1);
  faulty.retry.max_backoff = std::chrono::milliseconds(4);

  Bytes sharded_remote = 0;
  int faulted_retries = 0;
  for (Wf wf : kAllWorkflows) {
    WfSetup setup = MakeSetup(wf);
    const std::string name = WfName(wf);

    auto unsharded = RunUnsharded(setup);
    ASSERT_TRUE(unsharded.ok()) << name << ": " << unsharded.status();
    expect_sums(*unsharded, name + " unsharded");
    EXPECT_DOUBLE_EQ(unsharded->dfs_bytes_remote_read, 0.0) << name;

    ShardedRun sharded = RunSharded(setup, /*shards=*/3);
    ASSERT_TRUE(sharded.result.ok()) << name << ": " << sharded.result.status();
    expect_sums(*sharded.result, name + " on 3 shards");
    sharded_remote += sharded.result->dfs_bytes_remote_read;

    Dfs dfs;
    for (const auto& [relation, table] : setup.inputs) {
      dfs.Put(relation, table);
    }
    auto faulted = Musketeer(&dfs).Run(setup.workflow, faulty);
    ASSERT_TRUE(faulted.ok()) << name << ": " << faulted.status();
    expect_sums(*faulted, name + " under faults");
    faulted_retries += faulted->total_retries;
  }
  // Both arms exercised what they exist for: cross-shard reads, and failed
  // attempts that were retried.
  EXPECT_GT(sharded_remote, 0.0);
  EXPECT_GT(faulted_retries, 0);
}

// Live threads of this process: the entries under /proc/self/task.
std::ptrdiff_t ThreadCount() {
  return std::distance(std::filesystem::directory_iterator("/proc/self/task"),
                       std::filesystem::directory_iterator());
}

// A sharded run is one span tree on one thread: every job attempt runs on
// the thread that called Run, under that run's stage.execute span. Building
// the coordinator starts no threads.
TEST(ShardCoordinatorTest, RunIsOneSpanTreeOnTheCallingThread) {
  WfSetup setup = MakeSetup(Wf::kTpchHive);
  ShardedDfs dfs(3);
  for (const auto& [name, table] : setup.inputs) {
    dfs.Put(name, table);
  }
  const std::ptrdiff_t threads_before = ThreadCount();
  ShardCoordinator coordinator(&dfs);
  EXPECT_EQ(ThreadCount(), threads_before);

  Tracer& tracer = Tracer::Global();
  tracer.Clear();
  tracer.Enable(true);
  auto result = coordinator.Run(setup.workflow, BaseOptions());
  tracer.Enable(false);
  const std::vector<SpanRecord> spans = tracer.Snapshot();
  tracer.Clear();
  ASSERT_TRUE(result.ok()) << result.status();

  std::map<uint64_t, const SpanRecord*> by_id;
  const SpanRecord* execute = nullptr;
  for (const SpanRecord& span : spans) {
    by_id[span.id] = &span;
    if (span.name == "stage.execute") {
      ASSERT_EQ(execute, nullptr) << "more than one stage.execute span";
      execute = &span;
    }
  }
  ASSERT_NE(execute, nullptr);

  size_t job_spans = 0;
  for (const SpanRecord& span : spans) {
    if (span.name.rfind("job:", 0) != 0) {
      continue;
    }
    ++job_spans;
    EXPECT_EQ(span.tid, execute->tid) << span.name;
    uint64_t ancestor = span.parent_id;
    while (ancestor != 0 && ancestor != execute->id) {
      auto it = by_id.find(ancestor);
      ancestor = it == by_id.end() ? 0 : it->second->parent_id;
    }
    EXPECT_EQ(ancestor, execute->id)
        << span.name << " does not descend from stage.execute";
  }
  EXPECT_GE(job_spans, result->plans.size());
}

// Several threads share one coordinator, one attempt slot per shard: each
// run's output stays bit-identical to its unsharded run and every dispatch
// is accounted to a shard. The workflows read and write disjoint relations.
TEST(ShardCoordinatorTest, ConcurrentRunsStayIdentical) {
  const Wf workflows[] = {Wf::kTopShopper, Wf::kTpchHive, Wf::kNetflix,
                          Wf::kSimpleJoin};
  std::vector<WfSetup> setups;
  std::vector<TablePtr> expected;
  ShardedDfs dfs(3);
  for (Wf wf : workflows) {
    setups.push_back(MakeSetup(wf));
    auto baseline = RunUnsharded(setups.back());
    ASSERT_TRUE(baseline.ok()) << WfName(wf) << ": " << baseline.status();
    ASSERT_EQ(baseline->outputs.count(setups.back().result_relation), 1u);
    expected.push_back(baseline->outputs[setups.back().result_relation]);
    for (const auto& [name, table] : setups.back().inputs) {
      dfs.Put(name, table);
    }
  }

  CoordinatorConfig config;
  config.workers_per_shard = 1;
  ShardCoordinator coordinator(&dfs, config);
  std::vector<StatusOr<RunResult>> results(
      setups.size(), InternalError("not run"));
  std::vector<std::thread> callers;
  for (size_t i = 0; i < setups.size(); ++i) {
    callers.emplace_back([&, i] {
      results[i] = coordinator.Run(setups[i].workflow, BaseOptions());
    });
  }
  for (std::thread& caller : callers) {
    caller.join();
  }

  for (size_t i = 0; i < setups.size(); ++i) {
    const char* name = WfName(workflows[i]);
    ASSERT_TRUE(results[i].ok()) << name << ": " << results[i].status();
    ASSERT_EQ(results[i]->outputs.count(setups[i].result_relation), 1u);
    EXPECT_TRUE(Table::Identical(
        *expected[i], *results[i]->outputs[setups[i].result_relation]))
        << name << " diverged from its unsharded run";
  }
  const CoordinatorStats stats = coordinator.stats();
  uint64_t landed = 0;
  for (uint64_t jobs : stats.jobs_per_shard) {
    landed += jobs;
  }
  EXPECT_GT(stats.jobs_dispatched, 0u);
  EXPECT_EQ(landed, stats.jobs_dispatched);
}

}  // namespace
}  // namespace musketeer
