// Incremental recomputation tests.
//
// Per-job fingerprints over DFS content versions make an unchanged
// resubmission reuse every job, an append-to-base resubmission recompute
// exactly the dependent DAG suffix (bit-identical to a cold run on the
// appended inputs), and a direct overwrite of a recorded output invalidate
// reuse — in-process, through the service, across shards, under seeded
// faults, and across a forced mid-run re-plan.

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/sharded_dfs.h"
#include "src/core/musketeer.h"
#include "src/service/service.h"
#include "src/service/shard_coordinator.h"
#include "src/stream/fingerprint.h"
#include "tests/workflow_setups.h"

namespace musketeer {
namespace {

Table MakeInts(int64_t begin, int64_t end) {
  Table table(Schema({{"v", FieldType::kInt64}}));
  for (int64_t i = begin; i < end; ++i) {
    table.AddRow({i});
  }
  return table;
}

JobPlan MakeJob(const std::string& name, std::vector<std::string> inputs,
                std::vector<std::string> outputs) {
  JobPlan job;
  job.name = name;
  job.inputs = std::move(inputs);
  job.outputs = std::move(outputs);
  job.engine = EngineKind::kSpark;
  return job;
}

// ---- DFS content versions --------------------------------------------------

TEST(DfsVersionTest, EveryPutBumps) {
  Dfs dfs;
  EXPECT_EQ(dfs.VersionOf("rel"), 0u);
  dfs.Put("rel", std::make_shared<Table>(MakeInts(0, 4)));
  EXPECT_EQ(dfs.VersionOf("rel"), 1u);
  dfs.Put("rel", std::make_shared<Table>(MakeInts(0, 8)));
  EXPECT_EQ(dfs.VersionOf("rel"), 2u);
  // Erase does not bump (no new content), but the reuse check also requires
  // Contains — an erased output fails reuse regardless.
  dfs.Erase("rel");
  EXPECT_EQ(dfs.VersionOf("rel"), 2u);
}

TEST(DfsVersionTest, ShardViewPutsBumpTheAggregateVersion) {
  ShardedDfs dfs(3);
  EXPECT_EQ(dfs.VersionOf("rel"), 0u);
  dfs.Put("rel", std::make_shared<Table>(MakeInts(0, 4)));
  EXPECT_EQ(dfs.VersionOf("rel"), 1u);
  // A shard-local re-put (what failover recovery does) must look like a
  // global overwrite to every view — fingerprints are computed against the
  // aggregate namespace.
  dfs.View(1)->Put("rel", std::make_shared<Table>(MakeInts(0, 8)));
  EXPECT_EQ(dfs.VersionOf("rel"), 2u);
  EXPECT_EQ(dfs.View(0)->VersionOf("rel"), 2u);
  EXPECT_EQ(dfs.View(2)->VersionOf("rel"), 2u);
}

TEST(FingerprintTest, TracksInputVersionsAndJobIdentity) {
  Dfs dfs;
  dfs.Put("in", std::make_shared<Table>(MakeInts(0, 4)));
  JobPlan job = MakeJob("j:out", {"in"}, {"out"});
  const uint64_t fp1 = FingerprintJob("wf", job, dfs);
  EXPECT_EQ(FingerprintJob("wf", job, dfs), fp1);  // deterministic
  dfs.Put("in", std::make_shared<Table>(MakeInts(0, 5)));
  const uint64_t fp2 = FingerprintJob("wf", job, dfs);
  EXPECT_NE(fp1, fp2);  // input overwrite changes it
  job.engine = EngineKind::kNaiad;
  EXPECT_NE(FingerprintJob("wf", job, dfs), fp2);  // engine changes it
  EXPECT_NE(FingerprintJob("wf2", job, dfs),
            FingerprintJob("wf", job, dfs));  // workflow id changes it
}

TEST(FingerprintStoreTest, StaleOutputVersionNeverReuses) {
  Dfs dfs;
  dfs.Put("in", std::make_shared<Table>(MakeInts(0, 4)));
  dfs.Put("out", std::make_shared<Table>(MakeInts(0, 2)));
  JobPlan job = MakeJob("j:out", {"in"}, {"out"});
  const uint64_t fp = FingerprintJob("wf", job, dfs);
  FingerprintStore store;
  store.Record("wf", job.name, fp, {{"out", dfs.VersionOf("out")}});
  EXPECT_TRUE(store.CanReuse("wf", job.name, fp, dfs));
  // The regression this guards: an overwrite of the recorded output (any
  // writer — another workflow, a failover re-put) must kill reuse, or a
  // resubmission would serve foreign bytes as this job's result.
  dfs.Put("out", std::make_shared<Table>(MakeInts(0, 99)));
  EXPECT_FALSE(store.CanReuse("wf", job.name, fp, dfs));
  // An erased output also kills reuse.
  store.Record("wf", job.name, fp, {{"out", dfs.VersionOf("out")}});
  EXPECT_TRUE(store.CanReuse("wf", job.name, fp, dfs));
  dfs.Erase("out");
  EXPECT_FALSE(store.CanReuse("wf", job.name, fp, dfs));
}

// ---- incremental recomputation ---------------------------------------------

StatusOr<RunResult> RunWith(const WfSetup& setup, RunOptions options,
                            FingerprintStore* store = nullptr,
                            const TableMap* inputs_override = nullptr) {
  Dfs dfs;
  for (const auto& [name, table] :
       inputs_override != nullptr ? *inputs_override : setup.inputs) {
    dfs.Put(name, table);
  }
  options.fingerprints = store;
  Musketeer m(&dfs);
  return m.Run(setup.workflow, options);
}

// The input relation a test appends to, chosen deterministically (first in
// sorted order), and the 1%-appended copy of the whole input map.
std::string AppendTarget(const WfSetup& setup) {
  std::vector<std::string> names;
  for (const auto& [name, table] : setup.inputs) {
    names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  return names.front();
}

TableMap AppendedInputs(const WfSetup& setup, const std::string& target) {
  TableMap out = setup.inputs;
  const Table& base = *out.at(target);
  Table grown = base.Slice(0, base.num_rows());
  const size_t extra = std::max<size_t>(1, base.num_rows() / 100);
  grown.AppendTableCopy(base.Slice(0, extra));
  out[target] = std::make_shared<Table>(std::move(grown));
  return out;
}

// Jobs transitively dependent on `dirty_relation`, walking the plan list in
// its topological order — the expected recompute set.
std::vector<bool> AffectedJobs(const std::vector<JobPlan>& plans,
                               const std::string& dirty_relation) {
  std::set<std::string> dirty = {dirty_relation};
  std::vector<bool> affected(plans.size(), false);
  for (size_t i = 0; i < plans.size(); ++i) {
    for (const std::string& in : plans[i].inputs) {
      if (dirty.count(in) > 0) {
        affected[i] = true;
        break;
      }
    }
    if (affected[i]) {
      for (const std::string& out : plans[i].outputs) {
        dirty.insert(out);
      }
    }
  }
  return affected;
}

class IncrementalWorkflowTest : public ::testing::TestWithParam<Wf> {};

// The tentpole incremental contract, per workflow: an unchanged resubmit
// reuses every job; an append-to-base resubmit recomputes exactly the
// dependent suffix; both match a cold run bit-for-bit.
TEST_P(IncrementalWorkflowTest, AppendRecomputesOnlyAffectedSuffix) {
  WfSetup setup = MakeSetup(GetParam());
  RunOptions options;
  options.cluster = Ec2Cluster(16);

  Dfs dfs;
  for (const auto& [name, table] : setup.inputs) {
    dfs.Put(name, table);
  }
  FingerprintStore store;
  options.fingerprints = &store;
  Musketeer m(&dfs);
  auto cold = m.Run(setup.workflow, options);
  ASSERT_TRUE(cold.ok()) << cold.status();
  EXPECT_EQ(cold->jobs_reused, 0);
  EXPECT_EQ(store.size(), cold->plans.size());

  // Unchanged resubmit: every job reuses, outputs identical.
  options.incremental = true;
  auto warm = m.Run(setup.workflow, options);
  ASSERT_TRUE(warm.ok()) << warm.status();
  EXPECT_EQ(warm->jobs_reused, static_cast<int>(warm->plans.size()));
  for (const auto& [name, table] : cold->outputs) {
    EXPECT_TRUE(Table::Identical(*table, *warm->outputs.at(name)));
  }

  // Append 1% to one base relation and resubmit incrementally.
  const std::string target = AppendTarget(setup);
  TableMap appended = AppendedInputs(setup, target);
  dfs.Put(target, appended.at(target));
  auto delta = m.Run(setup.workflow, options);
  ASSERT_TRUE(delta.ok()) << delta.status();

  // Exactly the jobs NOT depending on the appended relation reuse.
  const std::vector<bool> affected = AffectedJobs(delta->plans, target);
  int expected_reused = 0;
  for (size_t i = 0; i < delta->plans.size(); ++i) {
    EXPECT_EQ(delta->job_results[i].reused, !affected[i])
        << "job " << delta->plans[i].name;
    if (!affected[i]) {
      ++expected_reused;
    }
  }
  EXPECT_EQ(delta->jobs_reused, expected_reused);

  // And the delta run's outputs are bit-identical to a cold run over the
  // appended inputs.
  RunOptions cold_options;
  cold_options.cluster = Ec2Cluster(16);
  auto expected = RunWith(setup, cold_options, nullptr, &appended);
  ASSERT_TRUE(expected.ok()) << expected.status();
  for (const auto& [name, table] : expected->outputs) {
    EXPECT_TRUE(Table::Identical(*table, *delta->outputs.at(name)))
        << WfName(GetParam()) << " sink " << name
        << " diverged after incremental resubmit";
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkflows, IncrementalWorkflowTest,
                         ::testing::ValuesIn(kAllWorkflows),
                         [](const ::testing::TestParamInfo<Wf>& info) {
                           return WfName(info.param);
                         });

// Reuse must actually fire on a workflow with an untouched branch — guards
// against a trivially-correct "recompute everything" implementation passing
// the suite above on single-branch plans.
TEST(IncrementalTest, UntouchedBranchIsActuallyReused) {
  WfSetup setup = MakeSetup(Wf::kTpchHive);  // lineitem + part inputs
  RunOptions options;
  options.cluster = Ec2Cluster(16);
  options.planner.enable_merging = false;  // keep the branches separate jobs
  Dfs dfs;
  for (const auto& [name, table] : setup.inputs) {
    dfs.Put(name, table);
  }
  FingerprintStore store;
  options.fingerprints = &store;
  Musketeer m(&dfs);
  ASSERT_TRUE(m.Run(setup.workflow, options).ok());

  TableMap appended = AppendedInputs(setup, "part");
  dfs.Put("part", appended.at("part"));
  options.incremental = true;
  auto delta = m.Run(setup.workflow, options);
  ASSERT_TRUE(delta.ok()) << delta.status();
  const std::vector<bool> affected = AffectedJobs(delta->plans, "part");
  const bool has_untouched_jobs =
      std::count(affected.begin(), affected.end(), false) > 0;
  if (has_untouched_jobs) {
    EXPECT_GE(delta->jobs_reused, 1);
  } else {
    GTEST_SKIP() << "partitioner merged everything into part-dependent jobs";
  }
}

// Incremental + seeded faults: injected failures during the recompute
// suffix retry/fail over as usual; the result still matches the fault-free
// cold run on the appended inputs, and untouched jobs still reuse.
TEST(IncrementalTest, SeededFaultsDuringDeltaRunStillBitIdentical) {
  WfSetup setup = MakeSetup(Wf::kSimpleJoin);
  RunOptions options;
  options.cluster = Ec2Cluster(16);
  options.fault_rate = 0.25;
  options.fault_seed = 7;
  options.retry.max_attempts = 4;
  Dfs dfs;
  for (const auto& [name, table] : setup.inputs) {
    dfs.Put(name, table);
  }
  FingerprintStore store;
  options.fingerprints = &store;
  Musketeer m(&dfs);
  ASSERT_TRUE(m.Run(setup.workflow, options).ok());

  const std::string target = AppendTarget(setup);
  TableMap appended = AppendedInputs(setup, target);
  dfs.Put(target, appended.at(target));
  options.incremental = true;
  auto delta = m.Run(setup.workflow, options);
  ASSERT_TRUE(delta.ok()) << delta.status();

  RunOptions clean;
  clean.cluster = Ec2Cluster(16);
  auto expected = RunWith(setup, clean, nullptr, &appended);
  ASSERT_TRUE(expected.ok()) << expected.status();
  for (const auto& [name, table] : expected->outputs) {
    EXPECT_TRUE(Table::Identical(*table, *delta->outputs.at(name)));
  }
}

// Incremental across 3 DFS shards: the coordinator consults the same
// fingerprint protocol against the aggregate version namespace. Unchanged
// resubmit reuses everything; appended resubmit matches the cold bits.
TEST(IncrementalTest, ShardedResubmitReusesAndMatches) {
  WfSetup setup = MakeSetup(Wf::kSimpleJoin);
  ShardedDfs dfs(3);
  for (const auto& [name, table] : setup.inputs) {
    dfs.Put(name, table);
  }
  FingerprintStore store;
  RunOptions options;
  options.cluster = Ec2Cluster(16);
  options.fingerprints = &store;
  ShardCoordinator coordinator(&dfs, {});
  auto cold = coordinator.Run(setup.workflow, options);
  ASSERT_TRUE(cold.ok()) << cold.status();
  EXPECT_EQ(cold->jobs_reused, 0);

  options.incremental = true;
  auto warm = coordinator.Run(setup.workflow, options);
  ASSERT_TRUE(warm.ok()) << warm.status();
  EXPECT_EQ(warm->jobs_reused, static_cast<int>(warm->plans.size()));
  for (const auto& [name, table] : cold->outputs) {
    EXPECT_TRUE(Table::Identical(*table, *warm->outputs.at(name)));
  }

  // A reused job reads the same on both paths: no engine job ran, and the
  // detail lines match.
  Dfs plain;
  for (const auto& [name, table] : setup.inputs) {
    plain.Put(name, table);
  }
  FingerprintStore plain_store;
  RunOptions plain_options = options;
  plain_options.fingerprints = &plain_store;
  plain_options.incremental = false;
  Musketeer m(&plain);
  ASSERT_TRUE(m.Run(setup.workflow, plain_options).ok());
  plain_options.incremental = true;
  auto plain_warm = m.Run(setup.workflow, plain_options);
  ASSERT_TRUE(plain_warm.ok()) << plain_warm.status();
  ASSERT_EQ(warm->job_results.size(), plain_warm->job_results.size());
  for (size_t i = 0; i < warm->job_results.size(); ++i) {
    const JobResult& sharded_job = warm->job_results[i];
    const JobResult& plain_job = plain_warm->job_results[i];
    EXPECT_TRUE(sharded_job.reused);
    EXPECT_TRUE(plain_job.reused);
    EXPECT_EQ(sharded_job.internal_jobs, 0);
    EXPECT_EQ(plain_job.internal_jobs, 0);
    EXPECT_EQ(sharded_job.detail, plain_job.detail);
    EXPECT_EQ(sharded_job.makespan, plain_job.makespan);
    EXPECT_EQ(warm->recovery[i].attempts, plain_warm->recovery[i].attempts);
  }

  const std::string target = AppendTarget(setup);
  TableMap appended = AppendedInputs(setup, target);
  dfs.Put(target, appended.at(target));
  auto delta = coordinator.Run(setup.workflow, options);
  ASSERT_TRUE(delta.ok()) << delta.status();
  RunOptions clean;
  clean.cluster = Ec2Cluster(16);
  auto expected = RunWith(setup, clean, nullptr, &appended);
  ASSERT_TRUE(expected.ok()) << expected.status();
  for (const auto& [name, table] : expected->outputs) {
    EXPECT_TRUE(Table::Identical(*table, *delta->outputs.at(name)));
  }
}

// A shard-failover re-put bumps the aggregate version, so fingerprints
// recorded before the death cannot serve the (bit-identical but re-placed)
// outputs without seeing the overwrite: reuse-correctness under recovery.
TEST(IncrementalTest, ShardDeathResubmitStaysCorrect) {
  WfSetup setup = MakeSetup(Wf::kSimpleJoin);
  ShardedDfs dfs(3);
  for (const auto& [name, table] : setup.inputs) {
    dfs.Put(name, table);
  }
  FingerprintStore store;
  RunOptions options;
  options.cluster = Ec2Cluster(16);
  options.fingerprints = &store;
  CoordinatorConfig config;
  config.fault_shard = 0;
  config.fault_after_dispatches = 1;  // kill shard 0 mid-run
  ShardCoordinator coordinator(&dfs, config);
  auto cold = coordinator.Run(setup.workflow, options);
  ASSERT_TRUE(cold.ok()) << cold.status();

  options.incremental = true;
  auto warm = coordinator.Run(setup.workflow, options);
  ASSERT_TRUE(warm.ok()) << warm.status();
  RunOptions clean;
  clean.cluster = Ec2Cluster(16);
  auto expected = RunWith(setup, clean);
  ASSERT_TRUE(expected.ok()) << expected.status();
  for (const auto& [name, table] : expected->outputs) {
    EXPECT_TRUE(Table::Identical(*table, *warm->outputs.at(name)));
  }
}

// Overwriting a recorded *output* (not an input) must force that job to
// recompute — the stale-fingerprint regression, end to end.
TEST(IncrementalTest, ClobberedIntermediateRecomputes) {
  WfSetup setup = MakeSetup(Wf::kTopShopper);
  RunOptions options;
  options.cluster = Ec2Cluster(16);
  options.engines = {EngineKind::kSpark};
  options.planner.enable_merging = false;  // expose intermediates
  Dfs dfs;
  for (const auto& [name, table] : setup.inputs) {
    dfs.Put(name, table);
  }
  FingerprintStore store;
  options.fingerprints = &store;
  Musketeer m(&dfs);
  auto cold = m.Run(setup.workflow, options);
  ASSERT_TRUE(cold.ok()) << cold.status();
  ASSERT_GT(cold->plans.size(), 1u);

  // Clobber the first job's output with garbage. The overwrite bumps its
  // version: the producer can no longer reuse (its recorded output version
  // is stale) and must recompute, restoring the real bytes.
  const std::string victim = cold->plans[0].outputs[0];
  dfs.Put(victim, std::make_shared<Table>(MakeInts(0, 3)));
  options.incremental = true;
  auto delta = m.Run(setup.workflow, options);
  ASSERT_TRUE(delta.ok()) << delta.status();
  EXPECT_FALSE(delta->job_results[0].reused);
  for (const auto& [name, table] : cold->outputs) {
    EXPECT_TRUE(Table::Identical(*table, *delta->outputs.at(name)));
  }
}

// Incremental reuse and a forced mid-run re-plan compose: the delta run
// re-partitions its remaining jobs after the first recomputed one (any
// threshold below 1 trips, as in ReplanningTest), and the result still
// matches a cold run over the appended inputs bit for bit.
TEST(IncrementalTest, ForcedReplanDuringDeltaRunStillBitIdentical) {
  WfSetup setup = MakeSetup(Wf::kTpchHive);
  RunOptions options;
  options.cluster = Ec2Cluster(16);
  // One job per operator, so the delta run has jobs left to regroup.
  options.planner.enable_merging = false;
  Dfs dfs;
  for (const auto& [name, table] : setup.inputs) {
    dfs.Put(name, table);
  }
  FingerprintStore store;
  options.fingerprints = &store;
  Musketeer m(&dfs);
  auto cold = m.Run(setup.workflow, options);
  ASSERT_TRUE(cold.ok()) << cold.status();
  EXPECT_EQ(cold->replans, 0);

  const std::string target = AppendTarget(setup);
  TableMap appended = AppendedInputs(setup, target);
  dfs.Put(target, appended.at(target));
  RuntimeHistory history;
  options.incremental = true;
  options.runtime_history = &history;
  options.planner.replan_threshold = 0.5;
  options.planner.max_replans = 2;
  auto delta = m.Run(setup.workflow, options);
  ASSERT_TRUE(delta.ok()) << delta.status();
  // Both features fire: the untouched part branch is reused, and the
  // recomputed lineitem suffix is re-planned.
  EXPECT_GE(delta->jobs_reused, 1);
  EXPECT_GT(delta->replans, 0);

  RunOptions clean;
  clean.cluster = Ec2Cluster(16);
  auto expected = RunWith(setup, clean, nullptr, &appended);
  ASSERT_TRUE(expected.ok()) << expected.status();
  ASSERT_EQ(expected->outputs.size(), delta->outputs.size());
  for (const auto& [name, table] : expected->outputs) {
    ASSERT_EQ(delta->outputs.count(name), 1u) << name;
    EXPECT_TRUE(Table::Identical(*table, *delta->outputs.at(name))) << name;
  }
}

// ---- service surface -------------------------------------------------------

TEST(ServiceIncrementalTest, ResubmitIncrementalReusesThroughTheService) {
  WfSetup setup = MakeSetup(Wf::kSimpleJoin);
  Dfs dfs;
  for (const auto& [name, table] : setup.inputs) {
    dfs.Put(name, table);
  }
  ServiceConfig config;
  config.num_workers = 2;
  config.default_options.cluster = Ec2Cluster(16);
  WorkflowService service(&dfs, config);

  WorkflowHandle first = service.Submit(setup.workflow);
  first->Wait();
  ASSERT_EQ(first->state(), WorkflowState::kDone);
  ASSERT_TRUE(first->result().ok());
  EXPECT_EQ(first->result()->jobs_reused, 0);
  EXPECT_GT(service.fingerprint_store()->size(), 0u);

  // Unchanged resubmit through the dedicated entry point: all reused, same
  // bits, and the plan cache still hits (fingerprints are not in the key).
  WorkflowHandle warm = service.ResubmitIncremental(setup.workflow);
  warm->Wait();
  ASSERT_EQ(warm->state(), WorkflowState::kDone);
  ASSERT_TRUE(warm->result().ok());
  EXPECT_EQ(warm->result()->jobs_reused,
            static_cast<int>(warm->result()->plans.size()));
  EXPECT_TRUE(warm->plan_cache_hit());
  for (const auto& [name, table] : first->result()->outputs) {
    EXPECT_TRUE(Table::Identical(*table, *warm->result()->outputs.at(name)));
  }

  // Append to a base relation; the incremental resubmit matches a cold run.
  const std::string target = AppendTarget(setup);
  TableMap appended = AppendedInputs(setup, target);
  dfs.Put(target, appended.at(target));
  WorkflowHandle delta = service.ResubmitIncremental(setup.workflow);
  delta->Wait();
  ASSERT_EQ(delta->state(), WorkflowState::kDone);
  ASSERT_TRUE(delta->result().ok());
  RunOptions clean;
  clean.cluster = Ec2Cluster(16);
  auto expected = RunWith(setup, clean, nullptr, &appended);
  ASSERT_TRUE(expected.ok()) << expected.status();
  for (const auto& [name, table] : expected->outputs) {
    EXPECT_TRUE(Table::Identical(*table, *delta->result()->outputs.at(name)));
  }

  // Aggregates surfaced in /stats.
  service.Drain();
  ServiceStats stats = service.stats();
  EXPECT_GE(stats.jobs_reused, warm->result()->jobs_reused);
}

}  // namespace
}  // namespace musketeer
