// Streaming data plane + incremental recomputation tests (PR 9).
//
// Three contracts under test:
//   1. RelationChannel: bounded, ordered, cancel/deadline-aware handoff —
//      backpressure blocks, Close drains, Abort propagates, CloseReceiver
//      never wedges a producer. StreamTable/AssembleFromChannel round-trips
//      are bit-identical (Table::Identical), scale included.
//   2. PipelinePlanner: only pipeline-safe edges are accepted (single
//      consumer, capable engines, no WHILE fixpoint, schedulable group),
//      and kAuto additionally cost-gates. End to end, pipelined runs are
//      Table::Identical to barrier runs on every evaluation workflow at
//      every thread width.
//   3. Incremental recomputation: per-job fingerprints over DFS content
//      versions make an unchanged resubmission reuse every job, an
//      append-to-base resubmission recompute exactly the dependent DAG
//      suffix (bit-identical to a cold run on the appended inputs), and a
//      direct overwrite of a recorded output invalidate reuse — in-process,
//      through the service, across shards, and under seeded faults.

#include <algorithm>
#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/parallel.h"
#include "src/cluster/sharded_dfs.h"
#include "src/core/musketeer.h"
#include "src/service/service.h"
#include "src/service/shard_coordinator.h"
#include "src/stream/fingerprint.h"
#include "src/stream/pipeline.h"
#include "src/stream/relation_channel.h"
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

CancelToken NoCancel() { return CancelToken(); }

// ---- RelationChannel -------------------------------------------------------

TEST(RelationChannelTest, DeliversBatchesInOrderWithBackpressure) {
  RelationChannel ch("edge", /*capacity=*/2);
  const int kBatches = 10;
  std::thread producer([&] {
    for (int i = 0; i < kBatches; ++i) {
      Status s = ch.Push(MakeInts(i, i + 1), NoCancel(), std::nullopt);
      ASSERT_TRUE(s.ok()) << s;
    }
    ch.Close();
  });
  int next = 0;
  while (true) {
    auto batch = ch.Pop(NoCancel(), std::nullopt);
    ASSERT_TRUE(batch.ok()) << batch.status();
    if (!batch->has_value()) {
      break;  // end of stream
    }
    ASSERT_EQ((*batch)->num_rows(), 1u);
    EXPECT_EQ((*batch)->col(0).ints()[0], next);
    ++next;
    // Slow consumer: with capacity 2 the producer must hit the full-queue
    // wait at least once.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  producer.join();
  EXPECT_EQ(next, kBatches);
  EXPECT_EQ(ch.batches_pushed(), static_cast<uint64_t>(kBatches));
  EXPECT_EQ(ch.batches_dropped(), 0u);
  EXPECT_GT(ch.push_stalls(), 0u);
}

TEST(RelationChannelTest, CancelUnblocksFullChannelPush) {
  RelationChannel ch("edge", /*capacity=*/1);
  CancelToken cancel = CancelToken::Make();
  ASSERT_TRUE(ch.Push(MakeInts(0, 1), cancel, std::nullopt).ok());
  std::atomic<bool> pushed{false};
  Status blocked_status = OkStatus();
  std::thread producer([&] {
    blocked_status = ch.Push(MakeInts(1, 2), cancel, std::nullopt);
    pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(pushed.load());  // backpressure holds
  cancel.RequestCancel();
  producer.join();
  EXPECT_EQ(blocked_status.code(), StatusCode::kCancelled);
}

TEST(RelationChannelTest, DeadlineUnblocksEmptyChannelPop) {
  RelationChannel ch("edge", /*capacity=*/2);
  const DeadlinePoint deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(40);
  auto batch = ch.Pop(NoCancel(), deadline);
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(RelationChannelTest, AbortPropagatesToConsumerAndDropsQueued) {
  RelationChannel ch("edge", /*capacity=*/4);
  ASSERT_TRUE(ch.Push(MakeInts(0, 1), NoCancel(), std::nullopt).ok());
  ch.Abort(UnavailableError("producer died"));
  auto batch = ch.Pop(NoCancel(), std::nullopt);
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), StatusCode::kUnavailable);
  // Abort after Close is a no-op: the RAII guard on a producer that already
  // closed cleanly must not clobber end-of-stream.
  RelationChannel ch2("edge2", 4);
  ch2.Close();
  ch2.Abort(UnavailableError("late"));
  auto eos = ch2.Pop(NoCancel(), std::nullopt);
  ASSERT_TRUE(eos.ok()) << eos.status();
  EXPECT_FALSE(eos->has_value());
}

TEST(RelationChannelTest, CloseReceiverUnblocksAndDropsPushes) {
  RelationChannel ch("edge", /*capacity=*/1);
  ASSERT_TRUE(ch.Push(MakeInts(0, 1), NoCancel(), std::nullopt).ok());
  std::thread producer([&] {
    // Blocked on the full queue until the receiver walks away; then the
    // push must return OK (dropped), not hang or error.
    Status s = ch.Push(MakeInts(1, 2), NoCancel(), std::nullopt);
    EXPECT_TRUE(s.ok()) << s;
    Status s2 = ch.Push(MakeInts(2, 3), NoCancel(), std::nullopt);
    EXPECT_TRUE(s2.ok()) << s2;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ch.CloseReceiver();
  producer.join();
  EXPECT_GE(ch.batches_dropped(), 2u);
}

TEST(RelationChannelTest, StreamAssembleRoundTripIsBitIdentical) {
  Table table = MakeInts(0, 1000);
  table.set_scale(3.5);
  RelationChannel ch("edge", /*capacity=*/4);
  StatusOr<StreamCounts> pushed = InternalError("not run");
  std::thread producer([&] {
    pushed = StreamTable(table, /*batch_rows=*/128, &ch, NoCancel(),
                         std::nullopt);
  });
  auto assembled = AssembleFromChannel(&ch, NoCancel(), std::nullopt);
  producer.join();
  ASSERT_TRUE(pushed.ok()) << pushed.status();
  ASSERT_TRUE(assembled.ok()) << assembled.status();
  EXPECT_TRUE(Table::Identical(table, assembled->table));
  // Scale must survive the trip: nominal_bytes drives every cost estimate.
  EXPECT_DOUBLE_EQ(assembled->table.scale(), 3.5);
  EXPECT_EQ(pushed->batches, (1000 + 127) / 128);
  EXPECT_EQ(assembled->counts.batches, pushed->batches);
}

TEST(RelationChannelTest, EmptyTableStillDeliversSchema) {
  Table empty(Schema({{"v", FieldType::kInt64}}));
  RelationChannel ch("edge", 2);
  auto pushed = StreamTable(empty, 128, &ch, NoCancel(), std::nullopt);
  ASSERT_TRUE(pushed.ok()) << pushed.status();
  EXPECT_EQ(pushed->batches, 1u);
  auto assembled = AssembleFromChannel(&ch, NoCancel(), std::nullopt);
  ASSERT_TRUE(assembled.ok()) << assembled.status();
  EXPECT_TRUE(Table::Identical(empty, assembled->table));
}

// Push/pop storm across concurrent producer/consumer pairs — the TSan
// target check.sh runs (stage 10): every mutation of the queue, counters
// and state machine happens under the channel lock or it shows up here.
TEST(RelationChannelTest, ConcurrentStormDeliversEverything) {
  const int kPairs = 4;
  const int kBatches = 200;
  std::vector<std::unique_ptr<RelationChannel>> channels;
  for (int p = 0; p < kPairs; ++p) {
    channels.push_back(
        std::make_unique<RelationChannel>("edge" + std::to_string(p), 2));
  }
  std::vector<std::thread> threads;
  std::vector<int64_t> sums(kPairs, 0);
  for (int p = 0; p < kPairs; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kBatches; ++i) {
        ASSERT_TRUE(
            channels[p]->Push(MakeInts(i, i + 1), NoCancel(), std::nullopt)
                .ok());
      }
      channels[p]->Close();
    });
    threads.emplace_back([&, p] {
      while (true) {
        auto batch = channels[p]->Pop(NoCancel(), std::nullopt);
        ASSERT_TRUE(batch.ok());
        if (!batch->has_value()) {
          return;
        }
        for (int64_t v : (*batch)->col(0).ints()) {
          sums[p] += v;
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  const int64_t expected = static_cast<int64_t>(kBatches) * (kBatches - 1) / 2;
  for (int p = 0; p < kPairs; ++p) {
    EXPECT_EQ(sums[p], expected) << "pair " << p;
    EXPECT_EQ(channels[p]->batches_pushed(), static_cast<uint64_t>(kBatches));
  }
}

// ---- PipelinePlanner -------------------------------------------------------

JobPlan MakeJob(const std::string& name, std::vector<std::string> inputs,
                std::vector<std::string> outputs,
                EngineKind engine = EngineKind::kSpark,
                WhileExec while_mode = WhileExec::kNone) {
  JobPlan job;
  job.name = name;
  job.inputs = std::move(inputs);
  job.outputs = std::move(outputs);
  job.engine = engine;
  job.while_mode = while_mode;
  return job;
}

Bytes FixedSize(Bytes bytes, const std::string&) { return bytes; }

PipelineSchedule Plan(const std::vector<JobPlan>& jobs,
                      const std::vector<std::string>& sinks, PipelineMode mode,
                      Bytes est_bytes = Bytes(100) * 1024 * 1024) {
  PipelineOptions options;
  options.mode = mode;
  return PlanPipelines(jobs, sinks, options, Ec2Cluster(16),
                       [est_bytes](const std::string& name) {
                         return FixedSize(est_bytes, name);
                       });
}

TEST(PipelinePlannerTest, ForceAcceptsSafeChain) {
  std::vector<JobPlan> jobs = {MakeJob("a", {"base"}, {"mid"}),
                               MakeJob("b", {"mid"}, {"out"})};
  PipelineSchedule sched = Plan(jobs, {"out"}, PipelineMode::kForce);
  ASSERT_EQ(sched.edges.size(), 1u);
  EXPECT_EQ(sched.edges[0].relation, "mid");
  EXPECT_EQ(sched.edges[0].producer, 0u);
  EXPECT_EQ(sched.edges[0].consumer, 1u);
  ASSERT_EQ(sched.groups.size(), 1u);
  EXPECT_EQ(sched.groups[0], (std::vector<size_t>{0, 1}));
  EXPECT_EQ(sched.group_of[0], 0);
  EXPECT_EQ(sched.group_of[1], 0);
}

TEST(PipelinePlannerTest, OffAcceptsNothing) {
  std::vector<JobPlan> jobs = {MakeJob("a", {"base"}, {"mid"}),
                               MakeJob("b", {"mid"}, {"out"})};
  EXPECT_TRUE(Plan(jobs, {"out"}, PipelineMode::kOff).empty());
}

TEST(PipelinePlannerTest, SinkAndFanOutEdgesStayOnBarrier) {
  // "mid" is itself a sink: must be committed, not streamed.
  std::vector<JobPlan> jobs = {MakeJob("a", {"base"}, {"mid"}),
                               MakeJob("b", {"mid"}, {"out"})};
  EXPECT_TRUE(Plan(jobs, {"mid", "out"}, PipelineMode::kForce).empty());
  // Two consumers of "mid": fan-out would need multicast.
  std::vector<JobPlan> fanout = {MakeJob("a", {"base"}, {"mid"}),
                                 MakeJob("b", {"mid"}, {"out1"}),
                                 MakeJob("c", {"mid"}, {"out2"})};
  EXPECT_TRUE(Plan(fanout, {"out1", "out2"}, PipelineMode::kForce).empty());
}

TEST(PipelinePlannerTest, IncapableEngineAndWhileLoopRejected) {
  std::vector<JobPlan> hadoop = {
      MakeJob("a", {"base"}, {"mid"}, EngineKind::kHadoop),
      MakeJob("b", {"mid"}, {"out"})};
  EXPECT_TRUE(Plan(hadoop, {"out"}, PipelineMode::kForce).empty());
  std::vector<JobPlan> loop = {MakeJob("a", {"base"}, {"mid"},
                                       EngineKind::kSpark,
                                       WhileExec::kNativeLoop),
                               MakeJob("b", {"mid"}, {"out"})};
  EXPECT_TRUE(Plan(loop, {"out"}, PipelineMode::kForce).empty());
}

TEST(PipelinePlannerTest, AutoCostGateKeepsSmallEdgesOnBarrier) {
  std::vector<JobPlan> jobs = {MakeJob("a", {"base"}, {"mid"}),
                               MakeJob("b", {"mid"}, {"out"})};
  // 100 MB across the edge: the channel skips a DFS write+read, wins.
  EXPECT_EQ(Plan(jobs, {"out"}, PipelineMode::kAuto,
                 Bytes(100) * 1024 * 1024)
                .edges.size(),
            1u);
  // 1 KB: the fixed channel-setup cost dominates; barrier stays.
  EXPECT_TRUE(Plan(jobs, {"out"}, PipelineMode::kAuto, 1024).empty());
  // Unknown size (0): conservative, barrier stays.
  EXPECT_TRUE(Plan(jobs, {"out"}, PipelineMode::kAuto, 0).empty());
}

TEST(PipelinePlannerTest, GroupNeedsEveryExternalInputCommittedFirst) {
  // C consumes streamed "m1" (from A) and barrier "m2" (from B, Hadoop so
  // unstreamable). With B *after* A in plan order, grouping {A, C} would
  // launch C before B commits m2 — the edge must be rejected.
  std::vector<JobPlan> unsafe = {
      MakeJob("a", {"base"}, {"m1"}),
      MakeJob("b", {"base"}, {"m2"}, EngineKind::kHadoop),
      MakeJob("c", {"m1", "m2"}, {"out"})};
  EXPECT_TRUE(Plan(unsafe, {"out"}, PipelineMode::kForce).empty());
  // With B *before* A, m2 is committed before the group's first member
  // starts; the m1 edge is safe.
  std::vector<JobPlan> safe = {
      MakeJob("b", {"base"}, {"m2"}, EngineKind::kHadoop),
      MakeJob("a", {"base"}, {"m1"}),
      MakeJob("c", {"m1", "m2"}, {"out"})};
  PipelineSchedule sched = Plan(safe, {"out"}, PipelineMode::kForce);
  ASSERT_EQ(sched.edges.size(), 1u);
  EXPECT_EQ(sched.edges[0].relation, "m1");
  ASSERT_EQ(sched.groups.size(), 1u);
  EXPECT_EQ(sched.groups[0], (std::vector<size_t>{1, 2}));
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

// ---- pipelined execution: end-to-end equivalence ---------------------------

class StreamWorkflowTest : public ::testing::TestWithParam<Wf> {};

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

// Pipelined (kForce) runs are BIT-identical to barrier (kOff) runs on every
// evaluation workflow, single- and multi-threaded, with the engine choice
// left to the partitioner and with it restricted to a pipeline-capable one.
TEST_P(StreamWorkflowTest, PipelinedMatchesBarrierBitIdentical) {
  WfSetup setup = MakeSetup(GetParam());
  for (int threads : {1, 4}) {
    ScopedParallelThreads width(threads);
    for (const std::vector<EngineKind>& engines :
         {std::vector<EngineKind>{}, std::vector<EngineKind>{
                                         EngineKind::kSpark}}) {
      RunOptions off;
      off.cluster = Ec2Cluster(16);
      off.engines = engines;
      auto barrier = RunWith(setup, off);
      ASSERT_TRUE(barrier.ok()) << barrier.status();

      RunOptions force = off;
      force.pipeline = PipelineMode::kForce;
      auto pipelined = RunWith(setup, force);
      ASSERT_TRUE(pipelined.ok()) << pipelined.status();

      ASSERT_EQ(barrier->outputs.size(), pipelined->outputs.size());
      for (const auto& [name, table] : barrier->outputs) {
        ASSERT_EQ(pipelined->outputs.count(name), 1u);
        EXPECT_TRUE(Table::Identical(*table, *pipelined->outputs.at(name)))
            << WfName(GetParam()) << " sink " << name << " diverged at "
            << threads << " thread(s)";
      }
      // kAuto must also be output-identical (whatever it decides to stream).
      RunOptions auto_mode = off;
      auto_mode.pipeline = PipelineMode::kAuto;
      auto cost_gated = RunWith(setup, auto_mode);
      ASSERT_TRUE(cost_gated.ok()) << cost_gated.status();
      for (const auto& [name, table] : barrier->outputs) {
        EXPECT_TRUE(Table::Identical(*table, *cost_gated->outputs.at(name)));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkflows, StreamWorkflowTest,
                         ::testing::ValuesIn(kAllWorkflows),
                         [](const ::testing::TestParamInfo<Wf>& info) {
                           return WfName(info.param);
                         });

// A chain the planner can actually stream: merging disabled so every
// operator is its own job, Spark everywhere. Asserts data really moved over
// channels, not just that the answer matched.
TEST(StreamExecutionTest, ForcedChainActuallyStreams) {
  WfSetup setup = MakeSetup(Wf::kTopShopper);
  RunOptions off;
  off.cluster = Ec2Cluster(16);
  off.engines = {EngineKind::kSpark};
  off.planner.enable_merging = false;
  auto barrier = RunWith(setup, off);
  ASSERT_TRUE(barrier.ok()) << barrier.status();
  ASSERT_GT(barrier->plans.size(), 1u);

  RunOptions force = off;
  force.pipeline = PipelineMode::kForce;
  auto pipelined = RunWith(setup, force);
  ASSERT_TRUE(pipelined.ok()) << pipelined.status();
  EXPECT_GE(pipelined->pipelined_edges, 1);
  EXPECT_GT(pipelined->stream_batches, 0u);
  EXPECT_GT(pipelined->stream_bytes, 0);
  EXPECT_EQ(barrier->pipelined_edges, 0);
  for (const auto& [name, table] : barrier->outputs) {
    EXPECT_TRUE(Table::Identical(*table, *pipelined->outputs.at(name)));
  }
}

// A failing pipelined attempt must fall back to the barrier dispatcher and
// still produce the fault-free bits (the recovery contract composed with
// streaming).
TEST(StreamExecutionTest, PipelinedRunRecoversInjectedFaults) {
  WfSetup setup = MakeSetup(Wf::kTopShopper);
  RunOptions clean;
  clean.cluster = Ec2Cluster(16);
  clean.engines = {EngineKind::kSpark};
  clean.planner.enable_merging = false;
  auto expected = RunWith(setup, clean);
  ASSERT_TRUE(expected.ok()) << expected.status();

  RunOptions faulty = clean;
  faulty.pipeline = PipelineMode::kForce;
  faulty.fault_rate = 0.3;
  faulty.fault_seed = 42;
  faulty.retry.max_attempts = 4;
  auto recovered = RunWith(setup, faulty);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  for (const auto& [name, table] : expected->outputs) {
    EXPECT_TRUE(Table::Identical(*table, *recovered->outputs.at(name)));
  }
}

// ---- incremental recomputation ---------------------------------------------

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

// Pipelining and incremental compose: the recompute suffix of a delta run
// may stream internally and still produce the cold bits.
TEST(IncrementalTest, ComposesWithPipelinedExecution) {
  WfSetup setup = MakeSetup(Wf::kTopShopper);
  RunOptions options;
  options.cluster = Ec2Cluster(16);
  options.engines = {EngineKind::kSpark};
  options.planner.enable_merging = false;
  options.pipeline = PipelineMode::kForce;
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
  clean.engines = {EngineKind::kSpark};
  clean.planner.enable_merging = false;
  auto expected = RunWith(setup, clean, nullptr, &appended);
  ASSERT_TRUE(expected.ok()) << expected.status();
  for (const auto& [name, table] : expected->outputs) {
    EXPECT_TRUE(Table::Identical(*table, *delta->outputs.at(name)));
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
