// Fault-tolerant execution tests (DESIGN.md "Fault tolerance").
//
// Covers the ExecutionContext API end to end: the seeded deterministic
// FaultInjector, RetryPolicy backoff, the retry/failover dispatcher in
// Musketeer::Execute, cooperative cancellation and deadlines (direct runs
// and through the workflow service), and the headline guarantee — a seeded
// fault sweep over all nine evaluation workflows completes with outputs
// BIT-identical (Table::Identical) to the fault-free run, and the same seed
// reproduces the same per-job fault/attempt sequence across runs.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/musketeer.h"
#include "src/frontends/udf_registry.h"
#include "src/service/service.h"
#include "tests/substrate_check.h"
#include "tests/workflow_setups.h"

namespace musketeer {
namespace {

using std::chrono::milliseconds;

RunOptions BaseOptions() {
  RunOptions options;
  options.cluster = Ec2Cluster(16);
  return options;
}

// Seeded injection at the acceptance settings: --fault-rate=0.3
// --fault-seed=42 --max-retries=3 (4 attempts per engine), failover on.
// Backoff is shrunk so retries do not dominate test wall-clock.
RunOptions FaultyOptions() {
  RunOptions options = BaseOptions();
  options.fault_rate = 0.3;
  options.fault_seed = 42;
  options.retry.max_attempts = 4;
  options.retry.initial_backoff = milliseconds(1);
  options.retry.max_backoff = milliseconds(4);
  return options;
}

StatusOr<RunResult> RunSetup(const WfSetup& setup, const RunOptions& options) {
  Dfs dfs;
  for (const auto& [name, table] : setup.inputs) {
    dfs.Put(name, table);
  }
  Musketeer m(&dfs);
  return m.Run(setup.workflow, options);
}

std::string Sig(const JobPlan& plan) {
  return plan.name + "@" + EngineKindName(plan.engine);
}

void ExpectSameRecovery(const std::vector<JobRecovery>& a,
                        const std::vector<JobRecovery>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].job, b[i].job);
    EXPECT_EQ(a[i].planned_engine, b[i].planned_engine);
    EXPECT_EQ(a[i].final_engine, b[i].final_engine);
    EXPECT_EQ(a[i].attempts, b[i].attempts);
    EXPECT_EQ(a[i].failovers, b[i].failovers);
    EXPECT_EQ(a[i].faults_injected, b[i].faults_injected);
    ASSERT_EQ(a[i].attempt_log.size(), b[i].attempt_log.size());
    for (size_t k = 0; k < a[i].attempt_log.size(); ++k) {
      EXPECT_EQ(a[i].attempt_log[k].attempt, b[i].attempt_log[k].attempt);
      EXPECT_EQ(a[i].attempt_log[k].engine, b[i].attempt_log[k].engine);
      EXPECT_EQ(a[i].attempt_log[k].outcome, b[i].attempt_log[k].outcome);
    }
  }
}

// ---------------------------------------------------------------------------
// FaultInjector: a pure function of (seed, workflow, job signature, attempt).

TEST(FaultInjectorTest, DecisionIsPureFunctionOfSeedAndKey) {
  FaultInjector a(0.3, 42);
  FaultInjector b(0.3, 42);
  int fails = 0;
  for (int attempt = 1; attempt <= 2000; ++attempt) {
    bool fa = a.ShouldFail("wf", "job@Spark", attempt);
    EXPECT_EQ(fa, b.ShouldFail("wf", "job@Spark", attempt));
    fails += fa ? 1 : 0;
  }
  // The first draw of a SplitMix64 stream per key: the empirical rate over
  // 2000 keys must track the configured 0.3.
  EXPECT_GT(fails, 2000 * 0.2);
  EXPECT_LT(fails, 2000 * 0.4);
}

TEST(FaultInjectorTest, SeedAndKeyChangeTheSequence) {
  FaultInjector a(0.5, 1);
  FaultInjector b(0.5, 2);
  int diff_seed = 0;
  int diff_key = 0;
  for (int attempt = 1; attempt <= 256; ++attempt) {
    diff_seed += a.ShouldFail("wf", "j@Spark", attempt) !=
                         b.ShouldFail("wf", "j@Spark", attempt)
                     ? 1
                     : 0;
    diff_key += a.ShouldFail("wf", "j@Spark", attempt) !=
                        a.ShouldFail("wf", "j@Hadoop", attempt)
                    ? 1
                    : 0;
  }
  EXPECT_GT(diff_seed, 0);
  EXPECT_GT(diff_key, 0);
}

TEST(FaultInjectorTest, RateEndpoints) {
  FaultInjector off;  // default rate 0
  EXPECT_FALSE(off.enabled());
  FaultInjector never(0.0, 99);
  FaultInjector always(1.0, 99);
  EXPECT_TRUE(always.enabled());
  for (int attempt = 1; attempt <= 64; ++attempt) {
    EXPECT_FALSE(never.ShouldFail("wf", "j@Naiad", attempt));
    EXPECT_TRUE(always.ShouldFail("wf", "j@Naiad", attempt));
  }
}

// ---------------------------------------------------------------------------
// RetryPolicy: exponential backoff, capped, deterministically jittered.

TEST(RetryPolicyTest, BackoffGrowsGeometricallyAndCaps) {
  RetryPolicy policy;
  policy.initial_backoff = milliseconds(5);
  policy.multiplier = 2.0;
  policy.max_backoff = milliseconds(250);
  policy.jitter = 0.0;  // exact values
  EXPECT_EQ(policy.BackoffFor(1, "j").count(), 0);  // no backoff before try 1
  EXPECT_EQ(policy.BackoffFor(2, "j").count(), 5);
  EXPECT_EQ(policy.BackoffFor(3, "j").count(), 10);
  EXPECT_EQ(policy.BackoffFor(4, "j").count(), 20);
  EXPECT_EQ(policy.BackoffFor(12, "j").count(), 250);  // capped
}

TEST(RetryPolicyTest, JitterIsBoundedAndDeterministic) {
  RetryPolicy policy;
  policy.initial_backoff = milliseconds(100);
  policy.max_backoff = milliseconds(1000);
  policy.jitter = 0.5;
  policy.backoff_seed = 42;
  for (int attempt = 2; attempt <= 5; ++attempt) {
    auto first = policy.BackoffFor(attempt, "job@Spark");
    EXPECT_EQ(first.count(), policy.BackoffFor(attempt, "job@Spark").count());
    double nominal = 100.0 * (1 << (attempt - 2));
    EXPECT_GE(first.count(), static_cast<int64_t>(nominal * 0.5) - 1);
    EXPECT_LE(first.count(), static_cast<int64_t>(nominal));
  }
  // A different key draws different jitter somewhere in the range.
  bool any_diff = false;
  for (int attempt = 2; attempt <= 8; ++attempt) {
    any_diff |= policy.BackoffFor(attempt, "a@Spark") !=
                policy.BackoffFor(attempt, "b@Spark");
  }
  EXPECT_TRUE(any_diff);
}

TEST(RetryPolicyTest, RetryableCodes) {
  EXPECT_TRUE(IsRetryable(StatusCode::kUnavailable));
  EXPECT_TRUE(IsRetryable(StatusCode::kAborted));
  EXPECT_TRUE(IsRetryable(StatusCode::kResourceExhausted));
  EXPECT_FALSE(IsRetryable(StatusCode::kCancelled));
  EXPECT_FALSE(IsRetryable(StatusCode::kDeadlineExceeded));
  EXPECT_FALSE(IsRetryable(StatusCode::kInvalidArgument));
  EXPECT_FALSE(IsRetryable(StatusCode::kNotFound));
  EXPECT_FALSE(IsRetryable(StatusCode::kOk));
}

// ---------------------------------------------------------------------------
// The headline sweep: every evaluation workflow survives seeded injection at
// rate 0.3 and produces outputs bit-identical to the fault-free run; the
// same seed reproduces the exact per-job fault/attempt sequence.

class FaultSweepTest : public ::testing::TestWithParam<Wf> {};

TEST_P(FaultSweepTest, SeededSweepBitIdenticalToFaultFree) {
  WfSetup setup = MakeSetup(GetParam());

  auto reference = RunSetup(setup, BaseOptions());
  ASSERT_TRUE(reference.ok()) << reference.status();
  ASSERT_EQ(reference->outputs.count(setup.result_relation), 1u);

  auto faulted = RunSetup(setup, FaultyOptions());
  ASSERT_TRUE(faulted.ok()) << faulted.status();
  ASSERT_EQ(faulted->outputs.count(setup.result_relation), 1u);
  for (const auto& [name, table] : reference->outputs) {
    ASSERT_EQ(faulted->outputs.count(name), 1u);
    EXPECT_TRUE(Table::Identical(*table, *faulted->outputs[name]))
        << WfName(GetParam()) << " output '" << name
        << "' diverged under fault injection";
  }

  // Recovery accounting is internally consistent.
  ASSERT_EQ(faulted->recovery.size(), faulted->plans.size());
  int retries = 0;
  int failovers = 0;
  for (const JobRecovery& rec : faulted->recovery) {
    EXPECT_GE(rec.attempts, 1);
    EXPECT_EQ(rec.attempt_log.size(), static_cast<size_t>(rec.attempts));
    EXPECT_EQ(rec.attempt_log.back().outcome, StatusCode::kOk);
    retries += rec.attempts - 1;
    failovers += rec.failovers;
  }
  EXPECT_EQ(faulted->total_retries, retries);
  EXPECT_EQ(faulted->total_failovers, failovers);

  // Same seed, second run: the exact same fault/attempt sequence.
  auto replay = RunSetup(setup, FaultyOptions());
  ASSERT_TRUE(replay.ok()) << replay.status();
  ExpectSameRecovery(faulted->recovery, replay->recovery);
  EXPECT_EQ(faulted->total_faults_injected, replay->total_faults_injected);
}

INSTANTIATE_TEST_SUITE_P(AllWorkflows, FaultSweepTest,
                         ::testing::ValuesIn(kAllWorkflows),
                         [](const ::testing::TestParamInfo<Wf>& info) {
                           return WfName(info.param);
                         });

// The rate-0.3/seed-42 sweep is not vacuous: mirroring the injector over the
// planned jobs' first attempts must predict at least one fault, and running
// the first such workflow end-to-end must record injected faults + retries
// while still matching the fault-free output.
TEST(FaultRecoveryTest, SeededSweepActuallyInjects) {
  FaultInjector injector(0.3, 42);
  bool ran_one = false;
  int predicted_first_attempt_faults = 0;
  for (Wf wf : kAllWorkflows) {
    WfSetup setup = MakeSetup(wf);
    Dfs dfs;
    for (const auto& [name, table] : setup.inputs) {
      dfs.Put(name, table);
    }
    Musketeer m(&dfs);
    auto plan = m.Plan(setup.workflow, BaseOptions());
    ASSERT_TRUE(plan.ok()) << plan.status();
    int faults = 0;
    for (const JobPlan& job : plan->plans) {
      faults += injector.ShouldFail(setup.workflow.id, Sig(job), 1) ? 1 : 0;
    }
    predicted_first_attempt_faults += faults;
    if (faults > 0 && !ran_one) {
      ran_one = true;
      auto faulted = RunSetup(setup, FaultyOptions());
      ASSERT_TRUE(faulted.ok()) << faulted.status();
      EXPECT_GE(faulted->total_faults_injected, faults);
      EXPECT_GE(faulted->total_retries, 1);
    }
  }
  EXPECT_GT(predicted_first_attempt_faults, 0)
      << "seed 42 at rate 0.3 injects no first-attempt faults; pick a "
         "different acceptance seed";
  EXPECT_TRUE(ran_one);
}

// Retry exhaustion with a single allowed engine: the run fails kUnavailable
// and the error carries full provenance (workflow/job@engine, attempt number,
// injected-fault origin, and the failover-exhausted annotation).
TEST(FaultRecoveryTest, ExhaustionReportsProvenance) {
  WfSetup setup = MakeSetup(Wf::kSimpleJoin);
  RunOptions options = BaseOptions();
  options.engines = {EngineKind::kSpark};
  options.fault_rate = 1.0;  // every attempt fails
  options.fault_seed = 7;
  options.retry.max_attempts = 3;
  options.retry.initial_backoff = milliseconds(1);
  options.retry.max_backoff = milliseconds(2);

  auto result = RunSetup(setup, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  const std::string message = result.status().message();
  EXPECT_NE(message.find("injected fault"), std::string::npos) << message;
  EXPECT_NE(message.find(setup.workflow.id + "/"), std::string::npos) << message;
  EXPECT_NE(message.find("@Spark"), std::string::npos) << message;
  EXPECT_NE(message.find("attempt 3"), std::string::npos) << message;
  EXPECT_NE(message.find("failover exhausted"), std::string::npos) << message;

  // With failover disabled the annotation names the exhausted engine instead.
  options.retry.enable_failover = false;
  auto no_failover = RunSetup(setup, options);
  ASSERT_FALSE(no_failover.ok());
  EXPECT_EQ(no_failover.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(no_failover.status().message().find("retries exhausted on Spark"),
            std::string::npos)
      << no_failover.status().message();
}

// Deterministic cross-engine failover: search (by mirroring the injector)
// for a seed that fails the first job's only attempt on its planned engine
// and succeeds on the alternate, then check the dispatcher actually switches
// engines and still reproduces the fault-free bits.
TEST(FaultRecoveryTest, FailoverSwitchesEngineAndPreservesBits) {
  WfSetup setup = MakeSetup(Wf::kTopShopper);
  RunOptions options = BaseOptions();
  options.engines = {EngineKind::kSpark, EngineKind::kHadoop};
  options.retry.max_attempts = 1;  // exhaust an engine in one attempt

  auto reference = RunSetup(setup, options);
  ASSERT_TRUE(reference.ok()) << reference.status();

  Dfs dfs;
  for (const auto& [name, table] : setup.inputs) {
    dfs.Put(name, table);
  }
  Musketeer m(&dfs);
  auto plan = m.Plan(setup.workflow, options);
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_GE(plan->plans.size(), 1u);
  const JobPlan& first = plan->plans[0];
  ASSERT_FALSE(first.outputs.empty());
  const EngineKind planned = first.engine;
  const EngineKind alternate = planned == EngineKind::kSpark
                                   ? EngineKind::kHadoop
                                   : EngineKind::kSpark;
  // Failover regenerates the plan, so the signature uses the alternate
  // backend's naming ("<Engine>:<first output>").
  const std::string alt_sig = std::string(EngineKindName(alternate)) + ":" +
                              first.outputs[0] + "@" +
                              EngineKindName(alternate);

  const double rate = 0.5;
  uint64_t seed = 0;
  for (uint64_t candidate = 1; candidate <= 100000; ++candidate) {
    FaultInjector injector(rate, candidate);
    if (!injector.ShouldFail(setup.workflow.id, Sig(first), 1)) {
      continue;  // attempt 1 on the planned engine must fail
    }
    if (injector.ShouldFail(setup.workflow.id, alt_sig, 2)) {
      continue;  // attempt 2 on the alternate engine must succeed
    }
    bool others_clean = true;
    for (size_t i = 1; i < plan->plans.size() && others_clean; ++i) {
      others_clean = !injector.ShouldFail(setup.workflow.id,
                                          Sig(plan->plans[i]), 1);
    }
    if (others_clean) {
      seed = candidate;
      break;
    }
  }
  ASSERT_NE(seed, 0u) << "no seed forces exactly one failover";

  options.fault_rate = rate;
  options.fault_seed = seed;
  auto failed_over = RunSetup(setup, options);
  ASSERT_TRUE(failed_over.ok()) << failed_over.status();
  EXPECT_EQ(failed_over->total_failovers, 1);
  ASSERT_GE(failed_over->recovery.size(), 1u);
  const JobRecovery& rec = failed_over->recovery[0];
  EXPECT_EQ(rec.planned_engine, planned);
  EXPECT_EQ(rec.final_engine, alternate);
  ASSERT_EQ(rec.attempt_log.size(), 2u);
  EXPECT_EQ(rec.attempt_log[0].engine, planned);
  EXPECT_EQ(rec.attempt_log[0].outcome, StatusCode::kUnavailable);
  EXPECT_EQ(rec.attempt_log[1].engine, alternate);
  EXPECT_EQ(rec.attempt_log[1].outcome, StatusCode::kOk);
  // The failed-over plan is what Execute reports for the job.
  EXPECT_EQ(failed_over->plans[0].engine, alternate);

  for (const auto& [name, table] : reference->outputs) {
    ASSERT_EQ(failed_over->outputs.count(name), 1u);
    EXPECT_TRUE(Table::Identical(*table, *failed_over->outputs[name]))
        << "failover to " << EngineKindName(alternate)
        << " changed the bits of '" << name << "'";
  }
}

// Failover chooses among the engines the run plans with: planner.engines
// wins over the (here: empty, i.e. all seven) run-level options.engines, so
// no attempt may land on an engine outside it.
TEST(FaultRecoveryTest, FailoverStaysInsidePlannerEngines) {
  WfSetup setup = MakeSetup(Wf::kTopShopper);
  RunOptions options = BaseOptions();
  const std::vector<EngineKind> allowed = {EngineKind::kSpark,
                                           EngineKind::kHadoop};
  options.planner.engines = allowed;
  options.fault_rate = 0.5;
  options.retry.max_attempts = 1;  // every fault exhausts an engine

  int failovers = 0;
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    options.fault_seed = seed;
    auto result = RunSetup(setup, options);
    if (!result.ok()) {
      // Both allowed engines failed: failover stops inside the set.
      EXPECT_NE(result.status().message().find("failover exhausted"),
                std::string::npos)
          << result.status().message();
      continue;
    }
    failovers += result->total_failovers;
    for (const JobRecovery& rec : result->recovery) {
      for (const JobAttempt& attempt : rec.attempt_log) {
        EXPECT_NE(std::find(allowed.begin(), allowed.end(), attempt.engine),
                  allowed.end())
            << "seed " << seed << ": job " << rec.job << " attempted on "
            << EngineKindName(attempt.engine);
      }
    }
  }
  EXPECT_GT(failovers, 0);
}

// A substrate that disagrees with the shared kernel is a detected execution
// fault. The fixture registers a deliberately non-deterministic UDF — it
// returns how often it has been called — so every re-execution of a job
// that calls it disagrees with the first. TearDown clears the
// process-global UDF registry even when an assertion returns early.
class SubstrateDivergenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    UdfDefinition call_count;
    call_count.name = "call_count";
    call_count.arity = 1;
    call_count.output_schema = Schema({{"calls", FieldType::kInt64}});
    call_count.fn =
        [calls = calls_](const std::vector<const Table*>&) -> StatusOr<Table> {
      Table out(Schema({{"calls", FieldType::kInt64}}));
      out.AddRow({static_cast<int64_t>(++*calls)});
      return out;
    };
    RegisterUdf(std::move(call_count));
  }
  void TearDown() override { ClearUdfRegistry(); }

  std::shared_ptr<std::atomic<int64_t>> calls_ =
      std::make_shared<std::atomic<int64_t>>(0);
};

// A run executes the job once, on the shared kernel, and commits the
// kernel's bytes. Re-running it on the Hadoop MapReduce substrate calls the
// UDF again, and VerifyOnSubstrate reports the divergence as kAborted
// naming the output and job@Engine, leaving the committed bytes alone.
TEST_F(SubstrateDivergenceTest, RunCommitsKernelAndVerificationReportsIt) {
  const WorkflowSpec wf{"divergent-udf", FrontendLanguage::kBeer,
                        "n = UDF call_count(events);\n"};
  auto events = std::make_shared<Table>(Schema({{"uid", FieldType::kInt64}}));
  for (int64_t i = 0; i < 16; ++i) {
    events->AddRow({i});
  }
  RunOptions options = BaseOptions();
  options.engines = {EngineKind::kHadoop};

  Dfs dfs;
  dfs.Put("events", events);
  Musketeer m(&dfs);
  auto result = m.Run(wf, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(calls_->load(), 1);
  Table expected(Schema({{"calls", FieldType::kInt64}}));
  expected.AddRow({int64_t{1}});
  ASSERT_EQ(result->outputs.count("n"), 1u);
  EXPECT_TRUE(Table::Identical(expected, *result->outputs.at("n")))
      << result->outputs.at("n")->DebugString();

  Status verified = VerifyRunOnSubstrates(*result, dfs);
  EXPECT_EQ(verified.code(), StatusCode::kAborted) << verified;
  const std::string message = verified.message();
  EXPECT_NE(message.find("substrate output 'n' diverged from the shared "
                         "kernel on "),
            std::string::npos)
      << message;
  EXPECT_NE(message.find("@Hadoop"), std::string::npos) << message;
  EXPECT_GT(calls_->load(), 1);
  auto committed = dfs.Get("n");
  ASSERT_TRUE(committed.ok()) << committed.status();
  EXPECT_TRUE(Table::Identical(expected, **committed));
}

// ---------------------------------------------------------------------------
// Cancellation and deadlines, direct Run() path.

TEST(CancelDeadlineTest, PreCancelledRunFailsCancelled) {
  WfSetup setup = MakeSetup(Wf::kSimpleJoin);
  RunOptions options = BaseOptions();
  options.cancel = CancelToken::Make();
  options.cancel.RequestCancel();
  auto result = RunSetup(setup, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

TEST(CancelDeadlineTest, ExpiredDeadlineFailsDeadlineExceeded) {
  WfSetup setup = MakeSetup(Wf::kSimpleJoin);
  RunOptions options = BaseOptions();
  options.absolute_deadline =
      std::chrono::steady_clock::now() - std::chrono::seconds(1);
  auto result = RunSetup(setup, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

// ---------------------------------------------------------------------------
// Cancellation and deadlines through the workflow service.

TEST(ServiceCancelTest, CancelQueuedSettlesCancelledAtPickup) {
  WfSetup setup = MakeSetup(Wf::kTopShopper);
  Dfs dfs;
  for (const auto& [name, table] : setup.inputs) {
    dfs.Put(name, table);
  }
  ServiceConfig config;
  config.num_workers = 1;
  config.manual_start = true;  // queue first, drain later
  config.default_options = BaseOptions();
  WorkflowService service(&dfs, config);

  WorkflowHandle handle = service.Submit(setup.workflow);
  ASSERT_EQ(handle->state(), WorkflowState::kQueued);
  handle->Cancel();
  service.Start();
  handle->Wait();
  EXPECT_EQ(handle->state(), WorkflowState::kCancelled);
  EXPECT_TRUE(handle->terminal());
  EXPECT_FALSE(handle->result().ok());
  EXPECT_EQ(handle->result().status().code(), StatusCode::kCancelled);
  EXPECT_NE(handle->result().status().message().find("while queued"),
            std::string::npos);
  service.Drain();
  EXPECT_EQ(service.stats().cancelled, 1u);
  EXPECT_EQ(std::string(WorkflowStateName(WorkflowState::kCancelled)),
            "CANCELLED");
}

TEST(ServiceCancelTest, CancelRunningUnwindsAtCheckpoint) {
  WfSetup setup = MakeSetup(Wf::kTopShopper);
  Dfs dfs;
  for (const auto& [name, table] : setup.inputs) {
    dfs.Put(name, table);
  }
  ServiceConfig config;
  config.num_workers = 1;
  config.default_options = BaseOptions();
  // A long simulated cluster round-trip per job gives the cancel a wide,
  // deterministic window while the workflow is RUNNING.
  config.dispatch_latency = std::chrono::milliseconds(500);
  WorkflowService service(&dfs, config);

  WorkflowHandle handle = service.Submit(setup.workflow);
  ASSERT_NE(handle->state(), WorkflowState::kRejected);
  // Wait for pickup; the worker then sits in the dispatch-latency sleep.
  auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (handle->state() == WorkflowState::kQueued &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_NE(handle->state(), WorkflowState::kQueued) << "worker never started";
  handle->Cancel();
  handle->Wait();
  EXPECT_EQ(handle->state(), WorkflowState::kCancelled);
  EXPECT_EQ(handle->result().status().code(), StatusCode::kCancelled);
  service.Drain();
  EXPECT_EQ(service.stats().cancelled, 1u);
  EXPECT_EQ(service.stats().completed, 0u);
}

TEST(ServiceCancelTest, QueuedDeadlineExpiryFailsDeadlineExceeded) {
  WfSetup setup = MakeSetup(Wf::kTopShopper);
  Dfs dfs;
  for (const auto& [name, table] : setup.inputs) {
    dfs.Put(name, table);
  }
  ServiceConfig config;
  config.num_workers = 1;
  config.manual_start = true;
  config.default_options = BaseOptions();
  WorkflowService service(&dfs, config);

  RunOptions options = config.default_options;
  options.deadline = std::chrono::milliseconds(1);  // pinned at Enqueue
  WorkflowHandle handle = service.Submit(setup.workflow, options);
  ASSERT_EQ(handle->state(), WorkflowState::kQueued);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  service.Start();
  handle->Wait();
  EXPECT_EQ(handle->state(), WorkflowState::kFailed);
  EXPECT_EQ(handle->result().status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(handle->result().status().message().find("while queued"),
            std::string::npos);
  service.Drain();
  EXPECT_EQ(service.stats().failed, 1u);
}

// ---------------------------------------------------------------------------
// Concurrency (the TSan gate in tools/check.sh runs *Concurrent*:*Cancel*):
// many faulted workflows recover in parallel against one shared DFS.

TEST(ConcurrentFaultTest, ConcurrentFaultedWorkflowsAllRecover) {
  // Workflows with pairwise-disjoint input relation names, so they can share
  // one DFS (Sssp is excluded: it reuses PageRank's vertices/edges names
  // with different data).
  const Wf kDisjoint[] = {Wf::kTopShopper, Wf::kTpchHive,  Wf::kNetflix,
                          Wf::kSimpleJoin, Wf::kPageRank,  Wf::kKmeans,
                          Wf::kCrossCommunity};
  Dfs dfs;
  std::vector<WfSetup> setups;
  for (Wf wf : kDisjoint) {
    setups.push_back(MakeSetup(wf));
    for (const auto& [name, table] : setups.back().inputs) {
      dfs.Put(name, table);
    }
  }

  ServiceConfig config;
  config.num_workers = 4;
  config.default_options = FaultyOptions();
  WorkflowService service(&dfs, config);

  // Two rounds: the second hits the plan cache, exercising concurrent
  // execution of one shared immutable plan under injection.
  std::vector<WorkflowHandle> handles;
  for (int round = 0; round < 2; ++round) {
    for (const WfSetup& setup : setups) {
      handles.push_back(service.SubmitBlocking(setup.workflow));
    }
  }
  service.Drain();
  for (const WorkflowHandle& handle : handles) {
    EXPECT_EQ(handle->state(), WorkflowState::kDone)
        << handle->spec().id << ": " << handle->result().status();
    EXPECT_TRUE(handle->result().ok());
  }
  EXPECT_EQ(service.stats().completed, handles.size());
  EXPECT_EQ(service.stats().failed, 0u);
  EXPECT_EQ(service.stats().cancelled, 0u);
}

// Concurrent cancellation storm: half the submissions are cancelled while
// queued or running; every ticket still settles in a terminal state and the
// service accounts all of them.
TEST(ConcurrentFaultTest, ConcurrentCancellationSettlesEveryTicket) {
  WfSetup setup = MakeSetup(Wf::kTopShopper);
  Dfs dfs;
  for (const auto& [name, table] : setup.inputs) {
    dfs.Put(name, table);
  }
  ServiceConfig config;
  config.num_workers = 2;
  config.default_options = BaseOptions();
  config.dispatch_latency = std::chrono::milliseconds(30);
  WorkflowService service(&dfs, config);

  constexpr int kSubmissions = 12;
  std::vector<WorkflowHandle> handles;
  for (int i = 0; i < kSubmissions; ++i) {
    handles.push_back(service.SubmitBlocking(setup.workflow));
    if (i % 2 == 1) {
      handles.back()->Cancel();
    }
  }
  service.Drain();
  uint64_t done = 0;
  uint64_t cancelled = 0;
  for (const WorkflowHandle& handle : handles) {
    ASSERT_TRUE(handle->terminal());
    if (handle->state() == WorkflowState::kCancelled) {
      EXPECT_EQ(handle->result().status().code(), StatusCode::kCancelled);
      ++cancelled;
    } else {
      ASSERT_EQ(handle->state(), WorkflowState::kDone)
          << handle->result().status();
      ++done;
    }
  }
  EXPECT_EQ(done + cancelled, static_cast<uint64_t>(kSubmissions));
  // Every odd submission was cancelled right after it was accepted; with a
  // 30 ms dispatch round-trip at least some of those must settle CANCELLED
  // (a cancel can lose the race only if the run already finished).
  EXPECT_GE(cancelled, 1u);
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, done);
  EXPECT_EQ(stats.cancelled, cancelled);
}

}  // namespace
}  // namespace musketeer
