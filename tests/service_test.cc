// Concurrency tests for the workflow service (src/service/): queue
// semantics, rejection policy, plan caching, and — the central claim — that
// N workflows run concurrently over one shared Dfs + HistoryStore produce
// exactly the results of N sequential runs (deterministic outputs, identical
// makespans, no lost history entries). Run under -fsanitize=thread via
// tools/check.sh to catch data races mechanically.

#include "src/service/service.h"

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/obs/metrics.h"
#include "src/service/plan_cache.h"
#include "src/workloads/datasets.h"
#include "src/workloads/workflows.h"

namespace musketeer {
namespace {

// ---- PlanCache -------------------------------------------------------------

WorkflowSpec JoinSpec() {
  return {.id = "svc-join",
          .language = FrontendLanguage::kBeer,
          .source = SimpleJoinBeer()};
}

TEST(PlanCacheTest, KeySeparatesIdSourceEnginesCluster) {
  WorkflowSpec a = JoinSpec();
  RunOptions opts;
  const std::string base = PlanCacheKey(a, opts);

  WorkflowSpec renamed = a;
  renamed.id = "other";
  EXPECT_NE(PlanCacheKey(renamed, opts), base);

  WorkflowSpec edited = a;
  edited.source += " ";
  EXPECT_NE(PlanCacheKey(edited, opts), base);

  RunOptions restricted = opts;
  restricted.engines = {EngineKind::kHadoop};
  EXPECT_NE(PlanCacheKey(a, restricted), base);

  RunOptions bigger = opts;
  bigger.cluster = Ec2Cluster(16);
  EXPECT_NE(PlanCacheKey(a, bigger), base);

  // Engine order must not matter.
  RunOptions ab = opts;
  ab.engines = {EngineKind::kHadoop, EngineKind::kSpark};
  RunOptions ba = opts;
  ba.engines = {EngineKind::kSpark, EngineKind::kHadoop};
  EXPECT_EQ(PlanCacheKey(a, ab), PlanCacheKey(a, ba));
}

TEST(PlanCacheTest, LruEvictionAndInvalidation) {
  PlanCache cache(2);
  auto plan = std::make_shared<const WorkflowPlan>();
  cache.Put("a\x1f" "1", plan);
  cache.Put("b\x1f" "1", plan);
  EXPECT_NE(cache.Get("a\x1f" "1"), nullptr);  // a now most recent
  cache.Put("c\x1f" "1", plan);                // evicts b
  EXPECT_EQ(cache.Get("b\x1f" "1"), nullptr);
  EXPECT_NE(cache.Get("a\x1f" "1"), nullptr);
  EXPECT_NE(cache.Get("c\x1f" "1"), nullptr);

  cache.Invalidate("a");
  EXPECT_EQ(cache.Get("a\x1f" "1"), nullptr);
  EXPECT_EQ(cache.size(), 1u);
}

// ---- Service fixtures ------------------------------------------------------

// Seeds `dfs` with inputs for the three workloads the tests mix: the simple
// JOIN (§2.1), top-shopper (§6.5) and a short PageRank (GAS).
void SeedDfs(Dfs* dfs) {
  GraphSpec spec;
  spec.name = "svc-graph";
  spec.nominal_vertices = 50000;
  spec.nominal_edges = 400000;
  spec.sample_vertices = 300;
  GraphDataset graph = MakePowerLawGraph(spec);
  dfs->Put("vertices_rel", graph.vertices);
  dfs->Put("edges_rel", graph.edges);
  dfs->Put("vertices", graph.vertices);
  dfs->Put("edges", graph.edges);
  dfs->Put("purchases", MakePurchases(/*nominal_rows=*/1e6, /*sample_rows=*/2000,
                                      /*num_regions=*/8, /*seed=*/3));
}

std::vector<WorkflowSpec> MixedSpecs() {
  return {
      JoinSpec(),
      {.id = "svc-topshopper",
       .language = FrontendLanguage::kBeer,
       .source = TopShopperBeer(/*region=*/2, /*threshold=*/50.0)},
      {.id = "svc-pagerank",
       .language = FrontendLanguage::kGas,
       .source = PageRankGas(/*iterations=*/2)},
  };
}

// ---- Rejection policy ------------------------------------------------------

TEST(WorkflowServiceTest, FullQueueRejectsDeterministically) {
  Dfs dfs;
  SeedDfs(&dfs);
  ServiceConfig config;
  config.num_workers = 1;
  config.queue_capacity = 2;
  config.manual_start = true;  // queue fills before anything drains
  WorkflowService service(&dfs, config);

  WorkflowHandle a = service.Submit(JoinSpec());
  WorkflowHandle b = service.Submit(JoinSpec());
  WorkflowHandle c = service.Submit(JoinSpec());
  EXPECT_EQ(a->state(), WorkflowState::kQueued);
  EXPECT_EQ(b->state(), WorkflowState::kQueued);
  EXPECT_EQ(c->state(), WorkflowState::kRejected);
  EXPECT_EQ(c->result().status().code(), StatusCode::kResourceExhausted);

  service.Start();
  service.Drain();  // the consistency point for stats (see Drain contract)
  EXPECT_EQ(a->state(), WorkflowState::kDone);
  EXPECT_EQ(b->state(), WorkflowState::kDone);

  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.completed, 2u);
}

TEST(WorkflowServiceTest, SubmitBlockingNeverRejects) {
  Dfs dfs;
  SeedDfs(&dfs);
  ServiceConfig config;
  config.num_workers = 2;
  config.queue_capacity = 1;  // every submission fights for one slot
  WorkflowService service(&dfs, config);

  std::vector<WorkflowHandle> handles;
  for (int i = 0; i < 8; ++i) {
    handles.push_back(service.SubmitBlocking(JoinSpec()));
  }
  service.Drain();
  for (const WorkflowHandle& h : handles) {
    EXPECT_EQ(h->state(), WorkflowState::kDone) << h->result().status();
  }
  EXPECT_EQ(service.stats().rejected, 0u);
}

TEST(WorkflowServiceTest, FailedWorkflowCarriesPipelineError) {
  Dfs dfs;
  SeedDfs(&dfs);
  ServiceConfig config;
  config.num_workers = 1;
  WorkflowService service(&dfs, config);
  WorkflowHandle h = service.Submit(
      {.id = "bad", .language = FrontendLanguage::kBeer, .source = "syntax !!"});
  h->Wait();
  EXPECT_EQ(h->state(), WorkflowState::kFailed);
  EXPECT_FALSE(h->result().ok());
}

// The DoneCallback runs on the worker before the ticket turns DONE, with the
// result the ticket then holds, and not at all for a failed run.
TEST(WorkflowServiceTest, DoneCallbackRunsBeforeDoneOnlyOnSuccess) {
  Dfs dfs;
  SeedDfs(&dfs);
  ServiceConfig config;
  config.num_workers = 1;
  WorkflowService service(&dfs, config);
  std::atomic<int> calls{0};
  bool terminal_at_call = true;  // written by the worker before DONE
  size_t outputs_at_call = 0;
  DoneCallback on_done = [&](const WorkflowTicket& ticket,
                             const RunResult& result, bool) {
    ++calls;
    terminal_at_call = ticket.terminal();
    outputs_at_call = result.outputs.size();
  };
  WorkflowHandle ok = service.SubmitAs("", JoinSpec(),
                                       service.default_options(), on_done);
  ok->Wait();
  ASSERT_EQ(ok->state(), WorkflowState::kDone);
  EXPECT_EQ(calls.load(), 1);
  EXPECT_FALSE(terminal_at_call);
  EXPECT_EQ(outputs_at_call, ok->result()->outputs.size());

  WorkflowHandle bad = service.SubmitAs(
      "",
      {.id = "bad", .language = FrontendLanguage::kBeer, .source = "syntax !!"},
      service.default_options(), on_done);
  bad->Wait();
  EXPECT_EQ(bad->state(), WorkflowState::kFailed);
  EXPECT_EQ(calls.load(), 1);
}

// ---- The central concurrency-correctness claim -----------------------------

TEST(WorkflowServiceTest, ConcurrentMatchesSequential) {
  constexpr int kCopies = 4;  // each workflow submitted this many times

  Dfs dfs;
  SeedDfs(&dfs);
  HistoryStore history;
  RunOptions options;
  options.history = &history;
  std::vector<WorkflowSpec> specs = MixedSpecs();

  // Full history first (the paper's profiling run) so every subsequent run
  // — sequential or concurrent — plans from identical cost-model inputs.
  Musketeer m(&dfs);
  for (const WorkflowSpec& spec : specs) {
    ASSERT_TRUE(m.ProfileWorkflow(spec, options, &history).ok()) << spec.id;
  }

  // Sequential baseline.
  struct Baseline {
    SimSeconds makespan = 0;
    TableMap outputs;
    int history_entries = 0;
    Bytes dfs_bytes_read = 0;
    Bytes dfs_bytes_written = 0;
  };
  std::unordered_map<std::string, Baseline> baselines;
  for (const WorkflowSpec& spec : specs) {
    auto result = m.Run(spec, options);
    ASSERT_TRUE(result.ok()) << result.status();
    baselines[spec.id] =
        Baseline{result->makespan, result->outputs,
                 history.EntriesFor(spec.id), result->dfs_bytes_read,
                 result->dfs_bytes_written};
  }

  // Concurrent: every spec × kCopies racing over the same Dfs + history.
  ServiceConfig config;
  config.num_workers = 8;
  config.queue_capacity = 64;
  config.default_options = options;
  WorkflowService service(&dfs, config);

  std::vector<WorkflowHandle> handles;
  for (int copy = 0; copy < kCopies; ++copy) {
    for (const WorkflowSpec& spec : specs) {
      handles.push_back(service.Submit(spec));
    }
  }
  service.Drain();

  for (const WorkflowHandle& h : handles) {
    ASSERT_EQ(h->state(), WorkflowState::kDone) << h->result().status();
    const Baseline& want = baselines.at(h->spec().id);
    const RunResult& got = *h->result();
    // Identical makespans: simulated time must not depend on interleaving.
    EXPECT_DOUBLE_EQ(got.makespan, want.makespan) << h->spec().id;
    // Exact per-run DFS byte attribution even while other workflows move
    // bytes concurrently (sums of the run's own JobResults).
    EXPECT_DOUBLE_EQ(got.dfs_bytes_read, want.dfs_bytes_read) << h->spec().id;
    EXPECT_DOUBLE_EQ(got.dfs_bytes_written, want.dfs_bytes_written)
        << h->spec().id;
    // Deterministic outputs.
    ASSERT_EQ(got.outputs.size(), want.outputs.size()) << h->spec().id;
    for (const auto& [name, table] : want.outputs) {
      auto it = got.outputs.find(name);
      ASSERT_NE(it, got.outputs.end()) << name;
      EXPECT_TRUE(Table::SameContent(*it->second, *table)) << name;
    }
  }
  // No lost history entries: concurrent Records landed and changed nothing.
  for (const WorkflowSpec& spec : specs) {
    EXPECT_EQ(history.EntriesFor(spec.id), baselines.at(spec.id).history_entries)
        << spec.id;
  }

  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, handles.size());
  EXPECT_EQ(stats.completed, handles.size());
  EXPECT_EQ(stats.failed, 0u);
}

// ---- Plan cache integration ------------------------------------------------

TEST(WorkflowServiceTest, RepeatedSubmissionHitsPlanCache) {
  Dfs dfs;
  SeedDfs(&dfs);
  ServiceConfig config;
  config.num_workers = 1;  // serialize: second submission sees the cache
  WorkflowService service(&dfs, config);

  WorkflowHandle first = service.Submit(JoinSpec());
  first->Wait();
  WorkflowHandle second = service.Submit(JoinSpec());
  second->Wait();

  ASSERT_EQ(first->state(), WorkflowState::kDone);
  ASSERT_EQ(second->state(), WorkflowState::kDone);
  EXPECT_FALSE(first->plan_cache_hit());
  EXPECT_TRUE(second->plan_cache_hit());
  // The cached plan replays to the same answer.
  EXPECT_DOUBLE_EQ(first->result()->makespan, second->result()->makespan);
  EXPECT_EQ(second->result()->plans.size(), first->result()->plans.size());
  EXPECT_GE(service.stats().plan_cache_hits, 1u);
}

TEST(WorkflowServiceTest, PlanCacheEvictionUnderTinyCapacity) {
  Dfs dfs;
  SeedDfs(&dfs);
  ServiceConfig config;
  config.num_workers = 1;  // serialize: eviction order is deterministic
  config.plan_cache_capacity = 2;
  WorkflowService service(&dfs, config);

  std::vector<WorkflowSpec> specs = MixedSpecs();  // 3 distinct cache keys
  ASSERT_EQ(specs.size(), 3u);

  // A, B, C fill the 2-entry cache; C evicts A (LRU).
  for (const WorkflowSpec& spec : specs) {
    WorkflowHandle h = service.Submit(spec);
    h->Wait();
    ASSERT_EQ(h->state(), WorkflowState::kDone) << h->result().status();
    EXPECT_FALSE(h->plan_cache_hit()) << spec.id;
  }
  // A was evicted: resubmission misses (and evicts B).
  WorkflowHandle a = service.Submit(specs[0]);
  a->Wait();
  EXPECT_FALSE(a->plan_cache_hit());
  // C is still resident: resubmission hits.
  WorkflowHandle c = service.Submit(specs[2]);
  c->Wait();
  EXPECT_TRUE(c->plan_cache_hit());

  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.plan_cache_hits, 1u);
  EXPECT_EQ(stats.plan_cache_misses, 4u);
}

// Cache-hit accounting under concurrent submissions: the hit/miss metric
// counters, the ServiceStats counters, and the per-ticket plan_cache_hit
// flags must all tell the same story.
TEST(WorkflowServiceTest, CacheMetricsAgreeWithTicketsUnderConcurrency) {
  Dfs dfs;
  SeedDfs(&dfs);
  ServiceConfig config;
  config.num_workers = 4;
  config.queue_capacity = 64;
  WorkflowService service(&dfs, config);

  Counter& hit_metric =
      MetricsRegistry::Global().counter("musketeer.service.plan_cache.hit");
  Counter& miss_metric =
      MetricsRegistry::Global().counter("musketeer.service.plan_cache.miss");
  const uint64_t hits_before = hit_metric.Value();
  const uint64_t misses_before = miss_metric.Value();

  constexpr int kCopies = 6;
  std::vector<WorkflowSpec> specs = MixedSpecs();
  std::vector<WorkflowHandle> handles;
  for (int copy = 0; copy < kCopies; ++copy) {
    for (const WorkflowSpec& spec : specs) {
      handles.push_back(service.SubmitBlocking(spec));
    }
  }
  service.Drain();

  uint64_t ticket_hits = 0;
  for (const WorkflowHandle& h : handles) {
    ASSERT_EQ(h->state(), WorkflowState::kDone) << h->result().status();
    if (h->plan_cache_hit()) {
      ++ticket_hits;
    }
  }
  ServiceStats stats = service.stats();
  // Every submission consulted the cache exactly once.
  EXPECT_EQ(stats.plan_cache_hits + stats.plan_cache_misses, handles.size());
  // Racing workers may each miss on the same key before the first Put, so
  // misses can exceed the number of distinct keys — but ticket flags must
  // agree exactly with the cache's own counters and the exported metrics.
  EXPECT_EQ(stats.plan_cache_hits, ticket_hits);
  EXPECT_EQ(hit_metric.Value() - hits_before, stats.plan_cache_hits);
  EXPECT_EQ(miss_metric.Value() - misses_before, stats.plan_cache_misses);
  // With 6 copies of each spec there must be real reuse.
  EXPECT_GE(stats.plan_cache_hits, static_cast<uint64_t>(specs.size()));
}

TEST(WorkflowServiceTest, PlanCacheDisabledNeverHits) {
  Dfs dfs;
  SeedDfs(&dfs);
  ServiceConfig config;
  config.num_workers = 1;
  config.plan_cache_capacity = 0;
  WorkflowService service(&dfs, config);
  for (int i = 0; i < 3; ++i) {
    service.Submit(JoinSpec())->Wait();
  }
  EXPECT_EQ(service.stats().plan_cache_hits, 0u);
}

// ---- Multi-tenant submission storm -----------------------------------------

TEST(WorkflowServiceTest, ConcurrentSubmittersAllAccountedFor) {
  constexpr int kThreads = 6;
  constexpr int kPerThread = 5;

  Dfs dfs;
  SeedDfs(&dfs);
  HistoryStore history;
  ServiceConfig config;
  config.num_workers = 4;
  config.queue_capacity = kThreads * kPerThread;
  config.default_options.history = &history;
  WorkflowService service(&dfs, config);

  std::vector<WorkflowSpec> specs = MixedSpecs();
  std::vector<std::thread> submitters;
  std::mutex handles_mu;
  std::vector<WorkflowHandle> handles;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        WorkflowHandle h =
            service.SubmitBlocking(specs[(t + i) % specs.size()]);
        std::lock_guard lock(handles_mu);
        handles.push_back(std::move(h));
      }
    });
  }
  for (auto& t : submitters) t.join();
  service.Drain();

  for (const WorkflowHandle& h : handles) {
    EXPECT_EQ(h->state(), WorkflowState::kDone) << h->result().status();
    EXPECT_GE(h->total_seconds(), h->queue_seconds());
  }
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(stats.completed + stats.failed, stats.submitted);
  EXPECT_EQ(stats.failed, 0u);
}

// ---- FairQueue -------------------------------------------------------------

TEST(FairQueueTest, SingleLaneDegeneratesToFifo) {
  FairQueue<int> q(8);
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(q.TryPush("", i), AdmitResult::kOk);
  }
  for (int i = 0; i < 5; ++i) {
    auto popped = q.Pop();
    ASSERT_TRUE(popped.has_value());
    EXPECT_EQ(popped->tenant, "");
    EXPECT_EQ(popped->item, i);
    q.OnFinished(popped->tenant);
  }
}

TEST(FairQueueTest, WeightedInterleavingMatchesStride) {
  FairQueue<int> q(32);
  q.SetQuota("a", {.weight = 2});
  q.SetQuota("b", {.weight = 1});
  for (int i = 0; i < 6; ++i) {
    ASSERT_EQ(q.TryPush("a", i), AdmitResult::kOk);
    ASSERT_EQ(q.TryPush("b", 100 + i), AdmitResult::kOk);
  }
  // Over any window the 2:1 weights must show as a 2:1 dequeue ratio.
  int from_a = 0;
  for (int i = 0; i < 9; ++i) {
    auto popped = q.Pop();
    ASSERT_TRUE(popped.has_value());
    if (popped->tenant == "a") ++from_a;
    q.OnFinished(popped->tenant);
  }
  EXPECT_EQ(from_a, 6);  // 6 of 9 = exactly the 2:1 share
}

TEST(FairQueueTest, PerTenantMaxQueuedRejectsOnlyThatTenant) {
  FairQueue<int> q(8);
  q.SetQuota("a", {.max_queued = 2});
  EXPECT_EQ(q.TryPush("a", 1), AdmitResult::kOk);
  EXPECT_EQ(q.TryPush("a", 2), AdmitResult::kOk);
  EXPECT_EQ(q.TryPush("a", 3), AdmitResult::kTenantOverQuota);
  EXPECT_EQ(q.TryPush("b", 4), AdmitResult::kOk);  // others unaffected
  EXPECT_EQ(q.QueuedFor("a"), 2u);

  // Global capacity exhaustion reports kQueueFull, not over-quota, and a
  // pop frees the slot again.
  FairQueue<int> tiny(1);
  EXPECT_EQ(tiny.TryPush("x", 1), AdmitResult::kOk);
  EXPECT_EQ(tiny.TryPush("y", 2), AdmitResult::kQueueFull);
  auto popped = tiny.Pop();
  ASSERT_TRUE(popped.has_value());
  tiny.OnFinished(popped->tenant);
  EXPECT_EQ(tiny.TryPush("y", 2), AdmitResult::kOk);
}

TEST(FairQueueTest, CloseDrainsThenStops) {
  FairQueue<int> q(4);
  ASSERT_EQ(q.TryPush("a", 7), AdmitResult::kOk);
  q.Close();
  EXPECT_EQ(q.TryPush("a", 8), AdmitResult::kClosed);  // rejects producers
  EXPECT_EQ(q.Push("b", 9), AdmitResult::kClosed);
  auto popped = q.Pop();  // accepted work still drains
  ASSERT_TRUE(popped.has_value());
  EXPECT_EQ(popped->item, 7);
  q.OnFinished(popped->tenant);
  EXPECT_EQ(q.Pop(), std::nullopt);  // then signals exhaustion
}

// Blocking producers (one tenant each) and consumers over a small shared
// capacity: nothing lost, nothing duplicated, nobody hangs.
TEST(FairQueueTest, ConcurrentProducersConsumers) {
  constexpr int kPerProducer = 200;
  constexpr int kProducers = 4;
  FairQueue<int> q(8);
  std::atomic<int> sum{0};
  std::atomic<int> popped{0};

  std::vector<std::thread> consumers;
  for (int c = 0; c < 3; ++c) {
    consumers.emplace_back([&] {
      while (auto v = q.Pop()) {
        sum.fetch_add(v->item);
        popped.fetch_add(1);
        q.OnFinished(v->tenant);
      }
    });
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      const std::string tenant = "t" + std::to_string(p);
      for (int i = 1; i <= kPerProducer; ++i) {
        ASSERT_EQ(q.Push(tenant, i), AdmitResult::kOk);
      }
    });
  }
  for (auto& t : producers) t.join();
  q.Close();
  for (auto& t : consumers) t.join();

  EXPECT_EQ(popped.load(), kProducers * kPerProducer);
  EXPECT_EQ(sum.load(), kProducers * kPerProducer * (kPerProducer + 1) / 2);
}

// Blocking producers racing Close(): every Push() must return a definite
// verdict (kOk = the item will drain, kClosed = rejected at close), no item
// may be lost or duplicated, and nobody may hang.
TEST(FairQueueTest, BlockingPushRacesClose) {
  FairQueue<int> q(1);
  ASSERT_EQ(q.TryPush("seed", 0), AdmitResult::kOk);  // producers start blocked

  constexpr int kProducers = 4;
  constexpr int kPerProducer = 50;
  std::atomic<int> accepted{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, &accepted, p] {
      const std::string tenant = "t" + std::to_string(p);
      for (int i = 0; i < kPerProducer; ++i) {
        if (q.Push(tenant, 1) != AdmitResult::kOk) {
          return;  // closed: every later Push would also fail
        }
        accepted.fetch_add(1);
      }
    });
  }
  std::atomic<int> popped{0};
  std::thread consumer([&] {
    while (auto v = q.Pop()) {
      popped.fetch_add(1);
      q.OnFinished(v->tenant);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.Close();
  for (auto& t : producers) t.join();
  consumer.join();
  EXPECT_EQ(popped.load(), accepted.load() + 1);  // +1 for the seed item
  EXPECT_EQ(q.Pop(), std::nullopt);               // drained and closed
}

TEST(FairQueueTest, MaxInFlightHoldsItemsBackWithoutRejecting) {
  FairQueue<int> q(8);
  q.SetQuota("a", {.max_in_flight = 1});
  ASSERT_EQ(q.TryPush("a", 1), AdmitResult::kOk);
  ASSERT_EQ(q.TryPush("a", 2), AdmitResult::kOk);
  ASSERT_EQ(q.TryPush("b", 3), AdmitResult::kOk);

  auto first = q.Pop();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->tenant, "a");
  EXPECT_EQ(q.InFlightFor("a"), 1);
  // "a" is at its in-flight cap: its second item is held back, "b" is served
  // around it.
  auto second = q.Pop();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->tenant, "b");
  q.OnFinished("a");  // frees the slot: "a" becomes eligible again
  auto third = q.Pop();
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(third->tenant, "a");
  EXPECT_EQ(third->item, 2);
  q.OnFinished("b");
  q.OnFinished("a");
  q.Close();
  EXPECT_EQ(q.Pop(), std::nullopt);
}

// ---- Tenant admission + fair scheduling through the service ----------------

TEST(WorkflowServiceTest, TenantOverQuotaRejectsWithoutTouchingOthers) {
  Dfs dfs;
  SeedDfs(&dfs);
  ServiceConfig config;
  config.num_workers = 1;
  config.queue_capacity = 8;
  config.manual_start = true;  // queue fills before anything drains
  config.tenant_quotas = {{"alice", TenantQuota{.max_queued = 1}}};
  WorkflowService service(&dfs, config);

  WorkflowHandle a1 = service.SubmitAs("alice", JoinSpec());
  WorkflowHandle a2 = service.SubmitAs("alice", JoinSpec());
  WorkflowHandle b1 = service.SubmitAs("bob", JoinSpec());
  EXPECT_EQ(a1->state(), WorkflowState::kQueued);
  EXPECT_EQ(a2->state(), WorkflowState::kRejected);
  EXPECT_EQ(a2->reject_reason(), RejectReason::kTenantOverQuota);
  EXPECT_EQ(b1->state(), WorkflowState::kQueued);

  service.Start();
  service.Drain();
  EXPECT_EQ(a1->state(), WorkflowState::kDone);
  EXPECT_EQ(b1->state(), WorkflowState::kDone);

  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.tenants.at("alice").submitted, 1u);
  EXPECT_EQ(stats.tenants.at("alice").rejected, 1u);
  EXPECT_EQ(stats.tenants.at("alice").completed, 1u);
  EXPECT_EQ(stats.tenants.at("bob").submitted, 1u);
  EXPECT_EQ(stats.tenants.at("bob").rejected, 0u);
  EXPECT_EQ(stats.tenants.at("bob").completed, 1u);
}

TEST(WorkflowServiceTest, CancelWhileQueuedUnderFairScheduler) {
  Dfs dfs;
  SeedDfs(&dfs);
  ServiceConfig config;
  config.num_workers = 1;
  config.queue_capacity = 8;
  config.manual_start = true;
  config.tenant_quotas = {{"alice", TenantQuota{.weight = 2}},
                          {"bob", TenantQuota{.weight = 1}}};
  WorkflowService service(&dfs, config);

  WorkflowHandle a1 = service.SubmitAs("alice", JoinSpec());
  WorkflowHandle a2 = service.SubmitAs("alice", JoinSpec());
  WorkflowHandle b1 = service.SubmitAs("bob", JoinSpec());
  WorkflowHandle b2 = service.SubmitAs("bob", JoinSpec());
  a2->Cancel();  // cancelled while QUEUED, settles at worker pickup
  b2->Cancel();

  service.Start();
  service.Drain();
  EXPECT_EQ(a1->state(), WorkflowState::kDone) << a1->result().status();
  EXPECT_EQ(b1->state(), WorkflowState::kDone) << b1->result().status();
  EXPECT_EQ(a2->state(), WorkflowState::kCancelled);
  EXPECT_EQ(b2->state(), WorkflowState::kCancelled);
  EXPECT_EQ(a2->result().status().code(), StatusCode::kCancelled);

  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.tenants.at("alice").cancelled, 1u);
  EXPECT_EQ(stats.tenants.at("bob").cancelled, 1u);
  EXPECT_EQ(stats.cancelled, 2u);
}

// SubmitBlocking racing Shutdown: every submission must settle with a
// definite verdict — DONE for accepted work (Shutdown finishes the queue),
// REJECTED/kShutdown for producers still blocked when the queue closed.
// Nothing may hang or leak. Run under TSan via tools/check.sh.
TEST(WorkflowServiceTest, SubmitBlockingRacesShutdown) {
  Dfs dfs;
  SeedDfs(&dfs);
  ServiceConfig config;
  config.num_workers = 1;
  config.queue_capacity = 1;  // keeps producers blocked when Shutdown lands
  config.dispatch_latency = std::chrono::milliseconds(2);
  WorkflowService service(&dfs, config);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 3;
  std::mutex handles_mu;
  std::vector<WorkflowHandle> handles;
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        WorkflowHandle h = service.SubmitBlocking(JoinSpec());
        std::lock_guard lock(handles_mu);
        handles.push_back(std::move(h));
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  service.Shutdown();
  for (auto& t : submitters) t.join();

  ASSERT_EQ(handles.size(), static_cast<size_t>(kThreads * kPerThread));
  uint64_t done = 0, rejected = 0;
  for (const WorkflowHandle& h : handles) {
    ASSERT_TRUE(h->terminal());  // nothing left hanging
    if (h->state() == WorkflowState::kDone) {
      ++done;
    } else {
      ASSERT_EQ(h->state(), WorkflowState::kRejected);
      EXPECT_EQ(h->reject_reason(), RejectReason::kShutdown);
      ++rejected;
    }
  }
  EXPECT_EQ(done + rejected, handles.size());
  EXPECT_GE(done, 1u);  // the seed submission at least ran
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, done);
  EXPECT_EQ(stats.rejected, rejected);
}

// ---- Shared-state primitives under contention ------------------------------

TEST(SharedStateTest, DfsConcurrentReadersWritersAndCounters) {
  Dfs dfs;
  SeedDfs(&dfs);
  constexpr int kThreads = 8;
  constexpr int kOps = 300;

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOps; ++i) {
        const std::string name = "rel-" + std::to_string(t);
        auto table = std::make_shared<Table>();
        dfs.Put(name, table);
        EXPECT_TRUE(dfs.Contains(name));
        EXPECT_TRUE(dfs.Get(name).ok());
        (void)dfs.ListRelations();
      }
    });
  }
  for (auto& t : threads) t.join();
}

TEST(SharedStateTest, HistoryStoreConcurrentRecordLookup) {
  HistoryStore history;
  constexpr int kThreads = 8;
  constexpr int kRelations = 100;

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::string wf = "wf-" + std::to_string(t % 2);  // contended
      for (int i = 0; i < kRelations; ++i) {
        history.Record(wf, "rel-" + std::to_string(i), i * 10.0);
        auto got = history.Lookup(wf, "rel-" + std::to_string(i));
        ASSERT_TRUE(got.has_value());
        EXPECT_DOUBLE_EQ(*got, i * 10.0);
      }
      (void)history.EntriesFor(wf);
      HistoryStore partial = history.WithPartialKnowledge(0.5);
      EXPECT_LE(partial.EntriesFor(wf), kRelations);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(history.EntriesFor("wf-0"), kRelations);
  EXPECT_EQ(history.EntriesFor("wf-1"), kRelations);
}

}  // namespace
}  // namespace musketeer
