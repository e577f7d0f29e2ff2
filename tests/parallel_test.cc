// Tests for the shared parallel execution layer: task-pool semantics,
// thread-count configuration, and the determinism contract — every parallel
// relational kernel and the parallel exhaustive partitioner must produce
// bit-identical results at any thread count.

#include "src/base/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/frontends/frontend.h"
#include "src/relational/ops.h"
#include "src/scheduler/partition_strategy.h"

namespace musketeer {
namespace {

// ---------------------------------------------------------------------------
// Thread configuration.
// ---------------------------------------------------------------------------

TEST(ParallelConfigTest, ScopedOverrideRestores) {
  const int base = ParallelThreads();
  {
    ScopedParallelThreads four(4);
    EXPECT_EQ(ParallelThreads(), 4);
    {
      ScopedParallelThreads one(1);
      EXPECT_EQ(ParallelThreads(), 1);
    }
    EXPECT_EQ(ParallelThreads(), 4);
  }
  EXPECT_EQ(ParallelThreads(), base);
}

TEST(ParallelConfigTest, OverrideIsThreadLocal) {
  int default_width = 0;
  std::thread probe([&] { default_width = ParallelThreads(); });
  probe.join();

  ScopedParallelThreads override_here(default_width + 3);
  int seen_in_thread = 0;
  std::thread t([&] { seen_in_thread = ParallelThreads(); });
  t.join();
  // A fresh thread sees the process default, not this thread's override.
  EXPECT_EQ(seen_in_thread, default_width);
  EXPECT_EQ(ParallelThreads(), default_width + 3);
}

TEST(ParallelConfigTest, ClampsToOne) {
  ScopedParallelThreads zero(0);
  EXPECT_GE(ParallelThreads(), 1);
}

TEST(ParallelConfigTest, HardwareThreadsPositive) {
  EXPECT_GE(HardwareThreads(), 1);
}

// ---------------------------------------------------------------------------
// Task pool.
// ---------------------------------------------------------------------------

TEST(TaskPoolTest, RunsEveryTaskExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  TaskPool::Global().Run(hits.size(), 8,
                         [&](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(TaskPoolTest, SequentialFastPathWithOneThread) {
  std::vector<int> hits(64, 0);  // unsynchronized: must be run by the caller
  TaskPool::Global().Run(hits.size(), 1, [&](size_t i) { hits[i] += 1; });
  for (int h : hits) {
    EXPECT_EQ(h, 1);
  }
}

TEST(TaskPoolTest, NestedRunDoesNotDeadlock) {
  std::atomic<int> total{0};
  TaskPool::Global().Run(4, 4, [&](size_t) {
    TaskPool::Global().Run(4, 4, [&](size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 16);
}

TEST(TaskPoolTest, ConcurrentRunsFromManyThreads) {
  constexpr int kSubmitters = 6;
  constexpr int kTasksEach = 200;
  std::atomic<int> total{0};
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&] {
      TaskPool::Global().Run(kTasksEach, 4,
                             [&](size_t) { total.fetch_add(1); });
    });
  }
  for (auto& t : submitters) {
    t.join();
  }
  EXPECT_EQ(total.load(), kSubmitters * kTasksEach);
}

TEST(TaskPoolTest, ZeroTasksReturnsImmediately) {
  bool ran = false;
  TaskPool::Global().Run(0, 8, [&](size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

// ---------------------------------------------------------------------------
// Chunked parallel-for.
// ---------------------------------------------------------------------------

TEST(ParallelChunksTest, ChunkBoundariesIndependentOfThreads) {
  const size_t n = 3 * kMorselRows + 7;
  auto bounds_at = [&](int threads) {
    ScopedParallelThreads width(threads);
    std::vector<std::pair<size_t, size_t>> bounds(NumChunks(n, kMorselRows));
    ParallelChunks(n, kMorselRows, [&](size_t c, size_t b, size_t e) {
      bounds[c] = {b, e};
    });
    return bounds;
  };
  EXPECT_EQ(bounds_at(1), bounds_at(7));
  auto bounds = bounds_at(4);
  ASSERT_EQ(bounds.size(), 4u);
  EXPECT_EQ(bounds[0], (std::pair<size_t, size_t>{0, kMorselRows}));
  EXPECT_EQ(bounds[3],
            (std::pair<size_t, size_t>{3 * kMorselRows, 3 * kMorselRows + 7}));
}

TEST(ParallelChunksTest, CoversEveryIndex) {
  const size_t n = 2 * kMorselRows + 100;
  std::vector<std::atomic<int>> hits(n);
  ScopedParallelThreads width(8);
  ParallelChunks(n, kMorselRows, [&](size_t, size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) {
      hits[i].fetch_add(1);
    }
  });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelMapChunksTest, CollectsInChunkOrder) {
  ScopedParallelThreads width(8);
  std::vector<size_t> firsts = ParallelMapChunks<size_t>(
      100, 10, [](size_t, size_t begin, size_t) { return begin; });
  ASSERT_EQ(firsts.size(), 10u);
  for (size_t c = 0; c < firsts.size(); ++c) {
    EXPECT_EQ(firsts[c], c * 10);
  }
}

// ---------------------------------------------------------------------------
// Kernel bit-identity: every parallel relational kernel must produce output
// identical (row order, bit-for-bit doubles) to its 1-thread execution.
// ---------------------------------------------------------------------------

// Pseudo-random but deterministic table spanning several morsels, with
// repeated keys (for joins/grouping) and doubles whose summation order
// would show in the last bits if the merge tree were thread-dependent.
Table BigTable(size_t rows) {
  Schema schema({{"k", FieldType::kInt64},
                 {"v", FieldType::kInt64},
                 {"x", FieldType::kDouble}});
  Table t(schema);
  t.Reserve(rows);
  uint64_t state = 42;
  for (size_t i = 0; i < rows; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    int64_t k = static_cast<int64_t>(state >> 33) % 97;
    int64_t v = static_cast<int64_t>(state >> 17) % 1000;
    double x = static_cast<double>(static_cast<int64_t>(state % 100003)) / 7.0;
    t.AddRow({k, v, x});
  }
  return t;
}

constexpr size_t kBigRows = 3 * kMorselRows + 17;

template <typename Fn>
void ExpectBitIdenticalAcrossThreads(const Fn& run) {
  Table sequential = [&] {
    ScopedParallelThreads one(1);
    return run();
  }();
  for (int threads : {2, 4, 7}) {
    ScopedParallelThreads width(threads);
    Table parallel = run();
    EXPECT_TRUE(Table::Identical(sequential, parallel))
        << "output differs from sequential at " << threads << " threads";
  }
}

TEST(KernelBitIdentityTest, Select) {
  Table in = BigTable(kBigRows);
  ExpectBitIdenticalAcrossThreads([&] {
    return SelectRowsMask(
        in, [](const Table& t, size_t begin, size_t end, uint8_t* mask) {
          const std::vector<int64_t>& v = t.col(1).ints();
          for (size_t i = begin; i < end; ++i) {
            mask[i - begin] = v[i] % 3 == 0 ? 1 : 0;
          }
        });
  });
}

TEST(KernelBitIdentityTest, Project) {
  Table in = BigTable(kBigRows);
  ExpectBitIdenticalAcrossThreads(
      [&] { return std::move(ProjectColumns(in, {2, 0})).value(); });
}

TEST(KernelBitIdentityTest, Map) {
  Table in = BigTable(kBigRows);
  Schema out_schema({{"y", FieldType::kDouble}});
  std::vector<BatchEval> exprs{
      [](const Table& t, size_t begin, size_t end) {
        Column y(FieldType::kDouble);
        const std::vector<double>& x = t.col(2).doubles();
        for (size_t i = begin; i < end; ++i) {
          y.mutable_doubles()->push_back(x[i] * 3.0 + 1.0);
        }
        return y;
      }};
  ExpectBitIdenticalAcrossThreads(
      [&] { return MapRowsBatch(in, out_schema, exprs); });
}

TEST(KernelBitIdentityTest, HashJoin) {
  Table left = BigTable(kBigRows);
  Table right = BigTable(kMorselRows + 31);
  ExpectBitIdenticalAcrossThreads(
      [&] { return std::move(HashJoin(left, right, 0, 0)).value(); });
}

TEST(KernelBitIdentityTest, CrossJoin) {
  Table left = BigTable(300);
  Table right = BigTable(70);
  ExpectBitIdenticalAcrossThreads([&] { return CrossJoin(left, right); });
}

TEST(KernelBitIdentityTest, UnionAll) {
  Table a = BigTable(kBigRows);
  Table b = BigTable(kMorselRows + 3);
  ExpectBitIdenticalAcrossThreads(
      [&] { return std::move(UnionAll(a, b)).value(); });
}

TEST(KernelBitIdentityTest, IntersectAndDifference) {
  Table a = BigTable(kBigRows);
  Table b = BigTable(kMorselRows);
  ExpectBitIdenticalAcrossThreads(
      [&] { return std::move(Intersect(a, b)).value(); });
  ExpectBitIdenticalAcrossThreads(
      [&] { return std::move(Difference(a, b)).value(); });
}

TEST(KernelBitIdentityTest, Distinct) {
  Table in = BigTable(kBigRows);
  ExpectBitIdenticalAcrossThreads([&] { return Distinct(in); });
}

TEST(KernelBitIdentityTest, GroupByAllAggs) {
  Table in = BigTable(kBigRows);
  std::vector<AggSpec> aggs{{AggFn::kSum, 2, "sx"},
                            {AggFn::kAvg, 2, "ax"},
                            {AggFn::kMin, 1, "mn"},
                            {AggFn::kMax, 1, "mx"},
                            {AggFn::kCount, 0, "c"}};
  ExpectBitIdenticalAcrossThreads(
      [&] { return std::move(GroupByAgg(in, {0}, aggs)).value(); });
}

TEST(KernelBitIdentityTest, GlobalAgg) {
  Table in = BigTable(kBigRows);
  std::vector<AggSpec> aggs{{AggFn::kSum, 2, "sx"}, {AggFn::kAvg, 2, "ax"}};
  ExpectBitIdenticalAcrossThreads(
      [&] { return std::move(GroupByAgg(in, {}, aggs)).value(); });
}

TEST(KernelBitIdentityTest, ExtremeRow) {
  Table in = BigTable(kBigRows);
  ExpectBitIdenticalAcrossThreads(
      [&] { return std::move(ExtremeRow(in, 2, /*take_max=*/true)).value(); });
  ExpectBitIdenticalAcrossThreads(
      [&] { return std::move(ExtremeRow(in, 2, /*take_max=*/false)).value(); });
}

TEST(KernelBitIdentityTest, SortAndTopN) {
  Table in = BigTable(kBigRows);
  // Sort on a low-cardinality key: stability across equal keys is the part
  // a non-deterministic parallel sort would break.
  ExpectBitIdenticalAcrossThreads([&] { return SortBy(in, {0}); });
  ExpectBitIdenticalAcrossThreads([&] { return TopNBy(in, 2, 100); });
}

// ---------------------------------------------------------------------------
// Parallel exhaustive partitioner: identical chosen partitioning.
// ---------------------------------------------------------------------------

std::unique_ptr<Dag> PartitionTestDag() {
  auto dag = ParseWorkflow(FrontendLanguage::kBeer, R"(
    locs = SELECT id, street, town FROM properties;
    id_price = JOIN locs, prices ON locs.id = prices.id;
    street_price = AGG MAX(price) AS max_price FROM id_price
                   GROUP BY street, town;
    top = SELECT street, town FROM street_price;
  )");
  EXPECT_TRUE(dag.ok()) << dag.status();
  return std::move(dag).value();
}

TEST(ParallelPartitionerTest, IdenticalToSequentialSearch) {
  auto dag = PartitionTestDag();
  CostModel model(LocalCluster(), nullptr, "wf");
  auto sizes = model.PredictSizes(
      *dag, {{"properties", 4 * kGB}, {"prices", 2 * kGB}});
  ASSERT_TRUE(sizes.ok()) << sizes.status();

  auto sequential = [&] {
    ScopedParallelThreads one(1);
    return PartitionWorkflow(*dag, model, *sizes,
                             {.strategy = PartitionStrategyKind::kExhaustive});
  }();
  ASSERT_TRUE(sequential.ok()) << sequential.status();

  for (int threads : {2, 4, 8}) {
    ScopedParallelThreads width(threads);
    auto parallel = PartitionWorkflow(
        *dag, model, *sizes, {.strategy = PartitionStrategyKind::kExhaustive});
    ASSERT_TRUE(parallel.ok()) << parallel.status();
    EXPECT_DOUBLE_EQ(parallel->total_cost, sequential->total_cost);
    ASSERT_EQ(parallel->jobs.size(), sequential->jobs.size());
    for (size_t j = 0; j < parallel->jobs.size(); ++j) {
      EXPECT_EQ(parallel->jobs[j].ops, sequential->jobs[j].ops);
      EXPECT_EQ(parallel->jobs[j].engine, sequential->jobs[j].engine);
      EXPECT_DOUBLE_EQ(parallel->jobs[j].cost, sequential->jobs[j].cost);
    }
  }
}

TEST(ParallelPartitionerTest, RestrictedEnginesStillIdentical) {
  auto dag = PartitionTestDag();
  CostModel model(LocalCluster(), nullptr, "wf");
  auto sizes = model.PredictSizes(
      *dag, {{"properties", 4 * kGB}, {"prices", 2 * kGB}});
  ASSERT_TRUE(sizes.ok());
  PlannerConfig config;
  config.strategy = PartitionStrategyKind::kExhaustive;
  config.engines = {EngineKind::kHadoop, EngineKind::kSpark};

  auto sequential = [&] {
    ScopedParallelThreads one(1);
    return PartitionWorkflow(*dag, model, *sizes, config);
  }();
  ASSERT_TRUE(sequential.ok()) << sequential.status();

  ScopedParallelThreads width(8);
  auto parallel = PartitionWorkflow(*dag, model, *sizes, config);
  ASSERT_TRUE(parallel.ok()) << parallel.status();
  EXPECT_DOUBLE_EQ(parallel->total_cost, sequential->total_cost);
  ASSERT_EQ(parallel->jobs.size(), sequential->jobs.size());
  for (size_t j = 0; j < parallel->jobs.size(); ++j) {
    EXPECT_EQ(parallel->jobs[j].ops, sequential->jobs[j].ops);
    EXPECT_EQ(parallel->jobs[j].engine, sequential->jobs[j].engine);
  }
}

TEST(ParallelPartitionerTest, InfeasibleWorkflowFailsIdentically) {
  // A graph-only engine cannot run a purely relational workflow; both the
  // sequential and parallel searches must agree on the failure.
  auto dag = PartitionTestDag();
  CostModel model(LocalCluster(), nullptr, "wf");
  auto sizes = model.PredictSizes(
      *dag, {{"properties", 4 * kGB}, {"prices", 2 * kGB}});
  ASSERT_TRUE(sizes.ok());
  PlannerConfig config;
  config.strategy = PartitionStrategyKind::kExhaustive;
  config.engines = {EngineKind::kPowerGraph};

  auto sequential = [&] {
    ScopedParallelThreads one(1);
    return PartitionWorkflow(*dag, model, *sizes, config);
  }();
  ScopedParallelThreads width(8);
  auto parallel = PartitionWorkflow(*dag, model, *sizes, config);
  EXPECT_EQ(parallel.ok(), sequential.ok());
  if (!sequential.ok()) {
    EXPECT_EQ(parallel.status().code(), sequential.status().code());
  }
}

}  // namespace
}  // namespace musketeer
