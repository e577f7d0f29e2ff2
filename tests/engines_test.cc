// Engine-simulator tests: job execution against the DFS, loop execution
// strategies, quirk pricing, accounting, and the heap settings of programs
// that execute jobs.

#include "src/engines/engine.h"

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "src/backends/backend.h"
#include "src/engines/executor.h"
#include "src/frontends/frontend.h"
#include "src/workloads/datasets.h"
#include "src/workloads/workflows.h"

namespace musketeer {
namespace {

// Builds a plan for `engine` covering all non-INPUT ops of `dag`.
JobPlan PlanFor(EngineKind engine, const Dag& dag, const SchemaMap& schemas,
                CodeGenOptions options = {}) {
  std::vector<int> ops;
  for (const auto& n : dag.nodes()) {
    if (n.kind != OpKind::kInput) {
      ops.push_back(n.id);
    }
  }
  auto plan = BackendFor(engine).GeneratePlan(dag, ops, schemas, options);
  EXPECT_TRUE(plan.ok()) << plan.status();
  return std::move(plan).value();
}

TablePtr SmallKv(double scale) {
  Schema s({{"k", FieldType::kInt64}, {"v", FieldType::kDouble}});
  auto t = std::make_shared<Table>(s);
  for (int64_t i = 0; i < 100; ++i) {
    t->AddRow({i % 10, static_cast<double>(i)});
  }
  t->set_scale(scale);
  return t;
}

TEST(ExecutorTest, TraceRecordsPerIterationOps) {
  auto dag = ParseWorkflow(FrontendLanguage::kBeer, R"(
    WHILE 3 LOOP x = seed UPDATE x2 {
      f = SELECT * FROM x WHERE v >= 0;
      x2 = AGG SUM(v) AS v, COUNT(k) AS k2 FROM f GROUP BY k;
    } YIELD x2 AS out;
  )");
  ASSERT_TRUE(dag.ok()) << dag.status();
  // Rebind: the groupby output schema is (k, v, k2) vs input (k, v) —
  // arity must stay stable, so use a simpler body.
  auto dag2 = ParseWorkflow(FrontendLanguage::kBeer, R"(
    WHILE 3 LOOP x = seed UPDATE x2 {
      x2 = AGG SUM(v) AS v FROM x GROUP BY k;
    } YIELD x2 AS out;
  )");
  ASSERT_TRUE(dag2.ok()) << dag2.status();
  TableMap base{{"seed", SmallKv(1.0)}};
  auto trace = TraceExecuteDag(**dag2, base);
  ASSERT_TRUE(trace.ok()) << trace.status();
  EXPECT_EQ(trace->total_iterations, 3);
  int body_ops = 0;
  for (const OpTrace& op : trace->ops) {
    body_ops += op.iteration >= 0 ? 1 : 0;
  }
  EXPECT_EQ(body_ops, 3);  // one GROUP BY per iteration
}

TEST(EngineTest, MissingInputRelationFails) {
  auto dag = ParseWorkflow(FrontendLanguage::kBeer, "o = DISTINCT ghost;\n");
  ASSERT_TRUE(dag.ok());
  SchemaMap schemas{{"ghost", Schema({{"k", FieldType::kInt64}})}};
  JobPlan plan = PlanFor(EngineKind::kSpark, **dag, schemas);
  Dfs dfs;  // empty!
  auto result = ExecuteJob(plan, LocalCluster(), &dfs, ExecutionContext{});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(EngineTest, OutputsLandInDfs) {
  auto dag = ParseWorkflow(FrontendLanguage::kBeer,
                           "o = AGG SUM(v) AS s FROM rel GROUP BY k;\n");
  ASSERT_TRUE(dag.ok());
  Dfs dfs;
  dfs.Put("rel", SmallKv(1000));
  SchemaMap schemas{{"rel", SmallKv(1)->schema()}};
  JobPlan plan = PlanFor(EngineKind::kHadoop, **dag, schemas);
  auto result = ExecuteJob(plan, LocalCluster(), &dfs, ExecutionContext{});
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(dfs.Contains("o"));
  EXPECT_EQ((*dfs.Get("o"))->num_rows(), 10u);
  EXPECT_GT(result->bytes_pulled, 0);
  EXPECT_GT(result->bytes_pushed, 0);
}

TEST(EngineTest, MapReduceLoopSpawnsPerIterationJobs) {
  GraphDataset graph = OrkutGraph();
  auto dag = ParseWorkflow(FrontendLanguage::kGas, PageRankGas(5));
  ASSERT_TRUE(dag.ok());
  SchemaMap schemas{{"vertices", graph.vertices->schema()},
                    {"edges", graph.edges->schema()}};
  Dfs dfs;
  dfs.Put("vertices", graph.vertices);
  dfs.Put("edges", graph.edges);

  JobPlan hadoop = PlanFor(EngineKind::kHadoop, **dag, schemas);
  auto hres = ExecuteJob(hadoop, Ec2Cluster(16), &dfs, ExecutionContext{});
  ASSERT_TRUE(hres.ok()) << hres.status();
  // PageRank body has 3 shuffles (2 joins + group-by) x 5 iterations.
  EXPECT_EQ(hres->internal_jobs, 15);
  EXPECT_EQ(hres->supersteps, 0);

  JobPlan naiad = PlanFor(EngineKind::kNaiad, **dag, schemas);
  auto nres = ExecuteJob(naiad, Ec2Cluster(16), &dfs, ExecutionContext{});
  ASSERT_TRUE(nres.ok()) << nres.status();
  EXPECT_EQ(nres->internal_jobs, 1);
  EXPECT_EQ(nres->supersteps, 5);
  EXPECT_LT(nres->makespan, hres->makespan);
}

TEST(EngineTest, VertexRuntimeBeatsDataflowLoopOnGraphEngines) {
  GraphDataset graph = TwitterGraph();
  auto dag = ParseWorkflow(FrontendLanguage::kGas, PageRankGas(5));
  ASSERT_TRUE(dag.ok());
  SchemaMap schemas{{"vertices", graph.vertices->schema()},
                    {"edges", graph.edges->schema()}};
  Dfs dfs;
  dfs.Put("vertices", graph.vertices);
  dfs.Put("edges", graph.edges);

  JobPlan pg = PlanFor(EngineKind::kPowerGraph, **dag, schemas);
  EXPECT_EQ(pg.while_mode, WhileExec::kVertexRuntime);
  auto pg_res = ExecuteJob(pg, Ec2Cluster(16), &dfs, ExecutionContext{});
  ASSERT_TRUE(pg_res.ok());

  JobPlan spark = PlanFor(EngineKind::kSpark, **dag, schemas);
  EXPECT_EQ(spark.while_mode, WhileExec::kNativeLoop);
  auto spark_res = ExecuteJob(spark, Ec2Cluster(16), &dfs, ExecutionContext{});
  ASSERT_TRUE(spark_res.ok());
  EXPECT_LT(pg_res->makespan, spark_res->makespan);
}

TEST(EngineTest, SingleNodeGroupByQuirkIsExpensive) {
  auto dag = ParseWorkflow(FrontendLanguage::kBeer,
                           "o = AGG SUM(v) AS s FROM rel GROUP BY k;\n");
  ASSERT_TRUE(dag.ok());
  Dfs dfs;
  dfs.Put("rel", SmallKv(5e7));  // ~100 GB nominal
  SchemaMap schemas{{"rel", SmallKv(1)->schema()}};

  JobPlan fast = PlanFor(EngineKind::kNaiad, **dag, schemas);
  auto fast_res = ExecuteJob(fast, Ec2Cluster(100), &dfs, ExecutionContext{});
  ASSERT_TRUE(fast_res.ok());

  CodeGenOptions lindi;
  lindi.flavor = CodeGenOptions::Flavor::kNativeLindi;
  JobPlan slow = PlanFor(EngineKind::kNaiad, **dag, schemas, lindi);
  auto slow_res = ExecuteJob(slow, Ec2Cluster(100), &dfs, ExecutionContext{});
  ASSERT_TRUE(slow_res.ok());
  EXPECT_GT(slow_res->makespan, 3 * fast_res->makespan);
}

TEST(EngineTest, SharedScansReduceMakespan) {
  auto dag = ParseWorkflow(FrontendLanguage::kBeer, R"(
    a = SELECT * FROM rel WHERE v > 10;
    b = SELECT k, v FROM a;
    c = MAP k, v * 2 AS v2 FROM b;
  )");
  ASSERT_TRUE(dag.ok());
  Dfs dfs;
  dfs.Put("rel", SmallKv(1e7));
  SchemaMap schemas{{"rel", SmallKv(1)->schema()}};

  JobPlan fused = PlanFor(EngineKind::kHadoop, **dag, schemas);
  auto fused_res = ExecuteJob(fused, LocalCluster(), &dfs, ExecutionContext{});
  ASSERT_TRUE(fused_res.ok());

  CodeGenOptions no_fusion;
  no_fusion.shared_scans = false;
  JobPlan unfused = PlanFor(EngineKind::kHadoop, **dag, schemas, no_fusion);
  auto unfused_res = ExecuteJob(unfused, LocalCluster(), &dfs, ExecutionContext{});
  ASSERT_TRUE(unfused_res.ok());
  EXPECT_GT(unfused_res->makespan, fused_res->makespan);
}

TEST(EngineTest, GraphChiInMemoryBoostOnSmallGraphs) {
  auto dag = ParseWorkflow(FrontendLanguage::kGas, PageRankGas(5));
  ASSERT_TRUE(dag.ok());

  GraphDataset small = OrkutGraph();  // ~2 GB nominal
  SchemaMap schemas{{"vertices", small.vertices->schema()},
                    {"edges", small.edges->schema()}};
  Dfs dfs;
  dfs.Put("vertices", small.vertices);
  dfs.Put("edges", small.edges);
  JobPlan plan = PlanFor(EngineKind::kGraphChi, **dag, schemas);
  auto small_res = ExecuteJob(plan, SingleMachine(), &dfs, ExecutionContext{});
  ASSERT_TRUE(small_res.ok());

  // Same structure, 20x nominal size: must be much more than 20x slower per
  // byte is NOT expected — but the out-of-core penalty means the large graph
  // loses the in-memory boost.
  auto big_edges = std::make_shared<Table>(*small.edges);
  big_edges->set_scale(small.edges->scale() * 20);
  Dfs dfs2;
  dfs2.Put("vertices", small.vertices);
  dfs2.Put("edges", big_edges);
  auto big_res = ExecuteJob(plan, SingleMachine(), &dfs2, ExecutionContext{});
  ASSERT_TRUE(big_res.ok());
  EXPECT_GT(big_res->makespan, 20 * small_res->makespan);
}

// glibc's malloc serves the process unless a sanitizer replaces it.
#if defined(__GLIBC__) && !defined(__SANITIZE_ADDRESS__) && \
    !defined(__SANITIZE_THREAD__)
constexpr bool kGlibcMalloc = true;
#else
constexpr bool kGlibcMalloc = false;
#endif

long MinorFaults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}

// Allocates, writes and frees eight 1 MB blocks, the way a request builds
// and drops its columns.
void ChurnBlocks() {
  constexpr size_t kBlock = size_t{1} << 20;
  std::vector<std::unique_ptr<char[]>> blocks;
  for (int i = 0; i < 8; ++i) {
    blocks.emplace_back(new char[kBlock]);
    std::memset(blocks.back().get(), i + 1, kBlock);
  }
  long sum = 0;
  for (const auto& block : blocks) {
    sum += block[kBlock / 2];
  }
  EXPECT_EQ(sum, 36);
}

// engine.cc applies KeepFreedBlocksInHeap (src/base/memory.h) before main.
// With glibc's own thresholds the 1 MB blocks go to mmap on the first round;
// freeing them raises the mmap threshold to 1 MB and the trim threshold to
// 2 MB, so from then on the 8 MB freed at the top of the heap is handed back
// to the system after every round and faulted in again on the next. With an
// arena per thread, the main thread would not reuse the blocks the worker
// freed.
TEST(HeapTest, FreedBlocksStayInOneHeap) {
  if (!kGlibcMalloc) {
    GTEST_SKIP() << "the thresholds are glibc malloc's";
  }
  std::thread worker([] {
    ChurnBlocks();
    ChurnBlocks();
  });
  worker.join();
  const long before = MinorFaults();
  ChurnBlocks();
  // 8 MB is 2,048 pages of 4 KB; a round that reuses the heap faults in
  // none of them.
  EXPECT_LT(MinorFaults() - before, 256);
}

}  // namespace
}  // namespace musketeer
