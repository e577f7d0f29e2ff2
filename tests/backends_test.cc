// Back-end tests: operator support matrices, mergeability rules, job
// extraction, code generation and the pricing formula.

#include "src/backends/backend.h"

#include <gtest/gtest.h>

#include "src/backends/codegen.h"
#include "src/backends/pricing.h"
#include "src/frontends/frontend.h"

namespace musketeer {
namespace {

std::unique_ptr<Dag> MaxPropertyPriceDag() {
  auto dag = ParseWorkflow(FrontendLanguage::kBeer, R"(
    locs = SELECT id, street, town FROM properties;
    id_price = JOIN locs, prices ON locs.id = prices.id;
    street_price = AGG MAX(price) AS max_price FROM id_price
                   GROUP BY street, town;
  )");
  EXPECT_TRUE(dag.ok()) << dag.status();
  return std::move(dag).value();
}

std::vector<int> NonInputOps(const Dag& dag) {
  std::vector<int> ops;
  for (const auto& n : dag.nodes()) {
    if (n.kind != OpKind::kInput) {
      ops.push_back(n.id);
    }
  }
  return ops;
}

SchemaMap PropertySchemas() {
  return {{"properties",
           Schema({{"id", FieldType::kInt64},
                   {"street", FieldType::kString},
                   {"town", FieldType::kString}})},
          {"prices",
           Schema({{"id", FieldType::kInt64}, {"price", FieldType::kDouble}})}};
}

TEST(BackendTest, MapReduceAllowsOneShufflePerJob) {
  auto dag = MaxPropertyPriceDag();
  std::vector<int> ops = NonInputOps(*dag);  // PROJECT, JOIN, GROUP BY
  ASSERT_EQ(ops.size(), 3u);

  const Backend& hadoop = BackendFor(EngineKind::kHadoop);
  // JOIN + GROUP BY = two repartitionings: not a single MapReduce job.
  EXPECT_FALSE(hadoop.CanRunAsSingleJob(*dag, ops));
  // PROJECT + JOIN merges fine.
  EXPECT_TRUE(hadoop.CanRunAsSingleJob(*dag, {ops[0], ops[1]}));
  EXPECT_FALSE(hadoop.CanRunAsSingleJob(*dag, {ops[1], ops[2]}));

  // General-purpose engines run the whole thing in one job.
  EXPECT_TRUE(BackendFor(EngineKind::kSpark).CanRunAsSingleJob(*dag, ops));
  EXPECT_TRUE(BackendFor(EngineKind::kNaiad).CanRunAsSingleJob(*dag, ops));
  EXPECT_TRUE(BackendFor(EngineKind::kSerialC).CanRunAsSingleJob(*dag, ops));
  // Metis is MapReduce too.
  EXPECT_FALSE(BackendFor(EngineKind::kMetis).CanRunAsSingleJob(*dag, ops));
}

TEST(BackendTest, GraphEnginesOnlyRunTheIdiom) {
  auto dag = MaxPropertyPriceDag();
  std::vector<int> ops = NonInputOps(*dag);
  const Backend& pg = BackendFor(EngineKind::kPowerGraph);
  for (int op : ops) {
    EXPECT_FALSE(pg.SupportsOperator(*dag, op));
  }

  auto graph_dag = ParseWorkflow(FrontendLanguage::kGas, R"(
    GATHER = { SUM (vertex_value) }
    APPLY = { MUL [vertex_value, 0.85] SUM [vertex_value, 0.15] }
    SCATTER = { DIV [vertex_value, vertex_degree] }
    ITERATION_STOP = (iteration < 5)
  )");
  ASSERT_TRUE(graph_dag.ok());
  int while_id = (*graph_dag)->ProducerOf("gas_result");
  EXPECT_TRUE(pg.SupportsOperator(**graph_dag, while_id));
  EXPECT_TRUE(pg.CanRunAsSingleJob(**graph_dag, {while_id}));
  EXPECT_TRUE(
      BackendFor(EngineKind::kGraphChi).CanRunAsSingleJob(**graph_dag, {while_id}));
}

TEST(BackendTest, ExtractJobDagComputesInputsAndOutputs) {
  auto dag = MaxPropertyPriceDag();
  std::vector<int> ops = NonInputOps(*dag);
  // Job = {PROJECT, JOIN}: reads properties + prices, writes id_price.
  auto extraction = ExtractJobDag(*dag, {ops[0], ops[1]});
  ASSERT_TRUE(extraction.ok()) << extraction.status();
  EXPECT_EQ(extraction->inputs,
            (std::vector<std::string>{"prices", "properties"}));
  EXPECT_EQ(extraction->outputs, (std::vector<std::string>{"id_price"}));
  // locs is internal (consumed by the join inside the job).
  for (const auto& n : extraction->dag->nodes()) {
    if (n.kind == OpKind::kInput) {
      EXPECT_NE(n.output, "locs");
    }
  }
}

TEST(BackendTest, ExtractJobDagRejectsInputNodes) {
  auto dag = MaxPropertyPriceDag();
  EXPECT_FALSE(ExtractJobDag(*dag, {0}).ok());  // node 0 is INPUT(properties)
}

TEST(BackendTest, GeneratePlanForAllEnginesOnBatchJob) {
  auto dag = MaxPropertyPriceDag();
  std::vector<int> ops = NonInputOps(*dag);
  for (EngineKind kind :
       {EngineKind::kSpark, EngineKind::kNaiad, EngineKind::kSerialC}) {
    auto plan = BackendFor(kind).GeneratePlan(*dag, ops, PropertySchemas(), {});
    ASSERT_TRUE(plan.ok()) << EngineKindName(kind) << ": " << plan.status();
    EXPECT_EQ(plan->engine, kind);
    EXPECT_FALSE(plan->generated_code.empty());
    EXPECT_NE(plan->generated_code.find("street_price"), std::string::npos);
  }
}

TEST(BackendTest, MusketeerSparkPlansModelTypeInferenceMiss) {
  auto dag = MaxPropertyPriceDag();
  std::vector<int> ops = NonInputOps(*dag);
  auto generated =
      BackendFor(EngineKind::kSpark).GeneratePlan(*dag, ops, PropertySchemas(), {});
  ASSERT_TRUE(generated.ok());
  EXPECT_TRUE(generated->quirks.model_type_inference_miss);
  EXPECT_LT(generated->quirks.process_efficiency, 1.0);

  CodeGenOptions ideal;
  ideal.flavor = CodeGenOptions::Flavor::kIdealHandTuned;
  auto hand = BackendFor(EngineKind::kSpark)
                  .GeneratePlan(*dag, ops, PropertySchemas(), ideal);
  ASSERT_TRUE(hand.ok());
  EXPECT_FALSE(hand->quirks.model_type_inference_miss);
  EXPECT_DOUBLE_EQ(hand->quirks.process_efficiency, 1.0);
}

TEST(BackendTest, NativeLindiOnlyTargetsNaiad) {
  auto dag = MaxPropertyPriceDag();
  std::vector<int> ops = NonInputOps(*dag);
  CodeGenOptions lindi;
  lindi.flavor = CodeGenOptions::Flavor::kNativeLindi;
  EXPECT_FALSE(
      BackendFor(EngineKind::kSpark).GeneratePlan(*dag, ops, PropertySchemas(), lindi).ok());
  auto plan = BackendFor(EngineKind::kNaiad)
                  .GeneratePlan(*dag, ops, PropertySchemas(), lindi);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_TRUE(plan->quirks.single_threaded_io);
  EXPECT_TRUE(plan->quirks.single_node_group_by);
}

TEST(BackendTest, NaiadUsesVertexRuntimeForGraphIdiom) {
  auto graph_dag = ParseWorkflow(FrontendLanguage::kGas, R"(
    GATHER = { SUM (vertex_value) }
    APPLY = { MUL [vertex_value, 0.85] SUM [vertex_value, 0.15] }
    SCATTER = { DIV [vertex_value, vertex_degree] }
    ITERATION_STOP = (iteration < 5)
  )");
  ASSERT_TRUE(graph_dag.ok());
  int while_id = (*graph_dag)->ProducerOf("gas_result");
  SchemaMap schemas{
      {"vertices", Schema({{"id", FieldType::kInt64},
                           {"vertex_value", FieldType::kDouble},
                           {"vertex_degree", FieldType::kInt64}})},
      {"edges",
       Schema({{"src", FieldType::kInt64}, {"dst", FieldType::kInt64}})}};

  auto plan = BackendFor(EngineKind::kNaiad)
                  .GeneratePlan(**graph_dag, {while_id}, schemas, {});
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->while_mode, WhileExec::kVertexRuntime);
  EXPECT_TRUE(plan->graph_path);

  // Hadoop runs the loop as repeated jobs.
  auto hplan = BackendFor(EngineKind::kHadoop)
                   .GeneratePlan(**graph_dag, {while_id}, schemas, {});
  ASSERT_TRUE(hplan.ok()) << hplan.status();
  EXPECT_EQ(hplan->while_mode, WhileExec::kPerIterationJobs);

  // Native Lindi code does not get the vertex-optimized path.
  CodeGenOptions lindi;
  lindi.flavor = CodeGenOptions::Flavor::kNativeLindi;
  auto lplan = BackendFor(EngineKind::kNaiad)
                   .GeneratePlan(**graph_dag, {while_id}, schemas, lindi);
  ASSERT_TRUE(lplan.ok()) << lplan.status();
  EXPECT_EQ(lplan->while_mode, WhileExec::kNativeLoop);
}

// A workflow whose `broken` operator fails to infer, next to jobs that do
// not depend on it.
std::unique_ptr<Dag> PartlyBrokenDag() {
  auto dag = ParseWorkflow(FrontendLanguage::kBeer, R"(
    locs = SELECT id, street FROM properties;
    broken = SELECT id, missing FROM locs;
    id_price = JOIN locs, prices ON locs.id = prices.id;
  )");
  EXPECT_TRUE(dag.ok()) << dag.status();
  return std::move(dag).value();
}

// A job that reads another job's output reports the outer DAG's inference
// error, which names the operator that failed, not a missing base schema.
TEST(BackendTest, GeneratePlanReportsOuterSchemaError) {
  auto dag = PartlyBrokenDag();
  int join = dag->ProducerOf("id_price");
  auto plan = BackendFor(EngineKind::kSpark)
                  .GeneratePlan(*dag, {join}, PropertySchemas(), {});
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument)
      << plan.status();
  EXPECT_NE(plan.status().message().find("'broken'"), std::string::npos)
      << plan.status();
}

// A job that reads only base relations still plans when an unrelated part
// of the outer DAG fails to infer.
TEST(BackendTest, GeneratePlanIgnoresUnrelatedOuterSchemaError) {
  auto dag = PartlyBrokenDag();
  int locs = dag->ProducerOf("locs");
  auto plan = BackendFor(EngineKind::kSpark)
                  .GeneratePlan(*dag, {locs}, PropertySchemas(), {});
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->inputs, (std::vector<std::string>{"properties"}));
}

// ---- Pricing ---------------------------------------------------------------

TEST(PricingTest, JobOverheadDominatesSmallInputs) {
  JobShape shape;
  shape.pull_bytes = 10 * kMB;
  shape.push_bytes = 5 * kMB;
  shape.ops.push_back({.in_bytes = 10 * kMB, .shuffle = false});
  ClusterConfig local = LocalCluster();
  double hadoop = PriceJob(EngineKind::kHadoop, local, shape);
  double metis = PriceJob(EngineKind::kMetis, local, shape);
  EXPECT_LT(metis, hadoop);  // Metis wins small inputs (Fig. 2a)
  EXPECT_GT(hadoop, RatesFor(EngineKind::kHadoop).job_overhead_s);
}

TEST(PricingTest, DistributedWinsLargeInputs) {
  JobShape shape;
  shape.pull_bytes = 32 * kGB;
  shape.push_bytes = 16 * kGB;
  shape.ops.push_back({.in_bytes = 32 * kGB, .shuffle = false});
  ClusterConfig local = LocalCluster();
  double hadoop = PriceJob(EngineKind::kHadoop, local, shape);
  double metis = PriceJob(EngineKind::kMetis, local, shape);
  EXPECT_LT(hadoop, metis);  // Hadoop streams in parallel (Fig. 2a)
}

TEST(PricingTest, SingleThreadedIoHurts) {
  JobShape shape;
  shape.pull_bytes = 8 * kGB;
  shape.ops.push_back({.in_bytes = 8 * kGB, .shuffle = false});
  ClusterConfig local = LocalCluster();
  double fast = PriceJob(EngineKind::kNaiad, local, shape);
  shape.single_threaded_io = true;
  double slow = PriceJob(EngineKind::kNaiad, local, shape);
  EXPECT_GT(slow, 2.0 * fast);  // Lindi's single reader throttles I/O (§2.1)
}

TEST(PricingTest, FusedOperatorsAreNearlyFree) {
  JobShape shape;
  shape.pull_bytes = 4 * kGB;
  PricedOp op;
  op.in_bytes = 4 * kGB;
  op.charge_process = true;
  shape.ops.assign(3, op);
  ClusterConfig local = LocalCluster();
  double unfused = PriceJob(EngineKind::kHadoop, local, shape);
  for (PricedOp& o : shape.ops) {
    o.charge_process = false;
  }
  double fused = PriceJob(EngineKind::kHadoop, local, shape);
  EXPECT_LT(fused, unfused);
}

TEST(PricingTest, PowerGraphStopsScalingAtSixteenNodes) {
  JobShape shape;
  shape.pull_bytes = 20 * kGB;
  shape.load_bytes = 20 * kGB;
  shape.ops.push_back(
      {.in_bytes = 20 * kGB, .shuffle = true, .graph_path = true});
  shape.supersteps = 5;
  double at16 = PriceJob(EngineKind::kPowerGraph, Ec2Cluster(16), shape);
  double at100 = PriceJob(EngineKind::kPowerGraph, Ec2Cluster(100), shape);
  EXPECT_NEAR(at16, at100, at16 * 0.35);  // little benefit beyond 16 (§2.2)

  double naiad16 = PriceJob(EngineKind::kNaiad, Ec2Cluster(16), shape);
  double naiad100 = PriceJob(EngineKind::kNaiad, Ec2Cluster(100), shape);
  EXPECT_LT(naiad100, naiad16 * 0.4);  // Naiad keeps scaling
}

TEST(CodegenTest, EmitsEngineStyledSource) {
  auto dag = MaxPropertyPriceDag();
  std::vector<int> ops = NonInputOps(*dag);
  auto plan =
      BackendFor(EngineKind::kSpark).GeneratePlan(*dag, ops, PropertySchemas(), {});
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->generated_code.find("Scala"), std::string::npos);
  EXPECT_NE(plan->generated_code.find("groupBy"), std::string::npos);
  // The modeled type-inference miss appears as an extra map in the code.
  EXPECT_NE(plan->generated_code.find("extra pass"), std::string::npos);
}

// Spark's type-inference miss is one join per job: the first whose chain of
// in-job row-wise consumers reaches a differently keyed GROUP BY or an AGG.
// The generated code prints its extra map after that join and no other.
TEST(CodegenTest, ExtraMapFollowsOnlyTheMissJoin) {
  auto dag = ParseWorkflow(FrontendLanguage::kBeer, R"(
    by_id = JOIN properties, prices ON properties.id = prices.id;
    max_by_id = AGG MAX(price) AS max_price FROM by_id GROUP BY id;
    locs = SELECT id, street, town FROM properties;
    id_price = JOIN locs, prices ON locs.id = prices.id;
    street_price = AGG MAX(price) AS max_price FROM id_price
                   GROUP BY street, town;
  )");
  ASSERT_TRUE(dag.ok()) << dag.status();
  const OperatorNode* miss = TypeInferenceMissJoin(**dag);
  ASSERT_NE(miss, nullptr);
  EXPECT_EQ(miss->output, "id_price");
  // Without its GROUP BY in the job, the join misses nothing.
  EXPECT_EQ(TypeInferenceMissJoin(**dag, {(*dag)->ProducerOf("id_price")}),
            nullptr);

  auto plan = BackendFor(EngineKind::kSpark)
                  .GeneratePlan(**dag, NonInputOps(**dag), PropertySchemas(), {});
  ASSERT_TRUE(plan.ok()) << plan.status();
  const std::string& code = plan->generated_code;
  size_t first = code.find("extra pass");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(code.find("extra pass", first + 1), std::string::npos) << code;
  EXPECT_NE(code.find("id_price = id_price.map("), std::string::npos) << code;
}

}  // namespace
}  // namespace musketeer
