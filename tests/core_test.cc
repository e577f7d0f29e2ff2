// End-to-end tests of the Musketeer façade: every back-end produces results
// identical to the reference interpreter; mapping, merging and quirks behave
// as the paper describes.

#include "src/core/musketeer.h"

#include <gtest/gtest.h>

#include "src/workloads/datasets.h"
#include "src/workloads/workflows.h"
#include "tests/substrate_check.h"

namespace musketeer {
namespace {

void SeedPropertyData(Dfs* dfs) {
  Schema props({{"id", FieldType::kInt64},
                {"street", FieldType::kString},
                {"town", FieldType::kString}});
  auto properties = std::make_shared<Table>(props);
  Schema price_schema({{"id", FieldType::kInt64}, {"price", FieldType::kDouble}});
  auto prices = std::make_shared<Table>(price_schema);
  for (int64_t i = 0; i < 200; ++i) {
    properties->AddRow({i, std::string("street") + std::to_string(i % 20),
                        std::string("town") + std::to_string(i % 5)});
    prices->AddRow({i, 100000.0 + static_cast<double>((i * 7919) % 500000)});
  }
  properties->set_scale(1e5);  // pretend 20M rows
  prices->set_scale(1e5);
  dfs->Put("properties", properties);
  dfs->Put("prices", prices);
}

WorkflowSpec MaxPropertyPrice() {
  WorkflowSpec wf;
  wf.id = "max-property-price";
  wf.language = FrontendLanguage::kBeer;
  wf.source = R"(
    locs = SELECT id, street, town FROM properties;
    id_price = JOIN locs, prices ON locs.id = prices.id;
    street_price = AGG MAX(price) AS max_price FROM id_price
                   GROUP BY street, town;
  )";
  return wf;
}

// Reference result computed with the plain interpreter.
Table ReferenceResult(Dfs* dfs, const WorkflowSpec& wf,
                      const std::string& relation) {
  Musketeer m(dfs);
  auto dag = m.Lower(wf, /*optimize=*/false);
  EXPECT_TRUE(dag.ok()) << dag.status();
  TableMap base;
  for (const std::string& name : dfs->ListRelations()) {
    base[name] = *dfs->Get(name);
  }
  auto result = EvaluateDagRelation(**dag, base, relation);
  EXPECT_TRUE(result.ok()) << result.status();
  return std::move(result).value();
}

TEST(MusketeerTest, EveryGeneralEngineProducesIdenticalResults) {
  for (EngineKind engine : {EngineKind::kHadoop, EngineKind::kSpark,
                            EngineKind::kNaiad, EngineKind::kMetis,
                            EngineKind::kSerialC}) {
    Dfs dfs;
    SeedPropertyData(&dfs);
    WorkflowSpec wf = MaxPropertyPrice();
    Table expected = ReferenceResult(&dfs, wf, "street_price");

    Musketeer m(&dfs);
    RunOptions options;
    options.engines = {engine};
    auto result = m.Run(wf, options);
    ASSERT_TRUE(result.ok()) << EngineKindName(engine) << ": "
                             << result.status();
    ASSERT_EQ(result->outputs.count("street_price"), 1u)
        << EngineKindName(engine);
    EXPECT_TRUE(Table::SameContent(expected, *result->outputs["street_price"]))
        << EngineKindName(engine);
    Status substrates = VerifyRunOnSubstrates(*result, dfs);
    EXPECT_TRUE(substrates.ok()) << EngineKindName(engine) << ": "
                                 << substrates;
    EXPECT_GT(result->makespan, 0);
  }
}

TEST(MusketeerTest, AutomaticMappingRunsAndIsNoWorseThanWorstForced) {
  Dfs dfs;
  SeedPropertyData(&dfs);
  WorkflowSpec wf = MaxPropertyPrice();
  Musketeer m(&dfs);

  auto auto_result = m.Run(wf, {});
  ASSERT_TRUE(auto_result.ok()) << auto_result.status();

  double worst = 0;
  for (EngineKind engine : {EngineKind::kHadoop, EngineKind::kSpark,
                            EngineKind::kNaiad, EngineKind::kSerialC}) {
    RunOptions options;
    options.engines = {engine};
    auto forced = m.Run(wf, options);
    ASSERT_TRUE(forced.ok());
    worst = std::max(worst, forced->makespan);
  }
  EXPECT_LE(auto_result->makespan, worst);
}

TEST(MusketeerTest, HadoopWorkflowSplitsIntoTwoJobsNaiadIntoOne) {
  Dfs dfs;
  SeedPropertyData(&dfs);
  WorkflowSpec wf = MaxPropertyPrice();
  Musketeer m(&dfs);

  RunOptions hadoop;
  hadoop.engines = {EngineKind::kHadoop};
  auto hres = m.Run(wf, hadoop);
  ASSERT_TRUE(hres.ok()) << hres.status();
  EXPECT_EQ(hres->plans.size(), 2u);

  RunOptions naiad;
  naiad.engines = {EngineKind::kNaiad};
  auto nres = m.Run(wf, naiad);
  ASSERT_TRUE(nres.ok()) << nres.status();
  EXPECT_EQ(nres->plans.size(), 1u);
}

TEST(MusketeerTest, OperatorMergingReducesMakespan) {
  Dfs dfs;
  dfs.Put("purchases", MakePurchases(/*nominal_rows=*/4e8, /*sample_rows=*/4000,
                                     /*num_regions=*/10, /*seed=*/3));
  WorkflowSpec wf;
  wf.id = "top-shopper";
  wf.language = FrontendLanguage::kBeer;
  wf.source = TopShopperBeer(/*region=*/5, /*threshold=*/5000);

  Musketeer m(&dfs);
  RunOptions merged;
  merged.engines = {EngineKind::kHadoop};
  auto on = m.Run(wf, merged);
  ASSERT_TRUE(on.ok()) << on.status();

  RunOptions unmerged = merged;
  unmerged.planner.enable_merging = false;
  unmerged.codegen.shared_scans = false;
  auto off = m.Run(wf, unmerged);
  ASSERT_TRUE(off.ok()) << off.status();

  EXPECT_GT(off->plans.size(), on->plans.size());
  // §6.5: merging cuts makespan by 2-5x on top-shopper.
  EXPECT_GT(off->makespan, 1.8 * on->makespan)
      << "merged=" << on->makespan << " unmerged=" << off->makespan;
  // Results identical either way.
  ASSERT_EQ(on->outputs.count("top_shoppers"), 1u);
  ASSERT_EQ(off->outputs.count("top_shoppers"), 1u);
  EXPECT_TRUE(Table::SameContent(*on->outputs["top_shoppers"],
                                 *off->outputs["top_shoppers"]));
}

TEST(MusketeerTest, GeneratedCodeOverheadWithinPaperBounds) {
  // §6.4: generated code is within 5-30% of hand-optimized baselines.
  Dfs dfs;
  SeedPropertyData(&dfs);
  WorkflowSpec wf = MaxPropertyPrice();
  Musketeer m(&dfs);
  for (EngineKind engine :
       {EngineKind::kHadoop, EngineKind::kSpark, EngineKind::kNaiad}) {
    RunOptions generated;
    generated.engines = {engine};
    auto gen = m.Run(wf, generated);
    ASSERT_TRUE(gen.ok());

    RunOptions ideal = generated;
    ideal.codegen.flavor = CodeGenOptions::Flavor::kIdealHandTuned;
    auto hand = m.Run(wf, ideal);
    ASSERT_TRUE(hand.ok());

    double overhead = gen->makespan / hand->makespan - 1.0;
    EXPECT_GE(overhead, -0.01) << EngineKindName(engine);
    EXPECT_LE(overhead, 0.35) << EngineKindName(engine) << " " << overhead;
  }
}

TEST(MusketeerTest, HistoryImprovesOrMatchesFirstRunChoice) {
  Dfs dfs;
  SeedPropertyData(&dfs);
  WorkflowSpec wf = MaxPropertyPrice();
  Musketeer m(&dfs);

  HistoryStore history;
  RunOptions options;
  options.history = &history;
  auto first = m.Run(wf, options);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_GT(history.EntriesFor(wf.id), 0);

  auto second = m.Run(wf, options);
  ASSERT_TRUE(second.ok());
  EXPECT_LE(second->makespan, first->makespan * 1.0001);
}

TEST(MusketeerTest, ProfileWorkflowRecordsAllRelations) {
  Dfs dfs;
  SeedPropertyData(&dfs);
  WorkflowSpec wf = MaxPropertyPrice();
  Musketeer m(&dfs);
  HistoryStore history;
  ASSERT_TRUE(m.ProfileWorkflow(wf, {}, &history).ok());
  // Per-operator run records every relation: locs, id_price, street_price.
  EXPECT_GE(history.EntriesFor(wf.id), 3);
  EXPECT_TRUE(history.Lookup(wf.id, "id_price").has_value());
}

TEST(MusketeerTest, GasPageRankRunsOnGraphEngines) {
  GraphDataset graph = OrkutGraph();
  WorkflowSpec wf;
  wf.id = "pagerank";
  wf.language = FrontendLanguage::kGas;
  wf.source = PageRankGas(3);

  // Reference.
  Dfs ref_dfs;
  ref_dfs.Put("vertices", graph.vertices);
  ref_dfs.Put("edges", graph.edges);
  Table expected = ReferenceResult(&ref_dfs, wf, "pagerank");

  for (EngineKind engine :
       {EngineKind::kPowerGraph, EngineKind::kGraphChi, EngineKind::kNaiad,
        EngineKind::kSpark, EngineKind::kHadoop}) {
    Dfs dfs;
    dfs.Put("vertices", graph.vertices);
    dfs.Put("edges", graph.edges);
    Musketeer m(&dfs);
    RunOptions options;
    options.cluster = Ec2Cluster(16);
    options.engines = {engine};
    auto result = m.Run(wf, options);
    ASSERT_TRUE(result.ok()) << EngineKindName(engine) << ": "
                             << result.status();
    ASSERT_EQ(result->outputs.count("pagerank"), 1u);
    EXPECT_TRUE(Table::SameContent(expected, *result->outputs["pagerank"]))
        << EngineKindName(engine);
    Status substrates = VerifyRunOnSubstrates(*result, dfs);
    EXPECT_TRUE(substrates.ok()) << EngineKindName(engine) << ": "
                                 << substrates;
  }
}

TEST(MusketeerTest, GraphEngineCannotRunBatchWorkflow) {
  Dfs dfs;
  SeedPropertyData(&dfs);
  WorkflowSpec wf = MaxPropertyPrice();
  Musketeer m(&dfs);
  RunOptions options;
  options.engines = {EngineKind::kPowerGraph};
  EXPECT_FALSE(m.Run(wf, options).ok());
}

TEST(MusketeerTest, CombinedEnginesRunHybridWorkflow) {
  CommunityPair communities = MakeOverlappingCommunities();
  Dfs dfs;
  dfs.Put("lj_edges", communities.a.edges);
  dfs.Put("web_edges", communities.b.edges);
  WorkflowSpec wf;
  wf.id = "cross-community-pagerank";
  wf.language = FrontendLanguage::kBeer;
  wf.source = CrossCommunityPageRankBeer(3);

  Musketeer m(&dfs);
  RunOptions options;
  options.engines = {EngineKind::kHadoop, EngineKind::kPowerGraph};
  auto result = m.Run(wf, options);
  ASSERT_TRUE(result.ok()) << result.status();
  // The batch prologue must run on Hadoop, the loop on PowerGraph.
  bool saw_hadoop = false;
  bool saw_powergraph = false;
  for (const JobPlan& plan : result->plans) {
    saw_hadoop |= plan.engine == EngineKind::kHadoop;
    saw_powergraph |= plan.engine == EngineKind::kPowerGraph;
  }
  EXPECT_TRUE(saw_hadoop);
  EXPECT_TRUE(saw_powergraph);
  EXPECT_EQ(result->outputs.count("cc_pagerank"), 1u);
}

TEST(MusketeerTest, DfsAccountingTracksJobIo) {
  Dfs dfs;
  SeedPropertyData(&dfs);
  WorkflowSpec wf = MaxPropertyPrice();
  Musketeer m(&dfs);
  RunOptions options;
  options.engines = {EngineKind::kHadoop};
  auto result = m.Run(wf, options);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->dfs_bytes_read, 0);
  EXPECT_GT(result->dfs_bytes_written, 0);
}

// Job-level schema validation survives the plan-wide schema map. Plan()
// rejects a column that does not resolve, and a plan whose schemas no
// longer type-check its jobs makes GeneratePlan fail with the same code on
// both paths that regenerate jobs mid-run: suffix re-planning (which then
// keeps the original tail) and cross-engine failover (which ends the run).
TEST(MusketeerTest, SchemaValidationCatchesUnresolvedColumns) {
  Dfs dfs;
  SeedPropertyData(&dfs);
  Musketeer m(&dfs);

  WorkflowSpec broken = MaxPropertyPrice();
  broken.source = R"(
    locs = SELECT id, street, missing FROM properties;
    id_price = JOIN locs, prices ON locs.id = prices.id;
  )";
  for (bool optimize : {true, false}) {
    RunOptions options;
    options.optimize_ir = optimize;
    auto plan = m.Plan(broken, options);
    ASSERT_FALSE(plan.ok());
    EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument)
        << plan.status();
  }

  // Unmerged, the workflow is three jobs, so a re-plan can fire after the
  // first one and fail over any of them.
  WorkflowSpec wf = MaxPropertyPrice();
  RunOptions base;
  base.planner.enable_merging = false;
  base.engines = {EngineKind::kSpark, EngineKind::kNaiad};
  auto planned = m.Plan(wf, base);
  ASSERT_TRUE(planned.ok()) << planned.status();
  ASSERT_EQ(planned->plans.size(), 3u);
  WorkflowPlan tampered = *planned;
  for (auto& [name, schema] : tampered.schemas.relations) {
    schema = Schema();  // no relation has the columns its readers use
  }
  for (const JobAssignment& job : tampered.partitioning.jobs) {
    auto regenerated = BackendFor(job.engine).GeneratePlan(
        *tampered.dag, job.ops, tampered.schemas, base.codegen);
    ASSERT_FALSE(regenerated.ok());
    EXPECT_EQ(regenerated.status().code(), StatusCode::kInvalidArgument);
  }

  // Re-planning: forced after the first job. It fires on the intact plan;
  // on the tampered one regeneration fails, so the original tail runs.
  RuntimeHistory history;
  RunOptions replan = base;
  replan.runtime_history = &history;
  replan.planner.replan_threshold = 0.5;
  auto replanned = m.Execute(wf, *planned, replan);
  ASSERT_TRUE(replanned.ok()) << replanned.status();
  EXPECT_EQ(replanned->replans, 1);
  RuntimeHistory history2;
  replan.runtime_history = &history2;
  auto kept = m.Execute(wf, tampered, replan);
  ASSERT_TRUE(kept.ok()) << kept.status();
  EXPECT_EQ(kept->replans, 0);
  EXPECT_TRUE(Table::Identical(*replanned->outputs.at("street_price"),
                               *kept->outputs.at("street_price")));

  // Failover: every attempt fails, so the first job fails over to Naiad.
  // The intact plan runs out of engines; the tampered one cannot
  // regenerate the job and reports the schema error.
  RunOptions faulty = base;
  faulty.fault_rate = 1.0;
  faulty.fault_seed = 3;
  faulty.retry.initial_backoff = std::chrono::milliseconds(0);
  auto exhausted = m.Execute(wf, *planned, faulty);
  ASSERT_FALSE(exhausted.ok());
  EXPECT_EQ(exhausted.status().code(), StatusCode::kUnavailable)
      << exhausted.status();
  auto rejected = m.Execute(wf, tampered, faulty);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument)
      << rejected.status();
}

}  // namespace
}  // namespace musketeer
