// Scheduler tests: size prediction with and without history, job costing,
// the DP heuristic vs. exhaustive search, and the decision-tree baseline.

#include "src/scheduler/partition_strategy.h"

#include <cstdio>

#include <gtest/gtest.h>

#include "src/frontends/frontend.h"
#include "src/scheduler/decision_tree.h"
#include "src/scheduler/placement.h"
#include "src/workloads/workflows.h"

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

RelationSizes PropertySizes() {
  return {{"properties", 4 * kGB}, {"prices", 2 * kGB}};
}

TEST(CostModelTest, ConservativeBoundsWithoutHistory) {
  auto dag = MaxPropertyPriceDag();
  CostModel model(LocalCluster(), nullptr, "wf");
  auto sizes = model.PredictSizes(*dag, PropertySizes());
  ASSERT_TRUE(sizes.ok()) << sizes.status();
  int join_id = dag->ProducerOf("id_price");
  // Generative JOIN: conservative multiple of the inputs.
  EXPECT_GT((*sizes)[join_id], 6 * kGB);
}

TEST(CostModelTest, HistoryOverridesBounds) {
  auto dag = MaxPropertyPriceDag();
  HistoryStore history;
  history.Record("wf", "id_price", 0.5 * kGB);
  CostModel model(LocalCluster(), &history, "wf");
  auto sizes = model.PredictSizes(*dag, PropertySizes());
  ASSERT_TRUE(sizes.ok());
  EXPECT_DOUBLE_EQ((*sizes)[dag->ProducerOf("id_price")], 0.5 * kGB);
}

TEST(CostModelTest, MissingBaseSizeIsAnError) {
  auto dag = MaxPropertyPriceDag();
  CostModel model(LocalCluster(), nullptr, "wf");
  EXPECT_FALSE(model.PredictSizes(*dag, {}).ok());
}

TEST(CostModelTest, InfiniteCostForUnsupportedSets) {
  auto dag = MaxPropertyPriceDag();
  CostModel model(LocalCluster(), nullptr, "wf");
  auto sizes = model.PredictSizes(*dag, PropertySizes());
  ASSERT_TRUE(sizes.ok());
  std::vector<int> all_ops;
  for (const auto& n : dag->nodes()) {
    if (n.kind != OpKind::kInput) {
      all_ops.push_back(n.id);
    }
  }
  // Two shuffles -> impossible on Hadoop, fine on Naiad.
  EXPECT_EQ(model.JobCost(*dag, all_ops, EngineKind::kHadoop, *sizes),
            kInfiniteCost);
  EXPECT_LT(model.JobCost(*dag, all_ops, EngineKind::kNaiad, *sizes),
            kInfiniteCost);
}

TEST(CostModelTest, MergedJobCheaperThanSplit) {
  auto dag = MaxPropertyPriceDag();
  CostModel model(LocalCluster(), nullptr, "wf");
  auto sizes = model.PredictSizes(*dag, PropertySizes());
  ASSERT_TRUE(sizes.ok());
  std::vector<int> ops;
  for (const auto& n : dag->nodes()) {
    if (n.kind != OpKind::kInput) {
      ops.push_back(n.id);
    }
  }
  double merged = model.JobCost(*dag, ops, EngineKind::kNaiad, *sizes);
  double split = 0;
  for (int op : ops) {
    split += model.JobCost(*dag, {op}, EngineKind::kNaiad, *sizes);
  }
  EXPECT_LT(merged, split);
}

TEST(PartitionerTest, DpSplitsMapReduceAtShuffles) {
  auto dag = MaxPropertyPriceDag();
  CostModel model(LocalCluster(), nullptr, "wf");
  auto sizes = model.PredictSizes(*dag, PropertySizes());
  ASSERT_TRUE(sizes.ok());
  PlannerConfig config;
  config.strategy = PartitionStrategyKind::kDp;
  config.engines = {EngineKind::kHadoop};
  auto part = PartitionWorkflow(*dag, model, *sizes, config);
  ASSERT_TRUE(part.ok()) << part.status();
  EXPECT_EQ(part->jobs.size(), 2u);  // (project+join) | (group-by)
  for (const auto& job : part->jobs) {
    EXPECT_EQ(job.engine, EngineKind::kHadoop);
  }
}

TEST(PartitionerTest, GeneralEngineMergesEverything) {
  auto dag = MaxPropertyPriceDag();
  CostModel model(LocalCluster(), nullptr, "wf");
  auto sizes = model.PredictSizes(*dag, PropertySizes());
  ASSERT_TRUE(sizes.ok());
  PlannerConfig config;
  config.strategy = PartitionStrategyKind::kDp;
  config.engines = {EngineKind::kNaiad};
  auto part = PartitionWorkflow(*dag, model, *sizes, config);
  ASSERT_TRUE(part.ok()) << part.status();
  EXPECT_EQ(part->jobs.size(), 1u);
}

TEST(PartitionerTest, MergingDisabledYieldsOneJobPerOperator) {
  auto dag = MaxPropertyPriceDag();
  CostModel model(LocalCluster(), nullptr, "wf");
  auto sizes = model.PredictSizes(*dag, PropertySizes());
  ASSERT_TRUE(sizes.ok());
  PlannerConfig config;
  config.strategy = PartitionStrategyKind::kDp;
  config.enable_merging = false;
  auto part = PartitionWorkflow(*dag, model, *sizes, config);
  ASSERT_TRUE(part.ok()) << part.status();
  EXPECT_EQ(part->jobs.size(), 3u);
}

TEST(PartitionerTest, ExhaustiveMatchesOrBeatsDp) {
  auto dag = MaxPropertyPriceDag();
  CostModel model(LocalCluster(), nullptr, "wf");
  auto sizes = model.PredictSizes(*dag, PropertySizes());
  ASSERT_TRUE(sizes.ok());
  auto dp = PartitionWorkflow(*dag, model, *sizes,
                              {.strategy = PartitionStrategyKind::kDp});
  auto ex = PartitionWorkflow(*dag, model, *sizes,
                              {.strategy = PartitionStrategyKind::kExhaustive});
  ASSERT_TRUE(dp.ok());
  ASSERT_TRUE(ex.ok());
  EXPECT_LE(ex->total_cost, dp->total_cost * 1.0000001);
}

TEST(PartitionerTest, ExhaustiveBeatsDpOnFigure16Shape) {
  // Fig. 16: a diamond where the final JOIN should merge with the PROJECT on
  // one branch; the depth-first linear order interposes the other branch's
  // AGG, breaking the merge for MapReduce engines. The exhaustive search is
  // not bound to the linear order and finds the cheaper plan.
  const char* kSource = R"(
    proj = SELECT k, v FROM left_rel;
    agg = AGG SUM(v2) AS sv FROM right_rel GROUP BY k2;
    final = JOIN proj, agg ON proj.k = agg.k2;
  )";
  auto dag = ParseWorkflow(FrontendLanguage::kBeer, kSource);
  ASSERT_TRUE(dag.ok()) << dag.status();
  // Reorder: ensure linear (id) order is proj < agg < join, which blocks the
  // proj+join segment under the DP's contiguity restriction.
  RelationSizes sizes_in{{"left_rel", 8 * kGB}, {"right_rel", 8 * kGB}};
  CostModel model(LocalCluster(), nullptr, "wf");
  auto sizes = model.PredictSizes(**dag, sizes_in);
  ASSERT_TRUE(sizes.ok());
  PlannerConfig config;
  config.engines = {EngineKind::kHadoop};  // restricted-expressivity engine
  config.strategy = PartitionStrategyKind::kDp;
  auto dp = PartitionWorkflow(**dag, model, *sizes, config);
  config.strategy = PartitionStrategyKind::kExhaustive;
  auto ex = PartitionWorkflow(**dag, model, *sizes, config);
  ASSERT_TRUE(dp.ok()) << dp.status();
  ASSERT_TRUE(ex.ok()) << ex.status();
  EXPECT_LT(ex->total_cost, dp->total_cost);
  // Exhaustive merges PROJECT with the JOIN; DP cannot.
  bool found_merge = false;
  for (const auto& job : ex->jobs) {
    if (job.ops.size() == 2) {
      found_merge = true;
    }
  }
  EXPECT_TRUE(found_merge);
}

TEST(PartitionerTest, MultipleLinearOrdersRecoverFigure16Merge) {
  // §8's proposed fix, implemented as PartitionStrategyKind::kDpMultiOrder:
  // with several randomized topological orders, the DP finds the
  // JOIN+PROJECT merge that the single depth-first order breaks.
  const char* kSource = R"(
    proj = SELECT k, v FROM left_rel;
    agg = AGG SUM(v2) AS sv FROM right_rel GROUP BY k2;
    final = JOIN proj, agg ON proj.k = agg.k2;
  )";
  auto dag = ParseWorkflow(FrontendLanguage::kBeer, kSource);
  ASSERT_TRUE(dag.ok()) << dag.status();
  RelationSizes sizes_in{{"left_rel", 8 * kGB}, {"right_rel", 8 * kGB}};
  CostModel model(LocalCluster(), nullptr, "wf");
  auto sizes = model.PredictSizes(**dag, sizes_in);
  ASSERT_TRUE(sizes.ok());
  PlannerConfig config;
  config.engines = {EngineKind::kHadoop};
  config.strategy = PartitionStrategyKind::kDp;

  auto single = PartitionWorkflow(**dag, model, *sizes, config);
  ASSERT_TRUE(single.ok());

  config.strategy = PartitionStrategyKind::kDpMultiOrder;
  auto multi = PartitionWorkflow(**dag, model, *sizes, config);
  ASSERT_TRUE(multi.ok());
  EXPECT_LT(multi->total_cost, single->total_cost);

  config.strategy = PartitionStrategyKind::kExhaustive;
  auto exhaustive = PartitionWorkflow(**dag, model, *sizes, config);
  ASSERT_TRUE(exhaustive.ok());
  EXPECT_NEAR(multi->total_cost, exhaustive->total_cost,
              exhaustive->total_cost * 1e-9);
}

TEST(PartitionerTest, AutomaticMappingPrefersGraphEngineForPageRank) {
  auto dag = ParseWorkflow(FrontendLanguage::kGas, PageRankGas(5));
  ASSERT_TRUE(dag.ok()) << dag.status();
  RelationSizes sizes_in{{"vertices", 1 * kGB}, {"edges", 21 * kGB}};
  CostModel model(Ec2Cluster(100), nullptr, "pagerank");
  auto sizes = model.PredictSizes(**dag, sizes_in);
  ASSERT_TRUE(sizes.ok());
  auto part = PartitionWorkflow(**dag, model, *sizes, PlannerConfig{});
  ASSERT_TRUE(part.ok()) << part.status();
  ASSERT_EQ(part->jobs.size(), 1u);
  // At 100 nodes the specialized path on Naiad (GraphLINQ) or PowerGraph
  // should win; Hadoop/Metis/Serial must not be chosen.
  EXPECT_TRUE(part->jobs[0].engine == EngineKind::kNaiad ||
              part->jobs[0].engine == EngineKind::kPowerGraph)
      << EngineKindName(part->jobs[0].engine);
}

TEST(PartitionerTest, SmallInputsMapToSingleMachine) {
  auto dag = MaxPropertyPriceDag();
  CostModel model(LocalCluster(), nullptr, "wf");
  RelationSizes small{{"properties", 100 * kMB}, {"prices", 50 * kMB}};
  auto sizes = model.PredictSizes(*dag, small);
  ASSERT_TRUE(sizes.ok());
  // Fig. 2a's system set: the high-overhead distributed engines lose to
  // single-machine execution on small inputs.
  PlannerConfig config;
  config.engines = {EngineKind::kHadoop, EngineKind::kSpark, EngineKind::kMetis,
                    EngineKind::kSerialC};
  auto part = PartitionWorkflow(*dag, model, *sizes, config);
  ASSERT_TRUE(part.ok());
  for (const auto& job : part->jobs) {
    EXPECT_FALSE(IsDistributedEngine(job.engine))
        << EngineKindName(job.engine);
  }
}

TEST(HistoryTest, PartialKnowledgeKeepsPrefix) {
  HistoryStore history;
  history.Record("wf", "a", 1);
  history.Record("wf", "b", 2);
  history.Record("wf", "c", 3);
  history.Record("wf", "d", 4);
  HistoryStore half = history.WithPartialKnowledge(0.5);
  EXPECT_EQ(half.EntriesFor("wf"), 2);
  EXPECT_TRUE(half.Lookup("wf", "a").has_value());
  EXPECT_FALSE(half.Lookup("wf", "d").has_value());
  EXPECT_FALSE(half.Lookup("other", "a").has_value());
}

TEST(HistoryTest, JsonRoundTripPreservesEntriesAndOrder) {
  HistoryStore history;
  history.Record("wf-a", "alpha", 100);
  history.Record("wf-a", "beta", 200);
  history.Record("wf-a", "gamma", 300);
  history.Record("wf-b", "x", 7.5);

  HistoryStore loaded;
  ASSERT_TRUE(loaded.FromJson(history.ToJson()).ok());
  EXPECT_EQ(loaded.EntriesFor("wf-a"), 3);
  EXPECT_EQ(loaded.EntriesFor("wf-b"), 1);
  EXPECT_DOUBLE_EQ(*loaded.Lookup("wf-a", "beta"), 200);
  EXPECT_DOUBLE_EQ(*loaded.Lookup("wf-b", "x"), 7.5);
  // Insertion order survives the round trip (WithPartialKnowledge depends
  // on per-workflow order): the half-knowledge prefix is still alpha, beta.
  HistoryStore prefix = loaded.WithPartialKnowledge(0.5);
  EXPECT_TRUE(prefix.Lookup("wf-a", "alpha").has_value());
  EXPECT_TRUE(prefix.Lookup("wf-a", "beta").has_value());
  EXPECT_FALSE(prefix.Lookup("wf-a", "gamma").has_value());
}

TEST(HistoryTest, SaveToLoadFromFile) {
  const std::string path = "history_store_test.json";
  HistoryStore history;
  history.Record("wf", "rel", 42);
  ASSERT_TRUE(history.SaveTo(path).ok());

  HistoryStore loaded;
  ASSERT_TRUE(loaded.LoadFrom(path).ok());
  EXPECT_DOUBLE_EQ(*loaded.Lookup("wf", "rel"), 42);
  std::remove(path.c_str());

  // Missing file loads as empty history (first service launch).
  HistoryStore empty;
  EXPECT_TRUE(empty.LoadFrom("does_not_exist_12345.json").ok());
  EXPECT_EQ(empty.EntriesFor("wf"), 0);

  // Malformed content is a real error.
  HistoryStore bad;
  EXPECT_FALSE(bad.FromJson("{not json").ok());
  EXPECT_FALSE(bad.FromJson(R"({"wf": "not-an-array"})").ok());
}

TEST(HistoryTest, MergeFromKeepsBestEvidencedEntry) {
  HistoryStore mine;
  mine.Record("wf", "join_out", 100);
  mine.Record("wf", "join_out", 120);  // 2 samples, latest bytes 120
  mine.Record("wf", "mine_only", 5);

  HistoryStore theirs;
  theirs.Record("wf", "join_out", 999);  // 1 sample: less evidence, loses
  theirs.Record("wf", "theirs_only", 7);
  theirs.Record("other", "rel", 11);

  mine.MergeFrom(theirs);
  // More samples win; counts sum (both sides' observations are real).
  EXPECT_DOUBLE_EQ(*mine.Lookup("wf", "join_out"), 120);
  EXPECT_EQ(mine.SamplesFor("wf", "join_out"), 3);
  // Entries present on only one side are kept.
  EXPECT_DOUBLE_EQ(*mine.Lookup("wf", "mine_only"), 5);
  EXPECT_DOUBLE_EQ(*mine.Lookup("wf", "theirs_only"), 7);
  EXPECT_DOUBLE_EQ(*mine.Lookup("other", "rel"), 11);

  // A tie in samples goes to the existing entry (it is at least as fresh).
  HistoryStore tie;
  tie.Record("wf", "join_out", 555);  // 1 sample vs mine's 3: mine keeps
  mine.MergeFrom(tie);
  EXPECT_DOUBLE_EQ(*mine.Lookup("wf", "join_out"), 120);
}

// Satellite (a) regression: LoadFrom into a warm store must MERGE, not
// clobber. A service that re-reads a stale history file keeps every
// observation it accumulated in memory since the file was written.
TEST(HistoryTest, LoadFromMergesIntoWarmStore) {
  const std::string path = "history_merge_test.json";
  HistoryStore stale;
  stale.Record("wf", "join_out", 50);   // the file's (older) belief
  stale.Record("wf", "file_only", 10);
  ASSERT_TRUE(stale.SaveTo(path).ok());

  HistoryStore warm;
  warm.Record("wf", "join_out", 80);
  warm.Record("wf", "join_out", 90);    // 2 samples: more evidence than file
  warm.Record("wf", "warm_only", 30);
  ASSERT_TRUE(warm.LoadFrom(path).ok());
  std::remove(path.c_str());

  EXPECT_DOUBLE_EQ(*warm.Lookup("wf", "join_out"), 90);  // survived reload
  EXPECT_EQ(warm.SamplesFor("wf", "join_out"), 3);
  EXPECT_DOUBLE_EQ(*warm.Lookup("wf", "warm_only"), 30);
  EXPECT_DOUBLE_EQ(*warm.Lookup("wf", "file_only"), 10);
  EXPECT_EQ(warm.EntriesFor("wf"), 3);
}

TEST(PlacementTest, LocalityPicksByteArgmaxRandomIsSeededAndBlind) {
  ShardMap map(3);
  map.Pin("big", 2);
  map.Pin("small", 0);
  const std::vector<std::pair<std::string, Bytes>> inputs = {
      {"big", 3 * kGB}, {"small", 1 * kGB}};
  const std::vector<int> candidates = {0, 1, 2};

  ShardPlacer locality(&map, PlacementPolicy::kLocality);
  PlacementDecision d = locality.Place("job", inputs, candidates);
  EXPECT_EQ(d.shard, 2);
  EXPECT_TRUE(d.locality_hit);
  EXPECT_DOUBLE_EQ(d.local_bytes, 3 * kGB);
  EXPECT_DOUBLE_EQ(d.remote_bytes, 1 * kGB);
  EXPECT_EQ(locality.locality_hits(), 1u);
  EXPECT_DOUBLE_EQ(locality.cross_shard_bytes(), 1 * kGB);

  // Random is a pure function of (seed, job name): reproducible across
  // placers, and different jobs spread (not all on one shard).
  ShardPlacer random_a(&map, PlacementPolicy::kRandom, /*seed=*/7);
  ShardPlacer random_b(&map, PlacementPolicy::kRandom, /*seed=*/7);
  bool spread = false;
  int first = -1;
  for (int i = 0; i < 16; ++i) {
    const std::string job = "job_" + std::to_string(i);
    PlacementDecision da = random_a.Place(job, inputs, candidates);
    PlacementDecision db = random_b.Place(job, inputs, candidates);
    EXPECT_EQ(da.shard, db.shard);
    if (first < 0) {
      first = da.shard;
    } else if (da.shard != first) {
      spread = true;
    }
  }
  EXPECT_TRUE(spread);
}

TEST(DecisionTreeTest, FollowsItsRigidRules) {
  auto graph = ParseWorkflow(FrontendLanguage::kGas, PageRankGas(5));
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(DecisionTreeChoice(**graph, 20 * kGB, Ec2Cluster(100)),
            EngineKind::kPowerGraph);
  EXPECT_EQ(DecisionTreeChoice(**graph, 20 * kGB, SingleMachine()),
            EngineKind::kGraphChi);

  auto batch = MaxPropertyPriceDag();
  EXPECT_EQ(DecisionTreeChoice(*batch, 100 * kMB, LocalCluster()),
            EngineKind::kMetis);
  EXPECT_EQ(DecisionTreeChoice(*batch, 50 * kGB, LocalCluster()),
            EngineKind::kHadoop);
}

}  // namespace
}  // namespace musketeer
