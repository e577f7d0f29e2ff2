// UDF registry + front-end + execution tests (§4.1.3): abstractions without
// an IR operator map to registered user-defined table functions that every
// engine executes identically.

#include "src/frontends/udf_registry.h"

#include <gtest/gtest.h>

#include "src/core/musketeer.h"
#include "tests/substrate_check.h"

namespace musketeer {
namespace {

class UdfTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ClearUdfRegistry();
    // A sessionizer-style UDF: emits one row per distinct uid with the
    // number of events — something our relational operators could express,
    // but written as opaque user code.
    UdfDefinition count_events;
    count_events.name = "count_events";
    count_events.arity = 1;
    count_events.output_schema =
        Schema({{"uid", FieldType::kInt64}, {"events", FieldType::kInt64}});
    count_events.fn =
        [](const std::vector<const Table*>& inputs) -> StatusOr<Table> {
      std::map<int64_t, int64_t> counts;
      auto uid = inputs[0]->schema().IndexOf("uid");
      if (!uid.has_value()) {
        return InvalidArgumentError("count_events needs a uid column");
      }
      for (const Row& row : inputs[0]->MaterializeRows()) {
        ++counts[AsInt64(row[*uid])];
      }
      Table out(Schema({{"uid", FieldType::kInt64}, {"events", FieldType::kInt64}}));
      for (const auto& [id, n] : counts) {
        out.AddRow({id, n});
      }
      out.set_scale(inputs[0]->scale());
      return out;
    };
    RegisterUdf(std::move(count_events));

    // A two-input UDF.
    UdfDefinition zip_counts;
    zip_counts.name = "zip_counts";
    zip_counts.arity = 2;
    zip_counts.output_schema = Schema({{"total", FieldType::kInt64}});
    zip_counts.fn =
        [](const std::vector<const Table*>& inputs) -> StatusOr<Table> {
      Table out(Schema({{"total", FieldType::kInt64}}));
      out.AddRow({static_cast<int64_t>(inputs[0]->num_rows() +
                                       inputs[1]->num_rows())});
      return out;
    };
    RegisterUdf(std::move(zip_counts));
  }

  void TearDown() override { ClearUdfRegistry(); }

  TablePtr Events() {
    Schema s({{"uid", FieldType::kInt64}, {"what", FieldType::kInt64}});
    auto t = std::make_shared<Table>(s);
    for (int64_t i = 0; i < 120; ++i) {
      t->AddRow({i % 7, i});
    }
    t->set_scale(1e5);
    return t;
  }
};

TEST_F(UdfTest, RegistryLookup) {
  EXPECT_TRUE(LookupUdf("count_events").ok());
  EXPECT_FALSE(LookupUdf("missing").ok());
  auto def = LookupUdf("zip_counts");
  ASSERT_TRUE(def.ok());
  EXPECT_EQ(def->arity, 2);
}

TEST_F(UdfTest, BeerParsesUdfCalls) {
  auto dag = ParseWorkflow(FrontendLanguage::kBeer, R"(
    per_user = UDF count_events(events);
    busy = SELECT * FROM per_user WHERE events > 17;
  )");
  ASSERT_TRUE(dag.ok()) << dag.status();
  int udf_id = (*dag)->ProducerOf("per_user");
  ASSERT_GE(udf_id, 0);
  EXPECT_EQ((*dag)->node(udf_id).kind, OpKind::kUdf);
}

TEST_F(UdfTest, UnknownUdfIsAParseError) {
  auto dag =
      ParseWorkflow(FrontendLanguage::kBeer, "x = UDF nonexistent(events);");
  EXPECT_FALSE(dag.ok());
}

TEST_F(UdfTest, ArityMismatchIsAParseError) {
  EXPECT_FALSE(
      ParseWorkflow(FrontendLanguage::kBeer, "x = UDF zip_counts(events);").ok());
  EXPECT_FALSE(ParseWorkflow(FrontendLanguage::kBeer,
                             "x = UDF count_events(a, b);")
                   .ok());
}

TEST_F(UdfTest, UdfWorkflowRunsOnEveryGeneralEngine) {
  WorkflowSpec wf;
  wf.id = "udf-flow";
  wf.language = FrontendLanguage::kBeer;
  wf.source = R"(
    per_user = UDF count_events(events);
    busy = SELECT * FROM per_user WHERE events > 17;
  )";
  TablePtr expected_input = Events();
  for (EngineKind engine : {EngineKind::kHadoop, EngineKind::kSpark,
                            EngineKind::kNaiad, EngineKind::kSerialC}) {
    Dfs dfs;
    dfs.Put("events", expected_input);
    Musketeer m(&dfs);
    RunOptions options;
    options.engines = {engine};
    auto result = m.Run(wf, options);
    ASSERT_TRUE(result.ok()) << EngineKindName(engine) << ": "
                             << result.status();
    ASSERT_EQ(result->outputs.count("busy"), 1u);
    // 120 events over 7 users: only uid 0 gets 18, the rest 17.
    EXPECT_EQ(result->outputs["busy"]->num_rows(), 1u)
        << EngineKindName(engine);
    Status substrates = VerifyRunOnSubstrates(*result, dfs);
    EXPECT_TRUE(substrates.ok()) << EngineKindName(engine) << ": "
                                 << substrates;
  }
}

TEST_F(UdfTest, TwoInputUdfRuns) {
  WorkflowSpec wf;
  wf.id = "udf-two";
  wf.language = FrontendLanguage::kBeer;
  wf.source = "total = UDF zip_counts(events, events2);\n";
  Dfs dfs;
  dfs.Put("events", Events());
  dfs.Put("events2", Events());
  Musketeer m(&dfs);
  auto result = m.Run(wf, {});
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(AsInt64(result->outputs["total"]->MaterializeRows()[0][0]), 240);
}

TEST_F(UdfTest, GraphEnginesRejectUdfWorkflows) {
  WorkflowSpec wf;
  wf.id = "udf-flow";
  wf.language = FrontendLanguage::kBeer;
  wf.source = "per_user = UDF count_events(events);\n";
  Dfs dfs;
  dfs.Put("events", Events());
  Musketeer m(&dfs);
  RunOptions options;
  options.engines = {EngineKind::kPowerGraph};
  EXPECT_FALSE(m.Run(wf, options).ok());
}

}  // namespace
}  // namespace musketeer
