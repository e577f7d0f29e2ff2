// Observability subsystem tests: metrics registry, span tracer + Chrome
// trace export, measured-runtime history, and the two end-to-end acceptance
// properties — a 2-job workflow emits a valid Chrome trace with spans for
// every pipeline stage and engine job, and running the same workflow twice
// through the service shrinks the cost model's predicted-vs-measured job
// runtime error (the calibration loop).

#include <cstdio>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/json.h"
#include "src/obs/metrics.h"
#include "src/obs/runtime_history.h"
#include "src/obs/trace.h"
#include "src/relational/ops.h"
#include "src/service/service.h"
#include "src/workloads/datasets.h"
#include "src/workloads/workflows.h"

namespace musketeer {
namespace {

// ---- Metrics ---------------------------------------------------------------

TEST(MetricsTest, CounterSumsAcrossThreads) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        c.Increment();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.Value(), static_cast<uint64_t>(kThreads) * kPerThread);
  c.Reset();
  EXPECT_EQ(c.Value(), 0u);
}

TEST(MetricsTest, GaugeLastWriterWins) {
  Gauge g;
  g.Set(3.5);
  g.Set(-1.25);
  EXPECT_DOUBLE_EQ(g.Value(), -1.25);
}

TEST(MetricsTest, HistogramBucketsAndOverflow) {
  Histogram h({1.0, 10.0, 100.0});
  h.Observe(0.5);    // <= 1
  h.Observe(1.0);    // <= 1 (bounds are inclusive upper)
  h.Observe(5.0);    // <= 10
  h.Observe(1000.0); // overflow
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 1006.5);
  EXPECT_EQ(h.BucketCount(0), 2u);
  EXPECT_EQ(h.BucketCount(1), 1u);
  EXPECT_EQ(h.BucketCount(2), 0u);
  EXPECT_EQ(h.BucketCount(3), 1u);  // overflow bucket
}

TEST(MetricsTest, RegistryReturnsStableReferencesAndDumps) {
  MetricsRegistry reg;
  Counter& a = reg.counter("musketeer.test.alpha");
  Counter& a2 = reg.counter("musketeer.test.alpha");
  EXPECT_EQ(&a, &a2);
  a.Increment(3);
  reg.gauge("musketeer.test.depth").Set(7);
  reg.histogram("musketeer.test.lat", {0.1, 1.0}).Observe(0.05);

  const std::string dump = reg.DumpText();
  EXPECT_NE(dump.find("musketeer.test.alpha 3"), std::string::npos) << dump;
  EXPECT_NE(dump.find("musketeer.test.depth 7"), std::string::npos) << dump;
  EXPECT_NE(dump.find("musketeer.test.lat count=1"), std::string::npos) << dump;
}

// ---- Tracer ----------------------------------------------------------------

TEST(TracerTest, DisabledSpansRecordNothing) {
  Tracer& tracer = Tracer::Global();
  tracer.Enable(false);
  tracer.Clear();
  size_t before = tracer.span_count();
  {
    Span span("should-not-record");
    EXPECT_FALSE(span.active());
    span.SetAttr("ignored", "x");
  }
  EXPECT_EQ(tracer.span_count(), before);
}

TEST(TracerTest, NestedSpansLinkParents) {
  Tracer& tracer = Tracer::Global();
  tracer.Clear();
  tracer.Enable(true);
  {
    Span outer("outer", "test");
    {
      Span inner("inner", "test");
      inner.SetAttr("k", "v");
    }
  }
  tracer.Enable(false);

  std::vector<SpanRecord> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  // Snapshot orders by start time: outer starts first.
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_EQ(spans[1].name, "inner");
  EXPECT_EQ(spans[0].parent_id, 0u);
  EXPECT_EQ(spans[1].parent_id, spans[0].id);
  EXPECT_GE(spans[0].dur_us, spans[1].dur_us);
  ASSERT_EQ(spans[1].attrs.size(), 1u);
  EXPECT_EQ(spans[1].attrs[0].first, "k");
  tracer.Clear();
}

TEST(TracerTest, ChromeExportIsValidJson) {
  Tracer& tracer = Tracer::Global();
  tracer.Clear();
  tracer.Enable(true);
  {
    Span span("export\"me", "test");  // name needing escaping
    span.SetAttr("detail", "line1\nline2");
  }
  tracer.Enable(false);

  const std::string path = "obs_tracer_export_test.json";
  ASSERT_TRUE(tracer.WriteChromeTrace(path).ok());
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string text;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, n);
  }
  std::fclose(f);
  std::remove(path.c_str());

  auto doc = ParseJson(text);
  ASSERT_TRUE(doc.ok()) << doc.status();
  const JsonValue* events = doc->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->array.size(), 1u);
  const JsonValue& e = events->array[0];
  EXPECT_EQ(e.Find("name")->string_value, "export\"me");
  EXPECT_EQ(e.Find("ph")->string_value, "X");
  EXPECT_TRUE(e.Find("ts")->is_number());
  EXPECT_TRUE(e.Find("dur")->is_number());
  EXPECT_EQ(e.Find("args")->Find("detail")->string_value, "line1\nline2");
  tracer.Clear();
}

// The set operators are traced like join and group-by: a traced Intersect
// records exactly one kernel.intersect span and bumps its per-call counters
// once, whatever the input size.
TEST(TracerTest, TracedIntersectRecordsOneSpan) {
  Schema s({{"k", FieldType::kInt64}});
  Table a(s);
  Table b(s);
  for (int64_t i = 0; i < 20; ++i) a.AddRow({i});
  for (int64_t i = 10; i < 30; ++i) b.AddRow({i});
  Counter& calls = MetricsRegistry::Global().counter(
      "musketeer.relational.intersect.calls");
  Counter& rows = MetricsRegistry::Global().counter(
      "musketeer.relational.intersect.input_rows");
  const uint64_t calls_before = calls.Value();
  const uint64_t rows_before = rows.Value();

  Tracer& tracer = Tracer::Global();
  tracer.Clear();
  tracer.Enable(true);
  auto out = Intersect(a, b);
  tracer.Enable(false);

  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->num_rows(), 10u);
  std::vector<SpanRecord> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "kernel.intersect");
  EXPECT_EQ(spans[0].category, "kernel");
  EXPECT_EQ(calls.Value() - calls_before, 1u);
  EXPECT_EQ(rows.Value() - rows_before, 40u);
  tracer.Clear();
}

// ---- RuntimeHistory --------------------------------------------------------

TEST(RuntimeHistoryTest, PredictionFallsBackByGranularity) {
  RuntimeHistory rh;
  // No history: prediction is the raw simulated value.
  EXPECT_DOUBLE_EQ(rh.PredictWallSeconds("wf", "jobA@Spark", "Spark", 10.0),
                   10.0);

  // Engine-level: one Hadoop job measured at 2 wall per 100 sim -> alpha .02.
  rh.RecordJob("wf", "jobB@Hadoop", "Hadoop", 100.0, 2.0);
  EXPECT_DOUBLE_EQ(rh.PredictWallSeconds("wf", "other@Hadoop", "Hadoop", 50.0),
                   1.0);
  // Unknown engine uses the global alpha.
  EXPECT_DOUBLE_EQ(rh.PredictWallSeconds("wf", "jobA@Spark", "Spark", 50.0),
                   1.0);
  // Exact signature beats both: returns the measured mean regardless of sim.
  EXPECT_DOUBLE_EQ(
      rh.PredictWallSeconds("wf", "jobB@Hadoop", "Hadoop", 999.0), 2.0);

  RuntimeCalibration cal = rh.Calibration();
  EXPECT_TRUE(cal.has_observations);
  EXPECT_DOUBLE_EQ(cal.TimeScale("Hadoop"), 0.02);
  EXPECT_DOUBLE_EQ(cal.TimeScale("never-seen"), 0.02);  // global fallback
  EXPECT_EQ(rh.total_jobs(), 1);
}

TEST(RuntimeHistoryTest, ConcurrentRecordsAllLand) {
  RuntimeHistory rh;
  constexpr int kThreads = 8;
  constexpr int kJobs = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kJobs; ++i) {
        rh.RecordJob("wf", "job" + std::to_string(t), "Spark", 1.0, 0.5);
        (void)rh.PredictWallSeconds("wf", "job0", "Spark", 1.0);
        (void)rh.Calibration();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(rh.total_jobs(), kThreads * kJobs);
  EXPECT_DOUBLE_EQ(rh.Calibration().TimeScale("Spark"), 0.5);
}

// ---- End-to-end acceptance -------------------------------------------------

void SeedDfs(Dfs* dfs) {
  GraphSpec spec;
  spec.name = "obs-graph";
  spec.nominal_vertices = 50000;
  spec.nominal_edges = 400000;
  spec.sample_vertices = 300;
  GraphDataset graph = MakePowerLawGraph(spec);
  dfs->Put("vertices_rel", graph.vertices);
  dfs->Put("edges_rel", graph.edges);
  dfs->Put("purchases", MakePurchases(/*nominal_rows=*/1e6, /*sample_rows=*/2000,
                                      /*num_regions=*/8, /*seed=*/3));
}

WorkflowSpec TopShopperSpec() {
  return {.id = "obs-topshopper",
          .language = FrontendLanguage::kBeer,
          .source = TopShopperBeer(/*region=*/2, /*threshold=*/50.0)};
}

// Acceptance: a multi-job workflow executed through the service produces a
// Chrome trace-event file containing at least one span per pipeline stage
// and one job span per engine job.
TEST(ObservabilityEndToEndTest, TraceCoversStagesAndJobs) {
  Tracer& tracer = Tracer::Global();
  tracer.Clear();
  tracer.Enable(true);

  Dfs dfs;
  SeedDfs(&dfs);
  ServiceConfig config;
  config.num_workers = 1;
  // Per-operator jobs: guarantees the workflow splits into >= 2 engine jobs.
  config.default_options.planner.enable_merging = false;
  config.default_options.planner.strategy = PartitionStrategyKind::kDp;
  WorkflowService service(&dfs, config);

  WorkflowHandle h = service.Submit(TopShopperSpec());
  h->Wait();
  service.Shutdown();
  tracer.Enable(false);
  ASSERT_EQ(h->state(), WorkflowState::kDone) << h->result().status();
  const size_t num_jobs = h->result()->plans.size();
  ASSERT_GE(num_jobs, 2u);

  const std::string path = "obs_trace_e2e_test.json";
  ASSERT_TRUE(tracer.WriteChromeTrace(path).ok());
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string text;
  char buf[8192];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, n);
  }
  std::fclose(f);
  std::remove(path.c_str());

  auto doc = ParseJson(text);
  ASSERT_TRUE(doc.ok()) << doc.status();
  const JsonValue* events = doc->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  std::multiset<std::string> names;
  size_t job_spans = 0;
  for (const JsonValue& e : events->array) {
    const JsonValue* name = e.Find("name");
    ASSERT_NE(name, nullptr);
    ASSERT_TRUE(name->is_string());
    names.insert(name->string_value);
    const JsonValue* cat = e.Find("cat");
    ASSERT_NE(cat, nullptr);
    if (cat->string_value == "job") {
      ++job_spans;
    }
    // Every event is a well-formed complete event.
    EXPECT_EQ(e.Find("ph")->string_value, "X");
    EXPECT_TRUE(e.Find("ts")->is_number());
    EXPECT_TRUE(e.Find("dur")->is_number());
  }
  // One span per pipeline stage...
  for (const char* stage : {"stage.parse", "stage.optimize", "stage.partition",
                            "stage.codegen", "stage.execute"}) {
    EXPECT_GE(names.count(stage), 1u) << stage;
  }
  // ...one per engine job, plus the service envelope span.
  EXPECT_GE(job_spans, num_jobs);
  EXPECT_GE(names.count("service.workflow"), 1u);
  tracer.Clear();
}

// Acceptance: the calibration loop. Run 1 predicts job wall time from raw
// simulated seconds (wrong by orders of magnitude); run 2 predicts from the
// measured history and must shrink the mean relative error substantially.
TEST(ObservabilityEndToEndTest, CalibrationShrinksPredictionError) {
  Dfs dfs;
  SeedDfs(&dfs);
  RuntimeHistory runtime_history;
  ServiceConfig config;
  config.num_workers = 1;
  config.default_options.runtime_history = &runtime_history;
  WorkflowService service(&dfs, config);

  WorkflowHandle first = service.Submit(TopShopperSpec());
  first->Wait();
  ASSERT_EQ(first->state(), WorkflowState::kDone) << first->result().status();
  WorkflowHandle second = service.Submit(TopShopperSpec());
  second->Wait();
  ASSERT_EQ(second->state(), WorkflowState::kDone)
      << second->result().status();

  const RunResult& r1 = *first->result();
  const RunResult& r2 = *second->result();
  EXPECT_GT(r1.measured_wall_seconds, 0);
  EXPECT_GT(r2.measured_wall_seconds, 0);
  // Run 1 had no history: predictions are simulated seconds, off by orders
  // of magnitude from the in-process wall clock.
  EXPECT_GT(r1.cost_model_error, 1.0);
  // Run 2 predicted each job from its measured runtime: the error must
  // collapse. 0.5 is a deliberately loose bound — the observed drop is
  // several orders of magnitude; wall-clock jitter cannot approach it.
  EXPECT_LT(r2.cost_model_error, r1.cost_model_error * 0.5)
      << "run1 err " << r1.cost_model_error << " run2 err "
      << r2.cost_model_error;
  EXPECT_EQ(runtime_history.total_jobs(),
            static_cast<int>(r1.job_results.size() + r2.job_results.size()));
}

}  // namespace
}  // namespace musketeer
