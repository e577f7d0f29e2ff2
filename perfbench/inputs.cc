// Seeded inputs of the benchmark's workloads. The system receives only the
// generated tables and workflow sources; the seed never reaches it.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <regex>

#include "perfbench/bench.h"
#include "src/base/rng.h"
#include "src/workloads/datasets.h"
#include "src/workloads/synthetic_dag.h"
#include "src/workloads/workflows.h"

namespace musketeer::perfbench {

namespace {

int Scaled(double base, double factor, int floor_value) {
  return std::max(floor_value, static_cast<int>(std::lround(base * factor)));
}

GraphDataset Graph(const char* name, double nominal_vertices,
                   double nominal_edges, int sample_vertices, uint64_t seed) {
  GraphSpec spec;
  spec.name = name;
  spec.nominal_vertices = nominal_vertices;
  spec.nominal_edges = nominal_edges;
  spec.sample_vertices = sample_vertices;
  spec.seed = seed;
  return MakePowerLawGraph(spec);
}

// The LiveJournal-like / web-community pair of MakeOverlappingCommunities,
// at a chosen sample size and seed: B shares a third of A's edges.
std::pair<TablePtr, TablePtr> OverlappingEdges(int sample_vertices,
                                               uint64_t seed) {
  GraphDataset a =
      Graph("livejournal", 4.8e6, 69e6, sample_vertices, SubSeed(seed, 1));
  GraphDataset b =
      Graph("webcommunity", 5.8e6, 82e6, sample_vertices, SubSeed(seed, 2));
  auto merged = std::make_shared<Table>(b.edges->schema());
  const Table& a_edges = *a.edges;
  const size_t shared = a_edges.num_rows() / 3;
  for (size_t i = 0; i < shared; ++i) {
    merged->AppendRowFrom(a_edges, i * 3 % a_edges.num_rows());
  }
  for (size_t i = shared; i < b.edges->num_rows(); ++i) {
    merged->AppendRowFrom(*b.edges, i);
  }
  merged->set_scale(b.edges->scale());
  return {a.edges, merged};
}

WorkflowInput Input(std::string label, std::string id, FrontendLanguage lang,
                    std::string source, TableMap inputs) {
  return WorkflowInput{std::move(label),
                       WorkflowSpec{std::move(id), lang, std::move(source)},
                       std::move(inputs), RunOptions{}};
}

// Prefixes every whole-word occurrence of `names` in `source`, so a second
// copy of a workflow reads and writes relations of its own.
std::string Rename(std::string source, const std::vector<std::string>& names,
                   const std::string& prefix) {
  for (const std::string& name : names) {
    source = std::regex_replace(source, std::regex("\\b" + name + "\\b"),
                                prefix + name);
  }
  return source;
}

}  // namespace

void Fatal(const std::string& message) {
  std::fprintf(stderr, "FATAL: %s\n", message.c_str());
  std::exit(1);
}

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  Rng rng(seed * 0x9e3779b97f4a7c15ull + stream);
  return rng.Next();
}

std::vector<WorkflowInput> NineWorkflows(uint64_t seed, double factor) {
  std::vector<WorkflowInput> out;
  out.push_back(Input(
      "top-shopper", "top-shopper", FrontendLanguage::kBeer,
      TopShopperBeer(5, 300.0),
      {{"purchases", MakePurchases(1e6, Scaled(500000, factor, 400), 10,
                                   SubSeed(seed, 10))}}));
  TpchDataset tpch = MakeTpch(10, Scaled(100000, factor, 400), SubSeed(seed, 11));
  out.push_back(Input("tpch-hive", "tpch-q17", FrontendLanguage::kHive,
                      TpchQ17Hive(),
                      {{"lineitem", tpch.lineitem}, {"part", tpch.part}}));
  out.push_back(Input("tpch-lindi", "tpch-q17-lindi", FrontendLanguage::kLindi,
                      TpchQ17Lindi(),
                      {{"lineitem", tpch.lineitem}, {"part", tpch.part}}));
  NetflixDataset netflix = MakeNetflix(Scaled(60, factor, 12), SubSeed(seed, 12));
  out.push_back(Input("netflix", "netflix", FrontendLanguage::kBeer,
                      NetflixBeer(60),
                      {{"ratings", netflix.ratings}, {"movies", netflix.movies}}));
  GraphDataset lj = Graph("livejournal", 4.8e6, 69e6,
                          Scaled(9000, factor, 100), SubSeed(seed, 13));
  out.push_back(Input("simple-join", "join", FrontendLanguage::kBeer,
                      SimpleJoinBeer(),
                      {{"vertices_rel", lj.vertices}, {"edges_rel", lj.edges}}));
  GraphDataset orkut = Graph("orkut", 3.0e6, 117e6, Scaled(4800, factor, 60),
                             SubSeed(seed, 14));
  out.push_back(Input("pagerank-gas", "pagerank", FrontendLanguage::kGas,
                      PageRankGas(3),
                      {{"vertices", orkut.vertices}, {"edges", orkut.edges}}));
  GraphSpec sssp_spec;
  sssp_spec.name = "sssp";
  sssp_spec.sample_vertices = Scaled(36000, factor, 60);
  sssp_spec.nominal_vertices = sssp_spec.sample_vertices;
  sssp_spec.seed = SubSeed(seed, 15);
  sssp_spec.with_costs = true;
  sssp_spec.initial_value = 1e18;
  GraphDataset sssp = MakePowerLawGraph(sssp_spec);
  out.push_back(Input("sssp", "sssp", FrontendLanguage::kGas, SsspGas(4),
                      {{"vertices", sssp.vertices}, {"edges", sssp.edges}}));
  KmeansDataset kmeans =
      MakeKmeans(1e7, Scaled(4500, factor, 60), 4, SubSeed(seed, 16));
  out.push_back(Input("kmeans", "kmeans", FrontendLanguage::kBeer, KmeansBeer(3),
                      {{"points", kmeans.points}, {"centers", kmeans.centers}}));
  auto [lj_edges, web_edges] =
      OverlappingEdges(Scaled(5800, factor, 60), SubSeed(seed, 17));
  out.push_back(Input("cross-community", "cross-community",
                      FrontendLanguage::kBeer, CrossCommunityPageRankBeer(3),
                      {{"lj_edges", lj_edges}, {"web_edges", web_edges}}));
  return out;
}

std::vector<WorkflowInput> SyntheticDags(uint64_t seed, Size size) {
  // Generator seeds whose programs execute with bounded intermediate
  // relations at every size used here: on most seeds a chain of self-joins
  // over UNIONed branches of one relation grows to millions of rows. The
  // set is fixed, so every benchmark seed plans and runs the same programs;
  // the seed sets the order they are sent in.
  static constexpr uint64_t kPrograms[] = {5, 9, 13, 18, 29, 38};
  const std::vector<int> ops = size == Size::kFull
                                   ? std::vector<int>{250, 500, 1000}
                                   : std::vector<int>{25, 50, 100};
  std::vector<WorkflowInput> out;
  for (int n : ops) {
    for (uint64_t program : kPrograms) {
      SyntheticDagSpec spec;
      spec.target_ops = n;
      spec.seed = program;
      spec.sample_rows = 64;
      SyntheticDagWorkload w = MakeSyntheticDag(spec);
      TableMap inputs(w.inputs.begin(), w.inputs.end());
      out.push_back(Input("dag-" + std::to_string(n),
                          "dag-" + std::to_string(n) + "-" +
                              std::to_string(program),
                          FrontendLanguage::kBeer, w.source,
                          std::move(inputs)));
    }
  }
  Shuffle(&out, SubSeed(seed, 100));
  return out;
}

ServeInputs ServeMix(uint64_t seed, Size size) {
  std::vector<WorkflowInput> nine =
      NineWorkflows(seed, size == Size::kFull ? 0.5 : 0.05);
  ServeInputs out;
  for (WorkflowInput& w : nine) {
    // The service maps jobs onto a Hadoop deployment. MapReduce allows one
    // key repartitioning per job, so TPC-H Q17 plans into several jobs and
    // an incremental resubmission has jobs it can reuse; on all engines the
    // planner fuses it into one job, which any append invalidates.
    w.options.engines = {EngineKind::kHadoop};
    if (w.label == "tpch-hive") {
      out.write = std::move(w);
    } else if (w.label == "tpch-lindi") {
      // A read-only TPC-H copy on relations of its own: the writer's
      // appends must not reach any reader.
      static const std::vector<std::string> kNames = {
          "lineitem",    "part",     "li",        "part_avg",
          "brand_parts", "brand_lines", "with_avg", "q17_result"};
      w.spec.source = Rename(w.spec.source, kNames, "lindi_");
      TableMap renamed;
      for (auto& [name, table] : w.inputs) {
        renamed["lindi_" + name] = table;
      }
      w.inputs = std::move(renamed);
      out.reads.push_back(std::move(w));
    } else if (w.label != "sssp") {
      // SSSP reads `vertices`/`edges` like PageRank, on other data; one
      // shared DFS can hold only one of them.
      out.reads.push_back(std::move(w));
    }
  }
  out.written_relation = "part";
  const Table& part = *out.write.inputs.at("part");
  TpchDataset extra = MakeTpch(10, 4000, SubSeed(seed, 20));
  auto appended = std::make_shared<Table>(part);
  const size_t rows = std::max<size_t>(1, part.num_rows() / 10);
  for (size_t i = 0; i < rows && i < extra.part->num_rows(); ++i) {
    appended->AppendRowFrom(*extra.part, i);
  }
  out.appended = appended;
  return out;
}

bool SameOutputs(const TableMap& want, const TableMap& got) {
  if (want.size() != got.size()) {
    return false;
  }
  for (const auto& [name, table] : want) {
    auto it = got.find(name);
    if (it == got.end() || it->second == nullptr ||
        !Table::Identical(*table, *it->second)) {
      return false;
    }
  }
  return true;
}

std::unique_ptr<Dfs> LoadDfs(const TableMap& inputs) {
  auto dfs = std::make_unique<Dfs>();
  for (const auto& [name, table] : inputs) {
    dfs->Put(name, table);
  }
  return dfs;
}

Target MakeTarget(const WorkflowInput& input) {
  std::unique_ptr<Dfs> dfs = LoadDfs(input.inputs);
  Musketeer m(dfs.get());
  auto result = m.Run(input.spec, input.options);
  if (!result.ok()) {
    Fatal("reference run of " + input.label +
          " failed: " + result.status().ToString());
  }
  return Target{input.label, input.spec, input.inputs, input.options,
                result->outputs, static_cast<int>(result->plans.size())};
}

}  // namespace musketeer::perfbench
