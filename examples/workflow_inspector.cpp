// Workflow inspector: shows every stage of Musketeer's pipeline (Figure 5 of
// the paper) for a chosen built-in workflow — front-end source, the IR DAG,
// the optimized DAG (Graphviz available via --dot), the cost-based
// partitioning on a chosen cluster, and the generated per-engine job code.
//
//   ./build/examples/workflow_inspector [tpch|netflix|pagerank|kmeans|
//                                        topshopper|sssp|hybrid] [--dot]

#include <cstdio>
#include <cstring>
#include <string>

#include "src/core/musketeer.h"
#include "src/workloads/datasets.h"
#include "src/workloads/workflows.h"

using namespace musketeer;

namespace {

struct Selection {
  WorkflowSpec workflow;
  void (*seed)(Dfs*);
  ClusterConfig cluster;
};

void SeedTpch(Dfs* dfs) {
  TpchDataset data = MakeTpch(100);
  dfs->Put("lineitem", data.lineitem);
  dfs->Put("part", data.part);
}
void SeedNetflix(Dfs* dfs) {
  NetflixDataset data = MakeNetflix();
  dfs->Put("ratings", data.ratings);
  dfs->Put("movies", data.movies);
}
void SeedPageRank(Dfs* dfs) {
  GraphDataset graph = TwitterGraph();
  dfs->Put("vertices", graph.vertices);
  dfs->Put("edges", graph.edges);
}
void SeedSssp(Dfs* dfs) {
  GraphDataset graph = TwitterGraphWithCosts();
  dfs->Put("vertices", graph.vertices);
  dfs->Put("edges", graph.edges);
}
void SeedKmeans(Dfs* dfs) {
  KmeansDataset data = MakeKmeans(1e8, 400, 100, 13);
  dfs->Put("points", data.points);
  dfs->Put("centers", data.centers);
}
void SeedTopShopper(Dfs* dfs) {
  dfs->Put("purchases", MakePurchases(4e8, 4000, 10, 31));
}
void SeedHybrid(Dfs* dfs) {
  CommunityPair pair = MakeOverlappingCommunities();
  dfs->Put("lj_edges", pair.a.edges);
  dfs->Put("web_edges", pair.b.edges);
}

Selection Select(const std::string& name) {
  if (name == "netflix") {
    return {{.id = "netflix", .language = FrontendLanguage::kBeer,
             .source = NetflixBeer(100)},
            &SeedNetflix, Ec2Cluster(100)};
  }
  if (name == "pagerank") {
    return {{.id = "pagerank", .language = FrontendLanguage::kGas,
             .source = PageRankGas(5)},
            &SeedPageRank, Ec2Cluster(100)};
  }
  if (name == "sssp") {
    return {{.id = "sssp", .language = FrontendLanguage::kGas,
             .source = SsspGas(5)},
            &SeedSssp, Ec2Cluster(100)};
  }
  if (name == "kmeans") {
    return {{.id = "kmeans", .language = FrontendLanguage::kBeer,
             .source = KmeansBeer(5)},
            &SeedKmeans, Ec2Cluster(100)};
  }
  if (name == "topshopper") {
    return {{.id = "top-shopper", .language = FrontendLanguage::kBeer,
             .source = TopShopperBeer(5, 5000)},
            &SeedTopShopper, LocalCluster()};
  }
  if (name == "hybrid") {
    return {{.id = "cross-community", .language = FrontendLanguage::kBeer,
             .source = CrossCommunityPageRankBeer(5)},
            &SeedHybrid, LocalCluster()};
  }
  return {{.id = "tpch-q17", .language = FrontendLanguage::kHive,
           .source = TpchQ17Hive()},
          &SeedTpch, Ec2Cluster(100)};
}

}  // namespace

int main(int argc, char** argv) {
  std::string which = argc > 1 ? argv[1] : "tpch";
  bool dot = false;
  for (int i = 1; i < argc; ++i) {
    dot = dot || std::strcmp(argv[i], "--dot") == 0;
  }
  Selection sel = Select(which);

  std::printf("=== %s (%s front-end) ===\n", sel.workflow.id.c_str(),
              FrontendLanguageName(sel.workflow.language));
  std::printf("--- source ---\n%s\n", sel.workflow.source.c_str());

  Dfs dfs;
  sel.seed(&dfs);
  Musketeer m(&dfs);

  auto raw = m.Lower(sel.workflow, /*optimize=*/false);
  if (!raw.ok()) {
    std::fprintf(stderr, "parse failed: %s\n", raw.status().ToString().c_str());
    return 1;
  }
  std::printf("--- IR DAG (%d operators) ---\n%s\n",
              (*raw)->TotalOperatorCount(), (*raw)->DebugString().c_str());

  auto optimized = m.Lower(sel.workflow, /*optimize=*/true);
  if (!optimized.ok()) {
    std::fprintf(stderr, "optimize failed: %s\n",
                 optimized.status().ToString().c_str());
    return 1;
  }
  if (dot) {
    std::printf("--- optimized DAG (Graphviz) ---\n%s\n",
                (*optimized)->ToDot().c_str());
  }

  RunOptions options;
  options.cluster = sel.cluster;
  auto result = m.Run(sel.workflow, options);
  if (!result.ok()) {
    std::fprintf(stderr, "run failed: %s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("--- partitioning on %s (%s search) ---\n",
              sel.cluster.name.c_str(),
              result->partition_strategy.c_str());
  for (size_t i = 0; i < result->partitioning.jobs.size(); ++i) {
    const JobAssignment& job = result->partitioning.jobs[i];
    std::printf("  job %zu -> %-11s (%zu ops, est. %.1f s)\n", i + 1,
                EngineKindName(job.engine), job.ops.size(), job.cost);
  }
  std::printf("\n--- execution: %.1f simulated seconds ---\n", result->makespan);
  for (const JobResult& jr : result->job_results) {
    std::printf("  %s\n", jr.detail.c_str());
  }
  std::printf("\n--- generated code (first job) ---\n%s\n",
              result->plans.front().generated_code.c_str());
  return 0;
}
