// Shard scaling and locality placement (beyond the paper).
//
// Runs the nine evaluation workflows through the ShardCoordinator at M = 1,
// 2, 3 shards and measures what sharding costs and what locality-aware
// placement buys:
//
//   - wall_ms: wall clock for the whole suite (min over reps, so a 1-core CI
//     host's scheduling noise does not masquerade as a regression);
//   - placement accounting: locality hit rate and the cross-shard bytes the
//     placer agreed to move at decision time (locality placement sends each
//     job to the shard holding the most of its input bytes);
//   - DFS fetch accounting: measured cross-shard fetches/bytes and the
//     observed transfer rate, reported only (placement counts bytes).
//
// The locality arm is compared against seeded-random placement (same
// workflows, same shards, placement blind to data location). Three
// enforced acceptance criteria, exit 1 on violation:
//
//   1. every run's outputs are bit-identical to the unsharded baseline
//      (sharding must be invisible in the bits);
//   2. locality placement achieves >= 80% byte-optimal placements and moves
//      fewer cross-shard bytes than random at M = 3;
//   3. no wall-clock regression: the 3-shard suite stays within slack of the
//      1-shard suite (the shards are in-process; coordination is cheap).
//
// Results land in BENCH_shard_scaling.json for plotting.

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/service/shard_coordinator.h"
#include "tests/workflow_setups.h"

namespace musketeer {
namespace {

struct SuiteResult {
  double wall_ms = 0;
  uint64_t placements = 0;
  uint64_t locality_hits = 0;
  Bytes placed_cross_shard_bytes = 0;
  uint64_t remote_fetches = 0;
  Bytes remote_bytes_fetched = 0;
  double measured_remote_mbps = 0;
  bool identical = true;
};

RunOptions SuiteOptions() {
  RunOptions options;
  options.cluster = Ec2Cluster(16);
  return options;
}

// Unsharded reference outputs, one table per workflow.
std::vector<TablePtr> Baseline() {
  std::vector<TablePtr> outputs;
  for (Wf wf : kAllWorkflows) {
    WfSetup setup = MakeSetup(wf);
    Dfs dfs;
    for (const auto& [name, table] : setup.inputs) {
      dfs.Put(name, table);
    }
    RunResult result = MustRun(&dfs, setup.workflow, SuiteOptions());
    outputs.push_back(result.outputs.at(setup.result_relation));
  }
  return outputs;
}

// One pass of the whole suite at `shards` under `policy`; outputs checked
// bit-for-bit against the baseline.
SuiteResult RunSuite(int shards, PlacementPolicy policy,
                     const std::vector<TablePtr>& baseline) {
  SuiteResult out;
  const auto start = std::chrono::steady_clock::now();
  size_t wf_index = 0;
  for (Wf wf : kAllWorkflows) {
    WfSetup setup = MakeSetup(wf);
    ShardedDfs dfs(shards);
    for (const auto& [name, table] : setup.inputs) {
      dfs.Put(name, table);
    }
    CoordinatorConfig config;
    config.placement = policy;
    config.placement_seed = 42;
    ShardCoordinator coordinator(&dfs, config);
    auto result = coordinator.Run(setup.workflow, SuiteOptions());
    if (!result.ok()) {
      std::fprintf(stderr, "FATAL: %s at M=%d failed: %s\n", WfName(wf),
                   shards, result.status().ToString().c_str());
      std::exit(1);
    }
    auto it = result->outputs.find(setup.result_relation);
    if (it == result->outputs.end() ||
        !Table::Identical(*baseline[wf_index], *it->second)) {
      out.identical = false;
      std::fprintf(stderr, "DIVERGED: %s at M=%d policy=%s\n", WfName(wf),
                   shards, PlacementPolicyName(policy));
    }
    CoordinatorStats stats = coordinator.stats();
    out.placements += stats.placements;
    out.locality_hits += stats.locality_hits;
    out.placed_cross_shard_bytes += stats.placed_cross_shard_bytes;
    out.remote_fetches += stats.remote_fetches;
    out.remote_bytes_fetched += stats.remote_bytes_fetched;
    out.measured_remote_mbps = stats.measured_remote_mbps;
    ++wf_index;
  }
  out.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  return out;
}

double HitRate(const SuiteResult& r) {
  return r.placements == 0 ? 1.0
                           : static_cast<double>(r.locality_hits) /
                                 static_cast<double>(r.placements);
}

int RunAll() {
  PrintHeader("Shard scaling (9-workflow suite)",
              "wall_ms is min over reps; bytes are nominal MB");

  const std::vector<TablePtr> baseline = Baseline();

  struct Arm {
    int shards;
    PlacementPolicy policy;
    SuiteResult result;
  };
  std::vector<Arm> arms = {
      {1, PlacementPolicy::kLocality, {}},
      {2, PlacementPolicy::kLocality, {}},
      {3, PlacementPolicy::kLocality, {}},
      {3, PlacementPolicy::kRandom, {}},
  };

  constexpr int kReps = 3;
  for (Arm& arm : arms) {
    for (int rep = 0; rep < kReps; ++rep) {
      SuiteResult r = RunSuite(arm.shards, arm.policy, baseline);
      if (rep == 0) {
        arm.result = r;  // accounting is deterministic; keep the first
      } else {
        arm.result.wall_ms = std::min(arm.result.wall_ms, r.wall_ms);
      }
      if (!r.identical) {
        arm.result.identical = false;
      }
    }
  }

  PrintRow({"shards", "policy", "wall_ms", "hit_rate", "placed_cross_MB",
            "fetches", "fetched_MB", "rate_MBps"});
  for (const Arm& arm : arms) {
    const SuiteResult& r = arm.result;
    PrintRow({std::to_string(arm.shards), PlacementPolicyName(arm.policy),
              Fmt(r.wall_ms, "%.1f"), Fmt(HitRate(r), "%.3f"),
              Fmt(r.placed_cross_shard_bytes / kMB, "%.1f"),
              std::to_string(r.remote_fetches),
              Fmt(r.remote_bytes_fetched / kMB, "%.1f"),
              Fmt(r.measured_remote_mbps, "%.0f")});
  }

  const std::string json_path = "BENCH_shard_scaling.json";
  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "FATAL: cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < arms.size(); ++i) {
    const Arm& arm = arms[i];
    const SuiteResult& r = arm.result;
    std::fprintf(
        f,
        "  {\"shards\": %d, \"policy\": \"%s\", \"workflows\": 9, "
        "\"wall_ms\": %.1f, \"placements\": %llu, \"locality_hits\": %llu, "
        "\"locality_hit_rate\": %.3f, \"placed_cross_shard_mb\": %.2f, "
        "\"remote_fetches\": %llu, \"remote_bytes_mb\": %.2f, "
        "\"measured_remote_mbps\": %.1f, \"identical\": %s}%s\n",
        arm.shards, PlacementPolicyName(arm.policy), r.wall_ms,
        static_cast<unsigned long long>(r.placements),
        static_cast<unsigned long long>(r.locality_hits), HitRate(r),
        r.placed_cross_shard_bytes / kMB,
        static_cast<unsigned long long>(r.remote_fetches),
        r.remote_bytes_fetched / kMB, r.measured_remote_mbps,
        r.identical ? "true" : "false", i + 1 < arms.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  std::printf("\nwrote %s (%zu records)\n", json_path.c_str(), arms.size());

  // ---- acceptance ----------------------------------------------------------
  bool ok = true;
  for (const Arm& arm : arms) {
    if (!arm.result.identical) {
      std::fprintf(stderr, "FATAL: outputs diverged at M=%d policy=%s\n",
                   arm.shards, PlacementPolicyName(arm.policy));
      ok = false;
    }
  }
  const Arm& one = arms[0];
  const Arm& locality3 = arms[2];
  const Arm& random3 = arms[3];
  if (HitRate(locality3.result) < 0.8) {
    std::fprintf(stderr, "FATAL: locality hit rate %.3f < 0.8 at M=3\n",
                 HitRate(locality3.result));
    ok = false;
  }
  if (locality3.result.placed_cross_shard_bytes >=
      random3.result.placed_cross_shard_bytes) {
    std::fprintf(stderr,
                 "FATAL: locality moved %.1f MB cross-shard, random %.1f MB "
                 "— locality is not winning\n",
                 locality3.result.placed_cross_shard_bytes / kMB,
                 random3.result.placed_cross_shard_bytes / kMB);
    ok = false;
  }
  // In-process shards re-run identical work; allow generous slack so a
  // 1-core CI host's noise does not fail the build, but catch a real
  // coordination-cost blowup.
  const double budget_ms = 1.6 * one.result.wall_ms + 250.0;
  if (locality3.result.wall_ms > budget_ms) {
    std::fprintf(stderr,
                 "FATAL: M=3 suite took %.1f ms vs %.1f ms at M=1 "
                 "(budget %.1f ms)\n",
                 locality3.result.wall_ms, one.result.wall_ms, budget_ms);
    ok = false;
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace musketeer

int main() { return musketeer::RunAll(); }
