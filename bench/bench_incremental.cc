// Incremental execution benchmark (DESIGN.md "Incremental execution"): the
// reused-job fraction and wall clock of an incremental resubmission after a
// 1% base-relation append, against the cold run that recorded the job
// fingerprints.
//
// Gates (non-zero exit on violation):
//   * correctness: the incremental delta run's outputs are Table::Identical
//     to a cold run over the appended inputs;
//   * the incremental resubmission reuses >= 1 job (the untouched prefix).
//
// Writes BENCH_incremental.json. Run by tools/check.sh stage 10.

#include <chrono>
#include <cstdio>
#include <functional>

#include "bench/bench_common.h"
#include "src/base/parallel.h"
#include "src/stream/fingerprint.h"

namespace musketeer {
namespace {

// Wall-clock ms of the fastest of `reps` runs.
double MinWallMs(int reps, const std::function<RunResult()>& fn,
                 RunResult* out) {
  double best = 0;
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    RunResult result = fn();
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    if (r == 0 || ms < best) {
      best = ms;
    }
    *out = std::move(result);
  }
  return best;
}

int RunAll() {
  // Every operator its own Spark job, so the plan keeps an untouched branch
  // to reuse.
  RunOptions options;
  options.cluster = Ec2Cluster(16);
  options.engines = {EngineKind::kSpark};
  options.planner.enable_merging = false;
  bool ok = true;

  // TPC-H Q17 reads two base relations (lineitem, part); appending to part
  // leaves the lineitem-only jobs fingerprint-stable, so the delta run
  // serves them from the DFS and recomputes only the part-dependent suffix.
  PrintHeader("Incremental resubmission (1% append to part)",
              "cold run records fingerprints; appended resubmit recomputes "
              "only the affected suffix of TPC-H Q17");
  const WorkflowSpec tpch{"bench-incremental-tpch", FrontendLanguage::kHive,
                          TpchQ17Hive()};
  TpchDataset tpch_data = MakeTpch(/*scale=*/10, /*sample_rows=*/3000);
  Dfs dfs;
  dfs.Put("lineitem", tpch_data.lineitem);
  dfs.Put("part", tpch_data.part);
  FingerprintStore fingerprints;
  RunOptions cold_options = options;
  cold_options.fingerprints = &fingerprints;
  Musketeer m(&dfs);
  RunResult cold;
  const double cold_ms = MinWallMs(1, [&] {
    auto result = m.Run(tpch, cold_options);
    if (!result.ok()) {
      std::fprintf(stderr, "FATAL: %s\n", result.status().ToString().c_str());
      std::exit(1);
    }
    return std::move(result).value();
  }, &cold);

  // Append 1% of part's rows and resubmit incrementally.
  const Table& part = *tpch_data.part;
  Table grown = part.Slice(0, part.num_rows());
  grown.AppendTableCopy(
      part.Slice(0, std::max<size_t>(1, part.num_rows() / 100)));
  TablePtr appended = std::make_shared<Table>(std::move(grown));
  dfs.Put("part", appended);
  RunOptions delta_options = cold_options;
  delta_options.incremental = true;
  RunResult delta;
  const double delta_ms = MinWallMs(1, [&] {
    auto result = m.Run(tpch, delta_options);
    if (!result.ok()) {
      std::fprintf(stderr, "FATAL: %s\n", result.status().ToString().c_str());
      std::exit(1);
    }
    return std::move(result).value();
  }, &delta);

  const double reused_fraction =
      delta.plans.empty()
          ? 0.0
          : static_cast<double>(delta.jobs_reused) / delta.plans.size();
  PrintRow({"run", "jobs", "reused", "fraction", "wall_ms"});
  PrintRow({"cold", std::to_string(cold.plans.size()), "0", "0.00",
            Fmt(cold_ms, "%.2f")});
  PrintRow({"delta", std::to_string(delta.plans.size()),
            std::to_string(delta.jobs_reused), Fmt(reused_fraction, "%.2f"),
            Fmt(delta_ms, "%.2f")});

  if (delta.jobs_reused < 1) {
    std::fprintf(stderr, "FATAL: incremental resubmit reused no jobs\n");
    ok = false;
  }
  // Delta bits must equal a cold run over the appended inputs.
  {
    Dfs check_dfs;
    check_dfs.Put("lineitem", tpch_data.lineitem);
    check_dfs.Put("part", appended);
    Musketeer check(&check_dfs);
    auto expected = check.Run(tpch, options);
    if (!expected.ok()) {
      std::fprintf(stderr, "FATAL: %s\n",
                   expected.status().ToString().c_str());
      std::exit(1);
    }
    for (const auto& [name, table] : expected->outputs) {
      if (!Table::Identical(*table, *delta.outputs.at(name))) {
        std::fprintf(stderr, "FATAL: incremental sink '%s' diverges from the "
                             "cold run on appended inputs\n", name.c_str());
        ok = false;
      }
    }
  }

  const int hw = HardwareThreads();
  BenchJsonWriter json;
  json.Add("hardware_threads", 0, hw, 0.0);
  json.Add("incremental_cold", cold.plans.size(), hw, cold_ms);
  json.Add("incremental_delta", delta.plans.size(), hw, delta_ms);
  json.Add("incremental_jobs_reused", delta.jobs_reused, hw, 0.0);
  const std::string json_path = "BENCH_incremental.json";
  if (!json.WriteTo(json_path)) {
    std::fprintf(stderr, "FATAL: cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", json_path.c_str());
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace musketeer

int main() { return musketeer::RunAll(); }
