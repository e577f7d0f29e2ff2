// The repository benchmark (perfbench/README.md).
//
//   perfbench --workload <paper_batch|dag_plan|serve_mix|shard_batch>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--size full|tiny] [--trace-file <path>]
//
// --trace 0 measures the end-to-end metrics: set-up several times (median),
// compute reference outputs, warm up with one verified cycle, then a
// closed loop of whole request cycles for --seconds. --trace 1 measures the
// per-layer metrics: a fixed request sequence alternately untraced and
// traced (tracing overhead, count determinism), then the layer-at-a-time
// pass, and writes the Chrome trace. The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "perfbench/bench.h"
#include "src/base/logging.h"
#include "src/base/parallel.h"
#include "src/obs/trace.h"

namespace musketeer::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

// Per-layer metrics with the end-to-end metric a change in the layer should
// move, and on which workload (README.md explains the choice).
struct LayerDef {
  const char* name;
  const char* unit;
  const char* moves;
  const char* on;
};

constexpr LayerDef kLayers[] = {
    {"frontends.parse_ms", "ms", "latency_p50_ms", "dag_plan"},
    {"opt.optimize_ms", "ms", "latency_p50_ms", "dag_plan"},
    {"scheduler.predict_sizes_ms", "ms", "latency_p50_ms", "dag_plan"},
    {"scheduler.partition_ms", "ms", "latency_p50_ms", "dag_plan"},
    {"scheduler.jobs_per_wf", "count", "cpu_ms_per_wf", "dag_plan,paper_batch"},
    {"backends.codegen_ms", "ms", "latency_p50_ms", "dag_plan"},
    {"engines.execute_job_ms", "ms", "throughput_wf_per_s", "paper_batch"},
    {"engines.kernel_ms", "ms", "throughput_wf_per_s", "paper_batch"},
    {"engines.substrate_ms", "ms", "throughput_wf_per_s", "paper_batch"},
    {"relational.verify_ms", "ms", "latency_p50_ms", "paper_batch"},
    {"engines.residual_ms", "ms", "latency_p50_ms", "paper_batch"},
    {"core.plan_ms", "ms", "latency_p50_ms", "dag_plan"},
    {"core.execute_ms", "ms", "latency_p50_ms", "dag_plan"},
    {"core.execute_overhead_ms", "ms", "latency_p50_ms", "dag_plan"},
    {"core.layer_coverage_ratio", "ratio", "(sanity >=0.95)",
     "paper_batch,dag_plan"},
    {"cluster.shard_overhead_ms", "ms", "latency_p50_ms", "shard_batch"},
    {"cluster.remote_mb", "MB", "latency_p50_ms", "shard_batch"},
    {"cluster.remote_fetches", "count", "latency_p50_ms", "shard_batch"},
    {"scheduler.locality_hit_ratio", "ratio", "latency_p50_ms", "shard_batch"},
    {"service.queue_wait_ms", "ms", "latency_p90_ms", "serve_mix"},
    {"service.run_ms", "ms", "latency_p50_ms", "serve_mix"},
    {"service.plan_cache_hit_ratio", "ratio", "cpu_ms_per_wf", "serve_mix"},
    {"stream.jobs_reused_ratio", "ratio", "cpu_ms_per_wf", "serve_mix"},
    {"net.submit_ms", "ms", "latency_p50_ms", "serve_mix"},
    {"net.notify_lag_ms", "ms", "latency_p50_ms", "serve_mix"},
    {"net.result_ms", "ms", "latency_p50_ms", "serve_mix"},
    {"net.result_mb", "MB", "latency_p50_ms", "serve_mix"},
    {"net.put_relation_ms", "ms", "latency_p90_ms", "serve_mix"},
    {"obs.trace_overhead_ratio", "ratio", "(budget <=0.05)", "all"},
};

// Counts the determinism guard holds to exact repetition (per request).
constexpr const char* kGuardedCounts[] = {
    "scheduler.jobs_per_wf", "stream.jobs_reused_ratio",
    "service.plan_cache_hit_ratio", "cluster.remote_mb",
    "scheduler.locality_hit_ratio"};

// Set-up repeats: at least kMinSetups, more while they fit in a second.
constexpr int kMinSetups = 7;
constexpr int kMaxSetups = 31;

double Seconds(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Linear interpolation between closest ranks.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

int HostCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return HardwareThreads();
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

void PrintResult(bool correct, int attempted, int failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    out += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
           value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

void PrintClasses(const Pass& pass) {
  std::printf("%-18s %8s %10s %10s\n", "class", "requests", "p50_ms",
              "p90_ms");
  for (const auto& [label, ms] : pass.class_latency_ms) {
    std::printf("%-18s %8zu %10.3f %10.3f\n", label.c_str(), ms.size(),
                Percentile(ms, 0.5), Percentile(ms, 0.9));
  }
}

Pass VerifiedPass(Workload* w, const Limit& limit, const char* what) {
  Pass pass = w->RunPass(limit);
  if (pass.failed > 0) {
    std::fprintf(stderr, "%s: %d of %d requests failed or differed\n", what,
                 pass.failed, pass.attempted);
  }
  return pass;
}

int EndToEnd(const std::string& name, uint64_t seed, Size size, int threads,
             double seconds) {
  std::vector<double> setup_s;
  std::unique_ptr<Workload> w;
  const auto first = Clock::now();
  while (setup_s.size() < kMinSetups ||
         (setup_s.size() < kMaxSetups && Seconds(first) < 1.0)) {
    w.reset();
    w = MakeWorkload(name, seed, size, threads);
    const auto start = Clock::now();
    w->Setup();
    setup_s.push_back(Seconds(start));
  }
  w->ComputeReferences();
  const Pass warm = VerifiedPass(w.get(), {.cycles = 1}, "warm-up");

  // At least 100 samples, so at least 10 lie beyond p90.
  const Pass pass = VerifiedPass(
      w.get(), {.seconds = seconds, .min_requests = 100}, "measured");
  const double done = static_cast<double>(pass.latency_ms.size());
  // Throughput and CPU per workflow are medians over the pass's segments,
  // so a stretch in which the host ran something else counts once.
  std::vector<double> rates;
  std::vector<double> cpu_per_wf;
  for (const Segment& s : pass.segments) {
    if (s.verified > 0) {
      rates.push_back(s.verified / s.wall_s);
      cpu_per_wf.push_back(s.cpu_ms / s.verified);
    }
  }

  const std::vector<Metric> metrics = {
      {"setup_s", "s", Percentile(setup_s, 0.5)},
      {"throughput_wf_per_s", "wf/s", Percentile(rates, 0.5)},
      {"latency_p50_ms", "ms", Percentile(pass.latency_ms, 0.5)},
      {"latency_p90_ms", "ms", Percentile(pass.latency_ms, 0.9)},
      {"cpu_ms_per_wf", "ms", Percentile(cpu_per_wf, 0.5)},
      {"peak_rss_mb", "MB", PeakRssMb()},
  };
  PrintClasses(pass);
  std::printf("\n%-22s %14s %s\n", "metric", "value", "unit");
  for (const Metric& m : metrics) {
    std::printf("%-22s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%-22s %14.4f %s   (requests %d, timed %.2f s)\n",
              "failed_ratio",
              Ratio(pass.failed, pass.attempted), "ratio", pass.attempted,
              pass.wall_s);
  const bool correct = warm.failed == 0 && pass.failed == 0 && done > 0;
  PrintResult(correct, pass.attempted, pass.failed, metrics);
  return 0;
}

// The guarded counts of a fixed-sequence pass, per request.
std::map<std::string, double> GuardedCounts(const Pass& p) {
  const std::map<std::string, double>& c = p.counts;
  auto get = [&](const char* key) {
    auto it = c.find(key);
    return it == c.end() ? 0.0 : it->second;
  };
  const double requests = static_cast<double>(p.attempted);
  return {
      {"scheduler.jobs_per_wf", Ratio(get("jobs"), requests)},
      {"stream.jobs_reused_ratio",
       Ratio(get("jobs_reused"), get("incremental_jobs"))},
      {"service.plan_cache_hit_ratio",
       Ratio(get("plan_cache_hits"),
             get("plan_cache_hits") + get("plan_cache_misses"))},
      {"cluster.remote_mb", Ratio(get("remote_bytes") / 1e6, requests)},
      {"scheduler.locality_hit_ratio",
       Ratio(get("locality_hits"), get("placements"))},
      {"cluster.remote_fetches", Ratio(get("remote_fetches"), requests)},
  };
}

int Traced(const std::string& name, uint64_t seed, Size size, int threads,
           const std::string& trace_file) {
  std::unique_ptr<Workload> w = MakeWorkload(name, seed, size, threads);
  w->Setup();
  w->ComputeReferences();
  const Pass warm = VerifiedPass(w.get(), {.cycles = 1}, "warm-up");
  int attempted = 0;
  int failed = warm.failed;

  // The same fixed sequence, untraced and traced, twice each. Guarded
  // counts must agree exactly across all four.
  const int cycles = name == "dag_plan" ? 1 : 3;
  const Limit fixed{.cycles = cycles, .probe = true};
  Tracer::Global().Enable(false);
  Tracer::Global().Clear();
  double untraced_s = 0;
  double traced_s = 0;
  int traced_requests = 0;
  std::map<std::string, double> layer;
  std::map<std::string, double> counts;
  bool deterministic = true;
  for (int round = 0; round < 2; ++round) {
    for (bool traced : {false, true}) {
      Tracer::Global().Enable(traced);
      const Pass p = VerifiedPass(w.get(), fixed, traced ? "traced" : "untraced");
      Tracer::Global().Enable(false);
      attempted += p.attempted;
      failed += p.failed;
      (traced ? traced_s : untraced_s) += p.wall_s;
      const std::map<std::string, double> c = GuardedCounts(p);
      if (counts.empty()) {
        counts = c;
      } else if (c != counts) {
        deterministic = false;
      }
      if (traced) {
        traced_requests += p.attempted;
        for (const auto& [k, v] : p.layer) {
          layer[k] += v;
        }
        layer["puts"] += p.counts.count("puts") ? p.counts.at("puts") : 0;
      }
    }
  }
  if (!deterministic) {
    for (const auto& [k, v] : counts) {
      std::fprintf(stderr, "first pass %s = %.17g\n", k.c_str(), v);
    }
    Fatal("counts differ between passes of the same request sequence");
  }

  Tracer::Global().Enable(true);
  const AnatomyResult anatomy = RunAnatomy(w->targets());
  Tracer::Global().Enable(false);
  attempted += anatomy.requests;
  failed += anatomy.failed;
  if (!anatomy.jobs_match) {
    Fatal("the layer-at-a-time pass planned another job count than Run");
  }

  std::vector<std::string> span_names = LayerSpanNames();
  for (const char* n : {"net.submit_ms", "net.result_ms", "net.put_relation_ms",
                        "cluster.coordinator_run_ms"}) {
    span_names.push_back(n);
  }
  const std::map<std::string, double> self = SelfTimesMs(span_names);
  const double n = std::max(1, anatomy.requests);
  auto per = [&](const char* span) { return self.at(span) / n; };
  const double execute_job = per("engines.execute_job_ms");
  const double kernel = per("engines.kernel_ms");
  const double substrate = per("engines.substrate_ms");
  const double verify = per("relational.verify_ms");
  const double layers_sum =
      per("frontends.parse_ms") + per("opt.optimize_ms") +
      per("scheduler.predict_sizes_ms") + per("scheduler.partition_ms") +
      per("backends.codegen_ms") + execute_job;
  const double served = layer["requests"];
  const double coordinator_runs = name == "shard_batch" ? traced_requests : 0;

  std::map<std::string, double> values = {
      {"frontends.parse_ms", per("frontends.parse_ms")},
      {"opt.optimize_ms", per("opt.optimize_ms")},
      {"scheduler.predict_sizes_ms", per("scheduler.predict_sizes_ms")},
      {"scheduler.partition_ms", per("scheduler.partition_ms")},
      {"scheduler.jobs_per_wf", Ratio(anatomy.jobs, n)},
      {"backends.codegen_ms", per("backends.codegen_ms")},
      {"engines.execute_job_ms", execute_job},
      {"engines.kernel_ms", kernel},
      {"engines.substrate_ms", substrate},
      {"relational.verify_ms", verify},
      {"engines.residual_ms", execute_job - kernel - substrate - verify},
      {"core.plan_ms", per("core.plan_ms")},
      {"core.execute_ms", per("core.execute_ms")},
      {"core.execute_overhead_ms", per("core.execute_ms") - execute_job},
      {"core.layer_coverage_ratio", Ratio(layers_sum, per("core.run_ms"))},
      {"cluster.shard_overhead_ms",
       coordinator_runs > 0
           ? self.at("cluster.coordinator_run_ms") / coordinator_runs -
                 per("core.run_ms")
           : 0},
      {"cluster.remote_mb", counts["cluster.remote_mb"]},
      {"cluster.remote_fetches", counts["cluster.remote_fetches"]},
      {"scheduler.locality_hit_ratio", counts["scheduler.locality_hit_ratio"]},
      {"service.queue_wait_ms", Ratio(layer["service.queue_wait_ms"], served)},
      {"service.run_ms", Ratio(layer["service.run_ms"], served)},
      {"service.plan_cache_hit_ratio",
       counts["service.plan_cache_hit_ratio"]},
      {"stream.jobs_reused_ratio", counts["stream.jobs_reused_ratio"]},
      {"net.submit_ms", Ratio(self.at("net.submit_ms"), served)},
      {"net.notify_lag_ms", Ratio(layer["net.notify_lag_ms"], served)},
      {"net.result_ms", Ratio(self.at("net.result_ms"), served)},
      {"net.result_mb", Ratio(layer["net.result_mb"], served)},
      {"net.put_relation_ms",
       Ratio(self.at("net.put_relation_ms"), layer["puts"])},
      {"obs.trace_overhead_ratio", Ratio(traced_s, untraced_s) - 1},
  };

  std::printf("%-28s %12s %-6s %-20s %s\n", "per-layer metric", "value",
              "unit", "should move", "on");
  std::vector<Metric> metrics;
  for (const LayerDef& d : kLayers) {
    metrics.push_back({d.name, d.unit, values.at(d.name)});
    std::printf("%-28s %12.4f %-6s %-20s %s\n", d.name, values.at(d.name),
                d.unit, d.moves, d.on);
  }
  std::printf("\ncore.layer_coverage_ratio %.4f, obs.trace_overhead_ratio "
              "%.4f (untraced %.3f s, traced %.3f s)\n",
              values.at("core.layer_coverage_ratio"),
              values.at("obs.trace_overhead_ratio"), untraced_s, traced_s);
  for (const char* key : kGuardedCounts) {
    std::printf("guarded count %s = %.17g\n", key, values.at(key));
  }
  if (!trace_file.empty()) {
    Status written = Tracer::Global().WriteChromeTrace(trace_file);
    if (!written.ok()) {
      Fatal("writing " + trace_file + ": " + written.ToString());
    }
    std::printf("chrome trace: %s (%zu spans)\n", trace_file.c_str(),
                Tracer::Global().span_count());
  }
  PrintResult(failed == 0, attempted, failed, metrics);
  return 0;
}

int Main(int argc, char** argv) {
  std::string workload;
  std::string size_name = "full";
  std::string trace_file;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      trace = std::atoi(value.c_str());
    } else if (flag == "--size") {
      size_name = value;
    } else if (flag == "--trace-file") {
      trace_file = value;
    } else {
      Fatal("unknown flag " + flag);
    }
  }
  if (size_name != "full" && size_name != "tiny") {
    Fatal("--size must be full or tiny");
  }
  const Size size = size_name == "full" ? Size::kFull : Size::kTiny;
  const int threads = HostCpus();
  if (MakeWorkload(workload, seed, size, threads) == nullptr) {
    Fatal("unknown workload '" + workload + "'");
  }
  SetLogLevel(LogLevel::kWarning);
  // Kernels run at width 1. On a shared 4-core host, width 4 moved a
  // request class's median by up to 15% between runs of one seed, against
  // about 3% at width 1; at the benchmark's sample sizes width 4 buys only
  // about 10% throughput.
  SetParallelThreads(1);
  std::printf("workload %s, seed %llu, size %s, %d CPUs, trace %d\n",
              workload.c_str(), static_cast<unsigned long long>(seed),
              size_name.c_str(), threads, trace);
  return trace != 0 ? Traced(workload, seed, size, threads, trace_file)
                    : EndToEnd(workload, seed, size, threads, seconds);
}

}  // namespace
}  // namespace musketeer::perfbench

int main(int argc, char** argv) {
  return musketeer::perfbench::Main(argc, argv);
}
