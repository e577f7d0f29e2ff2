// musketeer — command-line workflow runner and service driver.
//
// Runs a workflow written in any of the four front-end languages against
// CSV inputs, letting Musketeer choose back-end engines (or forcing them),
// and writes result relations back to CSV. With --serve the CLI instead
// stands up the concurrent workflow service (src/service/) and pushes every
// given workflow file through its submission queue and worker pool.
//
// Usage:
//   musketeer [options] <workflow-file>            one-shot run
//   musketeer [options] --serve=N <files...>       service mode, N workers
//
// Options:
//   --language=beer|hive|gas|lindi   front-end (default: by file extension)
//   --input=NAME=FILE:SCHEMA         input relation, e.g.
//                                    --input=prices=prices.csv:id:int,price:double
//   --scale=NAME=FACTOR              treat NAME as FACTOR x larger than its
//                                    sample (simulated nominal size)
//   --cluster=local|single|ec2:N     cluster model (default: local)
//   --engines=naiad,hadoop,...       restrict engine choice (default: all)
//   --output=NAME=FILE               write relation NAME to FILE as CSV
//   --threads=N                      intra-query data-plane parallelism
//                                    (default: MUSKETEER_THREADS env, else
//                                    hardware concurrency)
//   --explain                        also print IR, partitioning & job code
//   --trace-out=FILE                 write a Chrome trace_event JSON file
//                                    (load in chrome://tracing / Perfetto)
//   --metrics                        dump the metrics registry on exit
//   --history-file=FILE              load relation-size history before the
//                                    run and save it back after (JSON)
//   --serve=N                        run a workflow service with N workers;
//                                    every positional file is submitted
//   --shards=M                       one-shot across M in-process DFS shards
//                                    (locality-aware placement; outputs are
//                                    bit-identical to --shards=1 at any M)
//   --placement=locality|random      shard placement policy
//   --shard-fault=SHARD@N            kill a shard's compute mid-run (demo of
//                                    shard failover: jobs re-place on the
//                                    surviving shards)
//   --shard-of=K/M --peers=...       socket mode: serve shard K of an
//                                    M-process cluster (compose with
//                                    --listen; peers exchange relations over
//                                    GET/PUT /relation/<name>)
//   --repeat=K                       service mode: submit each file K times
//   --queue=CAP                      service mode: submission queue bound
//   --no-plan-cache                  service mode: disable the plan cache
//
// Example:
//   ./build/tools/musketeer --input=purchases=p.csv:uid:int,region:int,amount:double
//       --output=top_shoppers=out.csv --explain top_shopper.beer

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include "src/base/parallel.h"
#include "src/base/strings.h"
#include "src/cluster/sharded_dfs.h"
#include "src/core/musketeer.h"
#include "src/net/peer_dfs.h"
#include "src/net/server.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/relational/csv.h"
#include "src/relational/schema.h"
#include "src/scheduler/partition_strategy.h"
#include "src/service/service.h"
#include "src/service/shard_coordinator.h"

using namespace musketeer;

namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "musketeer: %s\n", message.c_str());
  return 1;
}

std::optional<EngineKind> EngineFromName(const std::string& name) {
  for (EngineKind kind : kAllEngines) {
    if (EqualsIgnoreCase(name, EngineKindName(kind))) {
      return kind;
    }
  }
  return std::nullopt;
}

void PrintUsage() {
  std::printf(
      "usage: musketeer [options] <workflow-file>\n"
      "       musketeer [options] --serve=N <workflow-files...>\n"
      "  --language=beer|hive|gas|lindi\n"
      "  --input=NAME=FILE:SCHEMA      (SCHEMA: col:int|double|string,...)\n"
      "  --scale=NAME=FACTOR\n"
      "  --cluster=local|single|ec2:N\n"
      "  --engines=naiad,hadoop,...\n"
      "  --output=NAME=FILE\n"
      "  --threads=N                   (default: MUSKETEER_THREADS env,\n"
      "                                 else hardware concurrency)\n"
      "  --explain\n"
      "  --trace-out=FILE --metrics --history-file=FILE\n"
      "  --serve=N --repeat=K --queue=CAP --no-plan-cache\n"
      "  --shards=M                    (one-shot over M in-process DFS shards\n"
      "                                 with locality-aware job placement)\n"
      "  --placement=locality|random   (shard placement policy, default\n"
      "                                 locality)\n"
      "  --shard-fault=SHARD@N         (kill SHARD's compute after N job\n"
      "                                 dispatches; its data stays readable)\n"
      "  --shard-of=K/M --peers=H:P,...  (serve shard K of an M-process\n"
      "                                 cluster; compose with --listen. The\n"
      "                                 peer list has one host:port per\n"
      "                                 shard, '-' for this process's slot;\n"
      "                                 each process loads only the --input\n"
      "                                 relations its shard owns)\n"
      "  --listen=PORT                 (serve HTTP; compose\n"
      "                                 with --serve=N for the worker count,\n"
      "                                 Ctrl-C drains and exits)\n"
      "  --quota=TENANT=W[:QUEUED[:INFLIGHT]]  (fair-share weight and caps)\n"
      "  --keepalive-timeout-ms=N      (close idle keep-alive connections\n"
      "                                 after N ms; 0 = never, the default)\n"
      "  --dispatch-latency-ms=N       (simulated per-job engine dispatch\n"
      "                                 wait in service/listen mode)\n"
      "  --deadline-ms=N               (workflow budget incl. queue wait)\n"
      "  --max-retries=N               (per-engine retries per job)\n"
      "  --fault-rate=F --fault-seed=S (seeded fault injection)\n"
      "  --no-failover                 (disable cross-engine failover)\n"
      "  --incremental                 (reuse jobs whose input fingerprints\n"
      "                                 are unchanged since the last run —\n"
      "                                 with --serve/--listen, resubmits\n"
      "                                 recompute only the affected DAG\n"
      "                                 suffix)\n"
      "  --partitioner=auto|dp|exhaustive|dp-multi\n"
      "                                (partitioning strategy; auto picks\n"
      "                                 exhaustive below the op threshold,\n"
      "                                 DP above it)\n"
      "  --replan-threshold=R          (re-plan the remaining DAG when a\n"
      "                                 job's measured runtime is off by\n"
      "                                 more than Rx from its prediction;\n"
      "                                 0 = off, needs runtime history)\n");
}

// Infers the front-end language for `path` from --language or the extension.
std::optional<FrontendLanguage> LanguageForFile(
    const std::string& path, std::optional<FrontendLanguage> forced) {
  if (forced.has_value()) {
    return forced;
  }
  size_t dot = path.rfind('.');
  if (dot == std::string::npos) {
    return std::nullopt;
  }
  return FrontendLanguageFromName(path.substr(dot + 1));
}

std::optional<WorkflowSpec> LoadWorkflowFile(
    const std::string& path, std::optional<FrontendLanguage> forced) {
  auto language = LanguageForFile(path, forced);
  if (!language.has_value()) {
    return std::nullopt;
  }
  std::ifstream in(path);
  if (!in) {
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  WorkflowSpec spec;
  spec.id = path;
  spec.language = *language;
  spec.source = buf.str();
  return spec;
}

// "alice=3:8:2" -> {weight 3, max_queued 8, max_in_flight 2}. Queued and
// in-flight caps are optional (0 = unbounded beyond the global queue).
std::optional<std::pair<std::string, TenantQuota>> ParseQuotaSpec(
    const std::string& spec) {
  size_t eq = spec.find('=');
  if (eq == std::string::npos || eq == 0) {
    return std::nullopt;
  }
  std::vector<std::string> parts = StrSplit(spec.substr(eq + 1), ':');
  if (parts.empty() || parts.size() > 3) {
    return std::nullopt;
  }
  TenantQuota quota;
  auto weight = ParseInt64(parts[0]);
  if (!weight.has_value() || *weight < 1) {
    return std::nullopt;
  }
  quota.weight = static_cast<int>(*weight);
  if (parts.size() > 1) {
    auto queued = ParseInt64(parts[1]);
    if (!queued.has_value() || *queued < 0) {
      return std::nullopt;
    }
    quota.max_queued = static_cast<size_t>(*queued);
  }
  if (parts.size() > 2) {
    auto in_flight = ParseInt64(parts[2]);
    if (!in_flight.has_value() || *in_flight < 0) {
      return std::nullopt;
    }
    quota.max_in_flight = static_cast<int>(*in_flight);
  }
  return std::make_pair(spec.substr(0, eq), quota);
}

// SIGINT/SIGTERM set a flag; the listen loop polls it so shutdown runs on
// the main thread (HttpServer::Shutdown is not async-signal-safe).
std::atomic<bool> g_stop_requested{false};

void HandleStopSignal(int) { g_stop_requested.store(true); }

// Listen mode: stand up the workflow service plus the network front door
// and serve until SIGINT/SIGTERM. Any positional workflow files are
// submitted once at startup (a warm-up batch); remote clients then submit
// over HTTP.
int RunListen(Dfs* dfs, const std::vector<std::string>& paths,
              std::optional<FrontendLanguage> forced_language,
              const RunOptions& base_options, int workers, uint16_t port,
              size_t queue_capacity, bool plan_cache,
              std::chrono::milliseconds dispatch_latency,
              std::chrono::milliseconds keepalive_timeout,
              const std::vector<std::pair<std::string, TenantQuota>>& quotas,
              HistoryStore* history, RuntimeHistory* runtime_history) {
  ServiceConfig config;
  config.num_workers = workers;
  config.queue_capacity = queue_capacity;
  config.plan_cache_capacity = plan_cache ? 128 : 0;
  config.dispatch_latency = dispatch_latency;
  config.default_options = base_options;
  config.default_options.history = history;
  config.default_options.runtime_history = runtime_history;
  config.tenant_quotas = quotas;
  WorkflowService service(dfs, config);

  for (const std::string& path : paths) {
    auto spec = LoadWorkflowFile(path, forced_language);
    if (!spec.has_value()) {
      return Fail("cannot load workflow '" + path +
                  "' (missing file or unknown language)");
    }
    service.SubmitBlocking(std::move(*spec));
  }

  ServerConfig server_config;
  server_config.port = port;
  server_config.keepalive_timeout = keepalive_timeout;
  HttpServer server(&service, server_config);
  Status started = server.Start();
  if (!started.ok()) {
    return Fail("listen failed: " + started.ToString());
  }
  std::printf("musketeer: listening on 127.0.0.1:%u (%d worker(s)); "
              "Ctrl-C to drain and exit\n",
              server.port(), workers);
  std::fflush(stdout);

  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  while (!g_stop_requested.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  // Cooperative shutdown: stop accepting + flush connections, then drain
  // the worker pool so accepted work still settles.
  std::printf("musketeer: shutting down...\n");
  server.Shutdown();
  service.Shutdown();
  ServiceStats stats = service.stats();
  std::printf("%llu submitted, %llu done, %llu failed, %llu rejected, "
              "%llu cancelled\n",
              (unsigned long long)stats.submitted,
              (unsigned long long)stats.completed,
              (unsigned long long)stats.failed,
              (unsigned long long)stats.rejected,
              (unsigned long long)stats.cancelled);
  return stats.failed == 0 ? 0 : 1;
}

// Service mode: submit every workflow file `repeat` times through the
// concurrent service and report per-submission status plus throughput.
int RunServe(Dfs* dfs, const std::vector<std::string>& paths,
             std::optional<FrontendLanguage> forced_language,
             const RunOptions& base_options, int workers, int repeat,
             size_t queue_capacity, bool plan_cache, HistoryStore* history,
             RuntimeHistory* runtime_history) {
  std::vector<WorkflowSpec> specs;
  for (const std::string& path : paths) {
    auto spec = LoadWorkflowFile(path, forced_language);
    if (!spec.has_value()) {
      return Fail("cannot load workflow '" + path +
                  "' (missing file or unknown language)");
    }
    specs.push_back(std::move(*spec));
  }

  ServiceConfig config;
  config.num_workers = workers;
  config.queue_capacity = queue_capacity;
  config.plan_cache_capacity = plan_cache ? 128 : 0;
  config.default_options = base_options;
  config.default_options.history = history;
  config.default_options.runtime_history = runtime_history;
  WorkflowService service(dfs, config);

  const auto start = std::chrono::steady_clock::now();
  std::vector<WorkflowHandle> handles;
  for (int r = 0; r < repeat; ++r) {
    for (const WorkflowSpec& spec : specs) {
      handles.push_back(service.SubmitBlocking(spec));
    }
  }
  service.Drain();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  std::printf("%-28s %-9s %10s %10s %10s %6s\n", "workflow", "state",
              "sim (s)", "queue (ms)", "total (ms)", "cache");
  for (const WorkflowHandle& h : handles) {
    char sim[32] = "-";
    if (h->state() == WorkflowState::kDone) {
      std::snprintf(sim, sizeof(sim), "%.1f", h->result()->makespan);
    }
    std::printf("%-28s %-9s %10s %10.2f %10.2f %6s\n", h->spec().id.c_str(),
                WorkflowStateName(h->state()), sim, h->queue_seconds() * 1e3,
                h->total_seconds() * 1e3, h->plan_cache_hit() ? "hit" : "miss");
  }
  for (const WorkflowHandle& h : handles) {
    if (!h->result().ok() && h->state() != WorkflowState::kQueued) {
      std::fprintf(stderr, "%s: %s\n", h->spec().id.c_str(),
                   h->result().status().ToString().c_str());
    }
  }
  ServiceStats stats = service.stats();
  std::printf(
      "\n%llu submitted, %llu done, %llu failed, %llu rejected; "
      "plan cache %llu hit / %llu miss\n",
      (unsigned long long)stats.submitted, (unsigned long long)stats.completed,
      (unsigned long long)stats.failed, (unsigned long long)stats.rejected,
      (unsigned long long)stats.plan_cache_hits,
      (unsigned long long)stats.plan_cache_misses);
  std::printf("%d worker(s): %zu submissions in %.3f s = %.1f submissions/s\n",
              workers, handles.size(), elapsed,
              elapsed > 0 ? handles.size() / elapsed : 0.0);
  return stats.failed == 0 && stats.rejected == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> workflow_paths;
  std::optional<FrontendLanguage> language;
  ClusterConfig cluster = LocalCluster();
  std::vector<EngineKind> engines;
  std::vector<std::pair<std::string, std::string>> outputs;  // relation, file
  bool explain = false;
  int serve_workers = 0;  // 0 = one-shot mode
  int listen_port = -1;   // >= 0 = network server mode (0 picks a free port)
  int64_t dispatch_latency_ms = 0;
  int64_t keepalive_timeout_ms = 0;  // 0 = idle connections never reaped
  std::vector<std::pair<std::string, TenantQuota>> tenant_quotas;
  int repeat = 1;
  int64_t queue_capacity = 64;
  bool plan_cache = true;
  int64_t deadline_ms = 0;
  int64_t max_retries = 0;
  double fault_rate = 0;
  int64_t fault_seed = 0;
  bool failover = true;
  std::string trace_out;
  std::string history_file;
  bool dump_metrics = false;
  int num_shards = 0;      // >= 1 = in-process sharded one-shot mode
  PlacementPolicy placement = PlacementPolicy::kLocality;
  int shard_fault = -1;
  int64_t shard_fault_after = 0;
  int shard_of_k = -1;     // >= 0 = socket shard mode (--shard-of=K/M)
  int shard_of_m = 0;
  std::vector<PeerAddress> peer_addrs;
  bool peers_given = false;
  bool incremental = false;
  std::optional<PartitionStrategyKind> partitioner;  // nullopt = auto
  double replan_threshold = -1;    // < 0 = off (planner default)

  // Input relations are parsed now but loaded only after the storage layer
  // (plain, sharded, or peer) is chosen.
  struct CliInput {
    std::string name;
    std::string file;
    Schema schema;
  };
  std::vector<CliInput> inputs;
  std::vector<std::pair<std::string, double>> scales;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      PrintUsage();
      return 0;
    }
    if (arg == "--explain") {
      explain = true;
      continue;
    }
    if (StartsWith(arg, "--serve=")) {
      auto n = ParseInt64(arg.substr(8));
      if (!n.has_value() || *n < 1) {
        return Fail("--serve needs a worker count >= 1");
      }
      serve_workers = static_cast<int>(*n);
      continue;
    }
    if (StartsWith(arg, "--listen=")) {
      auto n = ParseInt64(arg.substr(9));
      if (!n.has_value() || *n < 0 || *n > 65535) {
        return Fail("--listen needs a port in [0, 65535] (0 = ephemeral)");
      }
      listen_port = static_cast<int>(*n);
      continue;
    }
    if (StartsWith(arg, "--quota=")) {
      auto quota = ParseQuotaSpec(arg.substr(8));
      if (!quota.has_value()) {
        return Fail("--quota needs TENANT=WEIGHT[:MAX_QUEUED[:MAX_INFLIGHT]]");
      }
      tenant_quotas.push_back(std::move(*quota));
      continue;
    }
    if (StartsWith(arg, "--keepalive-timeout-ms=")) {
      auto n = ParseInt64(arg.substr(23));
      if (!n.has_value() || *n < 0) {
        return Fail("--keepalive-timeout-ms needs a timeout >= 0 (0 = off)");
      }
      keepalive_timeout_ms = *n;
      continue;
    }
    if (StartsWith(arg, "--dispatch-latency-ms=")) {
      auto n = ParseInt64(arg.substr(22));
      if (!n.has_value() || *n < 0) {
        return Fail("--dispatch-latency-ms needs a wait >= 0");
      }
      dispatch_latency_ms = *n;
      continue;
    }
    if (StartsWith(arg, "--repeat=")) {
      auto n = ParseInt64(arg.substr(9));
      if (!n.has_value() || *n < 1) {
        return Fail("--repeat needs a count >= 1");
      }
      repeat = static_cast<int>(*n);
      continue;
    }
    if (StartsWith(arg, "--queue=")) {
      auto n = ParseInt64(arg.substr(8));
      if (!n.has_value() || *n < 1) {
        return Fail("--queue needs a capacity >= 1");
      }
      queue_capacity = *n;
      continue;
    }
    if (arg == "--no-plan-cache") {
      plan_cache = false;
      continue;
    }
    if (StartsWith(arg, "--deadline-ms=")) {
      auto n = ParseInt64(arg.substr(14));
      if (!n.has_value() || *n < 1) {
        return Fail("--deadline-ms needs a budget >= 1");
      }
      deadline_ms = *n;
      continue;
    }
    if (StartsWith(arg, "--max-retries=")) {
      auto n = ParseInt64(arg.substr(14));
      if (!n.has_value() || *n < 0) {
        return Fail("--max-retries needs a count >= 0");
      }
      max_retries = *n;
      continue;
    }
    if (StartsWith(arg, "--fault-rate=")) {
      auto f = ParseDouble(arg.substr(13));
      if (!f.has_value() || *f < 0 || *f > 1) {
        return Fail("--fault-rate needs a probability in [0, 1]");
      }
      fault_rate = *f;
      continue;
    }
    if (StartsWith(arg, "--fault-seed=")) {
      auto n = ParseInt64(arg.substr(13));
      if (!n.has_value()) {
        return Fail("--fault-seed needs an integer");
      }
      fault_seed = *n;
      continue;
    }
    if (arg == "--no-failover") {
      failover = false;
      continue;
    }
    if (StartsWith(arg, "--trace-out=")) {
      trace_out = arg.substr(12);
      if (trace_out.empty()) {
        return Fail("--trace-out needs a file name");
      }
      continue;
    }
    if (StartsWith(arg, "--history-file=")) {
      history_file = arg.substr(15);
      if (history_file.empty()) {
        return Fail("--history-file needs a file name");
      }
      continue;
    }
    if (arg == "--metrics") {
      dump_metrics = true;
      continue;
    }
    if (StartsWith(arg, "--threads=")) {
      auto n = ParseInt64(arg.substr(10));
      if (!n.has_value() || *n < 1) {
        return Fail("--threads needs a thread count >= 1");
      }
      SetParallelThreads(static_cast<int>(*n));
      continue;
    }
    if (StartsWith(arg, "--language=")) {
      language = FrontendLanguageFromName(arg.substr(11));
      if (!language.has_value()) {
        return Fail("unknown language in " + arg);
      }
      continue;
    }
    if (StartsWith(arg, "--cluster=")) {
      std::string spec = arg.substr(10);
      if (spec == "local") {
        cluster = LocalCluster();
      } else if (spec == "single") {
        cluster = SingleMachine();
      } else if (StartsWith(spec, "ec2:")) {
        auto n = ParseInt64(spec.substr(4));
        if (!n.has_value() || *n < 1) {
          return Fail("bad node count in " + arg);
        }
        cluster = Ec2Cluster(static_cast<int>(*n));
      } else {
        return Fail("unknown cluster '" + spec + "'");
      }
      continue;
    }
    if (StartsWith(arg, "--engines=")) {
      for (const std::string& name : StrSplit(arg.substr(10), ',')) {
        auto kind = EngineFromName(name);
        if (!kind.has_value()) {
          return Fail("unknown engine '" + name + "'");
        }
        engines.push_back(*kind);
      }
      continue;
    }
    if (StartsWith(arg, "--input=")) {
      std::string spec = arg.substr(8);
      size_t eq = spec.find('=');
      if (eq == std::string::npos) {
        return Fail("--input needs NAME=FILE:SCHEMA");
      }
      std::string name = spec.substr(0, eq);
      std::string rest = spec.substr(eq + 1);
      size_t colon = rest.find(':');
      if (colon == std::string::npos) {
        return Fail("--input needs a schema after the file name");
      }
      std::string file = rest.substr(0, colon);
      auto schema = ParseSchemaSpec(rest.substr(colon + 1));
      if (!schema.has_value()) {
        return Fail("bad schema spec in " + arg);
      }
      inputs.push_back({std::move(name), std::move(file), std::move(*schema)});
      continue;
    }
    if (arg == "--incremental") {
      incremental = true;
      continue;
    }
    if (StartsWith(arg, "--partitioner=")) {
      partitioner = PartitionStrategyKindFromName(arg.substr(14));
      if (!partitioner.has_value()) {
        return Fail("--partitioner needs one of auto|dp|exhaustive|dp-multi");
      }
      continue;
    }
    if (StartsWith(arg, "--replan-threshold=")) {
      auto r = ParseDouble(arg.substr(19));
      if (!r.has_value() || *r < 0) {
        return Fail("--replan-threshold needs a ratio >= 0 (0 = off)");
      }
      replan_threshold = *r;
      continue;
    }
    if (StartsWith(arg, "--shards=")) {
      auto n = ParseInt64(arg.substr(9));
      if (!n.has_value() || *n < 1 || *n > 64) {
        return Fail("--shards needs a shard count in [1, 64]");
      }
      num_shards = static_cast<int>(*n);
      continue;
    }
    if (StartsWith(arg, "--placement=")) {
      auto policy = PlacementPolicyFromName(arg.substr(12));
      if (!policy.has_value()) {
        return Fail("--placement needs locality or random");
      }
      placement = *policy;
      continue;
    }
    if (StartsWith(arg, "--shard-fault=")) {
      std::string spec = arg.substr(14);
      size_t at = spec.find('@');
      auto shard = ParseInt64(spec.substr(0, at));
      std::optional<int64_t> after;
      if (at != std::string::npos) after = ParseInt64(spec.substr(at + 1));
      if (!shard.has_value() || *shard < 0 || !after.has_value() ||
          *after < 0) {
        return Fail("--shard-fault needs SHARD@DISPATCHES");
      }
      shard_fault = static_cast<int>(*shard);
      shard_fault_after = *after;
      continue;
    }
    if (StartsWith(arg, "--shard-of=")) {
      std::string spec = arg.substr(11);
      size_t slash = spec.find('/');
      auto k = ParseInt64(spec.substr(0, slash));
      std::optional<int64_t> m;
      if (slash != std::string::npos) m = ParseInt64(spec.substr(slash + 1));
      if (!k.has_value() || !m.has_value() || *m < 1 || *k < 0 || *k >= *m) {
        return Fail("--shard-of needs K/M with 0 <= K < M");
      }
      shard_of_k = static_cast<int>(*k);
      shard_of_m = static_cast<int>(*m);
      continue;
    }
    if (StartsWith(arg, "--peers=")) {
      auto parsed = ParsePeerList(arg.substr(8));
      if (!parsed.has_value()) {
        return Fail("--peers needs host:port,host:port,... ('-' = own slot)");
      }
      peer_addrs = std::move(*parsed);
      peers_given = true;
      continue;
    }
    if (StartsWith(arg, "--scale=")) {
      std::string spec = arg.substr(8);
      size_t eq = spec.find('=');
      auto factor = eq == std::string::npos
                        ? std::nullopt
                        : ParseDouble(spec.substr(eq + 1));
      if (!factor.has_value() || *factor <= 0) {
        return Fail("--scale needs NAME=FACTOR");
      }
      scales.emplace_back(spec.substr(0, eq), *factor);
      continue;
    }
    if (StartsWith(arg, "--output=")) {
      std::string spec = arg.substr(9);
      size_t eq = spec.find('=');
      if (eq == std::string::npos) {
        return Fail("--output needs NAME=FILE");
      }
      outputs.emplace_back(spec.substr(0, eq), spec.substr(eq + 1));
      continue;
    }
    if (StartsWith(arg, "--")) {
      PrintUsage();
      return Fail("unknown option " + arg);
    }
    workflow_paths.push_back(arg);
  }

  if (workflow_paths.empty() && listen_port < 0) {
    PrintUsage();
    return Fail("no workflow file given");
  }
  if (listen_port < 0 && serve_workers == 0 && workflow_paths.size() > 1) {
    return Fail("multiple workflow files need --serve=N");
  }
  if (num_shards > 0 && shard_of_k >= 0) {
    return Fail("--shards (in-process) and --shard-of (socket) are exclusive");
  }
  if (num_shards > 0 && (serve_workers > 0 || listen_port >= 0)) {
    return Fail("--shards is a one-shot mode; use --shard-of for servers");
  }
  if (shard_of_k >= 0) {
    if (listen_port < 0) {
      return Fail("--shard-of needs --listen=PORT (peers fetch relations "
                  "over the front door)");
    }
    if (!peers_given || static_cast<int>(peer_addrs.size()) != shard_of_m) {
      return Fail("--shard-of=K/M needs --peers with exactly M entries");
    }
  } else if (peers_given) {
    return Fail("--peers only makes sense with --shard-of=K/M");
  }

  // Stand up the chosen storage layer, then load inputs into it.
  Dfs plain_dfs;
  std::unique_ptr<ShardedDfs> sharded_dfs;
  std::unique_ptr<PeerDfs> peer_dfs;
  Dfs* dfs = &plain_dfs;
  if (num_shards > 0) {
    sharded_dfs = std::make_unique<ShardedDfs>(num_shards);
    dfs = sharded_dfs.get();
  } else if (shard_of_k >= 0) {
    peer_dfs = std::make_unique<PeerDfs>(shard_of_k, shard_of_m,
                                         std::move(peer_addrs));
    dfs = peer_dfs.get();
  }

  for (const auto& input : inputs) {
    if (peer_dfs != nullptr && peer_dfs->OwnerOf(input.name) != shard_of_k) {
      continue;  // another process in the cluster owns (and loads) this one
    }
    auto table = LoadCsvFile(input.file, input.schema);
    if (!table.ok()) {
      return Fail("loading " + input.file + ": " + table.status().ToString());
    }
    dfs->Put(input.name, std::make_shared<Table>(std::move(table).value()));
  }

  // Apply nominal scales.
  for (const auto& [name, factor] : scales) {
    if (peer_dfs != nullptr && peer_dfs->OwnerOf(name) != shard_of_k) {
      continue;  // the owning process applies this relation's scale
    }
    auto table = dfs->Get(name);
    if (!table.ok()) {
      return Fail("--scale names unknown input '" + name + "'");
    }
    auto scaled = std::make_shared<Table>(**table);
    scaled->set_scale(factor);
    dfs->Put(name, scaled);
  }

  HistoryStore history;
  if (!history_file.empty()) {
    Status loaded = history.LoadFrom(history_file);
    if (!loaded.ok()) {
      return Fail("loading " + history_file + ": " + loaded.ToString());
    }
  }
  RuntimeHistory runtime_history;
  if (!trace_out.empty()) {
    Tracer::Global().Enable(true);
  }

  // Observability epilogue shared by both modes: flush the trace, persist
  // history, dump metrics.
  auto epilogue = [&](int exit_code) {
    if (!trace_out.empty()) {
      Status written = Tracer::Global().WriteChromeTrace(trace_out);
      if (!written.ok()) {
        return Fail(written.ToString());
      }
      std::printf("wrote %zu trace span(s) to %s\n",
                  Tracer::Global().span_count(), trace_out.c_str());
    }
    if (!history_file.empty()) {
      Status saved = history.SaveTo(history_file);
      if (!saved.ok()) {
        return Fail(saved.ToString());
      }
    }
    if (dump_metrics) {
      std::printf("--- metrics ---\n%s",
                  MetricsRegistry::Global().DumpText().c_str());
    }
    return exit_code;
  };

  RunOptions options;
  options.cluster = cluster;
  options.engines = engines;
  if (!history_file.empty()) {
    options.history = &history;
  }
  options.runtime_history = &runtime_history;
  options.deadline = std::chrono::milliseconds(deadline_ms);
  options.retry.max_attempts = static_cast<int>(max_retries) + 1;
  options.retry.enable_failover = failover;
  options.fault_rate = fault_rate;
  options.fault_seed = static_cast<uint64_t>(fault_seed);
  options.incremental = incremental;
  if (partitioner.has_value()) {
    options.planner.strategy = *partitioner;
  }
  if (replan_threshold >= 0) {
    options.planner.replan_threshold = replan_threshold;
  }
  // One process, one fingerprint store: one-shot runs record into it (a
  // --repeat'd or resubmitted workflow in --serve/--listen mode instead uses
  // the service-owned store, plumbed when options.fingerprints stays null).
  FingerprintStore fingerprints;

  if (listen_port >= 0) {
    if (peer_dfs != nullptr) {
      std::printf("musketeer: serving shard %d of %d (%s partitioning)\n",
                  shard_of_k, shard_of_m,
                  ShardingStrategyName(ShardingStrategy::kConsistentHash));
    }
    return epilogue(RunListen(dfs, workflow_paths, language, options,
                              serve_workers > 0 ? serve_workers : 4,
                              static_cast<uint16_t>(listen_port),
                              static_cast<size_t>(queue_capacity), plan_cache,
                              std::chrono::milliseconds(dispatch_latency_ms),
                              std::chrono::milliseconds(keepalive_timeout_ms),
                              tenant_quotas, &history, &runtime_history));
  }
  if (serve_workers > 0) {
    return epilogue(RunServe(dfs, workflow_paths, language, options,
                             serve_workers, repeat,
                             static_cast<size_t>(queue_capacity), plan_cache,
                             &history, &runtime_history));
  }

  // One-shot from here on: record fingerprints into the process-local store
  // so an --incremental run of a multi-sink workflow can reuse within itself.
  options.fingerprints = &fingerprints;

  const std::string& workflow_path = workflow_paths[0];
  auto loaded = LoadWorkflowFile(workflow_path, language);
  if (!loaded.has_value()) {
    return Fail("cannot load workflow '" + workflow_path +
                "' (missing file, or pass --language=)");
  }
  WorkflowSpec workflow = std::move(*loaded);

  Musketeer m(dfs);

  if (explain) {
    auto dag = m.Lower(workflow, /*optimize=*/true);
    if (!dag.ok()) {
      return Fail(dag.status().ToString());
    }
    std::printf("--- optimized IR (%d operators) ---\n%s\n",
                (*dag)->TotalOperatorCount(), (*dag)->DebugString().c_str());
  }

  // Sharded one-shot: the plan fans out across the coordinator's shards
  // instead of executing inline. Results are Table::Identical either way.
  std::unique_ptr<ShardCoordinator> coordinator;
  if (sharded_dfs != nullptr) {
    CoordinatorConfig coord_config;
    coord_config.placement = placement;
    coord_config.fault_shard = shard_fault;
    coord_config.fault_after_dispatches = static_cast<int>(shard_fault_after);
    coord_config.default_options = options;
    coordinator =
        std::make_unique<ShardCoordinator>(sharded_dfs.get(), coord_config);
  }

  auto result = coordinator != nullptr ? coordinator->Run(workflow, options)
                                       : m.Run(workflow, options);
  if (!result.ok()) {
    return Fail(result.status().ToString());
  }

  std::printf("%zu job(s), %.1f simulated seconds on %s (%s partitioner%s):\n",
              result->plans.size(), result->makespan, cluster.name.c_str(),
              result->partition_strategy.c_str(),
              result->replans > 0
                  ? (", " + std::to_string(result->replans) + " replan(s)")
                        .c_str()
                  : "");
  for (size_t i = 0; i < result->plans.size(); ++i) {
    std::printf("  job %zu: %s (%.1f s)\n", i + 1,
                result->plans[i].name.c_str(),
                result->job_results[i].makespan);
  }
  if (result->jobs_reused > 0) {
    std::printf("incremental: %d job(s) reused\n", result->jobs_reused);
  }
  if (result->total_faults_injected > 0 || result->total_retries > 0 ||
      result->total_failovers > 0) {
    std::printf("fault tolerance: %d injected fault(s), %d retry(ies), "
                "%d failover(s)\n",
                result->total_faults_injected, result->total_retries,
                result->total_failovers);
    for (const JobRecovery& rec : result->recovery) {
      if (rec.attempts > 1 || rec.failovers > 0) {
        std::printf("  %s: %d attempt(s), %s -> %s\n", rec.job.c_str(),
                    rec.attempts, EngineKindName(rec.planned_engine),
                    EngineKindName(rec.final_engine));
      }
    }
  }
  if (coordinator != nullptr) {
    const CoordinatorStats cs = coordinator->stats();
    std::string per_shard;
    for (uint64_t jobs : cs.jobs_per_shard) {
      if (!per_shard.empty()) per_shard += " ";
      per_shard += std::to_string(jobs);
    }
    std::printf("sharding: %d shard(s), jobs [%s], placement %s, "
                "locality %llu/%llu\n",
                coordinator->num_shards(), per_shard.c_str(),
                PlacementPolicyName(placement),
                (unsigned long long)cs.locality_hits,
                (unsigned long long)cs.placements);
    std::printf("          %llu cross-shard fetch(es), %.2f MB at "
                "%.1f MB/s measured\n",
                (unsigned long long)cs.remote_fetches,
                cs.remote_bytes_fetched / kMB, cs.measured_remote_mbps);
  }
  if (explain) {
    for (const JobPlan& plan : result->plans) {
      std::printf("\n--- %s ---\n%s", plan.name.c_str(),
                  plan.generated_code.c_str());
    }
  }

  for (const auto& [relation, file] : outputs) {
    auto table = dfs->Get(relation);
    if (!table.ok()) {
      return Fail("workflow produced no relation '" + relation + "'");
    }
    Status saved = SaveCsvFile(**table, file);
    if (!saved.ok()) {
      return Fail(saved.ToString());
    }
    std::printf("wrote %s (%zu rows) to %s\n", relation.c_str(),
                (*table)->num_rows(), file.c_str());
  }

  // Without --output, show the sink relations inline.
  if (outputs.empty()) {
    for (const auto& [name, table] : result->outputs) {
      std::printf("\n%s:\n%s", name.c_str(), table->DebugString(10).c_str());
    }
  }
  return epilogue(0);
}
