// The four workloads: how each generates its inputs, starts its serving
// stack and sends one closed-loop pass of requests.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <thread>

#include "perfbench/bench.h"
#include "src/base/json.h"
#include "src/net/client.h"
#include "src/net/server.h"
#include "src/obs/trace.h"
#include "src/service/service.h"
#include "src/service/shard_coordinator.h"

namespace musketeer::perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

void Record(const std::string& label, double ms, bool ok, Pass* pass) {
  ++pass->attempted;
  if (ok) {
    pass->latency_ms.push_back(ms);
    pass->class_latency_ms[label].push_back(ms);
  } else {
    ++pass->failed;
  }
}

// One caller, closed loop: each request is sent when the previous one has
// its outputs verified. Only whole cycles run, so every request class has
// the same sample count and the percentile ranks stay put.
Pass SingleCaller(const std::vector<Target>& targets, const Limit& limit,
                  const std::function<bool(size_t, Pass*)>& run_one) {
  Pass pass;
  const auto start = Clock::now();
  for (int cycle = 0;; ++cycle) {
    const bool done = limit.cycles > 0
                          ? cycle >= limit.cycles
                          : cycle > 0 && MsSince(start) >= limit.seconds * 1e3 &&
                                pass.attempted >= limit.min_requests;
    if (done) {
      break;
    }
    const auto cycle_start = Clock::now();
    const double cpu0 = ProcessCpuMs();
    const size_t verified0 = pass.latency_ms.size();
    for (size_t i = 0; i < targets.size(); ++i) {
      const auto t0 = Clock::now();
      const bool ok = run_one(i, &pass);
      Record(targets[i].label, MsSince(t0), ok, &pass);
    }
    pass.segments.push_back(
        {MsSince(cycle_start) / 1e3, ProcessCpuMs() - cpu0,
         static_cast<int>(pass.latency_ms.size() - verified0)});
  }
  pass.wall_s = MsSince(start) / 1e3;
  return pass;
}

// ---- paper_batch, dag_plan: Musketeer::Run in-process ----------------------

// Each request runs in a fresh DFS holding only its inputs. Planning reads
// the schema and size of every relation in the DFS, so intermediates left
// by earlier requests would change what a request costs.
class InProcessWorkload : public Workload {
 public:
  explicit InProcessWorkload(std::function<std::vector<WorkflowInput>()> make)
      : make_(std::move(make)) {}

  void Setup() override { inputs_ = make_(); }

  void ComputeReferences() override {
    for (const WorkflowInput& w : inputs_) {
      targets_.push_back(MakeTarget(w));
    }
  }

  Pass RunPass(const Limit& limit) override {
    return SingleCaller(targets_, limit, [this](size_t i, Pass* pass) {
      const Target& t = targets_[i];
      std::unique_ptr<Dfs> dfs = LoadDfs(t.inputs);
      Musketeer m(dfs.get());
      auto result = m.Run(t.spec, t.options);
      if (!result.ok()) {
        return false;
      }
      pass->counts["jobs"] += static_cast<double>(result->plans.size());
      return SameOutputs(t.reference, result->outputs);
    });
  }

 private:
  std::function<std::vector<WorkflowInput>()> make_;
  std::vector<WorkflowInput> inputs_;
};

// ---- shard_batch: ShardCoordinator over a 3-shard ShardedDfs ---------------

class ShardWorkload : public Workload {
 public:
  ShardWorkload(uint64_t seed, double factor)
      : seed_(seed), factor_(factor) {}

  void Setup() override {
    inputs_ = NineWorkflows(seed_, factor_);
    CoordinatorConfig config;
    config.placement = PlacementPolicy::kLocality;
    config.workers_per_shard = 1;
    config.threads = 1;
    for (const WorkflowInput& w : inputs_) {
      sharded_.push_back(std::make_unique<ShardedDfs>(3));
      for (const auto& [name, table] : w.inputs) {
        sharded_.back()->Put(name, table);
      }
      coordinators_.push_back(
          std::make_unique<ShardCoordinator>(sharded_.back().get(), config));
    }
  }

  void ComputeReferences() override {
    for (const WorkflowInput& w : inputs_) {
      targets_.push_back(MakeTarget(w));
    }
  }

  Pass RunPass(const Limit& limit) override {
    return SingleCaller(targets_, limit, [this](size_t i, Pass* pass) {
      const Target& t = targets_[i];
      ShardCoordinator& coordinator = *coordinators_[i];
      const CoordinatorStats before = coordinator.stats();
      StatusOr<RunResult> result = InternalError("not run");
      {
        Span span("cluster.coordinator_run_ms", "perfbench");
        result = coordinator.Run(t.spec);
      }
      const CoordinatorStats after = coordinator.stats();
      pass->counts["placements"] +=
          static_cast<double>(after.placements - before.placements);
      pass->counts["locality_hits"] +=
          static_cast<double>(after.locality_hits - before.locality_hits);
      pass->counts["remote_fetches"] +=
          static_cast<double>(after.remote_fetches - before.remote_fetches);
      pass->counts["remote_bytes"] += static_cast<double>(
          after.remote_bytes_fetched - before.remote_bytes_fetched);
      if (!result.ok()) {
        return false;
      }
      pass->counts["jobs"] += static_cast<double>(result->plans.size());
      return SameOutputs(t.reference, result->outputs);
    });
  }

 private:
  const uint64_t seed_;
  const double factor_;
  std::vector<WorkflowInput> inputs_;
  std::vector<std::unique_ptr<ShardedDfs>> sharded_;
  // Declared after sharded_: each coordinator must go before its DFS.
  std::vector<std::unique_ptr<ShardCoordinator>> coordinators_;
};

// ---- serve_mix: WorkflowService behind HttpServer over loopback ------------

const char* WireLanguage(FrontendLanguage language) {
  switch (language) {
    case FrontendLanguage::kBeer:
      return "beer";
    case FrontendLanguage::kHive:
      return "hive";
    case FrontendLanguage::kGas:
      return "gas";
    case FrontendLanguage::kLindi:
      return "lindi";
  }
  return "beer";
}

double JsonNumber(const JsonValue& doc, const char* key) {
  const JsonValue* v = doc.Find(key);
  return v != nullptr && v->is_number() ? v->number_value : 0;
}

class ServeWorkload : public Workload {
 public:
  ServeWorkload(uint64_t seed, Size size, int threads)
      : seed_(seed), size_(size), threads_(threads) {}

  ~ServeWorkload() override {
    if (server_ != nullptr) {
      server_->Shutdown();
    }
    if (service_ != nullptr) {
      service_->Shutdown();
    }
  }

  void Setup() override {
    inputs_ = ServeMix(seed_, size_);
    TableMap all = inputs_.write.inputs;
    for (const WorkflowInput& w : inputs_.reads) {
      all.insert(w.inputs.begin(), w.inputs.end());
    }
    dfs_ = LoadDfs(all);
    // Two workers at kernel width 1 for four tenants: the fair queue has
    // work to order, and half the host's CPUs stay free for the event loop
    // and the tenants' status polling. Four workers made run-to-run
    // throughput swing twice as much.
    ServiceConfig config;
    config.default_options = inputs_.write.options;
    config.num_workers = std::min(2, threads_);
    config.threads = 1;
    service_ = std::make_unique<WorkflowService>(dfs_.get(), config);
    // Terminal tickets keep their outputs until this many newer ones
    // arrive; a small window keeps memory flat over a run.
    ServerConfig server_config;
    server_config.ticket_retention = 16;
    server_ = std::make_unique<HttpServer>(service_.get(), server_config);
    Status started = server_->Start();
    if (!started.ok()) {
      Fatal("server start: " + started.ToString());
    }
  }

  void ComputeReferences() override {
    for (const WorkflowInput& w : inputs_.reads) {
      targets_.push_back(MakeTarget(w));
    }
    write_base_ = MakeTarget(inputs_.write);
    WorkflowInput appended = inputs_.write;
    appended.inputs[inputs_.written_relation] = inputs_.appended;
    write_appended_ = MakeTarget(appended);
    targets_.push_back(write_appended_);
  }

  Pass RunPass(const Limit& limit) override {
    NetClient control;
    if (!control.Connect("127.0.0.1", server_->port()).ok()) {
      Fatal("control connection refused");
    }
    const auto [hits0, misses0] = PlanCacheCounts(&control);
    const size_t reads = inputs_.reads.size();
    constexpr int kTenants = 4;  // the last one also writes
    std::vector<Pass> tenant_pass(kTenants);
    std::atomic<int> verified{0};
    std::atomic<int> running{kTenants};
    const auto start = Clock::now();
    auto keep_going = [&](size_t sent) {
      return limit.cycles > 0
                 ? sent < static_cast<size_t>(limit.cycles) * reads
                 : MsSince(start) < limit.seconds * 1e3;
    };
    auto tenant = [&](int r) {
      Pass* pass = &tenant_pass[r];
      NetClient client;
      if (!client.Connect("127.0.0.1", server_->port()).ok()) {
        Record("connect", 0, false, pass);
        return;
      }
      // Each tenant cycles its own seeded order of the read workflows.
      std::vector<size_t> order(reads);
      for (size_t i = 0; i < reads; ++i) {
        order[i] = i;
      }
      Shuffle(&order, SubSeed(seed_, 200 + static_cast<uint64_t>(r)));
      const bool writer = r == kTenants - 1;
      const std::string name =
          writer ? "writer" : "reader-" + std::to_string(r);
      for (size_t sent = 0; keep_going(sent); ++sent) {
        if (writer && sent % reads == 0) {
          verified += Write(&client, limit.probe, pass);
        }
        const Target& t = targets_[order[sent % reads]];
        verified += Request(&client, name, t, false, limit.probe, pass);
      }
    };
    std::vector<std::thread> tenants;
    for (int r = 0; r < kTenants; ++r) {
      tenants.emplace_back([&, r] {
        tenant(r);
        --running;
      });
    }
    // One-second windows: tenants finish requests out of step, so there
    // are no cycles to cut the pass at.
    Pass out;
    double cpu0 = ProcessCpuMs();
    int verified0 = 0;
    auto window_start = Clock::now();
    while (running > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      if (MsSince(window_start) >= 1000 || running == 0) {
        const double cpu = ProcessCpuMs();
        const int now_verified = verified;
        out.segments.push_back({MsSince(window_start) / 1e3, cpu - cpu0,
                                now_verified - verified0});
        cpu0 = cpu;
        verified0 = now_verified;
        window_start = Clock::now();
      }
    }
    for (std::thread& t : tenants) {
      t.join();
    }
    out.wall_s = MsSince(start) / 1e3;
    for (Pass& p : tenant_pass) {
      out.attempted += p.attempted;
      out.failed += p.failed;
      out.latency_ms.insert(out.latency_ms.end(), p.latency_ms.begin(),
                            p.latency_ms.end());
      for (auto& [label, ms] : p.class_latency_ms) {
        auto& all = out.class_latency_ms[label];
        all.insert(all.end(), ms.begin(), ms.end());
      }
      for (const auto& [k, v] : p.counts) {
        out.counts[k] += v;
      }
      for (const auto& [k, v] : p.layer) {
        out.layer[k] += v;
      }
    }
    const auto [hits1, misses1] = PlanCacheCounts(&control);
    out.counts["plan_cache_hits"] = hits1 - hits0;
    out.counts["plan_cache_misses"] = misses1 - misses0;
    return out;
  }

 private:
  std::pair<double, double> PlanCacheCounts(NetClient* control) {
    auto body = control->Get("/stats");
    auto doc = body.ok() ? ParseJson(*body) : StatusOr<JsonValue>(body.status());
    if (!doc.ok()) {
      Fatal("GET /stats: " + doc.status().ToString());
    }
    return {JsonNumber(*doc, "plan_cache_hits"),
            JsonNumber(*doc, "plan_cache_misses")};
  }

  // Once per writer cycle: replace the written relation, alternately with
  // its appended and its base version, then resubmit incrementally. Either
  // way the jobs that read only other relations can be reused.
  int Write(NetClient* client, bool probe, Pass* pass) {
    const bool appended = writes_++ % 2 == 0;
    const Target& t = appended ? write_appended_ : write_base_;
    Status put;
    {
      Span span("net.put_relation_ms", "perfbench");
      put = client->PushRelation(
          inputs_.written_relation,
          appended ? *inputs_.appended
                   : *inputs_.write.inputs.at(inputs_.written_relation));
    }
    pass->counts["puts"] += 1;
    if (!put.ok()) {
      Record(t.label, 0, false, pass);
      return 0;
    }
    return Request(client, "writer", t, true, probe, pass);
  }

  // Submit, wait for a terminal state, fetch and decode the result, verify.
  // Returns 1 when the outputs were verified.
  int Request(NetClient* client, const std::string& tenant, const Target& t,
              bool incremental, bool probe, Pass* pass) {
    const auto t0 = Clock::now();
    NetClient::SubmitOptions options;
    options.tenant = tenant;
    options.workflow_id = t.spec.id;
    options.language = WireLanguage(t.spec.language);
    options.incremental = incremental;
    StatusOr<NetClient::SubmitReply> reply = InternalError("not sent");
    {
      Span span("net.submit_ms", "perfbench");
      reply = client->SubmitWorkflow(options, t.spec.source);
    }
    if (!reply.ok() || reply->status != 202) {
      Record(t.label, 0, false, pass);
      return 0;
    }
    auto state = client->WaitTerminal(reply->ticket, std::chrono::seconds(120));
    const double terminal_ms = MsSince(t0);
    if (!state.ok() || *state != "DONE") {
      Record(t.label, 0, false, pass);
      return 0;
    }
    StatusOr<TableMap> outputs = InternalError("not fetched");
    {
      Span span("net.result_ms", "perfbench");
      outputs = client->FetchResult(reply->ticket);
    }
    const bool ok = outputs.ok() && SameOutputs(t.reference, *outputs);
    Record(t.label, MsSince(t0), ok, pass);
    if (!probe) {
      return ok ? 1 : 0;
    }
    const std::string id = std::to_string(reply->ticket);
    auto status = client->Get("/status/" + id);
    auto doc = status.ok() ? ParseJson(*status)
                           : StatusOr<JsonValue>(status.status());
    auto payload = client->Get("/result/" + id);
    if (!doc.ok() || !payload.ok()) {
      ++pass->failed;
      return 0;
    }
    const double queue_ms = JsonNumber(*doc, "queue_seconds") * 1e3;
    const double total_ms = JsonNumber(*doc, "total_seconds") * 1e3;
    pass->layer["requests"] += 1;
    pass->layer["service.queue_wait_ms"] += queue_ms;
    pass->layer["service.run_ms"] += total_ms - queue_ms;
    pass->layer["net.notify_lag_ms"] += terminal_ms - total_ms;
    pass->layer["net.result_mb"] += static_cast<double>(payload->size()) / 1e6;
    if (incremental) {
      pass->counts["jobs_reused"] += JsonNumber(*doc, "jobs_reused");
      pass->counts["incremental_jobs"] += t.jobs;
    }
    return ok ? 1 : 0;
  }

  const uint64_t seed_;
  const Size size_;
  const int threads_;
  ServeInputs inputs_;
  std::unique_ptr<Dfs> dfs_;
  std::unique_ptr<WorkflowService> service_;
  std::unique_ptr<HttpServer> server_;
  Target write_base_;
  Target write_appended_;
  uint64_t writes_ = 0;  // written-relation versions pushed so far
};

}  // namespace

double ProcessCpuMs() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       Size size, int threads) {
  const bool full = size == Size::kFull;
  if (name == "paper_batch") {
    return std::make_unique<InProcessWorkload>(
        [=] { return NineWorkflows(seed, full ? 0.5 : 0.05); });
  }
  if (name == "dag_plan") {
    return std::make_unique<InProcessWorkload>(
        [=] { return SyntheticDags(seed, size); });
  }
  if (name == "serve_mix") {
    return std::make_unique<ServeWorkload>(seed, size, threads);
  }
  if (name == "shard_batch") {
    return std::make_unique<ShardWorkload>(seed, full ? 0.25 : 0.05);
  }
  return nullptr;
}

}  // namespace musketeer::perfbench
