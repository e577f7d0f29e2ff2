// End-to-end tests for the network front door (src/net/): HTTP parsing,
// real-socket submit/status/result round-trips against a live server, the
// tenant admission codes (429 vs 503), non-HTTP input, per-request planner
// headers, and the observability endpoints. The flagship assertion: results fetched over the
// wire decode to tables bit-identical (Table::Identical) to an in-process
// Musketeer::Run of the same workflow.

#include "src/net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cstring>
#include <thread>

#include <gtest/gtest.h>

#include "src/base/json.h"
#include "src/core/musketeer.h"
#include "src/frontends/expr_parser.h"
#include "src/net/client.h"
#include "src/net/peer_dfs.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/workloads/datasets.h"
#include "src/workloads/workflows.h"

namespace musketeer {
namespace {

// ---- HttpParser ------------------------------------------------------------

TEST(HttpParserTest, ParsesPipelinedRequestsAcrossFeeds) {
  HttpParser parser;
  std::vector<HttpRequest> out;
  const std::string wire =
      "POST /submit HTTP/1.1\r\nX-Tenant: alice\r\nContent-Length: 5\r\n\r\n"
      "hello"
      "GET /status/7?verbose=1 HTTP/1.1\r\n\r\n";
  // Drip-feed one byte at a time: framing must not depend on packet
  // boundaries.
  for (char c : wire) {
    ASSERT_TRUE(parser.Feed(std::string_view(&c, 1), &out));
  }
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].method, "POST");
  EXPECT_EQ(out[0].path, "/submit");
  EXPECT_EQ(out[0].body, "hello");
  ASSERT_NE(out[0].FindHeader("x-tenant"), nullptr);
  EXPECT_EQ(*out[0].FindHeader("x-tenant"), "alice");
  EXPECT_EQ(out[1].method, "GET");
  EXPECT_EQ(out[1].path, "/status/7");
  EXPECT_EQ(out[1].query, "verbose=1");
  EXPECT_TRUE(out[1].body.empty());
}

TEST(HttpParserTest, ToleratesBareNewlines) {
  HttpParser parser;
  std::vector<HttpRequest> out;
  ASSERT_TRUE(parser.Feed("GET /healthz HTTP/1.1\nHost: x\n\n", &out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].path, "/healthz");
}

TEST(HttpParserTest, ErrorStatusesLatch) {
  {
    HttpParser parser;
    std::vector<HttpRequest> out;
    EXPECT_FALSE(parser.Feed("NONSENSE\r\n\r\n", &out));
    EXPECT_TRUE(parser.error());
    EXPECT_EQ(parser.error_status(), 400);
    // Latched: further feeds keep failing.
    EXPECT_FALSE(parser.Feed("GET / HTTP/1.1\r\n\r\n", &out));
  }
  {
    HttpParser parser;
    std::vector<HttpRequest> out;
    EXPECT_FALSE(parser.Feed(
        "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", &out));
    EXPECT_EQ(parser.error_status(), 501);
  }
  {
    HttpParser parser(/*max_message_bytes=*/64);
    std::vector<HttpRequest> out;
    EXPECT_FALSE(
        parser.Feed("POST / HTTP/1.1\r\nContent-Length: 100000\r\n\r\n", &out));
    EXPECT_EQ(parser.error_status(), 413);
  }
  {
    HttpParser parser(/*max_message_bytes=*/64);
    std::vector<HttpRequest> out;
    std::string endless = "GET / HTTP/1.1\r\nX-Junk: ";
    endless += std::string(200, 'a');
    EXPECT_FALSE(parser.Feed(endless, &out));
    EXPECT_EQ(parser.error_status(), 431);
  }
}

TEST(HttpParserTest, ResponseRoundTripsThroughResponseParser) {
  HttpResponse response;
  response.status = 429;
  response.content_type = "application/json";
  response.body = "{\"error\": \"over quota\"}";
  HttpResponseParser parser;
  std::vector<HttpResponseParser::Response> out;
  ASSERT_TRUE(parser.Feed(ResponseHead(response) + response.body, &out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].status, 429);
  EXPECT_EQ(out[0].body, response.body);
  ASSERT_NE(out[0].FindHeader("content-type"), nullptr);
  EXPECT_EQ(*out[0].FindHeader("content-type"), "application/json");
}

// ---- live-server fixtures --------------------------------------------------

void SeedDfs(Dfs* dfs) {
  GraphSpec spec;
  spec.name = "net-graph";
  spec.nominal_vertices = 50000;
  spec.nominal_edges = 400000;
  spec.sample_vertices = 300;
  GraphDataset graph = MakePowerLawGraph(spec);
  dfs->Put("vertices_rel", graph.vertices);
  dfs->Put("edges_rel", graph.edges);
  dfs->Put("vertices", graph.vertices);
  dfs->Put("edges", graph.edges);
  dfs->Put("purchases", MakePurchases(/*nominal_rows=*/1e6, /*sample_rows=*/2000,
                                      /*num_regions=*/8, /*seed=*/3));
}

WorkflowSpec JoinSpec() {
  return {.id = "net-join",
          .language = FrontendLanguage::kBeer,
          .source = SimpleJoinBeer()};
}

WorkflowSpec ShopperSpec() {
  return {.id = "net-topshopper",
          .language = FrontendLanguage::kBeer,
          .source = TopShopperBeer(/*region=*/2, /*threshold=*/50.0)};
}

// The flagship e2e: two tenants submit concurrently over real sockets, poll
// status, fetch results — and the wire-decoded tables are bit-identical to
// an in-process run of the same workflows on identically seeded data.
TEST(NetServerTest, TwoTenantsEndToEndMatchInProcessRun) {
  // In-process baselines on a private, identically seeded Dfs.
  std::unordered_map<std::string, TableMap> baselines;
  {
    Dfs baseline_dfs;
    SeedDfs(&baseline_dfs);
    Musketeer m(&baseline_dfs);
    for (const WorkflowSpec& spec : {JoinSpec(), ShopperSpec()}) {
      auto result = m.Run(spec);
      ASSERT_TRUE(result.ok()) << result.status();
      baselines[spec.id] = result->outputs;
    }
  }

  Dfs dfs;
  SeedDfs(&dfs);
  ServiceConfig config;
  config.num_workers = 4;
  WorkflowService service(&dfs, config);
  HttpServer server(&service);
  ASSERT_TRUE(server.Start().ok());

  struct TenantRun {
    std::string tenant;
    WorkflowSpec spec;
    uint64_t ticket = 0;
    TableMap tables;
  };
  std::vector<TenantRun> runs = {{"alice", JoinSpec()},
                                 {"bob", ShopperSpec()}};
  // Each tenant drives its own connection on its own thread: the submissions
  // are genuinely concurrent.
  std::vector<std::thread> clients;
  std::vector<std::string> failures;
  std::mutex failures_mu;
  for (TenantRun& run : runs) {
    clients.emplace_back([&server, &run, &failures, &failures_mu] {
      auto fail = [&](const std::string& message) {
        std::lock_guard lock(failures_mu);
        failures.push_back(run.tenant + ": " + message);
      };
      NetClient client;
      if (!client.Connect("127.0.0.1", server.port()).ok()) {
        return fail("connect failed");
      }
      NetClient::SubmitOptions options;
      options.tenant = run.tenant;
      options.workflow_id = run.spec.id;
      auto reply = client.SubmitWorkflow(options, run.spec.source);
      if (!reply.ok() || reply->status != 202) {
        return fail("submit failed");
      }
      run.ticket = reply->ticket;
      auto state = client.WaitTerminal(reply->ticket,
                                       std::chrono::milliseconds(30000));
      if (!state.ok() || *state != "DONE") {
        return fail("wait failed: " +
                    (state.ok() ? *state : state.status().ToString()));
      }
      auto tables = client.FetchResult(reply->ticket);
      if (!tables.ok()) {
        return fail("fetch failed: " + tables.status().ToString());
      }
      run.tables = std::move(*tables);
    });
  }
  for (auto& t : clients) t.join();
  ASSERT_TRUE(failures.empty()) << failures.front();

  for (const TenantRun& run : runs) {
    const TableMap& want = baselines.at(run.spec.id);
    ASSERT_EQ(run.tables.size(), want.size()) << run.spec.id;
    for (const auto& [name, table] : want) {
      auto it = run.tables.find(name);
      ASSERT_NE(it, run.tables.end()) << name;
      // Bit-identical through serialize → wire → parse.
      EXPECT_TRUE(Table::Identical(*it->second, *table)) << name;
    }
  }

  // The tickets are attributed to their tenants in the service stats.
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.tenants.at("alice").completed, 1u);
  EXPECT_EQ(stats.tenants.at("bob").completed, 1u);

  server.Shutdown();
  service.Shutdown();
}

// Backpressure at the edge: a tenant over its own quota gets 429, global
// saturation gets 503, and neither verdict disturbs the other tenant's
// accepted work.
TEST(NetServerTest, OverQuotaGets429QueueFullGets503) {
  Dfs dfs;
  SeedDfs(&dfs);
  ServiceConfig config;
  config.num_workers = 1;
  config.queue_capacity = 2;
  config.manual_start = true;  // nothing drains until Start()
  config.tenant_quotas = {{"alice", TenantQuota{.max_queued = 1}}};
  WorkflowService service(&dfs, config);
  HttpServer server(&service);
  ASSERT_TRUE(server.Start().ok());

  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  NetClient::SubmitOptions alice{.tenant = "alice", .workflow_id = "net-join"};
  NetClient::SubmitOptions bob{.tenant = "bob", .workflow_id = "net-join"};
  const std::string source = SimpleJoinBeer();

  auto a1 = client.SubmitWorkflow(alice, source);
  ASSERT_TRUE(a1.ok());
  EXPECT_EQ(a1->status, 202);
  // Alice's own max_queued=1 is exhausted → 429, with the reason named.
  auto a2 = client.SubmitWorkflow(alice, source);
  ASSERT_TRUE(a2.ok());
  EXPECT_EQ(a2->status, 429);
  EXPECT_EQ(a2->reject_reason, "TENANT_OVER_QUOTA");
  // Bob is unaffected by alice's quota...
  auto b1 = client.SubmitWorkflow(bob, source);
  ASSERT_TRUE(b1.ok());
  EXPECT_EQ(b1->status, 202);
  // ...until the shared queue itself is full → 503.
  auto b2 = client.SubmitWorkflow(bob, source);
  ASSERT_TRUE(b2.ok());
  EXPECT_EQ(b2->status, 503);
  EXPECT_EQ(b2->reject_reason, "QUEUE_FULL");

  service.Start();
  auto a1_state = client.WaitTerminal(a1->ticket, std::chrono::milliseconds(30000));
  auto b1_state = client.WaitTerminal(b1->ticket, std::chrono::milliseconds(30000));
  ASSERT_TRUE(a1_state.ok()) << a1_state.status();
  ASSERT_TRUE(b1_state.ok()) << b1_state.status();
  EXPECT_EQ(*a1_state, "DONE");
  EXPECT_EQ(*b1_state, "DONE");

  server.Shutdown();
  service.Shutdown();
}

TEST(NetServerTest, CancelEndpointSettlesQueuedWork) {
  Dfs dfs;
  SeedDfs(&dfs);
  ServiceConfig config;
  config.num_workers = 1;
  config.manual_start = true;
  WorkflowService service(&dfs, config);
  HttpServer server(&service);
  ASSERT_TRUE(server.Start().ok());

  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  auto reply = client.SubmitWorkflow({.workflow_id = "net-join"},
                                     SimpleJoinBeer());
  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(reply->status, 202);
  auto state = client.StateOf(reply->ticket);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(*state, "QUEUED");

  auto cancel_state = client.Cancel(reply->ticket);
  ASSERT_TRUE(cancel_state.ok());
  service.Start();
  auto final_state =
      client.WaitTerminal(reply->ticket, std::chrono::milliseconds(30000));
  ASSERT_TRUE(final_state.ok()) << final_state.status();
  EXPECT_EQ(*final_state, "CANCELLED");
  // A cancelled ticket has no result payload to serve.
  EXPECT_FALSE(client.FetchResult(reply->ticket).ok());

  server.Shutdown();
  service.Shutdown();
}

TEST(NetServerTest, MetricsAndTraceEndpointsServeLiveData) {
  Dfs dfs;
  SeedDfs(&dfs);
  WorkflowService service(&dfs, ServiceConfig{.num_workers = 2});
  HttpServer server(&service);
  ASSERT_TRUE(server.Start().ok());

  Tracer::Global().Enable(true);

  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  auto reply = client.SubmitWorkflow(
      {.tenant = "carol", .workflow_id = "net-join"}, SimpleJoinBeer());
  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(reply->status, 202);
  ASSERT_TRUE(
      client.WaitTerminal(reply->ticket, std::chrono::milliseconds(30000))
          .ok());

  // /metrics: live registry text with per-tenant and per-connection series.
  auto metrics = client.Get("/metrics");
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_NE(metrics->find("musketeer.net.connections.accepted"),
            std::string::npos);
  EXPECT_NE(metrics->find("musketeer.net.http.requests"), std::string::npos);
  EXPECT_NE(metrics->find("musketeer.service.tenant.carol.submitted"),
            std::string::npos);
  EXPECT_NE(metrics->find("musketeer.service.tenant.carol.completed"),
            std::string::npos);

  // /trace: must parse as Chrome trace-event JSON with an events array that
  // includes the net.request spans this very session produced.
  auto trace = client.Get("/trace");
  Tracer::Global().Enable(false);
  ASSERT_TRUE(trace.ok()) << trace.status();
  auto json = ParseJson(*trace);
  ASSERT_TRUE(json.ok()) << json.status();
  const JsonValue* events = json->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  bool saw_net_request = false;
  for (const JsonValue& event : events->array) {
    const JsonValue* ph = event.Find("ph");
    ASSERT_NE(ph, nullptr);
    EXPECT_EQ(ph->string_value, "X");
    const JsonValue* name = event.Find("name");
    if (name != nullptr && name->string_value == "net.request") {
      saw_net_request = true;
    }
  }
  EXPECT_TRUE(saw_net_request);

  // /stats mirrors the service's own counters.
  auto stats_body = client.Get("/stats");
  ASSERT_TRUE(stats_body.ok());
  auto stats_json = ParseJson(*stats_body);
  ASSERT_TRUE(stats_json.ok());
  const JsonValue* tenants = stats_json->Find("tenants");
  ASSERT_NE(tenants, nullptr);
  ASSERT_NE(tenants->Find("carol"), nullptr);
  EXPECT_EQ(tenants->Find("carol")->Find("completed")->number_value, 1.0);

  server.Shutdown();
  service.Shutdown();
}

// ---- one wire protocol ------------------------------------------------------

// Sends `bytes` on a fresh raw socket and returns everything the server
// writes back until it closes the connection (or stays silent for 5 s).
std::string RawExchange(uint16_t port, const std::string& bytes) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  timeval timeout{.tv_sec = 5, .tv_usec = 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  std::string reply;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
      ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL) ==
          static_cast<ssize_t>(bytes.size())) {
    char buf[4096];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
      reply.append(buf, static_cast<size_t>(n));
    }
  }
  ::close(fd);
  return reply;
}

// Every byte goes to the HTTP parser: a bare command line is a malformed
// request line, answered with 400 and a close, and the server keeps serving.
TEST(NetServerTest, NonHttpInputGets400AndClose) {
  Dfs dfs;
  SeedDfs(&dfs);
  WorkflowService service(&dfs, ServiceConfig{.num_workers = 1});
  HttpServer server(&service);
  ASSERT_TRUE(server.Start().ok());

  const std::string reply = RawExchange(server.port(), "PING\r\n\r\n");
  EXPECT_EQ(reply.rfind("HTTP/1.1 400", 0), 0u) << reply;
  EXPECT_NE(reply.find("malformed request line"), std::string::npos) << reply;

  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  auto health = client.Get("/healthz");
  ASSERT_TRUE(health.ok()) << health.status();
  EXPECT_NE(health->find("ok"), std::string::npos);

  server.Shutdown();
  service.Shutdown();
}

// X-Partitioner takes exactly the strategy names: an unknown one is a 400,
// and dp-multi plans the run with the multi-order DP.
TEST(NetServerTest, PartitionerHeaderSelectsStrategy) {
  Dfs dfs;
  SeedDfs(&dfs);
  WorkflowService service(&dfs, ServiceConfig{.num_workers = 1});
  HttpServer server(&service);
  ASSERT_TRUE(server.Start().ok());

  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  auto submit = [&](const std::string& partitioner) {
    HttpRequest request;
    request.method = "POST";
    request.target = "/submit";
    request.body = SimpleJoinBeer();
    request.headers.emplace_back("X-Workflow-Id", "net-join");
    request.headers.emplace_back("X-Partitioner", partitioner);
    return client.Request(request);
  };

  auto bogus = submit("bogus");
  ASSERT_TRUE(bogus.ok()) << bogus.status();
  EXPECT_EQ(bogus->status, 400);
  EXPECT_NE(bogus->body.find("unknown partitioner"), std::string::npos)
      << bogus->body;

  auto multi = submit("dp-multi");
  ASSERT_TRUE(multi.ok()) << multi.status();
  ASSERT_EQ(multi->status, 202) << multi->body;
  auto submitted = ParseJson(multi->body);
  ASSERT_TRUE(submitted.ok()) << multi->body;
  const auto ticket =
      static_cast<uint64_t>(submitted->Find("ticket")->number_value);
  auto state = client.WaitTerminal(ticket, std::chrono::milliseconds(30000));
  ASSERT_TRUE(state.ok()) << state.status();
  ASSERT_EQ(*state, "DONE");
  auto status_body = client.Get("/status/" + std::to_string(ticket));
  ASSERT_TRUE(status_body.ok()) << status_body.status();
  auto status_json = ParseJson(*status_body);
  ASSERT_TRUE(status_json.ok()) << *status_body;
  const JsonValue* strategy = status_json->Find("partition_strategy");
  ASSERT_NE(strategy, nullptr) << *status_body;
  EXPECT_EQ(strategy->string_value, "dp-multi");

  server.Shutdown();
  service.Shutdown();
}

// Idle keep-alive connections are reaped after keepalive_timeout while
// active connections — whose traffic resets the idle clock — survive many
// multiples of it.
TEST(NetServerTest, KeepAliveIdleTimeoutClosesQuietConnections) {
  Dfs dfs;
  SeedDfs(&dfs);
  WorkflowService service(&dfs, ServiceConfig{.num_workers = 1});
  ServerConfig config;
  config.keepalive_timeout = std::chrono::milliseconds(400);
  HttpServer server(&service, config);
  ASSERT_TRUE(server.Start().ok());
  Counter& idle_closed = MetricsRegistry::Global().counter(
      "musketeer.net.connections.idle_closed");
  const uint64_t idle_closed_before = idle_closed.Value();

  NetClient idle;
  ASSERT_TRUE(idle.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(idle.Get("/healthz").ok());

  // The busy connection keeps requesting well inside the timeout for longer
  // than the timeout itself; the idle one goes quiet after its first request.
  NetClient busy;
  ASSERT_TRUE(busy.Connect("127.0.0.1", server.port()).ok());
  for (int i = 0; i < 8; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
    ASSERT_TRUE(busy.Get("/healthz").ok()) << "request " << i;
  }

  // The quiet connection was closed by the sweep: its next request fails.
  EXPECT_FALSE(idle.Get("/healthz").ok());
  EXPECT_GE(idle_closed.Value(), idle_closed_before + 1);
  // The busy connection is still serving.
  EXPECT_TRUE(busy.Get("/healthz").ok());

  server.Shutdown();
  service.Shutdown();
}

// Shutdown ordering: the server stops accepting new connections but accepted
// work still settles through the (later) service shutdown.
TEST(NetServerTest, ShutdownDrainsThenRefusesConnections) {
  Dfs dfs;
  SeedDfs(&dfs);
  WorkflowService service(&dfs, ServiceConfig{.num_workers = 1});
  HttpServer server(&service);
  ASSERT_TRUE(server.Start().ok());
  const uint16_t port = server.port();

  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port).ok());
  auto reply = client.SubmitWorkflow({.workflow_id = "net-join"},
                                     SimpleJoinBeer());
  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(reply->status, 202);

  server.Shutdown();   // connections first...
  service.Shutdown();  // ...then workers: accepted work still settles
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.completed + stats.failed + stats.cancelled, 1u);

  NetClient late;
  EXPECT_FALSE(late.Connect("127.0.0.1", port).ok());
}

// ---- peer-to-peer shard transport (src/net/peer_dfs.h) ---------------------

TEST(PeerDfsTest, ParsePeerListHandlesHostsPortsAndPlaceholders) {
  auto peers = ParsePeerList("10.0.0.1:7000,-,127.0.0.1:7002");
  ASSERT_TRUE(peers.has_value());
  ASSERT_EQ(peers->size(), 3u);
  EXPECT_EQ((*peers)[0].host, "10.0.0.1");
  EXPECT_EQ((*peers)[0].port, 7000);
  EXPECT_EQ((*peers)[1].port, 0);  // '-' marks this process's own slot
  EXPECT_EQ((*peers)[2].host, "127.0.0.1");
  EXPECT_EQ((*peers)[2].port, 7002);

  EXPECT_FALSE(ParsePeerList("hostwithoutport").has_value());
  EXPECT_FALSE(ParsePeerList(":7000").has_value());
  EXPECT_FALSE(ParsePeerList("h:0").has_value());
  EXPECT_FALSE(ParsePeerList("h:99999").has_value());
  EXPECT_FALSE(ParsePeerList("h:seven").has_value());
}

// Ownership is a pure function of the relation name — every process computes
// it from the same ShardMap hash, no directory sync. With no peer reachable
// (port-0 placeholders), a Put routed to a remote owner degrades to a local
// store and is counted, so the workflow still finishes.
TEST(PeerDfsTest, StrategyPureOwnershipAndDegradedPut) {
  const std::vector<PeerAddress> unreachable(3);  // all port 0
  PeerDfs dfs(/*self_shard=*/0, /*num_shards=*/3, unreachable);
  ShardMap reference(3);

  // Find one self-owned and one remotely-owned name.
  std::string local_name, remote_name;
  for (int i = 0; local_name.empty() || remote_name.empty(); ++i) {
    const std::string name = "rel_" + std::to_string(i);
    ASSERT_EQ(dfs.OwnerOf(name), reference.OwnerOf(name));
    (dfs.OwnerOf(name) == 0 ? local_name : remote_name) = name;
  }

  auto table = std::make_shared<Table>(Schema({{"x", FieldType::kInt64}}));
  dfs.Put(local_name, table);
  EXPECT_EQ(dfs.push_failures(), 0u);
  EXPECT_TRUE(dfs.Contains(local_name));
  EXPECT_TRUE(dfs.IsLocal(local_name));

  dfs.Put(remote_name, table);  // owner unreachable → degraded local store
  EXPECT_EQ(dfs.push_failures(), 1u);
  EXPECT_TRUE(dfs.Get(remote_name).ok());
  EXPECT_TRUE(dfs.IsLocal(remote_name));  // physically held here

  // A relation nobody holds: the owner is unreachable and the scan finds
  // nothing, so the miss is a NotFound, not a hang or a crash.
  EXPECT_FALSE(dfs.Get("never_put").ok());
  EXPECT_EQ(dfs.remote_fetches(), 0u);
}

// The relation exchange endpoints against a live server: list/fetch/push
// round-trip a table bit-identically, scale (nominal-size accounting) rides
// along, and the endpoints serve the node's LOCAL holdings only.
TEST(NetServerTest, RelationEndpointsRoundTripBitIdentical) {
  Dfs dfs;
  Table original(Schema({{"id", FieldType::kInt64},
                         {"rank", FieldType::kDouble},
                         {"name", FieldType::kString}}));
  original.AddRow({static_cast<int64_t>(1), 0.125, std::string("alpha")});
  original.AddRow({static_cast<int64_t>(2), 2.5e-17, std::string("beta beta")});
  original.set_scale(1000.0);
  TablePtr stored = std::make_shared<Table>(std::move(original));
  dfs.Put("ranks", stored);

  ServiceConfig config;
  config.num_workers = 1;
  WorkflowService service(&dfs, config);
  HttpServer server(&service);
  ASSERT_TRUE(server.Start().ok());

  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  auto names = client.ListRelations();
  ASSERT_TRUE(names.ok()) << names.status();
  EXPECT_EQ(*names, (std::vector<std::string>{"ranks"}));

  auto fetched = client.FetchRelation("ranks");
  ASSERT_TRUE(fetched.ok()) << fetched.status();
  EXPECT_TRUE(Table::Identical(*stored, **fetched));
  EXPECT_DOUBLE_EQ((*fetched)->scale(), 1000.0);

  auto missing = client.FetchRelation("absent");
  EXPECT_FALSE(missing.ok());

  // Push a new relation; the server must hold an identical copy.
  Table pushed(Schema({{"v", FieldType::kDouble}}));
  pushed.AddRow({0.1 + 0.2});  // a double that needs round-trip formatting
  ASSERT_TRUE(client.PushRelation("pushed_rel", pushed).ok());
  auto held = dfs.Get("pushed_rel");
  ASSERT_TRUE(held.ok());
  EXPECT_TRUE(Table::Identical(pushed, **held));

  server.Shutdown();
  service.Shutdown();
}

// Incremental resubmission over the wire: X-Incremental: 1 routes through
// the service's fingerprint path, the status JSON reports the reused-job
// count, and the delta run's fetched tables are bit-identical to the first
// run's (nothing changed between the submissions).
TEST(NetServerTest, IncrementalResubmitReusesJobsOverHttp) {
  Dfs dfs;
  SeedDfs(&dfs);
  ServiceConfig config;
  config.num_workers = 2;
  WorkflowService service(&dfs, config);
  HttpServer server(&service);
  ASSERT_TRUE(server.Start().ok());

  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  WorkflowSpec spec = JoinSpec();

  NetClient::SubmitOptions cold;
  cold.workflow_id = spec.id;
  auto first = client.SubmitWorkflow(cold, spec.source);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_EQ(first->status, 202);
  auto first_state =
      client.WaitTerminal(first->ticket, std::chrono::milliseconds(30000));
  ASSERT_TRUE(first_state.ok() && *first_state == "DONE");
  auto first_tables = client.FetchResult(first->ticket);
  ASSERT_TRUE(first_tables.ok()) << first_tables.status();

  NetClient::SubmitOptions warm = cold;
  warm.incremental = true;
  auto second = client.SubmitWorkflow(warm, spec.source);
  ASSERT_TRUE(second.ok()) << second.status();
  ASSERT_EQ(second->status, 202);
  auto second_state =
      client.WaitTerminal(second->ticket, std::chrono::milliseconds(30000));
  ASSERT_TRUE(second_state.ok() && *second_state == "DONE");

  // The ticket JSON surfaces the reuse accounting: every job reused.
  auto status_body = client.Get("/status/" + std::to_string(second->ticket));
  ASSERT_TRUE(status_body.ok()) << status_body.status();
  auto status_json = ParseJson(*status_body);
  ASSERT_TRUE(status_json.ok()) << *status_body;
  const JsonValue* reused = status_json->Find("jobs_reused");
  ASSERT_NE(reused, nullptr) << *status_body;
  EXPECT_GE(reused->number_value, 1.0);

  auto second_tables = client.FetchResult(second->ticket);
  ASSERT_TRUE(second_tables.ok()) << second_tables.status();
  ASSERT_EQ(second_tables->size(), first_tables->size());
  for (const auto& [name, table] : *first_tables) {
    EXPECT_TRUE(Table::Identical(*table, *second_tables->at(name))) << name;
  }

  // A malformed X-Incremental value is a 400, not a silent default.
  HttpRequest bad;
  bad.method = "POST";
  bad.target = "/submit";
  bad.body = spec.source;
  bad.headers.emplace_back("X-Workflow-Id", spec.id);
  bad.headers.emplace_back("X-Language", "beer");
  bad.headers.emplace_back("X-Incremental", "maybe");
  auto bad_reply = client.Request(bad);
  ASSERT_TRUE(bad_reply.ok()) << bad_reply.status();
  EXPECT_EQ(bad_reply->status, 400);

  // /stats aggregates the reuse across runs.
  auto stats_body = client.Get("/stats");
  ASSERT_TRUE(stats_body.ok()) << stats_body.status();
  auto stats_json = ParseJson(*stats_body);
  ASSERT_TRUE(stats_json.ok());
  const JsonValue* total_reused = stats_json->Find("jobs_reused");
  ASSERT_NE(total_reused, nullptr) << *stats_body;
  EXPECT_GE(total_reused->number_value, reused->number_value);

  server.Shutdown();
  service.Shutdown();
}

// An expression nested 50,000 parentheses deep used to overflow the parser's
// stack and take the whole server down. Now planning rejects it
// (InvalidArgument, asserted in frontends_test), the ticket ends FAILED with
// the limit in its error, and the server keeps serving.
TEST(NetServerTest, DeepExpressionSubmitFailsAndServerSurvives) {
  Dfs dfs;
  SeedDfs(&dfs);
  WorkflowService service(&dfs, ServiceConfig{.num_workers = 1});
  HttpServer server(&service);
  ASSERT_TRUE(server.Start().ok());

  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  constexpr int kDepth = 50000;
  const std::string source = "big = SELECT uid FROM purchases WHERE " +
                             std::string(kDepth, '(') + "amount > 1" +
                             std::string(kDepth, ')') + ";";
  auto reply = client.SubmitWorkflow({.workflow_id = "net-deep"}, source);
  ASSERT_TRUE(reply.ok()) << reply.status();
  ASSERT_EQ(reply->status, 202);
  auto state =
      client.WaitTerminal(reply->ticket, std::chrono::milliseconds(30000));
  ASSERT_TRUE(state.ok()) << state.status();
  EXPECT_EQ(*state, "FAILED");

  auto status_body = client.Get("/status/" + std::to_string(reply->ticket));
  ASSERT_TRUE(status_body.ok()) << status_body.status();
  auto status_json = ParseJson(*status_body);
  ASSERT_TRUE(status_json.ok()) << *status_body;
  const JsonValue* error = status_json->Find("error");
  ASSERT_NE(error, nullptr) << *status_body;
  EXPECT_NE(error->string_value.find(
                "deeper than " + std::to_string(kMaxExpressionDepth)),
            std::string::npos)
      << error->string_value;

  auto health = client.Get("/healthz");
  ASSERT_TRUE(health.ok()) << health.status();
  EXPECT_NE(health->find("ok"), std::string::npos);

  server.Shutdown();
  service.Shutdown();
}

// 30,000 nested WHILE blocks (810 KB, under the server's 1 MB message cap)
// used to overflow the parser's stack in a service worker and take the
// whole server down. Now the ticket ends FAILED naming the nesting limit.
TEST(NetServerTest, DeepWhileNestingSubmitFailsAndServerSurvives) {
  Dfs dfs;
  SeedDfs(&dfs);
  WorkflowService service(&dfs, ServiceConfig{.num_workers = 1});
  HttpServer server(&service);
  ASSERT_TRUE(server.Start().ok());

  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  std::string source = "WHILE 1 LOOP a=purchases UPDATE c{\n";
  for (int i = 1; i < 30000; ++i) {
    source += "WHILE 1 LOOP a=a UPDATE c{\n";
  }
  auto reply = client.SubmitWorkflow({.workflow_id = "net-deep-while"}, source);
  ASSERT_TRUE(reply.ok()) << reply.status();
  ASSERT_EQ(reply->status, 202);
  auto state =
      client.WaitTerminal(reply->ticket, std::chrono::milliseconds(30000));
  ASSERT_TRUE(state.ok()) << state.status();
  EXPECT_EQ(*state, "FAILED");

  auto status_body = client.Get("/status/" + std::to_string(reply->ticket));
  ASSERT_TRUE(status_body.ok()) << status_body.status();
  auto status_json = ParseJson(*status_body);
  ASSERT_TRUE(status_json.ok()) << *status_body;
  const JsonValue* error = status_json->Find("error");
  ASSERT_NE(error, nullptr) << *status_body;
  EXPECT_NE(error->string_value.find(
                "nested deeper than " + std::to_string(kMaxStatementDepth)),
            std::string::npos)
      << error->string_value;

  auto health = client.Get("/healthz");
  ASSERT_TRUE(health.ok()) << health.status();
  EXPECT_NE(health->find("ok"), std::string::npos);

  server.Shutdown();
  service.Shutdown();
}

// Submits `spec` on `client` and waits for DONE; returns the ticket id.
uint64_t SubmitAndWaitDone(NetClient* client, const WorkflowSpec& spec) {
  auto reply = client->SubmitWorkflow({.workflow_id = spec.id}, spec.source);
  EXPECT_TRUE(reply.ok() && reply->status == 202) << spec.id;
  if (!reply.ok()) {
    return 0;
  }
  auto state =
      client->WaitTerminal(reply->ticket, std::chrono::milliseconds(30000));
  EXPECT_TRUE(state.ok() && *state == "DONE") << spec.id;
  return reply->ticket;
}

// The retention bound drops the oldest terminal ticket, but passes over a
// DONE ticket with an unfetched body once. Dropped even so, the ticket
// counts in evicted_unfetched and then answers 404; dropping a fetched one
// does not count.
TEST(NetServerTest, UnfetchedDoneTicketEvictionIsCountedThen404) {
  Counter& evicted = MetricsRegistry::Global().counter(
      "musketeer.net.tickets.evicted_unfetched");
  const uint64_t before = evicted.Value();
  Dfs dfs;
  SeedDfs(&dfs);
  WorkflowService service(&dfs, ServiceConfig{.num_workers = 1});
  ServerConfig server_config;
  server_config.ticket_retention = 2;
  HttpServer server(&service, server_config);
  ASSERT_TRUE(server.Start().ok());
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  auto result_status = [&](uint64_t ticket) {
    HttpRequest request;
    request.method = "GET";
    request.target = "/result/" + std::to_string(ticket);
    auto response = client.Request(request);
    return response.ok() ? response->status : 0;
  };

  const uint64_t unfetched = SubmitAndWaitDone(&client, JoinSpec());
  const uint64_t fetched = SubmitAndWaitDone(&client, ShopperSpec());
  ASSERT_TRUE(client.FetchResult(fetched).ok());
  // The third submission passes over the unfetched ticket and drops the
  // fetched one, uncounted.
  const uint64_t third = SubmitAndWaitDone(&client, JoinSpec());
  EXPECT_EQ(evicted.Value() - before, 0u);
  EXPECT_TRUE(client.StateOf(unfetched).ok());
  // The fourth drops it.
  SubmitAndWaitDone(&client, ShopperSpec());
  EXPECT_EQ(evicted.Value() - before, 1u);
  EXPECT_EQ(result_status(unfetched), 404);
  // The third ticket was passed over in turn, without its held body, and
  // still answers: its outputs are re-encoded.
  auto third_tables = client.FetchResult(third);
  ASSERT_TRUE(third_tables.ok()) << third_tables.status();
  EXPECT_FALSE(third_tables->empty());

  server.Shutdown();
  service.Shutdown();
}

// Two keep-alive clients fetch the same DONE ticket at once: one takes the
// body the worker encoded, the other gets a re-encode on the loop, and both
// are byte-identical and decode Table::Identical to an in-process run.
TEST(NetServerTest, TwoClientsFetchingOneTicketGetIdenticalBytes) {
  TableMap baseline;
  {
    Dfs baseline_dfs;
    SeedDfs(&baseline_dfs);
    auto result = Musketeer(&baseline_dfs).Run(ShopperSpec());
    ASSERT_TRUE(result.ok()) << result.status();
    baseline = result->outputs;
  }
  Dfs dfs;
  SeedDfs(&dfs);
  WorkflowService service(&dfs, ServiceConfig{.num_workers = 1});
  HttpServer server(&service);
  ASSERT_TRUE(server.Start().ok());
  NetClient submitter;
  ASSERT_TRUE(submitter.Connect("127.0.0.1", server.port()).ok());
  const uint64_t ticket = SubmitAndWaitDone(&submitter, ShopperSpec());

  std::string bodies[2];
  std::thread fetchers[2];
  for (int i = 0; i < 2; ++i) {
    fetchers[i] = std::thread([&, i] {
      NetClient client;
      if (client.Connect("127.0.0.1", server.port()).ok()) {
        auto body = client.Get("/result/" + std::to_string(ticket));
        bodies[i] = body.ok() ? *body : "";
      }
    });
  }
  for (std::thread& t : fetchers) {
    t.join();
  }
  ASSERT_FALSE(bodies[0].empty());
  EXPECT_EQ(bodies[0], bodies[1]);
  auto tables = submitter.FetchResult(ticket);  // a third, later fetch
  ASSERT_TRUE(tables.ok()) << tables.status();
  ASSERT_EQ(tables->size(), baseline.size());
  for (const auto& [name, table] : baseline) {
    auto it = tables->find(name);
    ASSERT_NE(it, tables->end()) << name;
    EXPECT_TRUE(Table::Identical(*it->second, *table)) << name;
  }

  server.Shutdown();
  service.Shutdown();
}

}  // namespace
}  // namespace musketeer
