// Event-driven network front door for the workflow service (src/net/).
//
// One poll(2) loop on one thread drives a non-blocking listen socket and
// every accepted connection — no thread-per-connection; the expensive work
// (the workflow pipeline and the encoding of its /result body) lives behind
// WorkflowService's worker pool, and nearly every request the server itself
// handles is a sub-millisecond queue/ticket/registry operation, so a single
// event thread keeps up with hundreds of concurrent clients the same way
// pazpar2-style C servers do. The exceptions are PUT /relation, which
// parses its CSV body here, and a repeated GET /result, which re-encodes.
//
// One protocol, HTTP/1.1 with keep-alive by default; every byte a
// connection sends goes to its HttpParser:
//   POST /submit        body = workflow source
//                       headers: X-Tenant, X-Language, X-Workflow-Id,
//                       X-Deadline-Ms (optional per-request deadline)
//   GET  /status/<id>   ticket state JSON
//   POST /cancel/<id>   cooperative cancel, returns state JSON
//   GET  /result/<id>   outputs JSON: name, schema spec, rows, CSV text;
//                       encoded by the service worker before the ticket
//                       turns DONE, so the loop only moves the bytes
//   GET  /relations     sorted relation names in this node's DFS, JSON
//   GET  /relation/<n>  one relation: schema spec, scale, rows, CSV text
//   PUT  /relation/<n>  store a relation; body = CSV, headers X-Schema
//                       (spec) and optional X-Scale — the peer-to-peer
//                       shard transport (src/net/peer_dfs.h)
//   GET  /metrics       MetricsRegistry text exposition
//   GET  /trace         Chrome trace-event JSON (Tracer::Global())
//   GET  /stats         ServiceStats incl. per-tenant counters, JSON
//   GET  /healthz       liveness probe
//
// Tenancy: each request carries its tenant in the X-Tenant header.
// Admission verdicts map onto HTTP codes — tenant over quota → 429, shared
// queue full or shutting down → 503 — with the REJECTED ticket's reason
// string in the JSON body, so backpressure is visible at the edge.
//
// Shutdown ordering (cooperative): Shutdown() stops accepting, lets
// in-flight responses flush (bounded by drain_timeout), closes every
// connection and joins the event thread. The owner then shuts the service
// down — connections first, workers second — so accepted work still
// settles its tickets.

#ifndef MUSKETEER_SRC_NET_SERVER_H_
#define MUSKETEER_SRC_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/net/http.h"
#include "src/service/service.h"

namespace musketeer {

struct ServerConfig {
  std::string bind_address = "127.0.0.1";
  uint16_t port = 0;  // 0 = ephemeral; port() reports the bound port
  int max_connections = 256;
  size_t max_message_bytes = 1 << 20;
  // Terminal tickets stay addressable by /status//result until this many
  // newer submissions arrive (bounded memory for long-lived servers). A DONE
  // ticket holds its outputs and, until a GET /result takes it, their
  // encoded body (about as large again): a client that never fetches costs
  // both for one such window. Then the ticket is passed over once more
  // without the body (a fetch re-encodes), and counts in
  // musketeer.net.tickets.evicted_unfetched if it is dropped even so.
  size_t ticket_retention = 4096;
  // How long Shutdown() lets pending response bytes flush before closing.
  std::chrono::milliseconds drain_timeout{2000};
  // Idle keep-alive connections (no bytes in either direction, nothing
  // queued to write) are closed after this long; 0 disables the sweep.
  // Protects the connection table from clients that hold keep-alive
  // sockets open forever (`--keepalive-timeout-ms` on the CLI).
  std::chrono::milliseconds keepalive_timeout{0};
};

class HttpServer {
 public:
  // `service` outlives the server; not owned.
  HttpServer(WorkflowService* service, ServerConfig config = {});

  // Shuts down (drain + join) if still running.
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  // Binds, listens and spawns the event loop thread. Errors (port in use,
  // bad address) surface here, not in the loop.
  Status Start();

  // Stops accepting, drains in-flight responses (bounded), closes every
  // connection, joins the event thread. Idempotent. Does NOT shut the
  // workflow service down — that is the owner's next step.
  void Shutdown();

  // The bound port (useful with port = 0). Valid after Start().
  uint16_t port() const { return port_; }

  // Instantaneous open-connection count (event-loop-owned, racy reads ok).
  int active_connections() const {
    return active_connections_.load(std::memory_order_relaxed);
  }

 private:
  struct Connection {
    int fd = -1;
    HttpParser parser;
    // Response bytes awaiting POLLOUT, in order; the first `sent` bytes of
    // the front chunk are already on the wire. A large body is a chunk of
    // its own, moved in rather than copied, and freed once sent.
    std::deque<std::string> outq;
    size_t sent = 0;
    bool close_after_write = false;
    bool saw_eof = false;
    // Last time bytes moved on this connection (accept counts); the idle
    // keep-alive sweep closes connections this long quiet.
    std::chrono::steady_clock::time_point last_activity;

    explicit Connection(int fd_in, size_t max_message_bytes)
        : fd(fd_in),
          parser(max_message_bytes),
          last_activity(std::chrono::steady_clock::now()) {}
  };

  void LoopThread();
  void AcceptNew();
  // Returns false when the connection should be closed now.
  bool OnReadable(Connection* conn);
  bool OnWritable(Connection* conn);
  void CloseConnection(Connection* conn);

  void HandleHttp(Connection* conn, const HttpRequest& request);

  HttpResponse Route(const HttpRequest& request);
  HttpResponse HandleSubmit(const HttpRequest& request);
  HttpResponse HandleStatus(uint64_t id);
  HttpResponse HandleCancel(uint64_t id);
  HttpResponse HandleResult(uint64_t id);
  HttpResponse HandleStats();
  HttpResponse HandleRelationList();
  HttpResponse HandleRelationGet(const std::string& name);
  HttpResponse HandleRelationPut(const HttpRequest& request,
                                 const std::string& name);

  // Per-submission overrides of the service's default RunOptions, parsed
  // from request headers (X-Deadline-Ms, X-Incremental, X-Partitioner,
  // X-Replan-Threshold). Fields at their defaults leave the service
  // defaults untouched.
  struct SubmitOverrides {
    std::chrono::milliseconds deadline{0};
    bool incremental = false;
    std::optional<PartitionStrategyKind> partitioner;  // nullopt = default
    double replan_threshold = -1;                      // < 0 = default
  };

  // Submits to the service under `tenant` and registers the ticket.
  // `overrides.incremental` routes through the service's incremental-resubmit
  // path (fingerprint-matched jobs are reused; see X-Incremental in
  // HandleSubmit).
  WorkflowHandle SubmitSpec(const std::string& tenant, WorkflowSpec spec,
                            const SubmitOverrides& overrides);

  // A registered ticket and its DONE body. The worker that finishes the run
  // writes the body before the ticket turns DONE (SubmitSpec's callback);
  // after that only the loop thread touches it, under tickets_mu_. The first
  // GET /result takes the bytes, and a later fetch re-encodes them, so a
  // fetched body is not held twice. Empty until DONE, once taken, and once
  // retention has passed the ticket over.
  struct TicketEntry {
    WorkflowHandle ticket;
    std::shared_ptr<std::string> body;
    bool fetched = false;  // a GET /result has taken the body
    // Passed over once by eviction while DONE and unfetched.
    bool spared = false;
  };
  void RegisterTicket(TicketEntry entry);
  // Null when `id` is unknown or evicted.
  WorkflowHandle FindTicket(uint64_t id) const;
  // Marks ticket `id` fetched and moves its held body out; empty when it
  // holds none.
  std::string TakeResultBody(uint64_t id);

  WorkflowService* const service_;
  const ServerConfig config_;

  int listen_fd_ = -1;
  int wake_fds_[2] = {-1, -1};  // self-pipe: Shutdown() pokes the loop
  uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<int> active_connections_{0};
  bool started_ = false;
  std::thread loop_;
  std::vector<std::unique_ptr<Connection>> connections_;  // loop-thread only

  mutable std::mutex tickets_mu_;
  std::map<uint64_t, TicketEntry> tickets_;     // guarded by tickets_mu_
  std::deque<uint64_t> ticket_order_;           // guarded by tickets_mu_
};

}  // namespace musketeer

#endif  // MUSKETEER_SRC_NET_SERVER_H_
