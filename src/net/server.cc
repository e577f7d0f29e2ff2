#include "src/net/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <iterator>
#include <optional>

#include "src/base/json.h"
#include "src/base/strings.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/relational/csv.h"
#include "src/relational/schema.h"
#include "src/relational/table.h"

namespace musketeer {

namespace {

Counter& AcceptedCounter() {
  static Counter& c =
      MetricsRegistry::Global().counter("musketeer.net.connections.accepted");
  return c;
}

Counter& ClosedCounter() {
  static Counter& c =
      MetricsRegistry::Global().counter("musketeer.net.connections.closed");
  return c;
}

Counter& IdleClosedCounter() {
  static Counter& c = MetricsRegistry::Global().counter(
      "musketeer.net.connections.idle_closed");
  return c;
}

Gauge& ActiveGauge() {
  static Gauge& g =
      MetricsRegistry::Global().gauge("musketeer.net.connections.active");
  return g;
}

Counter& HttpRequestsCounter() {
  static Counter& c =
      MetricsRegistry::Global().counter("musketeer.net.http.requests");
  return c;
}

Counter& BytesReadCounter() {
  static Counter& c =
      MetricsRegistry::Global().counter("musketeer.net.bytes_read");
  return c;
}

Counter& BytesWrittenCounter() {
  static Counter& c =
      MetricsRegistry::Global().counter("musketeer.net.bytes_written");
  return c;
}

// Response counters bucketed by status class — the saturation signal
// (429/503 land in 4xx/5xx) without a per-code metric explosion.
Counter& ResponseClassCounter(int status) {
  static Counter& c2xx =
      MetricsRegistry::Global().counter("musketeer.net.responses.2xx");
  static Counter& c4xx =
      MetricsRegistry::Global().counter("musketeer.net.responses.4xx");
  static Counter& c5xx =
      MetricsRegistry::Global().counter("musketeer.net.responses.5xx");
  if (status < 300) return c2xx;
  if (status < 500) return c4xx;
  return c5xx;
}

// DONE tickets dropped by the retention bound before any GET /result took
// their body: a client that fetches after this many newer submissions gets
// 404 instead of its outputs.
Counter& EvictedUnfetchedCounter() {
  static Counter& c = MetricsRegistry::Global().counter(
      "musketeer.net.tickets.evicted_unfetched");
  return c;
}

Histogram& RequestSecondsHistogram() {
  static Histogram& h =
      MetricsRegistry::Global().histogram("musketeer.net.request_seconds");
  return h;
}

// Queues `response` for sending: its head, then its body moved in as a
// chunk of its own (OnWritable sends both in one sendmsg).
void QueueResponse(HttpResponse response, std::deque<std::string>* out) {
  out->push_back(ResponseHead(response));
  if (!response.body.empty()) {
    out->push_back(std::move(response.body));
  }
}

// "/status/17" → 17; nullopt on junk (empty, non-digits, trailing garbage).
std::optional<uint64_t> ParseIdSuffix(std::string_view path,
                                      std::string_view prefix) {
  std::string_view rest = path.substr(prefix.size());
  if (rest.empty()) return std::nullopt;
  uint64_t id = 0;
  for (char c : rest) {
    if (c < '0' || c > '9') return std::nullopt;
    id = id * 10 + static_cast<uint64_t>(c - '0');
  }
  return id;
}

HttpResponse JsonError(int status, const std::string& message) {
  HttpResponse resp;
  resp.status = status;
  resp.content_type = "application/json";
  resp.body = "{\"error\": " + JsonQuote(message) + "}\n";
  return resp;
}

// The two saturation rejections get distinct codes at the edge: a tenant
// exceeding its own quota must not look like service-wide overload.
int RejectStatus(RejectReason reason) {
  return reason == RejectReason::kTenantOverQuota ? 429 : 503;
}

std::string TicketJson(const WorkflowHandle& ticket) {
  const WorkflowState state = ticket->state();
  std::string out = "{\"ticket\": " + std::to_string(ticket->id()) +
                    ", \"tenant\": " + JsonQuote(ticket->tenant()) +
                    ", \"state\": " + JsonQuote(WorkflowStateName(state));
  if (ticket->terminal()) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6f", ticket->queue_seconds());
    out += ", \"queue_seconds\": ";
    out += buf;
    std::snprintf(buf, sizeof(buf), "%.6f", ticket->total_seconds());
    out += ", \"total_seconds\": ";
    out += buf;
    out += ", \"cache_hit\": ";
    out += ticket->plan_cache_hit() ? "true" : "false";
    if (state == WorkflowState::kDone && ticket->result().ok()) {
      const RunResult& result = *ticket->result();
      out += ", \"jobs_reused\": " + std::to_string(result.jobs_reused) +
             ", \"partition_strategy\": " +
             JsonQuote(result.partition_strategy) +
             ", \"replans\": " + std::to_string(result.replans);
    }
    if (state == WorkflowState::kRejected) {
      out += ", \"reject_reason\": " +
             JsonQuote(RejectReasonName(ticket->reject_reason()));
    }
    if (state != WorkflowState::kDone && !ticket->result().ok()) {
      out += ", \"error\": " + JsonQuote(ticket->result().status().message());
    }
  }
  out += "}\n";
  return out;
}

// The DONE payload: every sink relation as (schema spec, CSV text) so a
// client can ParseSchemaSpec + ParseCsv its way back to bit-identical
// tables (tests/net_test.cc asserts Table::Identical round-trips). Built in
// one pass: each table's CSV is written JSON-escaped straight into the body.
std::string ResultBody(uint64_t id, bool cache_hit, const RunResult& result) {
  std::string out = "{\"ticket\": " + std::to_string(id) +
                    ", \"state\": \"DONE\", \"makespan\": ";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6f", result.makespan);
  out += buf;
  out += ", \"cache_hit\": ";
  out += cache_hit ? "true" : "false";
  out += ", \"outputs\": [";
  std::vector<std::string> names;
  names.reserve(result.outputs.size());
  for (const auto& [name, table] : result.outputs) {
    names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  for (size_t i = 0; i < names.size(); ++i) {
    const Table& table = *result.outputs.at(names[i]);
    if (i > 0) out += ", ";
    out += "{\"name\": " + JsonQuote(names[i]) +
           ", \"schema\": " + JsonQuote(FormatSchemaSpec(table.schema())) +
           ", \"rows\": " + std::to_string(table.num_rows()) + ", \"csv\": \"";
    AppendJsonEscapedCsv(table, &out);
    out += "\"}";
  }
  out += "]}\n";
  return out;
}

}  // namespace

HttpServer::HttpServer(WorkflowService* service, ServerConfig config)
    : service_(service), config_(std::move(config)) {}

HttpServer::~HttpServer() { Shutdown(); }

Status HttpServer::Start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    return InternalError("socket(): " + std::string(std::strerror(errno)));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return InvalidArgumentError("bad bind address '" + config_.bind_address +
                                "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    Status status = UnavailableError("bind(" + config_.bind_address + ":" +
                                     std::to_string(config_.port) +
                                     "): " + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  if (::listen(listen_fd_, 128) != 0) {
    Status status =
        InternalError("listen(): " + std::string(std::strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);
  if (::pipe2(wake_fds_, O_NONBLOCK | O_CLOEXEC) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return InternalError("pipe2(): " + std::string(std::strerror(errno)));
  }
  started_ = true;
  loop_ = std::thread(&HttpServer::LoopThread, this);
  return OkStatus();
}

void HttpServer::Shutdown() {
  if (!started_) {
    return;
  }
  stop_.store(true, std::memory_order_relaxed);
  // Poke the poll loop awake so it notices the flag immediately.
  [[maybe_unused]] ssize_t n = ::write(wake_fds_[1], "x", 1);
  if (loop_.joinable()) {
    loop_.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  for (int i = 0; i < 2; ++i) {
    if (wake_fds_[i] >= 0) {
      ::close(wake_fds_[i]);
      wake_fds_[i] = -1;
    }
  }
  started_ = false;
}

void HttpServer::LoopThread() {
  using Clock = std::chrono::steady_clock;
  Clock::time_point drain_deadline{};
  bool draining = false;
  std::vector<pollfd> fds;
  while (true) {
    const bool stopping = stop_.load(std::memory_order_relaxed);
    if (stopping && !draining) {
      draining = true;
      drain_deadline = Clock::now() + config_.drain_timeout;
    }
    if (draining) {
      // Accepted responses get drain_timeout to flush, then we cut them off.
      bool pending = false;
      for (const auto& conn : connections_) {
        if (!conn->outq.empty()) {
          pending = true;
          break;
        }
      }
      if (!pending || Clock::now() >= drain_deadline) {
        break;
      }
    }

    fds.clear();
    fds.push_back({wake_fds_[0], POLLIN, 0});
    const bool accepting =
        !stopping &&
        connections_.size() < static_cast<size_t>(config_.max_connections);
    size_t listen_index = fds.size();
    if (accepting) {
      fds.push_back({listen_fd_, POLLIN, 0});
    }
    size_t conn_base = fds.size();
    for (const auto& conn : connections_) {
      short events = 0;
      if (!conn->saw_eof && !conn->close_after_write && !draining) {
        events |= POLLIN;
      }
      if (!conn->outq.empty()) {
        events |= POLLOUT;
      }
      fds.push_back({conn->fd, events, 0});
    }

    int timeout_ms = 200;
    if (config_.keepalive_timeout.count() > 0) {
      // Wake often enough that idle connections are closed within ~1.25x of
      // the configured timeout even with no traffic at all.
      auto quarter = config_.keepalive_timeout.count() / 4;
      timeout_ms = static_cast<int>(
          std::clamp<long long>(quarter, 10, timeout_ms));
    }
    if (draining) {
      auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
                           drain_deadline - Clock::now())
                           .count();
      timeout_ms = static_cast<int>(std::clamp<long long>(remaining, 0, 50));
    }
    int ready = ::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout_ms);
    if (ready < 0 && errno != EINTR) {
      break;  // poll itself failing is unrecoverable for this loop
    }

    if (fds[0].revents & POLLIN) {
      char drain[64];
      while (::read(wake_fds_[0], drain, sizeof(drain)) > 0) {
      }
    }
    if (accepting && (fds[listen_index].revents & POLLIN)) {
      AcceptNew();
    }
    for (size_t i = 0; i < connections_.size() && conn_base + i < fds.size();
         ++i) {
      Connection* conn = connections_[i].get();
      short revents = fds[conn_base + i].revents;
      bool keep = true;
      if (revents & (POLLERR | POLLNVAL)) {
        keep = false;
      }
      if (keep && (revents & (POLLIN | POLLHUP))) {
        keep = OnReadable(conn);
      }
      if (keep && (revents & POLLOUT)) {
        keep = OnWritable(conn);
      }
      if (!keep) {
        CloseConnection(conn);
      }
    }
    // Idle keep-alive sweep: close connections with no traffic in either
    // direction for keepalive_timeout. Connections with queued output are
    // not idle (the peer may just be slow); a partially parsed request
    // still counts as idle once the bytes stop flowing — a stalled sender
    // holds a slot either way.
    if (!draining && config_.keepalive_timeout.count() > 0) {
      const auto now = Clock::now();
      for (const auto& conn : connections_) {
        if (conn->fd >= 0 && conn->outq.empty() &&
            now - conn->last_activity >= config_.keepalive_timeout) {
          IdleClosedCounter().Increment();
          CloseConnection(conn.get());
        }
      }
    }
    connections_.erase(
        std::remove_if(connections_.begin(), connections_.end(),
                       [](const std::unique_ptr<Connection>& c) {
                         return c->fd < 0;
                       }),
        connections_.end());
  }
  for (const auto& conn : connections_) {
    CloseConnection(conn.get());
  }
  connections_.clear();
}

void HttpServer::AcceptNew() {
  while (connections_.size() < static_cast<size_t>(config_.max_connections)) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      return;  // EAGAIN (drained) or transient error; poll will re-arm
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    connections_.push_back(
        std::make_unique<Connection>(fd, config_.max_message_bytes));
    AcceptedCounter().Increment();
    active_connections_.fetch_add(1, std::memory_order_relaxed);
    ActiveGauge().Set(active_connections_.load(std::memory_order_relaxed));
  }
}

void HttpServer::CloseConnection(Connection* conn) {
  if (conn->fd < 0) {
    return;
  }
  ::close(conn->fd);
  conn->fd = -1;
  ClosedCounter().Increment();
  active_connections_.fetch_sub(1, std::memory_order_relaxed);
  ActiveGauge().Set(active_connections_.load(std::memory_order_relaxed));
}

bool HttpServer::OnReadable(Connection* conn) {
  char buf[16384];
  std::string incoming;
  while (true) {
    ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      incoming.append(buf, static_cast<size_t>(n));
      if (incoming.size() >= 1u << 20) {
        break;  // be fair to other connections; poll re-arms us
      }
      continue;
    }
    if (n == 0) {
      conn->saw_eof = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
      break;
    }
    return false;  // hard socket error
  }
  if (!incoming.empty()) {
    BytesReadCounter().Increment(incoming.size());
    conn->last_activity = std::chrono::steady_clock::now();

    std::vector<HttpRequest> requests;
    conn->parser.Feed(incoming, &requests);
    for (const HttpRequest& request : requests) {
      HandleHttp(conn, request);
      if (conn->close_after_write) {
        break;
      }
    }
    if (conn->parser.error()) {
      HttpResponse resp =
          JsonError(conn->parser.error_status(), conn->parser.error_message());
      resp.close = true;
      ResponseClassCounter(resp.status).Increment();
      QueueResponse(std::move(resp), &conn->outq);
      conn->close_after_write = true;
    }
  }
  // Push what we can now instead of waiting one poll cycle for POLLOUT.
  if (!conn->outq.empty() && !OnWritable(conn)) {
    return false;
  }
  if (conn->saw_eof) {
    return !conn->outq.empty();  // flush the tail, then close
  }
  return true;
}

bool HttpServer::OnWritable(Connection* conn) {
  while (!conn->outq.empty()) {
    // One sendmsg over the first few chunks: a head and its body go out in
    // one call.
    iovec iov[8];
    size_t count = 0;
    for (const std::string& chunk : conn->outq) {
      const size_t skip = count == 0 ? conn->sent : 0;
      iov[count].iov_base = const_cast<char*>(chunk.data() + skip);
      iov[count].iov_len = chunk.size() - skip;
      if (++count == std::size(iov)) break;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = count;
    ssize_t n = ::sendmsg(conn->fd, &msg, MSG_NOSIGNAL);
    if (n > 0) {
      BytesWrittenCounter().Increment(static_cast<uint64_t>(n));
      conn->last_activity = std::chrono::steady_clock::now();
      size_t left = static_cast<size_t>(n);
      while (left > 0) {
        const size_t rest = conn->outq.front().size() - conn->sent;
        if (left < rest) {
          conn->sent += left;
          break;
        }
        left -= rest;
        conn->outq.pop_front();
        conn->sent = 0;
      }
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
      return true;  // POLLOUT re-arms
    }
    return false;
  }
  return !conn->close_after_write;
}

// ---- HTTP dispatch ---------------------------------------------------------

void HttpServer::HandleHttp(Connection* conn, const HttpRequest& request) {
  Span span("net.request", "net");
  HttpRequestsCounter().Increment();
  HttpResponse resp = Route(request);
  if (request.WantsClose()) {
    resp.close = true;
    conn->close_after_write = true;
  }
  if (span.active()) {
    span.SetAttr("method", request.method);
    span.SetAttr("path", request.path);
    span.SetAttr("status", std::to_string(resp.status));
  }
  ResponseClassCounter(resp.status).Increment();
  RequestSecondsHistogram().Observe(span.elapsed_seconds());
  QueueResponse(std::move(resp), &conn->outq);
}

HttpResponse HttpServer::Route(const HttpRequest& request) {
  const std::string& path = request.path;
  if (path == "/submit") {
    if (request.method != "POST") {
      return JsonError(405, "submit requires POST");
    }
    return HandleSubmit(request);
  }
  if (StartsWith(path, "/status/")) {
    if (request.method != "GET") return JsonError(405, "status requires GET");
    auto id = ParseIdSuffix(path, "/status/");
    if (!id.has_value()) return JsonError(400, "bad ticket id");
    return HandleStatus(*id);
  }
  if (StartsWith(path, "/cancel/")) {
    if (request.method != "POST") {
      return JsonError(405, "cancel requires POST");
    }
    auto id = ParseIdSuffix(path, "/cancel/");
    if (!id.has_value()) return JsonError(400, "bad ticket id");
    return HandleCancel(*id);
  }
  if (StartsWith(path, "/result/")) {
    if (request.method != "GET") return JsonError(405, "result requires GET");
    auto id = ParseIdSuffix(path, "/result/");
    if (!id.has_value()) return JsonError(400, "bad ticket id");
    return HandleResult(*id);
  }
  if (path == "/relations") {
    if (request.method != "GET") {
      return JsonError(405, "relations requires GET");
    }
    return HandleRelationList();
  }
  if (StartsWith(path, "/relation/")) {
    const std::string name = path.substr(std::strlen("/relation/"));
    if (name.empty()) return JsonError(400, "missing relation name");
    if (request.method == "GET") return HandleRelationGet(name);
    if (request.method == "PUT" || request.method == "POST") {
      return HandleRelationPut(request, name);
    }
    return JsonError(405, "relation requires GET or PUT");
  }
  if (path == "/metrics") {
    if (request.method != "GET") return JsonError(405, "metrics requires GET");
    HttpResponse resp;
    resp.body = MetricsRegistry::Global().DumpText();
    return resp;
  }
  if (path == "/trace") {
    if (request.method != "GET") return JsonError(405, "trace requires GET");
    HttpResponse resp;
    resp.content_type = "application/json";
    resp.body = Tracer::Global().ChromeTraceJson();
    return resp;
  }
  if (path == "/stats") {
    if (request.method != "GET") return JsonError(405, "stats requires GET");
    return HandleStats();
  }
  if (path == "/healthz") {
    HttpResponse resp;
    resp.body = "ok\n";
    return resp;
  }
  return JsonError(404, "no such endpoint: " + path);
}

HttpResponse HttpServer::HandleSubmit(const HttpRequest& request) {
  if (request.body.empty()) {
    return JsonError(400, "empty workflow source");
  }
  const std::string* tenant_header = request.FindHeader("x-tenant");
  const std::string tenant = tenant_header != nullptr ? *tenant_header : "";

  WorkflowSpec spec;
  const std::string* id_header = request.FindHeader("x-workflow-id");
  spec.id = id_header != nullptr ? *id_header : "net-anon";
  const std::string* lang_header = request.FindHeader("x-language");
  // A missing or empty X-Language means BEER.
  auto language = lang_header == nullptr || lang_header->empty()
                      ? std::optional(FrontendLanguage::kBeer)
                      : FrontendLanguageFromName(*lang_header);
  if (!language.has_value()) {
    return JsonError(400, "unknown language '" + *lang_header + "'");
  }
  spec.language = *language;
  spec.source = request.body;

  SubmitOverrides overrides;
  if (const std::string* dl = request.FindHeader("x-deadline-ms")) {
    auto ms = ParseInt64(*dl);
    if (!ms.has_value() || *ms <= 0) {
      return JsonError(400, "bad x-deadline-ms");
    }
    overrides.deadline = std::chrono::milliseconds(*ms);
  }

  // X-Incremental: 1|true → incremental resubmission (jobs whose input
  // fingerprints still match the DFS are reused, not recomputed).
  if (const std::string* inc = request.FindHeader("x-incremental")) {
    if (*inc == "1" || EqualsIgnoreCase(*inc, "true")) {
      overrides.incremental = true;
    } else if (!(*inc == "0" || EqualsIgnoreCase(*inc, "false"))) {
      return JsonError(400, "bad x-incremental '" + *inc + "'");
    }
  }

  // X-Partitioner: auto|dp|exhaustive|dp-multi.
  if (const std::string* strat = request.FindHeader("x-partitioner")) {
    overrides.partitioner = PartitionStrategyKindFromName(*strat);
    if (!overrides.partitioner.has_value()) {
      return JsonError(400, "unknown partitioner '" + *strat + "'");
    }
  }

  // X-Replan-Threshold: misprediction ratio above which the run
  // re-partitions its remaining jobs mid-flight; 0 disables.
  if (const std::string* rt = request.FindHeader("x-replan-threshold")) {
    auto ratio = ParseDouble(*rt);
    if (!ratio.has_value() || *ratio < 0) {
      return JsonError(400, "bad x-replan-threshold '" + *rt + "'");
    }
    overrides.replan_threshold = *ratio;
  }

  WorkflowHandle ticket = SubmitSpec(tenant, std::move(spec), overrides);
  if (ticket->state() == WorkflowState::kRejected) {
    HttpResponse resp;
    resp.status = RejectStatus(ticket->reject_reason());
    resp.content_type = "application/json";
    resp.body = "{\"error\": " +
                JsonQuote(ticket->result().status().message()) +
                ", \"reject_reason\": " +
                JsonQuote(RejectReasonName(ticket->reject_reason())) +
                ", \"ticket\": " + std::to_string(ticket->id()) + "}\n";
    return resp;
  }
  HttpResponse resp;
  resp.status = 202;
  resp.content_type = "application/json";
  resp.body = TicketJson(ticket);
  return resp;
}

HttpResponse HttpServer::HandleStatus(uint64_t id) {
  WorkflowHandle ticket = FindTicket(id);
  if (ticket == nullptr) {
    return JsonError(404, "unknown ticket " + std::to_string(id));
  }
  HttpResponse resp;
  resp.content_type = "application/json";
  resp.body = TicketJson(ticket);
  return resp;
}

HttpResponse HttpServer::HandleCancel(uint64_t id) {
  WorkflowHandle ticket = FindTicket(id);
  if (ticket == nullptr) {
    return JsonError(404, "unknown ticket " + std::to_string(id));
  }
  ticket->Cancel();
  HttpResponse resp;
  resp.status = 202;
  resp.content_type = "application/json";
  resp.body = TicketJson(ticket);
  return resp;
}

HttpResponse HttpServer::HandleResult(uint64_t id) {
  const WorkflowHandle ticket = FindTicket(id);
  if (ticket == nullptr) {
    return JsonError(404, "unknown ticket " + std::to_string(id));
  }
  const WorkflowState state = ticket->state();
  if (!ticket->terminal()) {
    HttpResponse resp = JsonError(409, "workflow not finished");
    resp.body = "{\"error\": \"workflow not finished\", \"state\": " +
                JsonQuote(WorkflowStateName(state)) + "}\n";
    return resp;
  }
  if (state != WorkflowState::kDone) {
    int status = 500;
    if (state == WorkflowState::kCancelled) status = 409;
    if (state == WorkflowState::kRejected) {
      status = RejectStatus(ticket->reject_reason());
    }
    HttpResponse resp;
    resp.status = status;
    resp.content_type = "application/json";
    resp.body = "{\"error\": " +
                JsonQuote(ticket->result().status().message()) +
                ", \"state\": " + JsonQuote(WorkflowStateName(state)) + "}\n";
    return resp;
  }
  // The worker encoded the body before the ticket turned DONE; the first
  // fetch takes the bytes, a later one (or one after retention dropped
  // them) re-encodes.
  HttpResponse resp;
  resp.content_type = "application/json";
  resp.body = TakeResultBody(id);
  if (resp.body.empty()) {
    resp.body =
        ResultBody(ticket->id(), ticket->plan_cache_hit(), *ticket->result());
  }
  return resp;
}

HttpResponse HttpServer::HandleStats() {
  ServiceStats stats = service_->stats();
  std::string body = "{\"submitted\": " + std::to_string(stats.submitted) +
                     ", \"rejected\": " + std::to_string(stats.rejected) +
                     ", \"completed\": " + std::to_string(stats.completed) +
                     ", \"failed\": " + std::to_string(stats.failed) +
                     ", \"cancelled\": " + std::to_string(stats.cancelled) +
                     ", \"plan_cache_hits\": " +
                     std::to_string(stats.plan_cache_hits) +
                     ", \"plan_cache_misses\": " +
                     std::to_string(stats.plan_cache_misses) +
                     ", \"jobs_reused\": " + std::to_string(stats.jobs_reused) +
                     ", \"replans\": " + std::to_string(stats.replans) +
                     ", \"queue_depth\": " + std::to_string(stats.queue_depth) +
                     ", \"active_connections\": " +
                     std::to_string(active_connections()) + ", \"tenants\": {";
  bool first = true;
  for (const auto& [tenant, t] : stats.tenants) {
    if (!first) body += ", ";
    first = false;
    body += JsonQuote(tenant) +
            ": {\"submitted\": " + std::to_string(t.submitted) +
            ", \"rejected\": " + std::to_string(t.rejected) +
            ", \"completed\": " + std::to_string(t.completed) +
            ", \"failed\": " + std::to_string(t.failed) +
            ", \"cancelled\": " + std::to_string(t.cancelled) + "}";
  }
  body += "}}\n";
  HttpResponse resp;
  resp.content_type = "application/json";
  resp.body = body;
  return resp;
}

// ---- relation exchange (peer-to-peer shard transport) ----------------------

HttpResponse HttpServer::HandleRelationList() {
  std::string body = "{\"relations\": [";
  bool first = true;
  for (const std::string& name : service_->dfs()->ListLocalRelations()) {
    if (!first) body += ", ";
    first = false;
    body += JsonQuote(name);
  }
  body += "]}\n";
  HttpResponse resp;
  resp.content_type = "application/json";
  resp.body = body;
  return resp;
}

HttpResponse HttpServer::HandleRelationGet(const std::string& name) {
  auto table = service_->dfs()->GetLocal(name);
  if (!table.ok()) {
    return JsonError(404, "no relation '" + name + "'");
  }
  char scale[32];
  std::snprintf(scale, sizeof(scale), "%.17g", (*table)->scale());
  HttpResponse resp;
  resp.content_type = "application/json";
  // Same round-trip encoding as /result: ParseSchemaSpec + ParseCsv on the
  // receiving side reconstructs a Table::Identical copy; scale rides along
  // so nominal-size accounting survives the wire.
  resp.body = "{\"name\": " + JsonQuote(name) +
              ", \"schema\": " + JsonQuote(FormatSchemaSpec((*table)->schema())) +
              ", \"scale\": " + scale +
              ", \"rows\": " + std::to_string((*table)->num_rows()) +
              ", \"csv\": \"";
  AppendJsonEscapedCsv(**table, &resp.body);
  resp.body += "\"}\n";
  return resp;
}

HttpResponse HttpServer::HandleRelationPut(const HttpRequest& request,
                                           const std::string& name) {
  const std::string* schema_header = request.FindHeader("x-schema");
  if (schema_header == nullptr) {
    return JsonError(400, "missing X-Schema header");
  }
  auto schema = ParseSchemaSpec(*schema_header);
  if (!schema.has_value()) {
    return JsonError(400, "bad schema spec '" + *schema_header + "'");
  }
  auto table = ParseCsv(request.body, *schema);
  if (!table.ok()) {
    return JsonError(400, "bad CSV body: " + table.status().message());
  }
  if (const std::string* scale_header = request.FindHeader("x-scale")) {
    auto scale = ParseDouble(*scale_header);
    if (!scale.has_value() || *scale < 1.0) {
      return JsonError(400, "bad X-Scale '" + *scale_header + "'");
    }
    table->set_scale(*scale);
  }
  const size_t rows = table->num_rows();
  service_->dfs()->PutLocal(name, std::make_shared<Table>(std::move(*table)));
  HttpResponse resp;
  resp.content_type = "application/json";
  resp.body = "{\"name\": " + JsonQuote(name) +
              ", \"rows\": " + std::to_string(rows) + "}\n";
  return resp;
}

// ---- ticket registry -------------------------------------------------------

WorkflowHandle HttpServer::SubmitSpec(const std::string& tenant,
                                      WorkflowSpec spec,
                                      const SubmitOverrides& overrides) {
  RunOptions options = service_->default_options();
  if (overrides.deadline.count() > 0) {
    options.deadline = overrides.deadline;
  }
  if (overrides.partitioner.has_value()) {
    options.planner.strategy = *overrides.partitioner;
  }
  if (overrides.replan_threshold >= 0) {
    options.planner.replan_threshold = overrides.replan_threshold;
  }
  // The worker that finishes the run encodes the DONE body, off this loop.
  auto body = std::make_shared<std::string>();
  DoneCallback encode = [body](const WorkflowTicket& ticket,
                               const RunResult& result, bool cache_hit) {
    *body = ResultBody(ticket.id(), cache_hit, result);
  };
  WorkflowHandle ticket =
      overrides.incremental
          ? service_->ResubmitIncrementalAs(tenant, std::move(spec),
                                            std::move(options),
                                            std::move(encode))
          : service_->SubmitAs(tenant, std::move(spec), std::move(options),
                               std::move(encode));
  RegisterTicket({ticket, std::move(body)});
  return ticket;
}

void HttpServer::RegisterTicket(TicketEntry entry) {
  std::lock_guard lock(tickets_mu_);
  const uint64_t id = entry.ticket->id();
  tickets_[id] = std::move(entry);
  ticket_order_.push_back(id);
  // Evict oldest terminal tickets past the retention bound; non-terminal
  // tickets are never dropped (a client still holds their id) and go to the
  // back. So a long run can sit at the front when it turns DONE; its first
  // time there unfetched it goes to the back too, which gives its client a
  // full retention window after DONE to fetch it. Its held body is dropped
  // then (a fetch re-encodes), so a client that never fetches costs the
  // body for one window only.
  size_t scans = ticket_order_.size();
  while (tickets_.size() > config_.ticket_retention && scans-- > 0) {
    uint64_t victim = ticket_order_.front();
    ticket_order_.pop_front();
    auto it = tickets_.find(victim);
    if (it == tickets_.end()) {
      continue;
    }
    TicketEntry& entry = it->second;
    const WorkflowState state = entry.ticket->state();
    const bool unfetched = state == WorkflowState::kDone && !entry.fetched;
    if (state == WorkflowState::kQueued || state == WorkflowState::kRunning ||
        (unfetched && !entry.spared)) {
      if (unfetched) {
        entry.spared = true;
        std::string().swap(*entry.body);
      }
      ticket_order_.push_back(victim);
      continue;
    }
    if (unfetched) {
      EvictedUnfetchedCounter().Increment();
    }
    tickets_.erase(it);
  }
}

WorkflowHandle HttpServer::FindTicket(uint64_t id) const {
  std::lock_guard lock(tickets_mu_);
  auto it = tickets_.find(id);
  return it == tickets_.end() ? nullptr : it->second.ticket;
}

std::string HttpServer::TakeResultBody(uint64_t id) {
  std::string body;
  std::lock_guard lock(tickets_mu_);
  auto it = tickets_.find(id);
  if (it != tickets_.end()) {
    it->second.fetched = true;
    body.swap(*it->second.body);
  }
  return body;
}

}  // namespace musketeer
