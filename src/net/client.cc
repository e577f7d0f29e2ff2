#include "src/net/client.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <thread>

#include "src/base/json.h"
#include "src/relational/csv.h"
#include "src/relational/schema.h"
#include "src/relational/table.h"

namespace musketeer {

NetClient::~NetClient() { Close(); }

void NetClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status NetClient::Connect(const std::string& host, uint16_t port) {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    return InternalError("socket(): " + std::string(std::strerror(errno)));
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    Close();
    return InvalidArgumentError("bad address '" + host + "'");
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status status = UnavailableError("connect(" + host + ":" +
                                     std::to_string(port) +
                                     "): " + std::strerror(errno));
    Close();
    return status;
  }
  return OkStatus();
}

StatusOr<HttpResponseParser::Response> NetClient::Request(
    const HttpRequest& request) {
  if (fd_ < 0) {
    return FailedPreconditionError("not connected");
  }
  std::string wire = SerializeRequest(request);
  size_t sent = 0;
  while (sent < wire.size()) {
    ssize_t n =
        ::send(fd_, wire.data() + sent, wire.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return UnavailableError("send(): " + std::string(std::strerror(errno)));
    }
    sent += static_cast<size_t>(n);
  }
  HttpResponseParser parser;
  std::vector<HttpResponseParser::Response> responses;
  char buf[16384];
  while (responses.empty()) {
    ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n == 0) {
      return UnavailableError("server closed connection mid-response");
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      return UnavailableError("recv(): " + std::string(std::strerror(errno)));
    }
    if (!parser.Feed(std::string_view(buf, static_cast<size_t>(n)),
                     &responses)) {
      return InternalError("bad response: " + parser.error_message());
    }
  }
  return std::move(responses.front());
}

StatusOr<NetClient::SubmitReply> NetClient::SubmitWorkflow(
    const SubmitOptions& options, const std::string& source) {
  HttpRequest request;
  request.method = "POST";
  request.target = "/submit";
  request.body = source;
  if (!options.tenant.empty()) {
    request.headers.emplace_back("X-Tenant", options.tenant);
  }
  request.headers.emplace_back("X-Workflow-Id", options.workflow_id);
  request.headers.emplace_back("X-Language", options.language);
  if (options.deadline_ms > 0) {
    request.headers.emplace_back("X-Deadline-Ms",
                                 std::to_string(options.deadline_ms));
  }
  if (options.incremental) {
    request.headers.emplace_back("X-Incremental", "1");
  }
  auto response = Request(request);
  if (!response.ok()) {
    return response.status();
  }
  auto json = ParseJson(response->body);
  if (!json.ok()) {
    return InternalError("unparseable submit response: " + response->body);
  }
  SubmitReply reply;
  reply.status = response->status;
  if (const JsonValue* ticket = json->Find("ticket")) {
    reply.ticket = static_cast<uint64_t>(ticket->number_value);
  }
  if (const JsonValue* state = json->Find("state")) {
    reply.state = state->string_value;
  }
  if (const JsonValue* reason = json->Find("reject_reason")) {
    reply.reject_reason = reason->string_value;
  }
  if (const JsonValue* error = json->Find("error")) {
    reply.error = error->string_value;
  }
  return reply;
}

StatusOr<std::string> NetClient::StateOf(uint64_t ticket) {
  HttpRequest request;
  request.method = "GET";
  request.target = "/status/" + std::to_string(ticket);
  auto response = Request(request);
  if (!response.ok()) {
    return response.status();
  }
  if (response->status != 200) {
    return NotFoundError("status/" + std::to_string(ticket) + " → " +
                         std::to_string(response->status));
  }
  auto json = ParseJson(response->body);
  if (!json.ok() || json->Find("state") == nullptr) {
    return InternalError("unparseable status response: " + response->body);
  }
  return json->Find("state")->string_value;
}

StatusOr<std::string> NetClient::Cancel(uint64_t ticket) {
  HttpRequest request;
  request.method = "POST";
  request.target = "/cancel/" + std::to_string(ticket);
  auto response = Request(request);
  if (!response.ok()) {
    return response.status();
  }
  if (response->status != 202) {
    return NotFoundError("cancel/" + std::to_string(ticket) + " → " +
                         std::to_string(response->status));
  }
  auto json = ParseJson(response->body);
  if (!json.ok() || json->Find("state") == nullptr) {
    return InternalError("unparseable cancel response: " + response->body);
  }
  return json->Find("state")->string_value;
}

StatusOr<std::string> NetClient::WaitTerminal(
    uint64_t ticket, std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (true) {
    auto state = StateOf(ticket);
    if (!state.ok()) {
      return state.status();
    }
    if (*state == "DONE" || *state == "FAILED" || *state == "REJECTED" ||
        *state == "CANCELLED") {
      return state;
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      return DeadlineExceededError("ticket " + std::to_string(ticket) +
                                   " still " + *state);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

StatusOr<TableMap> NetClient::FetchResult(uint64_t ticket) {
  HttpRequest request;
  request.method = "GET";
  request.target = "/result/" + std::to_string(ticket);
  auto response = Request(request);
  if (!response.ok()) {
    return response.status();
  }
  if (response->status != 200) {
    return InternalError("result/" + std::to_string(ticket) + " → " +
                         std::to_string(response->status) + ": " +
                         response->body);
  }
  auto json = ParseJson(response->body);
  if (!json.ok()) {
    return InternalError("unparseable result response");
  }
  const JsonValue* outputs = json->Find("outputs");
  if (outputs == nullptr || !outputs->is_array()) {
    return InternalError("result response has no outputs array");
  }
  TableMap tables;
  for (const JsonValue& output : outputs->array) {
    const JsonValue* name = output.Find("name");
    const JsonValue* schema_spec = output.Find("schema");
    const JsonValue* csv = output.Find("csv");
    if (name == nullptr || schema_spec == nullptr || csv == nullptr) {
      return InternalError("malformed output entry");
    }
    auto schema = ParseSchemaSpec(schema_spec->string_value);
    if (!schema.has_value()) {
      return InternalError("bad schema spec '" + schema_spec->string_value +
                           "'");
    }
    auto table = ParseCsv(csv->string_value, *schema);
    if (!table.ok()) {
      return table.status();
    }
    tables[name->string_value] = std::make_shared<Table>(std::move(*table));
  }
  return tables;
}

StatusOr<std::vector<std::string>> NetClient::ListRelations() {
  HttpRequest request;
  request.method = "GET";
  request.target = "/relations";
  auto response = Request(request);
  if (!response.ok()) {
    return response.status();
  }
  if (response->status != 200) {
    return InternalError("relations → " + std::to_string(response->status));
  }
  auto json = ParseJson(response->body);
  if (!json.ok()) {
    return InternalError("unparseable relations response");
  }
  const JsonValue* relations = json->Find("relations");
  if (relations == nullptr || !relations->is_array()) {
    return InternalError("relations response has no relations array");
  }
  std::vector<std::string> names;
  names.reserve(relations->array.size());
  for (const JsonValue& name : relations->array) {
    names.push_back(name.string_value);
  }
  return names;
}

StatusOr<TablePtr> NetClient::FetchRelation(const std::string& name) {
  HttpRequest request;
  request.method = "GET";
  request.target = "/relation/" + name;
  auto response = Request(request);
  if (!response.ok()) {
    return response.status();
  }
  if (response->status == 404) {
    return NotFoundError("peer has no relation '" + name + "'");
  }
  if (response->status != 200) {
    return InternalError("relation/" + name + " → " +
                         std::to_string(response->status) + ": " +
                         response->body);
  }
  auto json = ParseJson(response->body);
  if (!json.ok()) {
    return InternalError("unparseable relation response");
  }
  const JsonValue* schema_spec = json->Find("schema");
  const JsonValue* csv = json->Find("csv");
  if (schema_spec == nullptr || csv == nullptr) {
    return InternalError("malformed relation payload for '" + name + "'");
  }
  auto schema = ParseSchemaSpec(schema_spec->string_value);
  if (!schema.has_value()) {
    return InternalError("bad schema spec '" + schema_spec->string_value + "'");
  }
  auto table = ParseCsv(csv->string_value, *schema);
  if (!table.ok()) {
    return table.status();
  }
  if (const JsonValue* scale = json->Find("scale")) {
    if (scale->number_value >= 1.0) {
      table->set_scale(scale->number_value);
    }
  }
  TablePtr ptr = std::make_shared<Table>(std::move(*table));
  return ptr;
}

Status NetClient::PushRelation(const std::string& name, const Table& table) {
  HttpRequest request;
  request.method = "PUT";
  request.target = "/relation/" + name;
  request.body = WriteCsv(table, ',', /*round_trip_doubles=*/true);
  request.headers.emplace_back("X-Schema", FormatSchemaSpec(table.schema()));
  if (table.scale() != 1.0) {
    char scale[32];
    std::snprintf(scale, sizeof(scale), "%.17g", table.scale());
    request.headers.emplace_back("X-Scale", scale);
  }
  auto response = Request(request);
  if (!response.ok()) {
    return response.status();
  }
  if (response->status != 200) {
    return InternalError("PUT relation/" + name + " → " +
                         std::to_string(response->status) + ": " +
                         response->body);
  }
  return OkStatus();
}

StatusOr<std::string> NetClient::Get(const std::string& path) {
  HttpRequest request;
  request.method = "GET";
  request.target = path;
  auto response = Request(request);
  if (!response.ok()) {
    return response.status();
  }
  if (response->status != 200) {
    return InternalError("GET " + path + " → " +
                         std::to_string(response->status));
  }
  return response->body;
}

}  // namespace musketeer
