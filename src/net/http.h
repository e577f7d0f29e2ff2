// Minimal HTTP/1.1 message layer for the network front door (src/net/).
//
// The server's event loop feeds raw bytes into an incremental HttpParser as
// they arrive on a non-blocking socket; the parser surfaces complete
// requests once the header block and Content-Length body are in. No
// allocation-per-byte tricks — requests are small (workflow sources, a few
// KB) and bounded by max_message_bytes, which is the connection-level
// defense against a client that streams an endless header block.
//
// Deliberate subset: Content-Length framing only (chunked encoding is
// answered with 411/501 by the server), no multipart, no compression.
// Both \r\n and bare \n line endings are accepted so `nc`/telnet sessions
// work — the same tolerance pazpar2-style C servers ship.
//
// The mirror-image HttpResponseParser exists for the in-repo blocking
// client (net/client.h) that tests and the server-throughput bench use.

#ifndef MUSKETEER_SRC_NET_HTTP_H_
#define MUSKETEER_SRC_NET_HTTP_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace musketeer {

struct HttpRequest {
  std::string method;   // uppercase, e.g. "GET"
  std::string target;   // raw request target, e.g. "/status/7?x=1"
  std::string path;     // target up to '?'
  std::string query;    // after '?', "" if none
  std::string version;  // "HTTP/1.1"
  // Header names lower-cased at parse time; values stripped of surrounding
  // whitespace. Order preserved.
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  // First header with the given (lower-case) name, or nullptr.
  const std::string* FindHeader(std::string_view name) const;
  // True when the client asked for the connection to close after this
  // exchange (Connection: close, or HTTP/1.0 without keep-alive).
  bool WantsClose() const;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain";
  std::vector<std::pair<std::string, std::string>> extra_headers;
  std::string body;
  bool close = false;  // send Connection: close and drop the connection
};

// "OK", "Too Many Requests", ... ; "Unknown" for unmapped codes.
const char* HttpStatusText(int status);

// Wire form up to the body: status line, Content-Type, Content-Length,
// extra headers and the blank line. The body's bytes follow it unchanged.
std::string ResponseHead(const HttpResponse& response);

// Wire form of a request (used by the blocking client).
std::string SerializeRequest(const HttpRequest& request);

// Incremental HTTP/1.1 request parser. Feed() consumes bytes and appends
// every completed request to `out`; a syntax error or an oversized message
// latches the parser into the error state (the connection should be
// answered with `error_status` and closed).
class HttpParser {
 public:
  explicit HttpParser(size_t max_message_bytes = 1 << 20)
      : max_message_bytes_(max_message_bytes) {}

  // Returns false once the parser is in the error state.
  bool Feed(std::string_view data, std::vector<HttpRequest>* out);

  bool error() const { return error_; }
  int error_status() const { return error_status_; }
  const std::string& error_message() const { return error_message_; }
  // Bytes buffered but not yet consumed by a complete message.
  size_t pending_bytes() const { return buffer_.size(); }

 private:
  bool ParseBuffered(std::vector<HttpRequest>* out);
  bool Fail(int status, std::string message);

  const size_t max_message_bytes_;
  std::string buffer_;
  // Set once the header block of the in-progress request is parsed and its
  // body is still being accumulated.
  bool in_body_ = false;
  HttpRequest partial_;
  size_t body_remaining_ = 0;
  bool error_ = false;
  int error_status_ = 400;
  std::string error_message_;
};

// Incremental HTTP/1.1 response parser (client side). Content-Length
// framing only, matching what the in-repo server emits.
class HttpResponseParser {
 public:
  struct Response {
    int status = 0;
    std::vector<std::pair<std::string, std::string>> headers;  // lower-cased
    std::string body;

    const std::string* FindHeader(std::string_view name) const;
  };

  explicit HttpResponseParser(size_t max_message_bytes = 64u << 20)
      : max_message_bytes_(max_message_bytes) {}

  bool Feed(std::string_view data, std::vector<Response>* out);
  bool error() const { return error_; }
  const std::string& error_message() const { return error_message_; }

 private:
  bool ParseBuffered(std::vector<Response>* out);
  bool Fail(std::string message);

  const size_t max_message_bytes_;
  std::string buffer_;
  bool in_body_ = false;
  Response partial_;
  size_t body_remaining_ = 0;
  bool error_ = false;
  std::string error_message_;
};

}  // namespace musketeer

#endif  // MUSKETEER_SRC_NET_HTTP_H_
