#include "src/net/http.h"

#include <algorithm>
#include <cctype>

#include "src/base/strings.h"

namespace musketeer {

namespace {

std::string ToLower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return out;
}

// Finds a complete header block in `buffer` (terminated by a blank line,
// tolerating both \r\n and \n endings). On success fills `lines` with the
// non-empty header lines and returns the offset just past the terminator;
// returns npos when the block is still incomplete.
size_t ExtractHeaderBlock(const std::string& buffer,
                          std::vector<std::string_view>* lines) {
  lines->clear();
  size_t line_start = 0;
  while (true) {
    size_t nl = buffer.find('\n', line_start);
    if (nl == std::string::npos) {
      return std::string::npos;
    }
    std::string_view line(buffer.data() + line_start, nl - line_start);
    if (!line.empty() && line.back() == '\r') {
      line.remove_suffix(1);
    }
    if (line.empty()) {
      if (lines->empty()) {
        // Stray blank line(s) between messages: skip.
        line_start = nl + 1;
        continue;
      }
      return nl + 1;
    }
    lines->push_back(line);
    line_start = nl + 1;
  }
}

// Splits "Name: value" into a lower-cased name and stripped value.
bool ParseHeaderLine(std::string_view line, std::string* name,
                     std::string* value) {
  size_t colon = line.find(':');
  if (colon == std::string_view::npos || colon == 0) {
    return false;
  }
  *name = ToLower(StripWhitespace(line.substr(0, colon)));
  *value = std::string(StripWhitespace(line.substr(colon + 1)));
  return !name->empty();
}

const std::string* FindIn(
    const std::vector<std::pair<std::string, std::string>>& headers,
    std::string_view name) {
  for (const auto& [key, value] : headers) {
    if (key == name) {
      return &value;
    }
  }
  return nullptr;
}

// Moves the first `n` bytes of `*buffer` into `*body`. The usual case, a
// buffer holding exactly the body, moves the string instead of copying it.
void TakeBody(std::string* buffer, size_t n, std::string* body) {
  if (buffer->size() == n) {
    *body = std::move(*buffer);
    buffer->clear();
    return;
  }
  body->assign(*buffer, 0, n);
  buffer->erase(0, n);
}

}  // namespace

const std::string* HttpRequest::FindHeader(std::string_view name) const {
  return FindIn(headers, name);
}

bool HttpRequest::WantsClose() const {
  const std::string* connection = FindHeader("connection");
  if (connection != nullptr && EqualsIgnoreCase(*connection, "close")) {
    return true;
  }
  if (version == "HTTP/1.0") {
    return connection == nullptr ||
           !EqualsIgnoreCase(*connection, "keep-alive");
  }
  return false;
}

const std::string* HttpResponseParser::Response::FindHeader(
    std::string_view name) const {
  return FindIn(headers, name);
}

const char* HttpStatusText(int status) {
  switch (status) {
    case 200: return "OK";
    case 202: return "Accepted";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 409: return "Conflict";
    case 411: return "Length Required";
    case 413: return "Payload Too Large";
    case 429: return "Too Many Requests";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

std::string ResponseHead(const HttpResponse& response) {
  std::string out = "HTTP/1.1 " + std::to_string(response.status) + " " +
                    HttpStatusText(response.status) + "\r\n";
  out += "Content-Type: " + response.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  for (const auto& [name, value] : response.extra_headers) {
    out += name + ": " + value + "\r\n";
  }
  if (response.close) {
    out += "Connection: close\r\n";
  }
  out += "\r\n";
  return out;
}

std::string SerializeRequest(const HttpRequest& request) {
  std::string out = request.method + " " + request.target + " HTTP/1.1\r\n";
  bool has_length = false;
  for (const auto& [name, value] : request.headers) {
    out += name + ": " + value + "\r\n";
    if (EqualsIgnoreCase(name, "content-length")) {
      has_length = true;
    }
  }
  if (!has_length && (!request.body.empty() || request.method == "POST")) {
    out += "Content-Length: " + std::to_string(request.body.size()) + "\r\n";
  }
  out += "\r\n";
  out += request.body;
  return out;
}

// ---- HttpParser ------------------------------------------------------------

bool HttpParser::Fail(int status, std::string message) {
  error_ = true;
  error_status_ = status;
  error_message_ = std::move(message);
  return false;
}

bool HttpParser::Feed(std::string_view data, std::vector<HttpRequest>* out) {
  if (error_) {
    return false;
  }
  buffer_.append(data.data(), data.size());
  return ParseBuffered(out);
}

bool HttpParser::ParseBuffered(std::vector<HttpRequest>* out) {
  while (true) {
    if (!in_body_) {
      std::vector<std::string_view> lines;
      size_t block_end = ExtractHeaderBlock(buffer_, &lines);
      if (block_end == std::string::npos) {
        if (buffer_.size() > max_message_bytes_) {
          return Fail(431, "header block exceeds " +
                               std::to_string(max_message_bytes_) + " bytes");
        }
        return true;  // need more bytes
      }
      // Request line: METHOD SP target SP version.
      std::vector<std::string> parts;
      for (const std::string& p : StrSplit(lines[0], ' ')) {
        if (!p.empty()) {
          parts.push_back(p);
        }
      }
      if (parts.size() != 3 || !StartsWith(parts[2], "HTTP/")) {
        return Fail(400, "malformed request line");
      }
      partial_ = HttpRequest{};
      partial_.method = ToLower(parts[0]);
      std::transform(partial_.method.begin(), partial_.method.end(),
                     partial_.method.begin(),
                     [](unsigned char c) { return std::toupper(c); });
      partial_.target = parts[1];
      partial_.version = parts[2];
      size_t qmark = partial_.target.find('?');
      partial_.path = partial_.target.substr(0, qmark);
      partial_.query = qmark == std::string::npos
                           ? ""
                           : partial_.target.substr(qmark + 1);
      size_t content_length = 0;
      for (size_t i = 1; i < lines.size(); ++i) {
        std::string name, value;
        if (!ParseHeaderLine(lines[i], &name, &value)) {
          return Fail(400, "malformed header line");
        }
        if (name == "transfer-encoding" &&
            !EqualsIgnoreCase(value, "identity")) {
          return Fail(501, "transfer-encoding not supported");
        }
        if (name == "content-length") {
          auto n = ParseInt64(value);
          if (!n.has_value() || *n < 0) {
            return Fail(400, "bad content-length");
          }
          content_length = static_cast<size_t>(*n);
        }
        partial_.headers.emplace_back(std::move(name), std::move(value));
      }
      if (content_length > max_message_bytes_) {
        return Fail(413, "body exceeds " +
                             std::to_string(max_message_bytes_) + " bytes");
      }
      buffer_.erase(0, block_end);
      body_remaining_ = content_length;
      in_body_ = true;
    }
    if (buffer_.size() < body_remaining_) {
      return true;  // body still arriving
    }
    TakeBody(&buffer_, body_remaining_, &partial_.body);
    body_remaining_ = 0;
    in_body_ = false;
    out->push_back(std::move(partial_));
    partial_ = HttpRequest{};
  }
}

// ---- HttpResponseParser ----------------------------------------------------

bool HttpResponseParser::Fail(std::string message) {
  error_ = true;
  error_message_ = std::move(message);
  return false;
}

bool HttpResponseParser::Feed(std::string_view data,
                              std::vector<Response>* out) {
  if (error_) {
    return false;
  }
  buffer_.append(data.data(), data.size());
  return ParseBuffered(out);
}

bool HttpResponseParser::ParseBuffered(std::vector<Response>* out) {
  while (true) {
    if (!in_body_) {
      std::vector<std::string_view> lines;
      size_t block_end = ExtractHeaderBlock(buffer_, &lines);
      if (block_end == std::string::npos) {
        if (buffer_.size() > max_message_bytes_) {
          return Fail("response header block too large");
        }
        return true;
      }
      // Status line: HTTP/1.1 SP code SP reason...
      std::vector<std::string> parts = StrSplit(lines[0], ' ');
      if (parts.size() < 2 || !StartsWith(parts[0], "HTTP/")) {
        return Fail("malformed status line");
      }
      auto code = ParseInt64(parts[1]);
      if (!code.has_value()) {
        return Fail("malformed status code");
      }
      partial_ = Response{};
      partial_.status = static_cast<int>(*code);
      size_t content_length = 0;
      for (size_t i = 1; i < lines.size(); ++i) {
        std::string name, value;
        if (!ParseHeaderLine(lines[i], &name, &value)) {
          return Fail("malformed header line");
        }
        if (name == "content-length") {
          auto n = ParseInt64(value);
          if (!n.has_value() || *n < 0) {
            return Fail("bad content-length");
          }
          content_length = static_cast<size_t>(*n);
        }
        partial_.headers.emplace_back(std::move(name), std::move(value));
      }
      if (content_length > max_message_bytes_) {
        return Fail("response body too large");
      }
      buffer_.erase(0, block_end);
      body_remaining_ = content_length;
      in_body_ = true;
    }
    if (buffer_.size() < body_remaining_) {
      return true;
    }
    TakeBody(&buffer_, body_remaining_, &partial_.body);
    body_remaining_ = 0;
    in_body_ = false;
    out->push_back(std::move(partial_));
    partial_ = Response{};
  }
}

}  // namespace musketeer
