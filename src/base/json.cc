#include "src/base/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace musketeer {

namespace {

// True for the bytes JSON string literals must escape.
bool NeedsEscape(unsigned char c) { return c < 0x20 || c == '"' || c == '\\'; }

}  // namespace

void JsonEscapeTo(std::string_view s, std::string* out) {
  size_t run = 0;  // start of the bytes not yet copied
  for (size_t i = 0; i < s.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    if (!NeedsEscape(c)) {
      continue;
    }
    out->append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\b':
        out->append("\\b");
        break;
      case '\f':
        out->append("\\f");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\r':
        out->append("\\r");
        break;
      case '\t':
        out->append("\\t");
        break;
      default: {
        static constexpr char kHex[] = "0123456789abcdef";
        const char escaped[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 15]};
        out->append(escaped, sizeof(escaped));
      }
    }
  }
  out->append(s.data() + run, s.size() - run);
}

std::string JsonQuote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  JsonEscapeTo(s, &out);
  out += '"';
  return out;
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  for (const auto& [k, v] : object) {
    if (k == key) {
      return &v;
    }
  }
  return nullptr;
}

std::string JsonValue::Dump() const {
  switch (kind) {
    case Kind::kNull:
      return "null";
    case Kind::kBool:
      return bool_value ? "true" : "false";
    case Kind::kNumber: {
      if (std::isfinite(number_value)) {
        char buf[32];
        // %.17g round-trips any double; trim to %g when exact.
        std::snprintf(buf, sizeof(buf), "%.17g", number_value);
        double reparsed = std::strtod(buf, nullptr);
        char shorter[32];
        std::snprintf(shorter, sizeof(shorter), "%g", number_value);
        if (std::strtod(shorter, nullptr) == reparsed) {
          return shorter;
        }
        return buf;
      }
      return "null";  // JSON has no NaN/Inf
    }
    case Kind::kString:
      return JsonQuote(string_value);
    case Kind::kArray: {
      std::string out = "[";
      for (size_t i = 0; i < array.size(); ++i) {
        if (i > 0) out += ",";
        out += array[i].Dump();
      }
      out += "]";
      return out;
    }
    case Kind::kObject: {
      std::string out = "{";
      for (size_t i = 0; i < object.size(); ++i) {
        if (i > 0) out += ",";
        out += JsonQuote(object[i].first);
        out += ":";
        out += object[i].second.Dump();
      }
      out += "}";
      return out;
    }
  }
  return "null";
}

namespace {

// Recursive-descent parser over a string_view with an explicit cursor.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  StatusOr<JsonValue> Parse() {
    MUSKETEER_ASSIGN_OR_RETURN(JsonValue v, ParseValue(0));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON document");
    }
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  Status Error(const std::string& what) const {
    return InvalidArgumentError("JSON parse error at offset " +
                                std::to_string(pos_) + ": " + what);
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  StatusOr<JsonValue> ParseValue(int depth) {
    if (depth > kMaxDepth) {
      return Error("nesting too deep");
    }
    SkipWhitespace();
    if (pos_ >= text_.size()) {
      return Error("unexpected end of input");
    }
    char c = text_[pos_];
    JsonValue v;
    switch (c) {
      case '{':
        return ParseObject(depth);
      case '[':
        return ParseArray(depth);
      case '"': {
        MUSKETEER_ASSIGN_OR_RETURN(v.string_value, ParseString());
        v.kind = JsonValue::Kind::kString;
        return v;
      }
      case 't':
        if (!ConsumeLiteral("true")) return Error("invalid literal");
        v.kind = JsonValue::Kind::kBool;
        v.bool_value = true;
        return v;
      case 'f':
        if (!ConsumeLiteral("false")) return Error("invalid literal");
        v.kind = JsonValue::Kind::kBool;
        v.bool_value = false;
        return v;
      case 'n':
        if (!ConsumeLiteral("null")) return Error("invalid literal");
        v.kind = JsonValue::Kind::kNull;
        return v;
      default:
        return ParseNumber();
    }
  }

  StatusOr<JsonValue> ParseObject(int depth) {
    ++pos_;  // '{'
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    SkipWhitespace();
    if (Consume('}')) {
      return v;
    }
    while (true) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key string");
      }
      MUSKETEER_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipWhitespace();
      if (!Consume(':')) {
        return Error("expected ':' after object key");
      }
      MUSKETEER_ASSIGN_OR_RETURN(JsonValue member, ParseValue(depth + 1));
      v.object.emplace_back(std::move(key), std::move(member));
      SkipWhitespace();
      if (Consume('}')) {
        return v;
      }
      if (!Consume(',')) {
        return Error("expected ',' or '}' in object");
      }
    }
  }

  StatusOr<JsonValue> ParseArray(int depth) {
    ++pos_;  // '['
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    SkipWhitespace();
    if (Consume(']')) {
      return v;
    }
    while (true) {
      MUSKETEER_ASSIGN_OR_RETURN(JsonValue element, ParseValue(depth + 1));
      v.array.push_back(std::move(element));
      SkipWhitespace();
      if (Consume(']')) {
        return v;
      }
      if (!Consume(',')) {
        return Error("expected ',' or ']' in array");
      }
    }
  }

  StatusOr<std::string> ParseString() {
    ++pos_;  // '"'
    std::string out;
    while (true) {
      // Copy the run up to the next quote, escape or control byte in bulk.
      size_t run_end = pos_;
      while (run_end < text_.size() &&
             !NeedsEscape(static_cast<unsigned char>(text_[run_end]))) {
        ++run_end;
      }
      out.append(text_.data() + pos_, run_end - pos_);
      pos_ = run_end;
      if (pos_ >= text_.size()) {
        return Error("unterminated string");
      }
      char c = text_[pos_++];
      if (c == '"') {
        return out;
      }
      if (c != '\\') {
        return Error("unescaped control character in string");
      }
      if (pos_ >= text_.size()) {
        return Error("unterminated escape");
      }
      char e = text_[pos_++];
      switch (e) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u': {
          MUSKETEER_ASSIGN_OR_RETURN(unsigned cp, ParseHex4());
          // Surrogate pair -> code point.
          if (cp >= 0xD800 && cp <= 0xDBFF && text_.substr(pos_, 2) == "\\u") {
            pos_ += 2;
            MUSKETEER_ASSIGN_OR_RETURN(unsigned lo, ParseHex4());
            if (lo >= 0xDC00 && lo <= 0xDFFF) {
              cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
            } else {
              return Error("invalid low surrogate");
            }
          }
          AppendUtf8(cp, &out);
          break;
        }
        default:
          return Error("invalid escape character");
      }
    }
  }

  StatusOr<unsigned> ParseHex4() {
    if (pos_ + 4 > text_.size()) {
      return Error("truncated \\u escape");
    }
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      char c = text_[pos_++];
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        return Error("invalid hex digit in \\u escape");
      }
    }
    return value;
  }

  static void AppendUtf8(unsigned cp, std::string* out) {
    if (cp < 0x80) {
      *out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      *out += static_cast<char>(0xC0 | (cp >> 6));
      *out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      *out += static_cast<char>(0xE0 | (cp >> 12));
      *out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      *out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      *out += static_cast<char>(0xF0 | (cp >> 18));
      *out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      *out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      *out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  StatusOr<JsonValue> ParseNumber() {
    size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) {
      return Error("expected a value");
    }
    std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      return Error("malformed number '" + token + "'");
    }
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    v.number_value = value;
    return v;
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

StatusOr<JsonValue> ParseJson(std::string_view text) {
  return JsonParser(text).Parse();
}

}  // namespace musketeer
