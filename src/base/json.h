// Minimal JSON parse/serialize support.
//
// Just enough JSON for the repo's own file formats — HistoryStore
// persistence (--history-file), Chrome trace validation in tests, and bench
// output — without a third-party dependency. Objects preserve insertion
// order (a vector of pairs, not a map) so serialization round-trips byte
// order and diffs stay readable.

#ifndef MUSKETEER_SRC_BASE_JSON_H_
#define MUSKETEER_SRC_BASE_JSON_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/base/status.h"

namespace musketeer {

// Appends `s` escaped for inclusion inside a JSON string literal (no quotes
// added) to `*out`, copying runs that need no escape in bulk.
void JsonEscapeTo(std::string_view s, std::string* out);

// `s` escaped and wrapped in double quotes.
std::string JsonQuote(std::string_view s);

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool bool_value = false;
  double number_value = 0;
  std::string string_value;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  bool is_null() const { return kind == Kind::kNull; }
  bool is_bool() const { return kind == Kind::kBool; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_object() const { return kind == Kind::kObject; }

  // First member with the given key, or nullptr. Object lookups only.
  const JsonValue* Find(std::string_view key) const;

  // Serializes this value as compact JSON.
  std::string Dump() const;
};

// Parses a complete JSON document (trailing non-whitespace is an error).
StatusOr<JsonValue> ParseJson(std::string_view text);

}  // namespace musketeer

#endif  // MUSKETEER_SRC_BASE_JSON_H_
