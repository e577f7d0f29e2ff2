#include "src/relational/csv.h"

#include <charconv>
#include <fstream>
#include <sstream>

#include "src/base/json.h"
#include "src/base/strings.h"

namespace musketeer {

StatusOr<Table> ParseCsv(std::string_view text, const Schema& schema,
                         char delimiter) {
  // Parse straight into typed columns — no row-of-variants intermediate, and
  // fields stay views into `text` until a string column copies one.
  std::vector<Column> cols;
  cols.reserve(schema.num_fields());
  for (const Field& f : schema.fields()) {
    cols.emplace_back(f.type);
  }
  std::vector<std::string_view> fields;  // reused across lines
  size_t line_no = 0;
  size_t start = 0;
  while (start <= text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string_view::npos) {
      end = text.size();
    }
    std::string_view line = StripWhitespace(text.substr(start, end - start));
    start = end + 1;
    ++line_no;
    if (line.empty()) {
      continue;
    }
    fields.clear();
    for (size_t from = 0;;) {
      const size_t to = line.find(delimiter, from);
      if (to == std::string_view::npos) {
        fields.push_back(line.substr(from));
        break;
      }
      fields.push_back(line.substr(from, to - from));
      from = to + 1;
    }
    if (fields.size() != schema.num_fields()) {
      return InvalidArgumentError("line " + std::to_string(line_no) + ": expected " +
                                  std::to_string(schema.num_fields()) +
                                  " fields, got " + std::to_string(fields.size()));
    }
    for (size_t c = 0; c < fields.size(); ++c) {
      switch (schema.field(c).type) {
        case FieldType::kInt64: {
          auto v = ParseInt64(fields[c]);
          if (!v.has_value()) {
            return InvalidArgumentError("line " + std::to_string(line_no) +
                                        ": bad integer '" +
                                        std::string(fields[c]) + "'");
          }
          cols[c].mutable_ints()->push_back(*v);
          break;
        }
        case FieldType::kDouble: {
          auto v = ParseDouble(fields[c]);
          if (!v.has_value()) {
            return InvalidArgumentError("line " + std::to_string(line_no) +
                                        ": bad double '" +
                                        std::string(fields[c]) + "'");
          }
          cols[c].mutable_doubles()->push_back(*v);
          break;
        }
        case FieldType::kString:
          cols[c].mutable_strings()->emplace_back(fields[c]);
          break;
      }
    }
  }
  return Table::FromColumns(schema, std::move(cols));
}

namespace {

// Appends the CSV text of `table` to `*out`. Integers and doubles go through
// std::to_chars, whose general format at a given precision prints the bytes
// printf's %.<precision>g does (inf, -nan and -0 included). With
// `json_escape` the text is escaped for the inside of a JSON string literal
// as it is written, byte for byte what JsonEscapeTo makes of the plain text;
// the delimiter must then be one JSON leaves alone, such as ','.
void AppendCsv(const Table& table, char delimiter, bool round_trip_doubles,
               bool json_escape, std::string* out) {
  const int precision = round_trip_doubles ? 17 : 6;
  const std::string_view newline = json_escape ? "\\n" : "\n";
  char buf[64];
  for (size_t i = 0; i < table.num_rows(); ++i) {
    for (size_t c = 0; c < table.num_fields(); ++c) {
      if (c > 0) {
        out->push_back(delimiter);
      }
      const Column& col = table.col(c);
      switch (col.type()) {
        case FieldType::kInt64: {
          const auto r = std::to_chars(buf, buf + sizeof(buf), col.ints()[i]);
          out->append(buf, r.ptr);
          break;
        }
        case FieldType::kDouble: {
          const auto r =
              std::to_chars(buf, buf + sizeof(buf), col.doubles()[i],
                            std::chars_format::general, precision);
          out->append(buf, r.ptr);
          break;
        }
        case FieldType::kString:
          if (json_escape) {
            JsonEscapeTo(col.strings()[i], out);
          } else {
            out->append(col.strings()[i]);
          }
          break;
      }
    }
    out->append(newline);
  }
}

}  // namespace

std::string WriteCsv(const Table& table, char delimiter,
                     bool round_trip_doubles) {
  std::string out;
  AppendCsv(table, delimiter, round_trip_doubles, /*json_escape=*/false, &out);
  return out;
}

void AppendJsonEscapedCsv(const Table& table, std::string* out) {
  AppendCsv(table, ',', /*round_trip_doubles=*/true, /*json_escape=*/true, out);
}

StatusOr<Table> LoadCsvFile(const std::string& path, const Schema& schema,
                            char delimiter) {
  std::ifstream in(path);
  if (!in) {
    return NotFoundError("cannot open " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return ParseCsv(buf.str(), schema, delimiter);
}

Status SaveCsvFile(const Table& table, const std::string& path, char delimiter) {
  std::ofstream out(path);
  if (!out) {
    return InternalError("cannot write " + path);
  }
  out << WriteCsv(table, delimiter);
  return OkStatus();
}

}  // namespace musketeer
