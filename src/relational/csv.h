// CSV import/export for relations. The on-disk format is the one the paper's
// HDFS-resident inputs use: one record per line, fields separated by a
// configurable delimiter (space for graph edge lists, comma for tables).

#ifndef MUSKETEER_SRC_RELATIONAL_CSV_H_
#define MUSKETEER_SRC_RELATIONAL_CSV_H_

#include <string>
#include <string_view>

#include "src/base/status.h"
#include "src/relational/table.h"

namespace musketeer {

// Parses `text` into a table with the given schema. Fields are converted
// according to schema types; malformed lines produce an error naming the
// line number.
StatusOr<Table> ParseCsv(std::string_view text, const Schema& schema,
                         char delimiter = ',');

// Serializes a table (no header row).
// `round_trip_doubles` emits doubles with max_digits10 precision so
// ParseCsv(WriteCsv(t)) reproduces t bit-for-bit (wire transfers); the
// default keeps the human-friendly %.6g rendering.
std::string WriteCsv(const Table& table, char delimiter = ',',
                     bool round_trip_doubles = false);

// Appends WriteCsv(table, ',', true), escaped as by JsonEscapeTo
// (src/base/json.h), to `*out` in one pass with no intermediate CSV string:
// the wire form of a table inside a JSON string literal (the /result and
// /relation bodies, src/net/server.cc).
void AppendJsonEscapedCsv(const Table& table, std::string* out);

// File variants.
StatusOr<Table> LoadCsvFile(const std::string& path, const Schema& schema,
                            char delimiter = ',');
Status SaveCsvFile(const Table& table, const std::string& path,
                   char delimiter = ',');

}  // namespace musketeer

#endif  // MUSKETEER_SRC_RELATIONAL_CSV_H_
