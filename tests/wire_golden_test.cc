// Wire golden test: the exact bytes the network front door and the CSV
// codec produce, compared line for line with tests/golden/wire.txt.
//
// The dump pins:
//   - WriteCsv at both precisions (%.6g and round-trip %.17g) over edge
//     values: INT64_MIN/INT64_MAX, ±0.0, ±inf, NaN and -NaN, the smallest
//     denormal, 0.1, 1e21, 2^53+1, and strings holding '"', '\', control
//     bytes and UTF-8;
//   - JsonQuote over the same strings, over every single byte that needs
//     escaping, and over the round-trip CSV of the edge table;
//   - ParseCsv's error texts;
//   - the full GET /relation and GET /result bodies for the edge table;
//   - the length and FNV-1a digest of the GET /result body of each of the
//     nine evaluation workflows on their seeded inputs.
//
// Bytes outside printable ASCII print as \xHH, so the golden is plain text.
// On a mismatch the test writes the actual dump next to the test binary and
// prints the `cp` that makes it the new golden. The wire format is a
// contract with every client, so a change that means to move it says which
// lines moved and why.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "src/base/json.h"
#include "src/cluster/dfs.h"
#include "src/net/client.h"
#include "src/net/server.h"
#include "src/relational/csv.h"
#include "src/service/service.h"
#include "tests/workflow_setups.h"

namespace musketeer {
namespace {

// FNV-1a, 64 bit.
uint64_t Digest(const std::string& text) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : text) {
    h = (h ^ c) * 1099511628211ull;
  }
  return h;
}

std::string Hex64(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// Printable ASCII as itself, '\' doubled, every other byte as \xHH.
std::string Printable(const std::string& bytes) {
  std::string out;
  for (unsigned char c : bytes) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c >= 0x20 && c < 0x7f) {
      out += static_cast<char>(c);
    } else {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\x%02x", c);
      out += buf;
    }
  }
  return out;
}

void Line(const std::string& what, const std::string& bytes,
          std::ostringstream* os) {
  *os << what << ' ' << bytes.size() << ' ' << Printable(bytes) << '\n';
}

const std::vector<int64_t>& EdgeInts() {
  static const std::vector<int64_t> v = {
      std::numeric_limits<int64_t>::min(), std::numeric_limits<int64_t>::max(),
      0, -1, 9007199254740993};
  return v;
}

const std::vector<double>& EdgeDoubles() {
  static const std::vector<double> v = {
      0.0,
      -0.0,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::denorm_min(),
      0.1,
      1e21,
      9007199254740993.0,  // 2^53+1, which rounds to 2^53
      std::numeric_limits<double>::max(),
      -2.5e-300,
      1e-5,
      123456.5,
      1e6,
      1.0 / 3.0,
  };
  return v;
}

const std::vector<std::string>& EdgeStrings() {
  static const std::vector<std::string> v = {
      "plain",        "say \"hi\"",      "back\\slash", "\x01",
      "\x1f",         "caf\xc3\xa9",     "\xe6\x97\xa5\xe6\x9c\xac",
      "",             "tab\there",       "del\x7f",     "\xf0\x9f\x98\x80"};
  return v;
}

// One table over every edge value; row r takes entry r of each list,
// cycling the shorter lists.
Table EdgeTable() {
  const size_t rows = std::max(
      {EdgeInts().size(), EdgeDoubles().size(), EdgeStrings().size()});
  Column i(FieldType::kInt64);
  Column d(FieldType::kDouble);
  Column s(FieldType::kString);
  for (size_t r = 0; r < rows; ++r) {
    i.mutable_ints()->push_back(EdgeInts()[r % EdgeInts().size()]);
    d.mutable_doubles()->push_back(EdgeDoubles()[r % EdgeDoubles().size()]);
    s.mutable_strings()->push_back(EdgeStrings()[r % EdgeStrings().size()]);
  }
  return Table::FromColumns(Schema({{"i", FieldType::kInt64},
                                    {"d", FieldType::kDouble},
                                    {"s", FieldType::kString}}),
                            {std::move(i), std::move(d), std::move(s)});
}

void DumpCodec(std::ostringstream* os) {
  *os << "# WriteCsv, one value per table\n";
  for (size_t k = 0; k < EdgeInts().size(); ++k) {
    Table t = Table::FromColumns(Schema({{"i", FieldType::kInt64}}), {[&] {
                                   Column c(FieldType::kInt64);
                                   c.mutable_ints()->push_back(EdgeInts()[k]);
                                   return c;
                                 }()});
    Line("csv6 int" + std::to_string(k), WriteCsv(t), os);
    Line("csv17 int" + std::to_string(k), WriteCsv(t, ',', true), os);
  }
  for (size_t k = 0; k < EdgeDoubles().size(); ++k) {
    Table t = Table::FromColumns(Schema({{"d", FieldType::kDouble}}), {[&] {
                                   Column c(FieldType::kDouble);
                                   c.mutable_doubles()->push_back(
                                       EdgeDoubles()[k]);
                                   return c;
                                 }()});
    Line("csv6 double" + std::to_string(k), WriteCsv(t), os);
    Line("csv17 double" + std::to_string(k), WriteCsv(t, ',', true), os);
  }

  *os << "# WriteCsv and JsonQuote over the edge table\n";
  const Table edge = EdgeTable();
  Line("csv6 edge", WriteCsv(edge), os);
  Line("csv6-tab edge", WriteCsv(edge, '\t'), os);
  Line("csv17 edge", WriteCsv(edge, ',', true), os);
  Line("quote csv17 edge", JsonQuote(WriteCsv(edge, ',', true)), os);

  *os << "# JsonQuote\n";
  for (size_t k = 0; k < EdgeStrings().size(); ++k) {
    Line("quote string" + std::to_string(k), JsonQuote(EdgeStrings()[k]), os);
  }
  std::string every_byte;
  for (int c = 0; c < 256; ++c) {
    every_byte += static_cast<char>(c);
  }
  Line("quote bytes0-255", JsonQuote(every_byte), os);

  *os << "# ParseCsv errors\n";
  const Schema schema = edge.schema();
  for (const char* text :
       {"1,2.5,x\n2,3.5\n", "1,2.5,x,y\n", "\n\nx1,2.5,s\n", "1,2.5q,s\n",
        "1, ,s\n", "99999999999999999999,1,s\n", "1,1e999,s\n"}) {
    auto parsed = ParseCsv(text, schema);
    Line("parse-error", parsed.ok() ? "ok" : parsed.status().message(), os);
  }
  auto back = ParseCsv(WriteCsv(edge, ',', true), schema);
  *os << "round-trip csv17 edge identical "
      << (back.ok() && Table::Identical(*back, edge)) << '\n';
}

// A one-worker service behind a live server on `dfs`.
struct LiveServer {
  explicit LiveServer(Dfs* dfs) : service(dfs, Config()), server(&service) {}
  ~LiveServer() {
    server.Shutdown();
    service.Shutdown();
  }
  static ServiceConfig Config() {
    ServiceConfig config;
    config.num_workers = 1;
    return config;
  }
  WorkflowService service;
  HttpServer server;
};

// The X-Language value for `language`.
const char* WireLanguage(FrontendLanguage language) {
  switch (language) {
    case FrontendLanguage::kBeer:
      return "beer";
    case FrontendLanguage::kHive:
      return "hive";
    case FrontendLanguage::kGas:
      return "gas";
    case FrontendLanguage::kLindi:
      return "lindi";
  }
  return "beer";
}

// Submits `spec`, waits for DONE and returns the raw GET /result body.
std::string ResultBody(HttpServer* server, const WorkflowSpec& spec) {
  NetClient client;
  EXPECT_TRUE(client.Connect("127.0.0.1", server->port()).ok());
  NetClient::SubmitOptions options;
  options.workflow_id = spec.id;
  options.language = WireLanguage(spec.language);
  auto reply = client.SubmitWorkflow(options, spec.source);
  EXPECT_TRUE(reply.ok() && reply->status == 202) << spec.id;
  if (!reply.ok()) {
    return "";
  }
  auto state =
      client.WaitTerminal(reply->ticket, std::chrono::milliseconds(60000));
  EXPECT_TRUE(state.ok() && *state == "DONE") << spec.id;
  auto body = client.Get("/result/" + std::to_string(reply->ticket));
  EXPECT_TRUE(body.ok()) << spec.id;
  return body.ok() ? *body : "";
}

void DumpWire(std::ostringstream* os) {
  *os << "# GET /relation and GET /result over the edge table\n";
  {
    Dfs dfs;
    Table edge = EdgeTable();
    edge.set_scale(2.5);
    dfs.Put("edge", std::make_shared<Table>(std::move(edge)));
    LiveServer live(&dfs);
    EXPECT_TRUE(live.server.Start().ok());
    NetClient client;
    EXPECT_TRUE(client.Connect("127.0.0.1", live.server.port()).ok());
    auto relation = client.Get("/relation/edge");
    Line("relation edge", relation.ok() ? *relation : "", os);
    Line("result edge",
         ResultBody(&live.server, {"edge-copy", FrontendLanguage::kBeer,
                                   "edge_copy = SELECT i, d, s FROM edge;\n"}),
         os);
  }

  *os << "# GET /result of the nine workflows: length and FNV-1a\n";
  for (Wf wf : kAllWorkflows) {
    WfSetup setup = MakeSetup(wf);
    Dfs dfs;
    for (const auto& [name, table] : setup.inputs) {
      dfs.Put(name, table);
    }
    LiveServer live(&dfs);
    EXPECT_TRUE(live.server.Start().ok());
    const std::string body = ResultBody(&live.server, setup.workflow);
    *os << "result " << WfName(wf) << ' ' << body.size() << ' '
        << Hex64(Digest(body)) << '\n';
  }
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// 1-based number of the first line where `a` and `b` differ.
size_t FirstDifferentLine(const std::string& a, const std::string& b) {
  size_t line = 1;
  for (size_t i = 0; i < a.size() && i < b.size() && a[i] == b[i]; ++i) {
    line += a[i] == '\n' ? 1 : 0;
  }
  return line;
}

TEST(WireGoldenTest, CodecAndResultBodiesMatchGolden) {
  std::ostringstream os;
  DumpCodec(&os);
  DumpWire(&os);
  const std::string dump = os.str();
  const std::string golden = ReadFile(MUSKETEER_WIRE_GOLDEN);
  if (dump != golden) {
    std::ofstream(MUSKETEER_WIRE_ACTUAL, std::ios::binary) << dump;
    ADD_FAILURE() << "wire dump differs from the golden from line "
                  << FirstDifferentLine(dump, golden) << ". The actual dump "
                  << "is in " << MUSKETEER_WIRE_ACTUAL << "; if the change is "
                  << "meant, regenerate the golden with:\n  cp "
                  << MUSKETEER_WIRE_ACTUAL << " " << MUSKETEER_WIRE_GOLDEN;
  }
}

}  // namespace
}  // namespace musketeer
