// Tests for the base utilities: Status/StatusOr, strings, JSON, RNG, logging.

#include "src/base/status.h"

#include <gtest/gtest.h>

#include <set>

#include "src/base/json.h"
#include "src/base/logging.h"
#include "src/base/rng.h"
#include "src/base/strings.h"

namespace musketeer {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = InvalidArgumentError("bad column");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad column");
}

TEST(StatusTest, AllConstructorsProduceDistinctCodes) {
  std::set<StatusCode> codes;
  codes.insert(NotFoundError("x").code());
  codes.insert(AlreadyExistsError("x").code());
  codes.insert(FailedPreconditionError("x").code());
  codes.insert(UnimplementedError("x").code());
  codes.insert(InternalError("x").code());
  codes.insert(OutOfRangeError("x").code());
  EXPECT_EQ(codes.size(), 6u);
}

StatusOr<int> Half(int x) {
  if (x % 2 != 0) {
    return InvalidArgumentError("odd");
  }
  return x / 2;
}

StatusOr<int> Quarter(int x) {
  MUSKETEER_ASSIGN_OR_RETURN(int h, Half(x));
  return Half(h);
}

TEST(StatusOrTest, AssignOrReturnPropagates) {
  auto ok = Quarter(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 2);
  EXPECT_FALSE(Quarter(6).ok());  // 6/2=3 is odd
  EXPECT_FALSE(Quarter(7).ok());
}

TEST(StringsTest, SplitAndJoin) {
  EXPECT_EQ(StrSplit("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(StrSplit("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(StrJoin({"x", "y", "z"}, ", "), "x, y, z");
  EXPECT_EQ(SplitWhitespace("  a \t b\nc  "),
            (std::vector<std::string>{"a", "b", "c"}));
}

TEST(StringsTest, StripAndCase) {
  EXPECT_EQ(StripWhitespace("  hi \n"), "hi");
  EXPECT_EQ(StripWhitespace("   "), "");
  EXPECT_TRUE(EqualsIgnoreCase("SELECT", "select"));
  EXPECT_FALSE(EqualsIgnoreCase("SELECT", "selec"));
  EXPECT_EQ(AsciiToUpper("MiXeD1"), "MIXED1");
  EXPECT_EQ(AsciiToLower("MiXeD1"), "mixed1");
  EXPECT_TRUE(StartsWith("musketeer", "musk"));
  EXPECT_TRUE(EndsWith("musketeer", "teer"));
}

TEST(StringsTest, StrictNumericParsing) {
  EXPECT_EQ(ParseInt64("42"), 42);
  EXPECT_EQ(ParseInt64(" -7 "), -7);
  EXPECT_FALSE(ParseInt64("42x").has_value());
  EXPECT_FALSE(ParseInt64("").has_value());
  EXPECT_DOUBLE_EQ(*ParseDouble("2.5e3"), 2500.0);
  EXPECT_FALSE(ParseDouble("2.5.3").has_value());
}

TEST(StringsTest, HumanFormatting) {
  EXPECT_EQ(HumanBytes(512), "512.00 B");
  EXPECT_EQ(HumanBytes(1536), "1.50 KB");
  EXPECT_EQ(HumanBytes(1.5 * 1024 * 1024 * 1024), "1.50 GB");
  EXPECT_EQ(HumanSeconds(12.34), "12.3s");
  EXPECT_EQ(HumanSeconds(151), "2m31s");
  EXPECT_EQ(HumanSeconds(7260), "2h01m");
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, BoundedAndRangeRespectLimits) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
    int64_t v = rng.NextInRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ZipfIsSkewedTowardSmallRanks) {
  Rng rng(13);
  int64_t low = 0;
  const int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) {
    uint64_t v = rng.NextZipf(1000, 0.9);
    EXPECT_LT(v, 1000u);
    low += v < 100 ? 1 : 0;
  }
  // Under a uniform distribution 10% would land below rank 100; Zipf with
  // alpha=0.9 concentrates far more mass there.
  EXPECT_GT(low, kSamples / 4);
}

TEST(JsonTest, ParsesScalarsArraysObjects) {
  auto doc = ParseJson(
      R"({"a": 1.5, "b": [true, false, null, "x"], "neg": -2e3})");
  ASSERT_TRUE(doc.ok()) << doc.status();
  ASSERT_TRUE(doc->is_object());
  EXPECT_DOUBLE_EQ(doc->Find("a")->number_value, 1.5);
  const JsonValue* b = doc->Find("b");
  ASSERT_TRUE(b->is_array());
  ASSERT_EQ(b->array.size(), 4u);
  EXPECT_TRUE(b->array[0].bool_value);
  EXPECT_FALSE(b->array[1].bool_value);
  EXPECT_TRUE(b->array[2].is_null());
  EXPECT_EQ(b->array[3].string_value, "x");
  EXPECT_DOUBLE_EQ(doc->Find("neg")->number_value, -2000.0);
  EXPECT_EQ(doc->Find("missing"), nullptr);
}

TEST(JsonTest, StringEscapesRoundTrip) {
  const std::string raw = "quote\" slash\\ tab\t newline\n unicodeé";
  auto doc = ParseJson(JsonQuote(raw));
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(doc->string_value, raw);
  // \uXXXX escapes (including surrogate pairs) decode to UTF-8.
  auto esc = ParseJson(R"("café 😀")");
  ASSERT_TRUE(esc.ok()) << esc.status();
  EXPECT_EQ(esc->string_value, "caf\xc3\xa9 \xf0\x9f\x98\x80");
}

// Every byte value survives JsonQuote + ParseJson, whichever side of an
// escape or a bulk-copied run it falls on; unescaped control bytes and
// unterminated strings are still rejected.
TEST(JsonTest, EveryByteRoundTripsThroughQuoteAndParse) {
  std::string raw;
  for (int c = 0; c < 256; ++c) {
    raw += static_cast<char>(c);
    raw += "run";
  }
  auto doc = ParseJson(JsonQuote(raw));
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(doc->string_value, raw);
  EXPECT_FALSE(ParseJson("\"tab\there\"").ok());
  EXPECT_FALSE(ParseJson("\"unterminated").ok());
  EXPECT_FALSE(ParseJson("\"escape at end\\").ok());
}

TEST(JsonTest, DumpRoundTripsPreservingOrder) {
  const std::string text = R"({"z":1,"a":[2,3],"m":{"nested":"v"}})";
  auto doc = ParseJson(text);
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(doc->Dump(), text);  // objects keep insertion order
}

TEST(JsonTest, RejectsMalformedDocuments) {
  EXPECT_FALSE(ParseJson("").ok());
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("[1,]").ok());
  EXPECT_FALSE(ParseJson("{\"a\" 1}").ok());
  EXPECT_FALSE(ParseJson("tru").ok());
  EXPECT_FALSE(ParseJson("1 trailing").ok());
  EXPECT_FALSE(ParseJson("\"unterminated").ok());
  EXPECT_FALSE(ParseJson("1..2").ok());
}

TEST(LoggingTest, LevelFiltering) {
  LogLevel old = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  MLOG_DEBUG << "suppressed";  // must not crash
  MLOG_ERROR << "visible";
  SetLogLevel(old);
}

}  // namespace
}  // namespace musketeer
