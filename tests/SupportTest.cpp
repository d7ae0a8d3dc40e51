//===- tests/SupportTest.cpp - support library tests ----------------------===//

#include "support/Json.h"
#include "support/Prng.h"
#include "support/StringUtils.h"
#include "support/TablePrinter.h"

#include "gtest/gtest.h"

using namespace kremlin;

namespace {

TEST(StringUtils, FormatString) {
  EXPECT_EQ(formatString("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(formatString("empty"), "empty");
  // Long outputs must not truncate.
  std::string Long(500, 'a');
  EXPECT_EQ(formatString("%s", Long.c_str()).size(), 500u);
}

TEST(StringUtils, FormatFixedAndPercent) {
  EXPECT_EQ(formatFixed(145.31, 1), "145.3");
  EXPECT_EQ(formatFixed(2.0, 2), "2.00");
  EXPECT_EQ(formatPercent(9.7, 1), "9.7%");
  EXPECT_EQ(formatFactor(1.57), "1.57x");
  EXPECT_EQ(formatFactor(119000.0, 0), "119000x");
}

TEST(StringUtils, FormatBytes) {
  EXPECT_EQ(formatBytes(512), "512 B");
  EXPECT_EQ(formatBytes(150 * 1024), "150.0 KB");
  EXPECT_EQ(formatBytes(17ull * 1024 * 1024 * 1024 +
                        921ull * 1024 * 1024),
            "17.9 GB");
}

TEST(StringUtils, SplitAndTrim) {
  std::vector<std::string> Parts = splitString("a,b,,c", ',');
  ASSERT_EQ(Parts.size(), 4u);
  EXPECT_EQ(Parts[0], "a");
  EXPECT_EQ(Parts[2], "");
  EXPECT_EQ(Parts[3], "c");
  EXPECT_EQ(splitString("", ',').size(), 1u);
  EXPECT_EQ(trimString("  x y \n"), "x y");
  EXPECT_EQ(trimString("\t\n  "), "");
}

TEST(StringUtils, ParseUnsignedIsStrict) {
  uint64_t V = 7;
  EXPECT_TRUE(parseUnsigned("0", V));
  EXPECT_EQ(V, 0u);
  EXPECT_TRUE(parseUnsigned("18446744073709551615", V));
  EXPECT_EQ(V, UINT64_MAX);
  EXPECT_TRUE(parseUnsigned("255", V, 255));
  EXPECT_EQ(V, 255u);
  for (const char *Bad : {"", "-3", "+3", " 3", "3 ", "3x", "1.5", "0x10",
                          "18446744073709551616", "99999999999999999999"}) {
    V = 7;
    EXPECT_FALSE(parseUnsigned(Bad, V)) << Bad;
    EXPECT_EQ(V, 7u) << Bad; // Untouched on failure.
  }
  EXPECT_FALSE(parseUnsigned("256", V, 255));
  EXPECT_FALSE(parseUnsigned("5", V, 0));
}

TEST(StringUtils, ParseUnsignedFlagScalesAndNamesTheFlag) {
  uint64_t Bytes = 0;
  ASSERT_TRUE(parseUnsignedFlag("--max-shadow-mb=3", Bytes, 1 << 20).ok());
  EXPECT_EQ(Bytes, 3u << 20);
  // 2^44 MiB does not fit in 64 bits of bytes.
  Status St = parseUnsignedFlag("--max-shadow-mb=17592186044416", Bytes,
                                1 << 20);
  EXPECT_EQ(St.code(), ErrorCode::InvalidArgument);
  EXPECT_NE(St.message().find("--max-shadow-mb"), std::string::npos)
      << St.message();
  unsigned Narrow = 1;
  EXPECT_FALSE(parseUnsignedFlag("--threads=4294967296", Narrow).ok());
  EXPECT_FALSE(parseUnsignedFlag("--threads=-3", Narrow).ok());
  EXPECT_EQ(Narrow, 1u);
}

TEST(Prng, DeterministicAndInRange) {
  Prng A(42), B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
  Prng C(7);
  for (int I = 0; I < 1000; ++I) {
    uint64_t V = C.nextBelow(10);
    EXPECT_LT(V, 10u);
    int64_t R = C.nextInRange(-5, 5);
    EXPECT_GE(R, -5);
    EXPECT_LE(R, 5);
    double D = C.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

TEST(Prng, DifferentSeedsDiffer) {
  Prng A(1), B(2);
  bool AnyDiff = false;
  for (int I = 0; I < 10; ++I)
    AnyDiff |= A.next() != B.next();
  EXPECT_TRUE(AnyDiff);
}

TEST(TablePrinter, AlignsColumns) {
  TablePrinter T;
  T.setHeader({"name", "value"});
  T.addRow({"x", "1.5"});
  T.addRow({"longer", "10.25"});
  std::string Out = T.render();
  // Numeric cells right-aligned, text left-aligned.
  EXPECT_NE(Out.find("name    value"), std::string::npos);
  EXPECT_NE(Out.find("x         1.5"), std::string::npos);
  EXPECT_NE(Out.find("longer  10.25"), std::string::npos);
  EXPECT_EQ(T.numRows(), 2u);
}

TEST(TablePrinter, SeparatorAndShortRows) {
  TablePrinter T;
  T.setHeader({"a", "b", "c"});
  T.addRow({"1"});
  T.addSeparator();
  T.addRow({"x", "y", "z"});
  std::string Out = T.render();
  EXPECT_NE(Out.find("---"), std::string::npos);
  EXPECT_EQ(T.numRows(), 2u);
}

TEST(Json, SerializeScalars) {
  EXPECT_EQ(JsonValue().serialize(), "null");
  EXPECT_EQ(JsonValue(true).serialize(), "true");
  EXPECT_EQ(JsonValue(42).serialize(), "42");
  EXPECT_EQ(JsonValue(2.5).serialize(), "2.5");
  EXPECT_EQ(JsonValue("hi \"there\"\n").serialize(),
            "\"hi \\\"there\\\"\\n\"");
}

TEST(Json, NumbersRoundTripExactly) {
  for (double V : {0.0, -1.5, 1.0 / 3.0, 1e-17, 123456789.123456789,
                   9007199254740991.0}) {
    std::string S = formatJsonNumber(V);
    JsonValue Parsed;
    ASSERT_TRUE(JsonValue::parse(S, Parsed)) << S;
    EXPECT_EQ(Parsed.asNumber(), V) << S;
  }
  // Integers stay integer-shaped.
  EXPECT_EQ(formatJsonNumber(1739557.0), "1739557");
}

TEST(Json, NumberFormatEdgeCases) {
  EXPECT_EQ(formatJsonNumber(-0.0), "-0");
  EXPECT_EQ(formatJsonNumber(0.0), "0");
  EXPECT_EQ(formatJsonNumber(-42.0), "-42");
  // 2^53 - 1 is the largest integer on the exact path; from 2^53 on the
  // round-trip search prints the shortest %g form (here 16 digits, which
  // %g still writes without an exponent).
  EXPECT_EQ(formatJsonNumber(9007199254740991.0), "9007199254740991");
  EXPECT_EQ(formatJsonNumber(9007199254740992.0), "9007199254740992");
  EXPECT_EQ(formatJsonNumber(9007199254740994.0), "9007199254740994");
  EXPECT_EQ(formatJsonNumber(1152921504606846976.0), "1.152921504606847e+18");
  EXPECT_EQ(formatJsonNumber(0.1), "0.1");
  EXPECT_EQ(formatJsonNumber(1.0 / 3.0), "0.3333333333333333");
}

TEST(JsonWriter, LayoutWithStartingIndentAndEmptyContainers) {
  std::string Out;
  JsonWriter W(Out, 1);
  W.beginObject();
  W.key("a");
  W.beginArray();
  W.endArray();
  W.key("b");
  W.beginObject();
  W.endObject();
  W.key("c");
  W.beginArray();
  W.number(1);
  W.string("x\t\x01");
  W.boolean(false);
  W.null();
  W.endArray();
  W.endObject();
  EXPECT_EQ(Out, "{\n"
                 "    \"a\": [],\n"
                 "    \"b\": {},\n"
                 "    \"c\": [\n"
                 "      1,\n"
                 "      \"x\\t\\u0001\",\n"
                 "      false,\n"
                 "      null\n"
                 "    ]\n"
                 "  }");
  JsonValue Doc;
  ASSERT_TRUE(JsonValue::parse(Out, Doc));
  EXPECT_EQ(Doc.serialize(1), Out);
}

TEST(Json, ObjectPreservesInsertionOrder) {
  JsonValue Obj = JsonValue::makeObject();
  Obj.set("zeta", JsonValue(1));
  Obj.set("alpha", JsonValue(2));
  Obj.set("zeta", JsonValue(3)); // Replacement keeps the original slot.
  ASSERT_EQ(Obj.members().size(), 2u);
  EXPECT_EQ(Obj.members()[0].first, "zeta");
  EXPECT_EQ(Obj.getNumber("zeta"), 3.0);
  EXPECT_EQ(Obj.getNumber("missing", -1.0), -1.0);
}

TEST(Json, ParseNestedDocument) {
  JsonValue V;
  std::string Err;
  ASSERT_TRUE(JsonValue::parse(
      R"({"a": [1, 2.5, {"b": "x\u0041"}], "c": null, "d": false})", V,
      &Err))
      << Err;
  ASSERT_TRUE(V.isObject());
  const JsonValue *A = V.get("a");
  ASSERT_TRUE(A && A->isArray());
  EXPECT_EQ(A->size(), 3u);
  EXPECT_EQ(A->at(1).asNumber(), 2.5);
  EXPECT_EQ(A->at(2).get("b")->asString(), "xA");
  EXPECT_TRUE(V.get("c")->isNull());
  EXPECT_FALSE(V.get("d")->asBool(true));
}

TEST(Json, ParseRejectsMalformedInput) {
  JsonValue V;
  std::string Err;
  for (const char *Bad :
       {"", "{", "[1,]", "{\"a\" 1}", "{\"a\": 1} x", "tru", "1.2.3",
        "\"unterminated", "\"raw\x01control\""}) {
    EXPECT_FALSE(JsonValue::parse(Bad, V, &Err)) << Bad;
    EXPECT_FALSE(Err.empty());
  }
}

TEST(Json, SerializeParseRoundTrip) {
  JsonValue Doc = JsonValue::makeObject();
  Doc.set("schema", JsonValue(1));
  JsonValue Arr = JsonValue::makeArray();
  Arr.push(JsonValue("a"));
  Arr.push(JsonValue(3.25));
  Arr.push(JsonValue());
  Doc.set("list", std::move(Arr));
  JsonValue Inner = JsonValue::makeObject();
  Inner.set("k", JsonValue(true));
  Doc.set("obj", std::move(Inner));

  JsonValue Back;
  ASSERT_TRUE(JsonValue::parse(Doc.serialize(), Back));
  EXPECT_EQ(Back.serialize(), Doc.serialize());
}

} // namespace
