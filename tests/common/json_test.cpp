#include "common/json.hpp"

#include <gtest/gtest.h>

#include <string>

namespace acc::json {
namespace {

TEST(Json, ScalarRoundTrips) {
  EXPECT_EQ(parse_or_throw("null"), Value(nullptr));
  EXPECT_EQ(parse_or_throw("true").as_bool(), true);
  EXPECT_EQ(parse_or_throw("false").as_bool(), false);
  EXPECT_EQ(parse_or_throw("42").as_int(), 42);
  EXPECT_EQ(parse_or_throw("-17").as_int(), -17);
  EXPECT_DOUBLE_EQ(parse_or_throw("2.5").as_double(), 2.5);
  EXPECT_DOUBLE_EQ(parse_or_throw("1e3").as_double(), 1000.0);
  EXPECT_EQ(parse_or_throw("\"hi\"").as_string(), "hi");
}

TEST(Json, ArraysAndObjects) {
  const Value v = parse_or_throw(R"({"a": [1, 2, 3], "b": {"c": true}})");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.at("a").as_array().size(), 3u);
  EXPECT_EQ(v.at("a").as_array()[1].as_int(), 2);
  EXPECT_TRUE(v.at("b").at("c").as_bool());
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_THROW((void)v.at("missing"), acc::precondition_error);
}

TEST(Json, StringEscapes) {
  const Value v = parse_or_throw(R"("line\nquote\"back\\slash\ttab")");
  EXPECT_EQ(v.as_string(), "line\nquote\"back\\slash\ttab");
  // Escapes survive a dump/parse cycle.
  EXPECT_EQ(parse_or_throw(v.dump()), v);
}

TEST(Json, UnicodeEscapes) {
  EXPECT_EQ(parse_or_throw(R"("A")").as_string(), "A");
  EXPECT_EQ(parse_or_throw(R"("é")").as_string(), "\xC3\xA9");    // é
  EXPECT_EQ(parse_or_throw(R"("€")").as_string(), "\xE2\x82\xAC");  // €
}

TEST(Json, DumpIsCanonicalAndReparsable) {
  Object o;
  o["z"] = 1;
  o["a"] = Array{Value("x"), Value(false), Value(nullptr)};
  const Value v{o};
  const std::string s = v.dump();
  // std::map ordering: keys sorted.
  EXPECT_EQ(s, R"({"a":["x",false,null],"z":1})");
  EXPECT_EQ(parse_or_throw(s), v);
}

TEST(Json, PrettyPrintIndents) {
  Object o;
  o["k"] = Array{Value(1)};
  const std::string s = Value(o).pretty(2);
  EXPECT_NE(s.find("{\n  \"k\": [\n    1\n  ]\n}"), std::string::npos);
}

TEST(Json, RejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "[1,", "{\"a\"}", "{\"a\":}", "nul", "01x", "\"unterminated",
        "[1] trailing", "{\"a\":1,}", "-", "\"bad\\escape\""}) {
    EXPECT_FALSE(parse(bad).has_value()) << bad;
    EXPECT_THROW((void)parse_or_throw(bad), acc::precondition_error) << bad;
  }
}

TEST(Json, IntegerVsDoubleDistinction) {
  EXPECT_TRUE(parse_or_throw("3").is_int());
  EXPECT_TRUE(parse_or_throw("3.0").is_double());
  EXPECT_EQ(parse_or_throw("3.0").as_int(), 3);  // integral double converts
  EXPECT_THROW((void)parse_or_throw("3.5").as_int(), acc::precondition_error);
  EXPECT_DOUBLE_EQ(parse_or_throw("3").as_double(), 3.0);
}

TEST(Json, TypeMismatchThrows) {
  const Value v = parse_or_throw("[1]");
  EXPECT_THROW((void)v.as_object(), acc::precondition_error);
  EXPECT_THROW((void)v.as_string(), acc::precondition_error);
}

TEST(Json, DeepNesting) {
  std::string s;
  for (int i = 0; i < 60; ++i) s += "[";
  s += "7";
  for (int i = 0; i < 60; ++i) s += "]";
  const Value v = parse_or_throw(s);
  const Value* p = &v;
  for (int i = 0; i < 60; ++i) p = &p->as_array()[0];
  EXPECT_EQ(p->as_int(), 7);
}

TEST(Json, NestingDepthIsCappedWithAPositionedError) {
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_TRUE(parse(nested(512)).has_value());
  EXPECT_FALSE(parse(nested(513)).has_value());
  EXPECT_FALSE(parse(nested(200000)).has_value());  // no stack overflow
  try {
    (void)parse_or_throw("{\"a\": " + nested(513) + "}");
    FAIL() << "expected a nesting error";
  } catch (const acc::precondition_error& e) {
    EXPECT_NE(std::string(e.what()).find("offset 517: nesting deeper than"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace acc::json
