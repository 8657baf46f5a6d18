#include <clocale>
#include <cmath>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "util/json.hpp"

namespace qhdl::util {
namespace {

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_TRUE(Json::parse("true").as_bool());
  EXPECT_FALSE(Json::parse("false").as_bool());
  EXPECT_DOUBLE_EQ(Json::parse("42").as_number(), 42.0);
  EXPECT_DOUBLE_EQ(Json::parse("-3.5e2").as_number(), -350.0);
  EXPECT_EQ(Json::parse("\"hi\"").as_string(), "hi");
}

TEST(JsonParse, WhitespaceTolerated) {
  const Json j = Json::parse("  {\n\t\"a\" : [ 1 , 2 ] }  ");
  EXPECT_EQ(j.at("a").size(), 2u);
  EXPECT_DOUBLE_EQ(j.at("a").at(1).as_number(), 2.0);
}

TEST(JsonParse, NestedStructures) {
  const Json j = Json::parse(
      R"({"name":"qhdl","nested":{"list":[true,null,{"x":1}]}})");
  EXPECT_EQ(j.at("name").as_string(), "qhdl");
  const Json& list = j.at("nested").at("list");
  EXPECT_TRUE(list.at(0).as_bool());
  EXPECT_TRUE(list.at(1).is_null());
  EXPECT_DOUBLE_EQ(list.at(2).at("x").as_number(), 1.0);
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(Json::parse(R"("a\"b\\c\nd\t")").as_string(), "a\"b\\c\nd\t");
  EXPECT_EQ(Json::parse(R"("A")").as_string(), "A");
  EXPECT_EQ(Json::parse(R"("é")").as_string(), "\xc3\xa9");  // é UTF-8
}

TEST(JsonParse, RoundTripThroughDump) {
  Json original = Json::object();
  original["pi"] = Json{3.14159265358979};
  original["label"] = Json{"hybrid \"SEL\""};
  original["flags"] = Json::array_of(std::vector<int>{1, 0, 1});
  const Json reparsed = Json::parse(original.dump(2));
  EXPECT_DOUBLE_EQ(reparsed.at("pi").as_number(), 3.14159265358979);
  EXPECT_EQ(reparsed.at("label").as_string(), "hybrid \"SEL\"");
  EXPECT_EQ(reparsed.at("flags").size(), 3u);
}

TEST(JsonParse, FullDoublePrecisionRoundTrip) {
  const double value = 0.1234567890123456789;
  Json j = Json::object();
  j["v"] = Json{value};
  EXPECT_DOUBLE_EQ(Json::parse(j.dump()).at("v").as_number(), value);
}

TEST(JsonParse, SubnormalsAndSignedZeroRoundTrip) {
  // Regression: std::stod threw out_of_range on subnormals, so a %.17g
  // worker-protocol payload carrying one (a vanishing gradient entry, say)
  // killed the parse. from_chars must accept the full double range.
  const double min_subnormal = std::numeric_limits<double>::denorm_min();
  const double min_normal = std::numeric_limits<double>::min();
  for (const double value :
       {min_subnormal, min_normal / 2.0, min_normal, -min_subnormal}) {
    Json j = Json::object();
    j["v"] = Json{value};
    EXPECT_EQ(Json::parse(j.dump()).at("v").as_number(), value)
        << "value " << value;
  }
  EXPECT_EQ(Json::parse("4.9406564584124654e-324").as_number(),
            min_subnormal);

  const double negative_zero = Json::parse("-0.0").as_number();
  EXPECT_EQ(negative_zero, 0.0);
  EXPECT_TRUE(std::signbit(negative_zero)) << "-0.0 must keep its sign";
}

TEST(JsonParse, NumberParsingIgnoresGlobalLocale) {
  // Regression: std::stod honors the global C locale; under a ','-decimal
  // locale every serialized double failed to parse. from_chars is
  // locale-independent. de_DE may not be installed in minimal containers,
  // so skip (not fail) when setlocale rejects every candidate.
  const char* previous = std::setlocale(LC_NUMERIC, nullptr);
  const std::string saved = previous != nullptr ? previous : "C";
  const char* comma_locale = nullptr;
  for (const char* candidate : {"de_DE.UTF-8", "de_DE", "fr_FR.UTF-8"}) {
    if (std::setlocale(LC_NUMERIC, candidate) != nullptr) {
      comma_locale = candidate;
      break;
    }
  }
  if (comma_locale == nullptr) {
    GTEST_SKIP() << "no comma-decimal locale installed";
  }
  EXPECT_DOUBLE_EQ(Json::parse("3.25").as_number(), 3.25);
  EXPECT_DOUBLE_EQ(Json::parse("[1.5e-3]").at(std::size_t{0}).as_number(),
                   0.0015);
  std::setlocale(LC_NUMERIC, saved.c_str());
}

TEST(JsonParse, OutOfRangeNumbersStillRejected) {
  // Values no finite double can represent keep throwing, as with stod.
  EXPECT_THROW(Json::parse("1e999"), std::invalid_argument);
  EXPECT_THROW(Json::parse("-1e999"), std::invalid_argument);
}

TEST(JsonParse, Errors) {
  EXPECT_THROW(Json::parse(""), std::invalid_argument);
  EXPECT_THROW(Json::parse("{"), std::invalid_argument);
  EXPECT_THROW(Json::parse("[1,]"), std::invalid_argument);
  EXPECT_THROW(Json::parse("tru"), std::invalid_argument);
  EXPECT_THROW(Json::parse("\"unterminated"), std::invalid_argument);
  EXPECT_THROW(Json::parse("{} trailing"), std::invalid_argument);
  EXPECT_THROW(Json::parse("{\"k\" 1}"), std::invalid_argument);
}

TEST(JsonParse, NestingDepthIsBounded) {
  // At the limit parses; one level deeper throws, naming the offset.
  const std::size_t limit = Json::kMaxParseDepth;
  const Json deepest = Json::parse(std::string(limit, '[') +
                                   std::string(limit, ']'));
  EXPECT_EQ(deepest.size(), 1u);
  try {
    Json::parse(std::string(limit + 1, '[') + std::string(limit + 1, ']'));
    ADD_FAILURE() << "depth " << limit + 1 << " accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("at offset " +
                                         std::to_string(limit)),
              std::string::npos)
        << e.what();
  }
  // Hostile input: recursion this deep would overflow the stack.
  EXPECT_THROW(Json::parse(std::string(100000, '[')), std::invalid_argument);
  std::string objects;
  for (std::size_t i = 0; i < 100000; ++i) objects += "{\"k\":";
  EXPECT_THROW(Json::parse(objects), std::invalid_argument);
}

TEST(JsonParse, AccessorTypeChecks) {
  const Json j = Json::parse("{\"n\": 1}");
  EXPECT_THROW(j.as_number(), std::logic_error);
  EXPECT_THROW(j.at("n").as_string(), std::logic_error);
  EXPECT_THROW(j.at("missing"), std::out_of_range);
  EXPECT_THROW(j.at(std::size_t{0}), std::logic_error);
}

TEST(JsonParse, MissingFileThrows) {
  EXPECT_THROW(Json::parse_file("/nonexistent/x.json"), std::runtime_error);
}

}  // namespace
}  // namespace qhdl::util
