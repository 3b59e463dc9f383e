#include "util/strings.hpp"

#include <gtest/gtest.h>

namespace dc {
namespace {

TEST(SplitWs, SkipsRunsOfDelimiters) {
  const auto tokens = split_ws("  a\t\tb  c \n");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0], "a");
  EXPECT_EQ(tokens[1], "b");
  EXPECT_EQ(tokens[2], "c");
}

TEST(SplitWs, EmptyAndAllWhitespace) {
  EXPECT_TRUE(split_ws("").empty());
  EXPECT_TRUE(split_ws(" \t\n ").empty());
}

TEST(SplitChar, KeepsEmptyFields) {
  const auto fields = split_char("a,,b,", ',');
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[1], "");
  EXPECT_EQ(fields[2], "b");
  EXPECT_EQ(fields[3], "");
}

TEST(Trim, BothEnds) {
  EXPECT_EQ(trim("  hi \t"), "hi");
  EXPECT_EQ(trim("hi"), "hi");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
}

TEST(StartsWith, Basic) {
  EXPECT_TRUE(starts_with("prefix-rest", "prefix"));
  EXPECT_FALSE(starts_with("pre", "prefix"));
  EXPECT_TRUE(starts_with("anything", ""));
}

TEST(ParseInt, ValidInputs) {
  EXPECT_EQ(*parse_int("0"), 0);
  EXPECT_EQ(*parse_int("-17"), -17);
  EXPECT_EQ(*parse_int("123456789012"), 123456789012LL);
}

TEST(ParseInt, RejectsGarbage) {
  EXPECT_FALSE(parse_int("").is_ok());
  EXPECT_FALSE(parse_int("12x").is_ok());
  EXPECT_FALSE(parse_int("x12").is_ok());
  EXPECT_FALSE(parse_int("1.5").is_ok());
  EXPECT_FALSE(parse_int("999999999999999999999999").is_ok());
}

TEST(ParseDouble, ValidInputs) {
  EXPECT_DOUBLE_EQ(*parse_double("2.5"), 2.5);
  EXPECT_DOUBLE_EQ(*parse_double("-1"), -1.0);
  EXPECT_DOUBLE_EQ(*parse_double("1e3"), 1000.0);
}

TEST(ParseDouble, RejectsGarbage) {
  EXPECT_FALSE(parse_double("").is_ok());
  EXPECT_FALSE(parse_double("2.5.6").is_ok());
  EXPECT_FALSE(parse_double("abc").is_ok());
}

TEST(Join, Basic) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"solo"}, ","), "solo");
}

TEST(JsonEscape, EscapesQuotesBackslashesAndControlBytes) {
  std::string out = "x";
  append_json_escaped(out, "a\"b\\c\nd\re\tf\x01g");
  EXPECT_EQ(out, "xa\\\"b\\\\c\\nd\\re\\tf\\u0001g");
}

TEST(StrFormat, FormatsLikePrintf) {
  EXPECT_EQ(str_format("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(str_format("%.2f", 3.14159), "3.14");
  EXPECT_EQ(str_format("empty"), "empty");
}

}  // namespace
}  // namespace dc
