#include "util/csv.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

namespace dc {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

class CsvWriterTest : public ::testing::Test {
 protected:
  // One file per test: ctest runs the cases as parallel processes.
  std::string path_ =
      ::testing::TempDir() + "/csv_test_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".csv";
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(CsvWriterTest, WritesHeaderAndRows) {
  {
    CsvWriter csv(path_);
    ASSERT_TRUE(csv.ok());
    csv.header({"a", "b"});
    csv.cell(std::int64_t{1}).cell(2.5, 1);
    csv.end_row();
  }
  EXPECT_EQ(read_file(path_), "a,b\n1,2.5\n");
}

TEST_F(CsvWriterTest, QuotesSpecialCharacters) {
  {
    CsvWriter csv(path_);
    csv.cell("has,comma").cell("has\"quote").cell("plain");
    csv.end_row();
  }
  EXPECT_EQ(read_file(path_), "\"has,comma\",\"has\"\"quote\",plain\n");
}

TEST(CsvQuote, QuotesWhenNeededOrAlways) {
  EXPECT_EQ(csv_quote("plain"), "plain");
  EXPECT_EQ(csv_quote(""), "");
  EXPECT_EQ(csv_quote("has,comma"), "\"has,comma\"");
  EXPECT_EQ(csv_quote("has\"quote"), "\"has\"\"quote\"");
  EXPECT_EQ(csv_quote("two\nlines"), "\"two\nlines\"");
  EXPECT_EQ(csv_quote("cr\ronly"), "cr\ronly");
  EXPECT_EQ(csv_quote("plain", /*always=*/true), "\"plain\"");
  EXPECT_EQ(csv_quote("", /*always=*/true), "\"\"");
  EXPECT_EQ(csv_quote("a=\"b\"", /*always=*/true), "\"a=\"\"b\"\"\"");
}

TEST(CsvParse, RoundTripsWriterOutput) {
  const std::string path = ::testing::TempDir() + "/csv_roundtrip.csv";
  {
    CsvWriter csv(path);
    csv.header({"name", "value"});
    csv.cell("has,comma").cell(std::int64_t{7});
    csv.end_row();
    csv.cell("has\"quote").cell(2.5, 1);
    csv.end_row();
  }
  auto rows = read_csv_file(path);
  ASSERT_TRUE(rows.is_ok()) << rows.status().to_string();
  ASSERT_EQ(rows->size(), 3u);
  EXPECT_EQ((*rows)[0], (std::vector<std::string>{"name", "value"}));
  EXPECT_EQ((*rows)[1], (std::vector<std::string>{"has,comma", "7"}));
  EXPECT_EQ((*rows)[2], (std::vector<std::string>{"has\"quote", "2.5"}));
  std::remove(path.c_str());
}

TEST(CsvParse, HandlesCrlfQuotedNewlinesAndEmptyFields) {
  auto rows = parse_csv("a,b\r\n\"multi\nline\",\"\"\n");
  ASSERT_TRUE(rows.is_ok()) << rows.status().to_string();
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[1], (std::vector<std::string>{"multi\nline", ""}));
}

TEST(CsvParse, UnterminatedQuoteReportsOpeningPosition) {
  const auto rows = parse_csv("a,b\nc,\"never closed");
  ASSERT_FALSE(rows.is_ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kInvalidArgument);
  // The opening quote sits at line 2, column 3.
  EXPECT_NE(rows.status().message().find("line 2, column 3"),
            std::string::npos)
      << rows.status().message();
  EXPECT_NE(rows.status().message().find("unterminated"), std::string::npos);
}

TEST(CsvParse, StrayQuoteInUnquotedFieldIsRejected) {
  const auto rows = parse_csv("a,b\nval\"ue,2\n");
  ASSERT_FALSE(rows.is_ok());
  EXPECT_NE(rows.status().message().find("line 2"), std::string::npos)
      << rows.status().message();
  EXPECT_NE(rows.status().message().find("unquoted"), std::string::npos);
}

TEST(CsvParse, GarbageAfterClosingQuoteIsRejected) {
  const auto rows = parse_csv("\"ok\"x,2\n");
  ASSERT_FALSE(rows.is_ok());
  EXPECT_NE(rows.status().message().find("after closing"), std::string::npos)
      << rows.status().message();
  EXPECT_NE(rows.status().message().find("'x'"), std::string::npos);
}

TEST(CsvParse, RaggedRowNamesLineAndCounts) {
  const auto rows = parse_csv("a,b,c\n1,2\n");
  ASSERT_FALSE(rows.is_ok());
  EXPECT_NE(rows.status().message().find("line 2"), std::string::npos)
      << rows.status().message();
  EXPECT_NE(rows.status().message().find("2 fields"), std::string::npos);
  EXPECT_NE(rows.status().message().find("3"), std::string::npos);
  // Ragged rows are fine when uniformity is not required.
  CsvParseOptions lax;
  lax.require_uniform_columns = false;
  const auto lax_rows = parse_csv("a,b,c\n1,2\n", lax);
  ASSERT_TRUE(lax_rows.is_ok());
  EXPECT_EQ((*lax_rows)[1].size(), 2u);
}

TEST(CsvParse, EmbeddedNulByteIsRejected) {
  const std::string bytes("a,b\n1,\0garbage\n", 15);
  const auto rows = parse_csv(bytes);
  ASSERT_FALSE(rows.is_ok());
  EXPECT_NE(rows.status().message().find("NUL"), std::string::npos)
      << rows.status().message();
}

TEST(CsvParse, MissingFileIsNotFoundWithPath) {
  const auto rows = read_csv_file("/nonexistent/results.csv");
  ASSERT_FALSE(rows.is_ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kNotFound);
  EXPECT_NE(rows.status().message().find("/nonexistent/results.csv"),
            std::string::npos);
}

TEST(TextTable, AlignsColumnsAndRightAlignsNumbers) {
  TextTable table({"name", "value"});
  table.cell("alpha").cell(std::int64_t{5});
  table.end_row();
  table.cell("b").cell(std::int64_t{12345});
  table.end_row();
  const std::string out = table.render("title");
  EXPECT_NE(out.find("title\n"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  // Numbers right-align within the "value" column width (5 chars).
  EXPECT_NE(out.find("    5"), std::string::npos);
  EXPECT_NE(out.find("12345"), std::string::npos);
}

TEST(TextTable, RowCountAndPrecision) {
  TextTable table({"x"});
  table.cell(1.23456, 3);
  table.end_row();
  EXPECT_EQ(table.row_count(), 1u);
  EXPECT_NE(table.render().find("1.235"), std::string::npos);
}

TEST(TextTable, EmptyTableRendersHeaderOnly) {
  TextTable table({"col"});
  const std::string out = table.render();
  EXPECT_NE(out.find("col"), std::string::npos);
  EXPECT_EQ(table.row_count(), 0u);
}

}  // namespace
}  // namespace dc
