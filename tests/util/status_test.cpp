#include "util/status.hpp"

#include <gtest/gtest.h>

namespace dc {
namespace {

TEST(Status, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.is_ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.to_string(), "OK");
}

TEST(Status, FactoryFunctionsSetCodeAndMessage) {
  const Status status = Status::invalid_argument("bad field");
  EXPECT_FALSE(status.is_ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "bad field");
  EXPECT_EQ(status.to_string(), "INVALID_ARGUMENT: bad field");
}

TEST(Status, AllCodesHaveNames) {
  EXPECT_STREQ(status_code_name(StatusCode::kOk), "OK");
  EXPECT_STREQ(status_code_name(StatusCode::kNotFound), "NOT_FOUND");
  EXPECT_STREQ(status_code_name(StatusCode::kOutOfRange), "OUT_OF_RANGE");
  EXPECT_STREQ(status_code_name(StatusCode::kFailedPrecondition),
               "FAILED_PRECONDITION");
  EXPECT_STREQ(status_code_name(StatusCode::kResourceExhausted),
               "RESOURCE_EXHAUSTED");
  EXPECT_STREQ(status_code_name(StatusCode::kInternal), "INTERNAL");
}

TEST(StatusOr, HoldsValue) {
  StatusOr<int> result(42);
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value(), 42);
  EXPECT_EQ(*result, 42);
}

TEST(StatusOr, StatusOfAValueIsOk) {
  const StatusOr<std::string> result(std::string("a value"));
  EXPECT_TRUE(result.status().is_ok());
  EXPECT_EQ(result.status().to_string(), "OK");
}

TEST(StatusOr, HoldsError) {
  StatusOr<int> result(Status::not_found("missing"));
  EXPECT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(StatusOr, MovesValueOut) {
  StatusOr<std::string> result(std::string("hello"));
  ASSERT_TRUE(result.is_ok());
  const std::string moved = std::move(result).value();
  EXPECT_EQ(moved, "hello");
}

TEST(StatusOr, ArrowOperator) {
  StatusOr<std::string> result(std::string("abc"));
  EXPECT_EQ(result->size(), 3u);
}

}  // namespace
}  // namespace dc
