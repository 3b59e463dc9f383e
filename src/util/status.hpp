// Minimal Status / StatusOr error-handling vocabulary.
//
// The simulator's hot paths are exception-free; parsing and I/O report
// recoverable failures through Status/StatusOr instead (Core Guidelines
// E.intro: use exceptions only for exceptional conditions; trace parsing of
// malformed archive files is an expected condition here).
#pragma once

#include <cassert>
#include <optional>
#include <string>
#include <utility>

namespace dc {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kOutOfRange,
  kFailedPrecondition,
  kResourceExhausted,
  kInternal,
};

/// Human-readable name for a status code.
constexpr const char* status_code_name(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "OK";
    case StatusCode::kInvalidArgument: return "INVALID_ARGUMENT";
    case StatusCode::kNotFound: return "NOT_FOUND";
    case StatusCode::kOutOfRange: return "OUT_OF_RANGE";
    case StatusCode::kFailedPrecondition: return "FAILED_PRECONDITION";
    case StatusCode::kResourceExhausted: return "RESOURCE_EXHAUSTED";
    case StatusCode::kInternal: return "INTERNAL";
  }
  return "UNKNOWN";
}

/// A cheap, value-semantic result-of-an-operation type.
class [[nodiscard]] Status {
 public:
  Status() = default;  // OK
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status ok() { return Status(); }
  static Status invalid_argument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status not_found(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status out_of_range(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status failed_precondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status resource_exhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool is_ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  std::string to_string() const {
    if (is_ok()) return "OK";
    return std::string(status_code_name(code_)) + ": " + message_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// Value-or-error. `value()` asserts on error in debug builds; check
/// `is_ok()` (or `status()`) first.
template <typename T>
class [[nodiscard]] StatusOr {
 public:
  StatusOr(T value) : value_(std::move(value)) {}                 // NOLINT(google-explicit-constructor)
  StatusOr(Status status) : status_(std::move(status)) {          // NOLINT(google-explicit-constructor)
    assert(!status_.is_ok() && "StatusOr constructed from OK status without a value");
  }

  bool is_ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    assert(is_ok());
    return *value_;
  }
  T& value() & {
    assert(is_ok());
    return *value_;
  }
  T&& value() && {
    assert(is_ok());
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  std::optional<T> value_;
  Status status_;  // OK when holding a value
};

}  // namespace dc
