#include "support/error.hpp"

#include "support/assert.hpp"

namespace gpumip {

const char* error_code_name(ErrorCode code) noexcept {
  switch (code) {
    case ErrorCode::kInvalidArgument: return "InvalidArgument";
    case ErrorCode::kOutOfDeviceMemory: return "OutOfDeviceMemory";
    case ErrorCode::kNumericalFailure: return "NumericalFailure";
    case ErrorCode::kLimitExceeded: return "LimitExceeded";
    case ErrorCode::kIoError: return "IoError";
    case ErrorCode::kProtocolError: return "ProtocolError";
    case ErrorCode::kInternal: return "Internal";
  }
  return "Unknown";
}

void throw_error(ErrorCode code, std::string_view message, std::source_location loc) {
  throw Error(code, std::string(message)
                        .append(" [")
                        .append(loc.file_name())
                        .append(":")
                        .append(std::to_string(loc.line()))
                        .append("]"));
}

namespace detail {

void assert_fail(const char* condition, const std::string& message, const char* file, int line) {
  throw Error(ErrorCode::kInternal, "invariant violated: " + message + " (" + condition + ") [" +
                                        file + ":" + std::to_string(line) + "]");
}

}  // namespace detail

}  // namespace gpumip
