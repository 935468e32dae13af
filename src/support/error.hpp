// Error handling primitives for gpumip.
//
// The library reports unrecoverable contract violations and environmental
// failures via exceptions derived from gpumip::Error, each carrying an
// ErrorCode so callers can dispatch without string matching.
#pragma once

#include <source_location>
#include <stdexcept>
#include <string>
#include <string_view>

namespace gpumip {

/// Machine-readable category of a failure.
enum class ErrorCode {
  kInvalidArgument,   ///< caller violated a documented precondition
  kOutOfDeviceMemory, ///< simulated device allocation failed
  kNumericalFailure,  ///< singular matrix, factorization breakdown, ...
  kLimitExceeded,     ///< iteration/node/time budget exhausted unexpectedly
  kIoError,           ///< file parse/write failure
  kProtocolError,     ///< malformed wire payload (truncated/trailing bytes)
  kInternal,          ///< invariant broken inside the library (a bug)
};

/// Human-readable name of an ErrorCode ("InvalidArgument", ...).
const char* error_code_name(ErrorCode code) noexcept;

/// Base exception for all gpumip failures.
class Error : public std::runtime_error {
 public:
  Error(ErrorCode code, const std::string& message)
      : std::runtime_error(std::string(error_code_name(code)) + ": " + message),
        code_(code) {}

  ErrorCode code() const noexcept { return code_; }

 private:
  ErrorCode code_;
};

/// Thrown when a simulated device allocation exceeds capacity.
class DeviceOutOfMemory : public Error {
 public:
  explicit DeviceOutOfMemory(const std::string& message)
      : Error(ErrorCode::kOutOfDeviceMemory, message) {}
};

/// Thrown on numerical breakdown (singular basis, indefinite matrix, ...).
class NumericalError : public Error {
 public:
  explicit NumericalError(const std::string& message)
      : Error(ErrorCode::kNumericalFailure, message) {}
};

/// Throws Error(code) whose message is `message [file:line]`. The
/// out-of-line slow path of the checks below; call it directly when the
/// message has to be formatted, so the formatting runs only on failure:
///   if (!(lb <= ub)) throw_error(ErrorCode::kInvalidArgument, "row " + std::to_string(i));
[[noreturn]] void throw_error(ErrorCode code, std::string_view message,
                              std::source_location loc = std::source_location::current());

// A passing check costs one predictable branch and allocates nothing: the
// message is a view, and the error text is built only when the check fails.

/// Throws Error(kInvalidArgument) with location info when `cond` is false.
inline void check_arg(bool cond, std::string_view message,
                      std::source_location loc = std::source_location::current()) {
  if (!cond) [[unlikely]] throw_error(ErrorCode::kInvalidArgument, message, loc);
}

/// Throws Error(kInternal) with location info when `cond` is false.
/// Used for invariants that indicate a library bug, not misuse.
inline void check_internal(bool cond, std::string_view message,
                           std::source_location loc = std::source_location::current()) {
  if (!cond) [[unlikely]] throw_error(ErrorCode::kInternal, message, loc);
}

/// Throws Error(kProtocolError) with location info when `cond` is false.
/// Used by wire deserializers: a payload that fails structural validation
/// (trailing bytes, impossible length header) is a protocol error, not a
/// caller bug — it signals version skew or corruption between ranks.
inline void check_protocol(bool cond, std::string_view message,
                           std::source_location loc = std::source_location::current()) {
  if (!cond) [[unlikely]] throw_error(ErrorCode::kProtocolError, message, loc);
}

}  // namespace gpumip
