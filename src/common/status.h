#ifndef REMEDY_COMMON_STATUS_H_
#define REMEDY_COMMON_STATUS_H_

#include <optional>
#include <ostream>
#include <string>
#include <utility>

#include "common/check.h"

namespace remedy {

// Recoverable error model for the library's boundary APIs (ingestion, file
// I/O, engine entry points). Precondition violations on hot paths stay
// REMEDY_CHECK programmer errors; everything reachable from user input —
// malformed CSV bytes, bad flags, failing disks — reports a Status instead
// of aborting the process.
//
//   StatusOr<CsvTable> table = ReadCsvFile(path);
//   if (!table.ok()) return table.status().WithContext("loading " + path);
//
// Inside Status-returning functions, use the propagation macros:
//
//   RETURN_IF_ERROR(WriteCsvFile(path, table));
//   ASSIGN_OR_RETURN(Dataset data, LoadCsvDataset(path, options));

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,    // caller handed in something unusable (bad flag, name)
  kDataCorruption,     // the bytes themselves are wrong (malformed CSV)
  kIoError,            // the environment failed us (open/read/write)
  kResourceExhausted,  // a budget or capacity limit was hit
  kOutOfRange,         // a value exceeds what the operation can represent
  kInternal,           // invariant broke in a recoverable context
};

// Stable upper-case token for logs and CLI diagnostics, e.g. "IO_ERROR".
const char* StatusCodeName(StatusCode code);

class [[nodiscard]] Status {
 public:
  // OK (the default).
  Status() = default;

  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {
    REMEDY_CHECK(code != StatusCode::kOk)
        << "explicit Status must carry an error code";
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // Context chaining for propagation across layers: keeps the code, prefixes
  // the message, so the surfaced error reads outermost-context-first, e.g.
  // "loading adult.csv: cannot open adult.csv: No such file". No-op on OK.
  Status WithContext(const std::string& context) const {
    if (ok()) return *this;
    return Status(code_, context + ": " + message_);
  }

  // "IO_ERROR: cannot open adult.csv" (or "OK").
  std::string ToString() const;

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

inline std::ostream& operator<<(std::ostream& os, const Status& status) {
  return os << status.ToString();
}

inline Status OkStatus() { return Status(); }
Status InvalidArgumentError(std::string message);
Status DataCorruptionError(std::string message);
Status IoError(std::string message);
Status ResourceExhaustedError(std::string message);
Status OutOfRangeError(std::string message);
Status InternalError(std::string message);

// Status + value union. Implicitly constructible from either side so
// Status-returning helpers and `return value;` both work. `value()` asserts
// ok() — trusted callers whose inputs are validated upstream may use it as
// the moral equivalent of the old abort-on-precondition behaviour.
template <typename T>
class [[nodiscard]] StatusOr {
 public:
  // NOLINTNEXTLINE(google-explicit-constructor)
  StatusOr(Status status) : status_(std::move(status)) {
    REMEDY_CHECK(!status_.ok())
        << "StatusOr constructed from OK status without a value";
  }

  // NOLINTNEXTLINE(google-explicit-constructor)
  StatusOr(T value) : value_(std::move(value)) {}

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    REMEDY_CHECK(ok()) << status_.ToString();
    return *value_;
  }
  T& value() & {
    REMEDY_CHECK(ok()) << status_.ToString();
    return *value_;
  }
  // By value, not T&&: `for (auto& x : Fn().value())` must not dangle when
  // the temporary StatusOr dies at the end of the full-expression.
  T value() && {
    REMEDY_CHECK(ok()) << status_.ToString();
    return *std::move(value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  T operator*() && { return std::move(*this).value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace remedy

// Evaluates a Status expression and early-returns it on error. Usable in any
// function returning Status or StatusOr<T>.
#define RETURN_IF_ERROR(expr)                          \
  do {                                                 \
    ::remedy::Status remedy_return_if_error_ = (expr); \
    if (!remedy_return_if_error_.ok()) {               \
      return remedy_return_if_error_;                  \
    }                                                  \
  } while (0)

#define REMEDY_STATUS_CONCAT_INNER_(a, b) a##b
#define REMEDY_STATUS_CONCAT_(a, b) REMEDY_STATUS_CONCAT_INNER_(a, b)

// ASSIGN_OR_RETURN(lhs, rexpr): evaluates the StatusOr expression `rexpr`,
// early-returns its Status on error, otherwise moves the value into `lhs`
// (which may be a declaration, e.g. `ASSIGN_OR_RETURN(Dataset d, Load())`).
#define ASSIGN_OR_RETURN(lhs, rexpr)                                       \
  REMEDY_ASSIGN_OR_RETURN_IMPL_(                                           \
      REMEDY_STATUS_CONCAT_(remedy_status_or_, __LINE__), lhs, rexpr)

#define REMEDY_ASSIGN_OR_RETURN_IMPL_(statusor, lhs, rexpr) \
  auto statusor = (rexpr);                                  \
  if (!statusor.ok()) {                                     \
    return statusor.status();                               \
  }                                                         \
  lhs = std::move(statusor).value()

#endif  // REMEDY_COMMON_STATUS_H_
