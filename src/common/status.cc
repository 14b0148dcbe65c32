#include "common/status.h"

namespace remedy {

const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case StatusCode::kDataCorruption:
      return "DATA_CORRUPTION";
    case StatusCode::kIoError:
      return "IO_ERROR";
    case StatusCode::kResourceExhausted:
      return "RESOURCE_EXHAUSTED";
    case StatusCode::kOutOfRange:
      return "OUT_OF_RANGE";
    case StatusCode::kInternal:
      return "INTERNAL";
  }
  return "UNKNOWN";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = StatusCodeName(code_);
  out += ": ";
  out += message_;
  return out;
}

Status InvalidArgumentError(std::string message) {
  return Status(StatusCode::kInvalidArgument, std::move(message));
}

Status DataCorruptionError(std::string message) {
  return Status(StatusCode::kDataCorruption, std::move(message));
}

Status IoError(std::string message) {
  return Status(StatusCode::kIoError, std::move(message));
}

Status ResourceExhaustedError(std::string message) {
  return Status(StatusCode::kResourceExhausted, std::move(message));
}

Status OutOfRangeError(std::string message) {
  return Status(StatusCode::kOutOfRange, std::move(message));
}

Status InternalError(std::string message) {
  return Status(StatusCode::kInternal, std::move(message));
}

}  // namespace remedy
