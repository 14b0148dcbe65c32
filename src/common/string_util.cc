#include "common/string_util.h"

#include <cctype>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <utility>

namespace remedy {

std::vector<std::string> Split(std::string_view text, char sep) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (true) {
    size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      parts.emplace_back(text.substr(start));
      break;
    }
    parts.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
  return parts;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string result;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) result.append(sep);
    result.append(parts[i]);
  }
  return result;
}

std::string Trim(std::string_view text) { return std::string(TrimView(text)); }

std::string_view TrimView(std::string_view text) {
  size_t begin = 0;
  size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

std::string FormatDouble(double value, int precision) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", precision, value);
  return buffer;
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

namespace {

// "'<text>'<what>", appended in place: GCC's -O3 -Wrestrict misfires on
// the operator+ chain of a quote literal and a temporary string.
Status NumberError(std::string_view text, std::string_view what) {
  std::string message;
  message.reserve(text.size() + what.size() + 2);
  message.append("'").append(text).append("'").append(what);
  return InvalidArgumentError(std::move(message));
}

}  // namespace

template <typename T>
StatusOr<T> ParseNumber(std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec == std::errc::result_out_of_range) {
    return NumberError(text, " is out of range");
  }
  if (ec != std::errc() || ptr != end) {
    return NumberError(text, " is not a number");
  }
  return value;
}

template StatusOr<int> ParseNumber<int>(std::string_view);
template StatusOr<int64_t> ParseNumber<int64_t>(std::string_view);
template StatusOr<uint64_t> ParseNumber<uint64_t>(std::string_view);
template StatusOr<double> ParseNumber<double>(std::string_view);

}  // namespace remedy
