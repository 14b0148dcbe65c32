#ifndef REMEDY_COMMON_STRING_UTIL_H_
#define REMEDY_COMMON_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace remedy {

// Splits `text` on `sep`, keeping empty fields.
std::vector<std::string> Split(std::string_view text, char sep);

// Joins `parts` with `sep` between elements.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep);

// Removes leading and trailing ASCII whitespace.
std::string Trim(std::string_view text);

// Trim without the copy: the view of `text` between its leading and
// trailing whitespace.
std::string_view TrimView(std::string_view text);

// Formats a double with `precision` digits after the decimal point.
std::string FormatDouble(double value, int precision = 3);

// True if `text` begins with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

// Parses all of `text` as a number of type T (int, int64_t, uint64_t or
// double): kInvalidArgument when any character is left over, nothing
// parses, or the value is out of T's range. No whitespace, no leading '+'.
template <typename T>
StatusOr<T> ParseNumber(std::string_view text);

}  // namespace remedy

#endif  // REMEDY_COMMON_STRING_UTIL_H_
