#ifndef REMEDY_CLI_FLAGS_H_
#define REMEDY_CLI_FLAGS_H_

// Table-driven command-line flags for the front ends (remedy_cli,
// remedy_serve, soak). Each binary declares one table of Flag rows — name,
// kind, target, metavar, help — and ParseFlags applies the same rules to
// every one of them:
//
//   * `--f v` and `--f=v` are equivalent; a value-taking flag at the end
//     of argv is a usage error naming the flag;
//   * an optional-value flag takes `=file`, or the next argument when that
//     does not start with `--`, and is bare otherwise;
//   * a bool flag ignores an `=` suffix;
//   * a repeated flag appends each occurrence;
//   * arguments not starting with `--` are positionals, wherever they are;
//   * a malformed number or an unknown choice stops the parse with
//     "bad --f: ..." (kInvalidArgument: exit 64), before any data is read.
//
// tools/docs_check.sh and tools/CMakeLists.txt read the rows' first line,
// `<Kind>Flag("--name", ...`, so each row starts that way.

#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/string_util.h"

namespace remedy {

struct Flag {
  enum class Arity { kNone, kRequired, kOptional };
  std::string name;  // "--tau-c"
  Arity arity;
  std::string metavar;  // usage placeholder of the value
  std::string help;
  // Stores one value ("" for kNone and for a bare kOptional flag). An error
  // is a malformed value.
  std::function<Status(const std::string&)> set;
};

// What ParseFlags leaves besides the values it stored.
struct ParsedFlags {
  std::vector<std::string> positional;
  // An unknown flag or a missing value: the binary's usage error.
  std::string usage_error;
  // A malformed value, as "bad --flag: ...": exit 64.
  Status bad_value;
};

ParsedFlags ParseFlags(int argc, char** argv, const std::vector<Flag>& flags);

// One line per row: the flag with its metavar, then its help.
std::string FlagUsage(const std::vector<Flag>& flags);

// A binary's whole command line: ParseFlags, then `check`, the binary's
// rules between flags and positionals (a usage error, or ""). Returns 0
// when both pass. Otherwise prints the error to stderr — a usage error
// followed by `usage` and FlagUsage — and returns 64 for a malformed
// value, `usage_exit` for a usage error.
int ParseCommandLine(
    int argc, char** argv, const std::vector<Flag>& flags,
    const std::function<std::string(const std::vector<std::string>&)>& check,
    const char* usage, int usage_exit);

inline Flag BoolFlag(const char* name, bool* target, const char* help) {
  return {name, Flag::Arity::kNone, "", help, [target](const std::string&) {
            *target = true;
            return OkStatus();
          }};
}

// `target` is a std::string, or a std::optional<std::string> that tells
// whether the flag was given.
template <typename T>
Flag StringFlag(const char* name, T* target, const char* metavar,
                const char* help) {
  return {name, Flag::Arity::kRequired, metavar, help,
          [target](const std::string& value) {
            *target = value;
            return OkStatus();
          }};
}

// An output path that may be left out: "" when bare (stdout), the path
// otherwise; unset when the flag is not given.
inline Flag OptionalPathFlag(const char* name,
                             std::optional<std::string>* target,
                             const char* metavar, const char* help) {
  Flag flag = StringFlag(name, target, metavar, help);
  flag.arity = Flag::Arity::kOptional;
  return flag;
}

inline Flag RepeatedFlag(const char* name, std::vector<std::string>* target,
                         const char* metavar, const char* help) {
  return {name, Flag::Arity::kRequired, metavar, help,
          [target](const std::string& value) {
            target->push_back(value);
            return OkStatus();
          }};
}

// The value goes through ParseNumber<T>: all of it must be a number.
template <typename T>
Flag NumberFlag(const char* name, T* target, const char* metavar,
                const char* help) {
  return {name, Flag::Arity::kRequired, metavar, help,
          [target](const std::string& value) {
            ASSIGN_OR_RETURN(*target, ParseNumber<T>(value));
            return OkStatus();
          }};
}

template <typename V>
using Choices = std::vector<std::pair<std::string, V>>;

// One of a fixed set of names, listed as the metavar `a|b|c`. `target` is
// a V, or a std::optional<V> that tells whether the flag was given.
template <typename T, typename V>
Flag ChoiceFlag(const char* name, T* target, Choices<V> choices,
                const char* help) {
  std::vector<std::string> names;
  for (const auto& choice : choices) names.push_back(choice.first);
  const std::string metavar = Join(names, "|");
  return {name, Flag::Arity::kRequired, metavar, help,
          [=](const std::string& value) {
            for (const auto& [choice, result] : choices) {
              if (choice == value) {
                *target = result;
                return OkStatus();
              }
            }
            return InvalidArgumentError("'" + value + "' is not one of " +
                                        metavar);
          }};
}

}  // namespace remedy

#endif  // REMEDY_CLI_FLAGS_H_
