#include "cli/flags.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace remedy {

ParsedFlags ParseFlags(int argc, char** argv, const std::vector<Flag>& flags) {
  ParsedFlags parsed;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      parsed.positional.push_back(std::move(arg));
      continue;
    }
    std::optional<std::string> inline_value;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      inline_value = arg.substr(eq + 1);
      arg.resize(eq);
    }
    const auto flag = std::find_if(
        flags.begin(), flags.end(), [&](const Flag& f) { return f.name == arg; });
    if (flag == flags.end()) {
      parsed.usage_error = "unknown flag " + arg;
      return parsed;
    }
    std::string value;
    if (flag->arity == Flag::Arity::kNone) {
      // A bool flag takes no value; an `=` suffix is ignored.
    } else if (inline_value.has_value()) {
      value = *inline_value;
    } else if (flag->arity == Flag::Arity::kRequired) {
      if (i + 1 == argc) {
        parsed.usage_error = arg + " needs a value";
        return parsed;
      }
      value = argv[++i];
    } else if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      value = argv[++i];
    }
    Status stored = flag->set(value);
    if (!stored.ok()) {
      parsed.bad_value = stored.WithContext("bad " + arg);
      return parsed;
    }
  }
  return parsed;
}

std::string FlagUsage(const std::vector<Flag>& flags) {
  std::vector<std::string> heads;
  size_t width = 0;
  for (const Flag& flag : flags) {
    std::string head = flag.name;
    if (flag.arity == Flag::Arity::kRequired) head += " " + flag.metavar;
    if (flag.arity == Flag::Arity::kOptional) head += "[=" + flag.metavar + "]";
    width = std::max(width, head.size());
    heads.push_back(std::move(head));
  }
  std::string usage;
  for (size_t i = 0; i < flags.size(); ++i) {
    usage += "  " + heads[i] + std::string(width - heads[i].size() + 2, ' ') +
             flags[i].help + "\n";
  }
  return usage;
}

int ParseCommandLine(
    int argc, char** argv, const std::vector<Flag>& flags,
    const std::function<std::string(const std::vector<std::string>&)>& check,
    const char* usage, int usage_exit) {
  const ParsedFlags parsed = ParseFlags(argc, argv, flags);
  if (!parsed.bad_value.ok()) {
    std::fprintf(stderr, "%s\n", parsed.bad_value.ToString().c_str());
    return 64;
  }
  const std::string error = parsed.usage_error.empty()
                                ? check(parsed.positional)
                                : parsed.usage_error;
  if (error.empty()) return 0;
  std::fprintf(stderr, "%s\n%s%s", error.c_str(), usage,
               FlagUsage(flags).c_str());
  return usage_exit;
}

}  // namespace remedy
