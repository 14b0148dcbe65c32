#include "cli/cli_common.h"

#include <cstdio>

#include "common/string_util.h"
#include "datagen/adult.h"
#include "datagen/compas.h"
#include "datagen/law_school.h"

namespace remedy {

int ExitCodeFor(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return 0;
    case StatusCode::kInvalidArgument:
      return 64;
    case StatusCode::kDataCorruption:
    case StatusCode::kOutOfRange:
      return 65;
    case StatusCode::kIoError:
      return 74;
    case StatusCode::kResourceExhausted:
      return 75;
    case StatusCode::kInternal:
      return 70;
  }
  return 70;
}

int Fail(const std::string& what, const Status& status) {
  std::fprintf(stderr, "%s: %s\n", what.c_str(), status.ToString().c_str());
  return ExitCodeFor(status.code());
}

Status WriteTextFile(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return IoError("cannot open " + path + " for writing");
  const size_t written = std::fwrite(text.data(), 1, text.size(), f);
  const int rc = std::fclose(f);
  if (written != text.size() || rc != 0) {
    return IoError("short write to " + path);
  }
  return OkStatus();
}

StatusOr<Dataset> GenerateInputDataset(const std::string& input) {
  std::string name = input.substr(1);
  int rows = 0;  // 0: the generator's Table II default
  const size_t colon = name.find(':');
  if (colon != std::string::npos) {
    StatusOr<int> parsed = ParseNumber<int>(name.substr(colon + 1));
    rows = parsed.ok() ? parsed.value() : 0;
    if (rows <= 0) {
      return InvalidArgumentError("bad row count in generator input '" +
                                  input + "'");
    }
    name = name.substr(0, colon);
  }
  if (name == "adult") return rows > 0 ? MakeAdult(rows) : MakeAdult();
  if (name == "compas") return rows > 0 ? MakeCompas(rows) : MakeCompas();
  if (name == "lawschool") {
    return rows > 0 ? MakeLawSchool(rows) : MakeLawSchool();
  }
  return InvalidArgumentError("unknown generator '" + input +
                              "' (want @adult, @compas or @lawschool)");
}

Choices<RemedyTechnique> TechniqueChoices() {
  return {{"ps", RemedyTechnique::kPreferentialSampling},
          {"us", RemedyTechnique::kUndersample},
          {"os", RemedyTechnique::kOversample},
          {"massage", RemedyTechnique::kMassaging}};
}

}  // namespace remedy
