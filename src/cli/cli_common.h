#ifndef REMEDY_CLI_CLI_COMMON_H_
#define REMEDY_CLI_CLI_COMMON_H_

// Helpers shared by the command-line front ends (docs/CLI.md).

#include <string>

#include "cli/flags.h"
#include "common/status.h"
#include "core/remedy.h"
#include "data/dataset.h"

namespace remedy {

// sysexits-flavored mapping so callers can distinguish "your flags are
// wrong" from "your data is rotten" from "the disk hiccuped": 64 invalid
// argument, 65 corrupt data or out of range, 70 internal, 74 I/O, 75
// resource exhausted.
int ExitCodeFor(StatusCode code);

// Prints "<what>: <status>" to stderr; returns ExitCodeFor(status).
int Fail(const std::string& what, const Status& status);

Status WriteTextFile(const std::string& path, const std::string& text);

// The built-in generator input `@adult|@compas|@lawschool[:N]`: N rows, or
// the generator's Table II size without `:N`. kInvalidArgument for an
// unknown name or a row count that is not a positive number.
StatusOr<Dataset> GenerateInputDataset(const std::string& input);

// The remedy techniques by their command-line names.
Choices<RemedyTechnique> TechniqueChoices();

}  // namespace remedy

#endif  // REMEDY_CLI_CLI_COMMON_H_
