#ifndef REMEDY_BENCH_BENCH_COMMON_H_
#define REMEDY_BENCH_BENCH_COMMON_H_

#include <string>
#include <utility>
#include <vector>

#include "data/dataset.h"
#include "data/encoding.h"
#include "fairness/divergence.h"
#include "ml/model_factory.h"

namespace remedy::bench {

// The paper's split protocol: 70% train / 30% test, remedy applied to the
// training set only.
std::pair<Dataset, Dataset> Split(const Dataset& data, uint64_t seed = 1234);

// One model's evaluation under the paper's metrics.
struct EvalResult {
  double fairness_index_fpr = 0.0;
  double fairness_index_fnr = 0.0;
  double accuracy = 0.0;
};

// Trains `type` on `train`, evaluates on `test`.
EvalResult Evaluate(const Dataset& train, const Dataset& test, ModelType type,
                    uint64_t seed = 7);

// Same evaluation over pre-built encodings: the one-hot caches are built
// once per split and shared across every model evaluated on it. `threads`
// is the in-model worker count (see MakeClassifier); results are
// bit-identical to the Dataset form for every thread count.
EvalResult Evaluate(const EncodedMatrix& train, const EncodedMatrix& test,
                    ModelType type, uint64_t seed = 7, int threads = 1);

// Integer flag value (e.g. "--threads 8"): `fallback` when the flag is
// absent. A value that is not wholly an int (ParseNumber: no spaces, no
// '+', nothing left over, in int's range), or a flag with no value, exits
// 64 with "bad <flag>: ..." on stderr.
int IntFlagValue(int argc, char** argv, const std::string& flag,
                 int fallback);

// Pretty banner for each experiment binary.
void PrintBanner(const std::string& experiment, const std::string& paper_ref,
                 const std::string& expectation);

// Returns the value of `flag` given as `--flag value` or `--flag=value`
// (e.g. "--metrics-json out.json"), or "" when the flag is absent or has
// no value.
std::string FlagValue(int argc, char** argv, const std::string& flag);

// Returns the value following a `--json <path>` argument, or "" when the
// flag is absent. Lets experiment binaries emit machine-readable results
// next to their console tables.
std::string JsonPathFromArgs(int argc, char** argv);

// True when `flag` (e.g. "--smoke"), alone or as `--flag=value`, appears
// among the arguments.
bool HasFlag(int argc, char** argv, const std::string& flag);

// Peak resident set size of this process so far, in bytes (getrusage
// ru_maxrss). High-water mark, not current usage — record it right after
// the phase being measured.
int64_t PeakRssBytes();

// Minimal machine-readable results sink: named sections, each an array of
// flat records (numbers, plus the occasional string such as a backend
// name), serialized as one JSON object. Covers everything the bench tables
// report without pulling in a JSON dependency.
class JsonResultWriter {
 public:
  // One record field. The converting constructors keep the existing
  // brace-list call sites ({"rows", 1.0}) compiling unchanged while
  // admitting {"digest", "fa153dc7b65730be"}.
  struct Field {
    Field(std::string k, double v) : key(std::move(k)), number(v) {}
    Field(std::string k, std::string v)
        : key(std::move(k)), text(std::move(v)), is_text(true) {}
    Field(std::string k, const char* v)
        : key(std::move(k)), text(v), is_text(true) {}

    std::string key;
    double number = 0.0;
    std::string text;
    bool is_text = false;
  };
  using Record = std::vector<Field>;

  // Appends `record` to `section` (sections appear in first-use order).
  void AddRecord(const std::string& section, const Record& record);

  // Serializes all sections, e.g. {"section": [{"k": 1, ...}, ...], ...}.
  std::string ToJson() const;

  // Writes ToJson() to `path`. Returns false (and prints to stderr) on I/O
  // failure.
  bool WriteFile(const std::string& path) const;

 private:
  std::vector<std::pair<std::string, std::vector<Record>>> sections_;
};

}  // namespace remedy::bench

#endif  // REMEDY_BENCH_BENCH_COMMON_H_
