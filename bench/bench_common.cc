#include "bench_common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/rng.h"
#include "common/string_util.h"
#include "fairness/fairness_index.h"
#include "ml/metrics.h"

namespace remedy::bench {

std::pair<Dataset, Dataset> Split(const Dataset& data, uint64_t seed) {
  Rng rng(seed);
  return data.TrainTestSplit(0.7, rng);
}

EvalResult Evaluate(const Dataset& train, const Dataset& test, ModelType type,
                    uint64_t seed) {
  ClassifierPtr model = MakeClassifier(type, seed);
  model->Fit(train);
  std::vector<int> predictions = model->PredictAll(test);
  EvalResult result;
  result.fairness_index_fpr =
      ComputeFairnessIndex(test, predictions, Statistic::kFpr);
  result.fairness_index_fnr =
      ComputeFairnessIndex(test, predictions, Statistic::kFnr);
  result.accuracy = Accuracy(test, predictions);
  return result;
}

EvalResult Evaluate(const EncodedMatrix& train, const EncodedMatrix& test,
                    ModelType type, uint64_t seed, int threads) {
  ClassifierPtr model = MakeClassifier(type, seed, threads);
  model->FitEncoded(train);
  std::vector<int> predictions = model->PredictAllEncoded(test);
  EvalResult result;
  result.fairness_index_fpr =
      ComputeFairnessIndex(test.data(), predictions, Statistic::kFpr);
  result.fairness_index_fnr =
      ComputeFairnessIndex(test.data(), predictions, Statistic::kFnr);
  result.accuracy = Accuracy(test.data(), predictions);
  return result;
}

void PrintBanner(const std::string& experiment, const std::string& paper_ref,
                 const std::string& expectation) {
  std::printf("==============================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("Reproduces: %s\n", paper_ref.c_str());
  std::printf("Expected shape: %s\n", expectation.c_str());
  std::printf("==============================================================\n\n");
}

std::string FlagValue(int argc, char** argv, const std::string& flag) {
  const std::string joined = flag + "=";
  for (int i = 1; i < argc; ++i) {
    if (flag == argv[i] && i + 1 < argc) return argv[i + 1];
    if (std::string(argv[i]).rfind(joined, 0) == 0) {
      return argv[i] + joined.size();
    }
  }
  return "";
}

std::string JsonPathFromArgs(int argc, char** argv) {
  return FlagValue(argc, argv, "--json");
}

int IntFlagValue(int argc, char** argv, const std::string& flag,
                 int fallback) {
  if (!HasFlag(argc, argv, flag)) return fallback;
  const StatusOr<int> parsed = ParseNumber<int>(FlagValue(argc, argv, flag));
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s: %s\n", argv[0],
                 parsed.status().WithContext("bad " + flag).ToString().c_str());
    std::exit(64);
  }
  return parsed.value();
}

bool HasFlag(int argc, char** argv, const std::string& flag) {
  for (int i = 1; i < argc; ++i) {
    if (flag == argv[i] || std::string(argv[i]).rfind(flag + "=", 0) == 0) {
      return true;
    }
  }
  return false;
}

int64_t PeakRssBytes() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  // Linux reports ru_maxrss in kilobytes.
  return static_cast<int64_t>(usage.ru_maxrss) * 1024;
}

void JsonResultWriter::AddRecord(const std::string& section,
                                 const Record& record) {
  for (auto& [name, records] : sections_) {
    if (name == section) {
      records.push_back(record);
      return;
    }
  }
  sections_.push_back({section, {record}});
}

namespace {

void AppendNumber(std::ostringstream& out, double value) {
  if (std::isfinite(value) && value == std::floor(value) &&
      std::fabs(value) < 1e15) {
    out << static_cast<int64_t>(value);
  } else {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.9g", value);
    out << buffer;
  }
}

}  // namespace

std::string JsonResultWriter::ToJson() const {
  std::ostringstream out;
  out << "{\n";
  for (size_t s = 0; s < sections_.size(); ++s) {
    out << "  \"" << sections_[s].first << "\": [\n";
    const std::vector<Record>& records = sections_[s].second;
    for (size_t r = 0; r < records.size(); ++r) {
      out << "    {";
      for (size_t f = 0; f < records[r].size(); ++f) {
        const Field& field = records[r][f];
        out << "\"" << field.key << "\": ";
        if (field.is_text) {
          out << "\"" << field.text << "\"";
        } else {
          AppendNumber(out, field.number);
        }
        if (f + 1 < records[r].size()) out << ", ";
      }
      out << (r + 1 < records.size() ? "},\n" : "}\n");
    }
    out << (s + 1 < sections_.size() ? "  ],\n" : "  ]\n");
  }
  out << "}\n";
  return out.str();
}

bool JsonResultWriter::WriteFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  out << ToJson();
  return static_cast<bool>(out);
}

SyntheticSpec ServingSpec(int rows) {
  SyntheticSpec spec;
  spec.name = "serve_steady";
  for (int i = 0; i < 8; ++i) {
    const std::string name = "x" + std::to_string(i);
    spec.attributes.push_back(IndependentAttribute(
        AttributeSchema(name, {name + "_0", name + "_1", name + "_2",
                               name + "_3"}),
        {4.0, 3.0, 2.0, 1.0}));
    spec.protected_indices.push_back(i);
  }
  spec.attributes.push_back(IndependentAttribute(
      AttributeSchema("f", {"f0", "f1"}), {1.0, 1.0}));
  spec.num_rows = rows;
  spec.base_logit = -0.4;
  spec.label_terms = {{0, 0, 0.8}, {1, 3, -0.6}, {2, 1, 0.4}};
  spec.injections = {{{0, 1, -1, -1, -1, -1, -1, -1, -1}, 1.2},
                     {{-1, -1, 2, 3, -1, -1, -1, -1, -1}, -1.0}};
  spec.Validate();
  return spec;
}

std::vector<Hierarchy::LeafDelta> IngestBatch(const NodeTable& leaf_table,
                                              int rows, int leaves,
                                              Rng& rng) {
  std::vector<Hierarchy::LeafDelta> deltas;
  const int distinct = std::max(1, leaves);
  const int per_leaf = std::max(1, rows / distinct);
  for (int i = 0; i < distinct; ++i) {
    const uint64_t key =
        std::next(leaf_table.begin(),
                  rng.UniformInt(static_cast<int>(leaf_table.size())))
            ->first;
    const int positives = rng.UniformInt(per_leaf + 1);
    deltas.push_back({key, static_cast<int64_t>(positives),
                      static_cast<int64_t>(per_leaf - positives)});
  }
  // Pre-aggregate duplicates (ApplyDeltas' contract).
  std::sort(deltas.begin(), deltas.end(),
            [](const Hierarchy::LeafDelta& a, const Hierarchy::LeafDelta& b) {
              return a.leaf_key < b.leaf_key;
            });
  std::vector<Hierarchy::LeafDelta> merged;
  for (const Hierarchy::LeafDelta& delta : deltas) {
    if (!merged.empty() && merged.back().leaf_key == delta.leaf_key) {
      merged.back().delta_positives += delta.delta_positives;
      merged.back().delta_negatives += delta.delta_negatives;
    } else {
      merged.push_back(delta);
    }
  }
  return merged;
}

}  // namespace remedy::bench
