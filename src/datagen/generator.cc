#include "datagen/generator.h"

#include <cmath>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/csv.h"
#include "common/rng.h"

namespace remedy {
namespace {

// The label model compiled for the row loop: label terms as written, and
// each injection reduced to its constrained (attribute, value) pairs.
// Terms, then injections, are added in spec order, so the logit is the
// same double the spec's definition gives.
class CompiledLogit {
 public:
  explicit CompiledLogit(const SyntheticSpec& spec)
      : base_(spec.base_logit), terms_(spec.label_terms) {
    for (const BiasInjection& injection : spec.injections) {
      Injection compiled{{}, injection.logit_boost};
      for (size_t i = 0; i < injection.pattern.size(); ++i) {
        if (injection.pattern[i] >= 0) {
          compiled.pairs.push_back({static_cast<int>(i), injection.pattern[i]});
        }
      }
      injections_.push_back(std::move(compiled));
    }
  }

  double Evaluate(const int* values) const {
    double logit = base_;
    for (const LabelTerm& term : terms_) {
      if (values[term.attribute] == term.value) logit += term.coefficient;
    }
    for (const Injection& injection : injections_) {
      bool matches = true;
      for (const auto& [attribute, value] : injection.pairs) {
        matches &= values[attribute] == value;
      }
      if (matches) logit += injection.boost;
    }
    return logit;
  }

 private:
  struct Injection {
    std::vector<std::pair<int, int>> pairs;  // (attribute, value)
    double boost;
  };
  double base_;
  std::vector<LabelTerm> terms_;
  std::vector<Injection> injections_;
};

// One attribute's sampler: per weight row (one per parent value, or just
// the marginal) the running prefix sums of the weights, summed in
// declaration order so every prefix and the total (the last prefix) is the
// double a linear scan would compute. With non-negative weights the prefix
// sums never decrease, so the number of prefixes a draw is not below is the
// index of the first prefix above it — the scan's answer — found without
// branches.
class AttributeSampler {
 public:
  explicit AttributeSampler(const AttributeSpec& attribute)
      : parent_(attribute.parent),
        cardinality_(attribute.schema.Cardinality()) {
    auto add_row = [this](const std::vector<double>& weights) {
      double total = 0.0;
      int last_positive = cardinality_ - 1;
      for (int v = 0; v < cardinality_; ++v) {
        total += weights[v];
        cumulative_.push_back(total);
        if (weights[v] > 0.0) last_positive = v;
      }
      last_positive_.push_back(last_positive);
    };
    if (parent_ < 0) {
      add_row(attribute.marginal);
    } else {
      for (const std::vector<double>& row : attribute.conditional) {
        add_row(row);
      }
    }
  }

  // The value drawn by uniform `u` given the row's earlier values.
  int Draw(const int* values, double u) const {
    const int row = parent_ >= 0 ? values[parent_] : 0;
    const double* cumulative = &cumulative_[row * cardinality_];
    const double draw = u * cumulative[cardinality_ - 1];
    int index = 0;
    for (int v = 0; v < cardinality_; ++v) index += draw >= cumulative[v];
    // Floating-point slack (draw == total): the last positive weight.
    return index < cardinality_ ? index : last_positive_[row];
  }

 private:
  int parent_;
  int cardinality_;
  std::vector<double> cumulative_;  // weight rows x cardinality
  std::vector<int> last_positive_;
};

// The one row loop every generator entry point runs: samples attributes in
// declaration order, then the label, and hands each row to `sink`. A single
// shared loop is what makes the streaming forms bit-identical to
// GenerateSynthetic — the RNG is consumed in exactly one order. The spec is
// compiled once; the loop itself only indexes tables.
template <typename RowSink>
void GenerateRows(const SyntheticSpec& spec, uint64_t seed, RowSink&& sink) {
  spec.Validate();
  const std::vector<AttributeSampler> samplers(spec.attributes.begin(),
                                               spec.attributes.end());
  const CompiledLogit logit(spec);
  Rng rng(seed);
  std::vector<int> values(samplers.size());
  for (int r = 0; r < spec.num_rows; ++r) {
    for (size_t i = 0; i < samplers.size(); ++i) {
      values[i] = samplers[i].Draw(values.data(), rng.Uniform());
    }
    const double p = 1.0 / (1.0 + std::exp(-logit.Evaluate(values.data())));
    sink(values, rng.Bernoulli(p) ? 1 : 0);
  }
}

}  // namespace

double LabelLogit(const SyntheticSpec& spec, const std::vector<int>& values) {
  return CompiledLogit(spec).Evaluate(values.data());
}

Dataset GenerateSynthetic(const SyntheticSpec& spec, uint64_t seed) {
  Dataset data(spec.MakeSchema());
  GenerateRows(spec, seed, [&data](const std::vector<int>& values, int label) {
    data.AddRow(values, label);
  });
  return data;
}

void GenerateSyntheticChunks(
    const SyntheticSpec& spec, uint64_t seed, int64_t chunk_rows,
    const std::function<void(const Dataset&)>& sink) {
  REMEDY_CHECK(chunk_rows > 0) << "chunk_rows must be positive";
  DataSchema schema = spec.MakeSchema();
  Dataset chunk(schema);
  GenerateRows(spec, seed, [&](const std::vector<int>& values, int label) {
    chunk.AddRow(values, label);
    if (chunk.NumRows() >= chunk_rows) {
      sink(chunk);
      chunk = Dataset(schema);
    }
  });
  if (chunk.NumRows() > 0) sink(chunk);
}

ColumnarShardStore GenerateSyntheticStore(const SyntheticSpec& spec,
                                          uint64_t seed, int64_t shard_rows) {
  ColumnarShardStoreBuilder builder(spec.MakeSchema(), shard_rows);
  GenerateRows(spec, seed,
               [&builder](const std::vector<int>& values, int label) {
                 builder.AddRow(values, label);
               });
  return builder.Finish();
}

StatusOr<ColumnarShardStore> GenerateSyntheticSpilledStore(
    const SyntheticSpec& spec, uint64_t seed, const std::string& dir,
    int64_t shard_rows) {
  ColumnarShardStoreBuilder builder(spec.MakeSchema(), shard_rows);
  RETURN_IF_ERROR(builder.EnableSpill(dir));
  GenerateRows(spec, seed,
               [&builder](const std::vector<int>& values, int label) {
                 builder.AddRow(values, label);
               });
  return builder.FinishSpilled();
}

Status GenerateSyntheticCsvFile(const SyntheticSpec& spec, uint64_t seed,
                                const std::string& path, int64_t chunk_rows) {
  REMEDY_CHECK(chunk_rows > 0) << "chunk_rows must be positive";
  std::ofstream out(path, std::ios::trunc);
  if (!out) return IoError("cannot open '" + path + "' for writing");
  // Every value's field text, quoted once; records are then just copies.
  const DataSchema schema = spec.MakeSchema();
  std::vector<std::vector<std::string>> fields(schema.NumAttributes());
  std::string buffer;
  for (int c = 0; c < schema.NumAttributes(); ++c) {
    const AttributeSchema& attribute = schema.attribute(c);
    for (int v = 0; v < attribute.Cardinality(); ++v) {
      AppendCsvField(attribute.ValueName(v), &fields[c].emplace_back());
    }
    AppendCsvField(attribute.name(), &buffer);
    buffer.push_back(',');
  }
  AppendCsvField(schema.label_name(), &buffer);
  buffer.push_back('\n');
  int64_t buffered_rows = 0;
  GenerateRows(spec, seed, [&](const std::vector<int>& values, int label) {
    for (size_t c = 0; c < values.size(); ++c) {
      buffer.append(fields[c][values[c]]);
      buffer.push_back(',');
    }
    buffer.push_back(label ? '1' : '0');
    buffer.push_back('\n');
    if (++buffered_rows == chunk_rows) {
      out.write(buffer.data(), static_cast<std::streamsize>(buffer.size()));
      buffer.clear();
      buffered_rows = 0;
    }
  });
  out.write(buffer.data(), static_cast<std::streamsize>(buffer.size()));
  out.close();
  if (!out) return IoError("write to '" + path + "' failed");
  return OkStatus();
}

}  // namespace remedy
