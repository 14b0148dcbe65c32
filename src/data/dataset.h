#ifndef REMEDY_DATA_DATASET_H_
#define REMEDY_DATA_DATASET_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/csv.h"
#include "common/rng.h"
#include "data/schema.h"

namespace remedy {

// Column-major categorical dataset with binary labels and per-instance
// weights.
//
// Cells hold value codes into the corresponding AttributeSchema domain.
// Labels are 0 (negative) / 1 (positive). Weights default to 1 and are used
// by the reweighting baselines and weight-aware learners.
class Dataset {
 public:
  Dataset() = default;
  explicit Dataset(DataSchema schema);

  const DataSchema& schema() const { return schema_; }

  // Replaces the protected-attribute set (e.g. to widen X for scalability
  // experiments); row data is untouched.
  void SetProtected(const std::vector<std::string>& names);

  int NumRows() const { return static_cast<int>(labels_.size()); }
  int NumColumns() const { return schema_.NumAttributes(); }

  // Appends one row. `values[c]` must be a valid code for attribute c.
  void AddRow(const std::vector<int>& values, int label, double weight = 1.0);

  // Duplicates row `row` of `source` into this dataset (schemas must have the
  // same attribute count). Used by the sampling remedies.
  void AppendRowFrom(const Dataset& source, int row);

  int Value(int row, int column) const {
    return columns_[column][static_cast<size_t>(row)];
  }
  int Label(int row) const { return labels_[static_cast<size_t>(row)]; }
  double Weight(int row) const { return weights_[static_cast<size_t>(row)]; }

  void SetLabel(int row, int label);
  void SetWeight(int row, double weight);

  // All attribute codes of one row (decoded from column-major storage).
  std::vector<int> Row(int row) const;

  // Dataset restricted to `rows` (in the given order).
  Dataset Select(const std::vector<int>& rows) const;

  // Dataset with `rows` removed.
  Dataset Remove(const std::vector<int>& rows) const;

  // Dataset restricted to the rows with keep[row] != 0, in row order — the
  // one-pass, column-major compaction of a tombstone mask. `keep` must have
  // exactly NumRows() entries.
  Dataset Compact(const std::vector<char>& keep) const;

  // Appends every row of `other`. Schemas must have the same attribute count.
  void Append(const Dataset& other);

  // Random split into (train, test) with `train_fraction` of rows in train.
  std::pair<Dataset, Dataset> TrainTestSplit(double train_fraction,
                                             Rng& rng) const;

  // Uniform sample of `count` rows without replacement.
  Dataset SampleRows(int count, Rng& rng) const;

  int PositiveCount() const;
  int NegativeCount() const;
  double TotalWeight() const;

  // CSV round-trip using value names; the label is the last column.
  CsvTable ToCsv() const;
  // Parses rows of a CSV back into a dataset under `schema`. Returns false
  // and sets *error on unknown values or bad labels.
  static bool FromCsv(const DataSchema& schema, const CsvTable& table,
                      Dataset* dataset, std::string* error);

 private:
  DataSchema schema_;
  std::vector<std::vector<int32_t>> columns_;
  std::vector<int8_t> labels_;
  std::vector<double> weights_;
};

}  // namespace remedy

#endif  // REMEDY_DATA_DATASET_H_
