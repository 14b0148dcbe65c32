#include "data/dataset.h"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "common/check.h"

namespace remedy {

Dataset::Dataset(DataSchema schema) : schema_(std::move(schema)) {
  columns_.resize(schema_.NumAttributes());
}

void Dataset::SetProtected(const std::vector<std::string>& names) {
  schema_ = schema_.WithProtected(names);
}

void Dataset::AddRow(const std::vector<int>& values, int label,
                     double weight) {
  REMEDY_CHECK(static_cast<int>(values.size()) == NumColumns())
      << "row width " << values.size() << " != " << NumColumns();
  REMEDY_CHECK(label == 0 || label == 1) << "label must be binary";
  for (int c = 0; c < NumColumns(); ++c) {
    REMEDY_DCHECK(values[c] >= 0 &&
                  values[c] < schema_.attribute(c).Cardinality());
    columns_[c].push_back(values[c]);
  }
  labels_.push_back(static_cast<int8_t>(label));
  weights_.push_back(weight);
}

void Dataset::AppendRowFrom(const Dataset& source, int row) {
  REMEDY_CHECK(source.NumColumns() == NumColumns());
  REMEDY_CHECK(row >= 0 && row < source.NumRows());
  for (int c = 0; c < NumColumns(); ++c) {
    columns_[c].push_back(source.columns_[c][row]);
  }
  labels_.push_back(source.labels_[row]);
  weights_.push_back(source.weights_[row]);
}

void Dataset::SetLabel(int row, int label) {
  REMEDY_CHECK(row >= 0 && row < NumRows());
  REMEDY_CHECK(label == 0 || label == 1);
  labels_[row] = static_cast<int8_t>(label);
}

void Dataset::SetWeight(int row, double weight) {
  REMEDY_CHECK(row >= 0 && row < NumRows());
  REMEDY_CHECK(weight >= 0.0);
  weights_[row] = weight;
}

std::vector<int> Dataset::Row(int row) const {
  REMEDY_CHECK(row >= 0 && row < NumRows());
  std::vector<int> values(NumColumns());
  for (int c = 0; c < NumColumns(); ++c) values[c] = columns_[c][row];
  return values;
}

Dataset Dataset::Select(const std::vector<int>& rows) const {
  Dataset result(schema_);
  for (int c = 0; c < NumColumns(); ++c) {
    result.columns_[c].reserve(rows.size());
  }
  for (int row : rows) {
    REMEDY_CHECK(row >= 0 && row < NumRows());
    result.AppendRowFrom(*this, row);
  }
  return result;
}

Dataset Dataset::Remove(const std::vector<int>& rows) const {
  std::vector<char> dropped(NumRows(), 0);
  for (int row : rows) {
    REMEDY_CHECK(row >= 0 && row < NumRows());
    dropped[row] = 1;
  }
  std::vector<int> kept;
  kept.reserve(NumRows() - rows.size());
  for (int r = 0; r < NumRows(); ++r) {
    if (!dropped[r]) kept.push_back(r);
  }
  return Select(kept);
}

Dataset Dataset::Compact(const std::vector<char>& keep) const {
  REMEDY_CHECK(static_cast<int>(keep.size()) == NumRows());
  int kept = 0;
  for (char k : keep) kept += (k != 0);
  Dataset result(schema_);
  for (int c = 0; c < NumColumns(); ++c) {
    result.columns_[c].reserve(kept);
    for (int r = 0; r < NumRows(); ++r) {
      if (keep[r]) result.columns_[c].push_back(columns_[c][r]);
    }
  }
  result.labels_.reserve(kept);
  result.weights_.reserve(kept);
  for (int r = 0; r < NumRows(); ++r) {
    if (keep[r]) {
      result.labels_.push_back(labels_[r]);
      result.weights_.push_back(weights_[r]);
    }
  }
  return result;
}

void Dataset::Append(const Dataset& other) {
  REMEDY_CHECK(other.NumColumns() == NumColumns());
  for (int r = 0; r < other.NumRows(); ++r) AppendRowFrom(other, r);
}

std::pair<Dataset, Dataset> Dataset::TrainTestSplit(double train_fraction,
                                                    Rng& rng) const {
  REMEDY_CHECK(train_fraction > 0.0 && train_fraction < 1.0);
  std::vector<int> order(NumRows());
  std::iota(order.begin(), order.end(), 0);
  rng.Shuffle(order);
  int train_size = static_cast<int>(NumRows() * train_fraction);
  train_size = std::clamp(train_size, 1, NumRows() - 1);
  std::vector<int> train_rows(order.begin(), order.begin() + train_size);
  std::vector<int> test_rows(order.begin() + train_size, order.end());
  return {Select(train_rows), Select(test_rows)};
}

Dataset Dataset::SampleRows(int count, Rng& rng) const {
  REMEDY_CHECK(count >= 0 && count <= NumRows());
  return Select(rng.SampleWithoutReplacement(NumRows(), count));
}

int Dataset::PositiveCount() const {
  int count = 0;
  for (int8_t label : labels_) count += label;
  return count;
}

int Dataset::NegativeCount() const { return NumRows() - PositiveCount(); }

double Dataset::TotalWeight() const {
  return std::accumulate(weights_.begin(), weights_.end(), 0.0);
}

CsvTable Dataset::ToCsv() const {
  CsvTable table;
  for (const AttributeSchema& attr : schema_.attributes()) {
    table.header.push_back(attr.name());
  }
  table.header.push_back(schema_.label_name());
  table.rows.reserve(NumRows());
  for (int r = 0; r < NumRows(); ++r) {
    std::vector<std::string> row;
    row.reserve(NumColumns() + 1);
    for (int c = 0; c < NumColumns(); ++c) {
      row.push_back(schema_.attribute(c).ValueName(Value(r, c)));
    }
    row.push_back(Label(r) ? "1" : "0");
    table.rows.push_back(std::move(row));
  }
  return table;
}

bool Dataset::FromCsv(const DataSchema& schema, const CsvTable& table,
                      Dataset* dataset, std::string* error) {
  *dataset = Dataset(schema);
  const int num_attrs = schema.NumAttributes();
  for (size_t r = 0; r < table.rows.size(); ++r) {
    const auto& row = table.rows[r];
    if (static_cast<int>(row.size()) != num_attrs + 1) {
      std::ostringstream msg;
      msg << "row " << r << " has " << row.size() << " fields, expected "
          << num_attrs + 1;
      *error = msg.str();
      return false;
    }
    std::vector<int> values(num_attrs);
    for (int c = 0; c < num_attrs; ++c) {
      values[c] = schema.attribute(c).ValueIndex(row[c]);
      if (values[c] < 0) {
        *error = "row " + std::to_string(r) + ": unknown value '" + row[c] +
                 "' for attribute " + schema.attribute(c).name();
        return false;
      }
    }
    const std::string& label = row[num_attrs];
    if (label != "0" && label != "1") {
      *error = "row " + std::to_string(r) + ": bad label '" + label + "'";
      return false;
    }
    dataset->AddRow(values, label == "1" ? 1 : 0);
  }
  return true;
}

}  // namespace remedy
