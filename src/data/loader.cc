#include "data/loader.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <numeric>
#include <string_view>
#include <unordered_map>

#include "common/fault_injection.h"
#include "common/pipeline_metrics.h"
#include "common/string_util.h"
#include "common/trace.h"
#include "data/discretize.h"

namespace remedy {
namespace {

constexpr char kOtherValue[] = "<other>";

// Parses the whole of `text` as a finite number. strtod also reads "nan",
// "inf" and out-of-range magnitudes (as infinities); a column holding them
// stays categorical, so the quantile cut points never see a NaN.
bool ParseFiniteNumber(std::string_view text, double* value) {
  if (text.empty()) return false;
  const std::string copy(text);
  char* end = nullptr;
  *value = std::strtod(copy.c_str(), &end);
  return end == copy.c_str() + copy.size() && std::isfinite(*value);
}

// One column's trimmed values interned in one pass: each distinct value
// once, in first-seen order, with its count, and every kept row's value id.
// The views point into the CsvTable.
struct InternedColumn {
  std::vector<std::string_view> values;  // by id
  std::vector<int> counts;               // by id
  std::vector<int> ids;                  // by kept row
};

InternedColumn InternColumn(
    const std::vector<const std::vector<std::string>*>& rows, int column) {
  InternedColumn interned;
  interned.ids.reserve(rows.size());
  std::unordered_map<std::string_view, int> index;
  for (const auto* row : rows) {
    const std::string_view value = TrimView((*row)[column]);
    const auto [it, inserted] =
        index.try_emplace(value, static_cast<int>(interned.values.size()));
    if (inserted) {
      interned.values.push_back(value);
      interned.counts.push_back(0);
    }
    ++interned.counts[it->second];
    interned.ids.push_back(it->second);
  }
  return interned;
}

struct ColumnPlan {
  bool numeric = false;
  bool pooled = false;
  AttributeSchema schema;
  // Code of every interned value id (pooled values map to "<other>").
  std::vector<int> codes;
};

// Decides the type and domain of one column from its (trimmed, non-missing)
// values.
ColumnPlan PlanColumn(const std::string& name, const InternedColumn& column,
                      const LoaderOptions& options) {
  ColumnPlan plan;
  const int distinct = static_cast<int>(column.values.size());
  plan.codes.resize(distinct);

  // Numeric if every value parses and the distinct count is large enough.
  // Each distinct string parses once; "1" and "1.0" are one number.
  std::vector<double> numbers(distinct);
  bool all_numeric = true;
  for (int id = 0; id < distinct && all_numeric; ++id) {
    all_numeric = ParseFiniteNumber(column.values[id], &numbers[id]);
  }
  if (all_numeric) {
    std::vector<double> sorted = numbers;
    std::sort(sorted.begin(), sorted.end());
    const int distinct_numbers = static_cast<int>(
        std::unique(sorted.begin(), sorted.end()) - sorted.begin());
    if (distinct_numbers > options.categorical_numeric_limit) {
      // The quantiles are taken over every row's number, in row order.
      std::vector<double> row_numbers(column.ids.size());
      for (size_t k = 0; k < column.ids.size(); ++k) {
        row_numbers[k] = numbers[column.ids[k]];
      }
      const Bucketizer bucketizer =
          Bucketizer::Quantile(name, row_numbers, options.numeric_buckets);
      plan.numeric = true;
      plan.schema = bucketizer.MakeSchema();
      for (int id = 0; id < distinct; ++id) {
        plan.codes[id] = bucketizer.Code(numbers[id]);
      }
      return plan;
    }
  }

  // Categorical: domain = observed values by descending frequency, ties by
  // ascending value, pooling the tail into "<other>" beyond max_categories.
  std::vector<int> ranked(distinct);
  std::iota(ranked.begin(), ranked.end(), 0);
  std::sort(ranked.begin(), ranked.end(), [&](int a, int b) {
    if (column.counts[a] != column.counts[b]) {
      return column.counts[a] > column.counts[b];
    }
    return column.values[a] < column.values[b];
  });

  std::vector<std::string> domain;
  int keep = distinct;
  if (keep > options.max_categories) {
    keep = options.max_categories - 1;  // reserve a slot for "<other>"
    plan.pooled = true;
  }
  for (int i = 0; i < keep; ++i) {
    plan.codes[ranked[i]] = i;
    domain.emplace_back(column.values[ranked[i]]);
  }
  if (plan.pooled) {
    const int other = static_cast<int>(domain.size());
    domain.push_back(kOtherValue);
    for (int i = keep; i < distinct; ++i) plan.codes[ranked[i]] = other;
  }
  plan.schema = AttributeSchema(name, std::move(domain));
  return plan;
}

// Settles the table's diverted records against the policy: fail, trip the
// corruption circuit breaker, or account for them and move on.
Status SettleBadRows(const CsvTable& table, const LoaderOptions& options,
                     LoaderReport* report, QuarantineReport* quarantine) {
  const int64_t bad = static_cast<int64_t>(table.bad_rows.size());
  if (bad == 0) return OkStatus();
  if (options.on_bad_row == BadRowPolicy::kFail) {
    // Normally unreachable via LoadCsvDataset (strict parse fails first);
    // covers callers handing a tolerantly parsed table to BuildDataset.
    const CsvBadRow& first = table.bad_rows.front();
    return DataCorruptionError("line " + std::to_string(first.line) + ": " +
                               first.reason);
  }
  const int64_t seen = bad + static_cast<int64_t>(table.rows.size());
  const double fraction =
      seen > 0 ? static_cast<double>(bad) / static_cast<double>(seen) : 1.0;
  report->rows_quarantined = bad;
  if (quarantine != nullptr) {
    quarantine->rows_quarantined = bad;
    quarantine->fraction = fraction;
    const int64_t keep =
        std::min<int64_t>(bad, QuarantineReport::kMaxExamples);
    quarantine->examples.assign(table.bad_rows.begin(),
                                table.bad_rows.begin() + keep);
  }
  if (options.on_bad_row == BadRowPolicy::kQuarantine &&
      fraction > options.max_quarantine_fraction) {
    return DataCorruptionError(
        "quarantined " + std::to_string(bad) + " of " + std::to_string(seen) +
        " records (" + std::to_string(fraction) +
        "), above max_quarantine_fraction=" +
        std::to_string(options.max_quarantine_fraction));
  }
  return OkStatus();
}

}  // namespace

StatusOr<Dataset> BuildDataset(const CsvTable& table,
                               const LoaderOptions& options,
                               LoaderReport* report_out,
                               QuarantineReport* quarantine) {
  REMEDY_FAULT_POINT("loader/build");
  REMEDY_TRACE_SPAN("loader/build_dataset");
  if (options.max_categories < 1) {
    // Every categorical domain needs at least its "<other>" slot.
    return InvalidArgumentError("max_categories must be at least 1");
  }
  LoaderReport report;
  RETURN_IF_ERROR(SettleBadRows(table, options, &report, quarantine));
  if (table.header.empty()) {
    return DataCorruptionError("CSV has no header");
  }
  const int width = static_cast<int>(table.header.size());

  // Locate the label column.
  int label_column = width - 1;
  if (!options.label_column.empty()) {
    label_column = -1;
    for (int c = 0; c < width; ++c) {
      if (table.header[c] == options.label_column) label_column = c;
    }
    if (label_column < 0) {
      return InvalidArgumentError("label column '" + options.label_column +
                                  "' not found");
    }
  }

  // Drop rows with missing values (the paper's pre-processing).
  std::vector<const std::vector<std::string>*> rows;
  rows.reserve(table.rows.size());
  for (const auto& row : table.rows) {
    bool missing = false;
    for (const std::string& field : row) {
      const std::string_view value = TrimView(field);
      if (value.empty() || value == "?") {
        missing = true;
        break;
      }
    }
    if (missing) {
      ++report.rows_dropped_missing;
    } else {
      rows.push_back(&row);
    }
  }
  if (rows.empty()) {
    return DataCorruptionError("no complete rows in the CSV");
  }

  // Plan every feature column, then turn its value ids into codes.
  std::vector<ColumnPlan> plans;
  std::vector<int> feature_columns;
  std::vector<std::vector<int>> column_codes;
  for (int c = 0; c < width; ++c) {
    if (c == label_column) continue;
    feature_columns.push_back(c);
    InternedColumn interned = InternColumn(rows, c);
    plans.push_back(PlanColumn(table.header[c], interned, options));
    const ColumnPlan& plan = plans.back();
    for (int& id : interned.ids) id = plan.codes[id];
    column_codes.push_back(std::move(interned.ids));
    if (plan.numeric) {
      ++report.numeric_columns;
    } else {
      ++report.categorical_columns;
      report.pooled_columns += plan.pooled;
    }
  }

  // Resolve the protected set.
  std::vector<int> protected_indices;
  for (const std::string& name : options.protected_attributes) {
    int found = -1;
    for (size_t i = 0; i < feature_columns.size(); ++i) {
      if (table.header[feature_columns[i]] == name) {
        found = static_cast<int>(i);
      }
    }
    if (found < 0) {
      return InvalidArgumentError("protected attribute '" + name +
                                  "' not found (or is the label column)");
    }
    protected_indices.push_back(found);
  }

  std::vector<AttributeSchema> attributes;
  attributes.reserve(plans.size());
  for (const ColumnPlan& plan : plans) attributes.push_back(plan.schema);
  std::string label_name = table.header[label_column];
  Dataset dataset(
      DataSchema(std::move(attributes), protected_indices, label_name));

  // Encode the rows.
  int positives = 0;
  std::vector<int> codes(plans.size());
  for (size_t k = 0; k < rows.size(); ++k) {
    for (size_t i = 0; i < plans.size(); ++i) codes[i] = column_codes[i][k];
    const int label =
        TrimView((*rows[k])[label_column]) == options.positive_label ? 1 : 0;
    positives += label;
    dataset.AddRow(codes, label);
  }
  report.rows_loaded = dataset.NumRows();

  if (positives == 0 || positives == dataset.NumRows()) {
    return InvalidArgumentError(
        "labels are constant after mapping positive_label='" +
        options.positive_label + "'");
  }

  const PipelineMetrics& metrics = PipelineMetrics::Get();
  metrics.loader_rows_loaded->Increment(report.rows_loaded);
  metrics.loader_rows_dropped_missing->Increment(report.rows_dropped_missing);
  metrics.loader_rows_quarantined->Increment(report.rows_quarantined);

  if (report_out != nullptr) *report_out = report;
  return dataset;
}

StatusOr<Dataset> LoadCsvDataset(const std::string& path,
                                 const LoaderOptions& options,
                                 LoaderReport* report,
                                 QuarantineReport* quarantine) {
  REMEDY_TRACE_SPAN("loader/load_csv");
  PipelineMetrics::Get().loader_files->Increment();
  CsvReadOptions read_options;
  read_options.parse.has_header = true;
  read_options.parse.tolerate_bad_rows =
      options.on_bad_row != BadRowPolicy::kFail;
  ASSIGN_OR_RETURN(CsvTable table, ReadCsvFile(path, read_options));
  StatusOr<Dataset> built = BuildDataset(table, options, report, quarantine);
  if (!built.ok()) return built.status().WithContext(path);
  return built;
}

}  // namespace remedy
