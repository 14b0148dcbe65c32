#ifndef REMEDY_DATA_LOADER_H_
#define REMEDY_DATA_LOADER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/csv.h"
#include "common/status.h"
#include "data/dataset.h"

namespace remedy {

// CSV import with schema inference — the entry point for running the
// library on real tabular data (e.g. the original Adult / COMPAS / Law
// School files, when available).
//
// Column typing follows the paper's "standard pre-processing": columns
// whose non-empty values all parse as finite numbers and exceed
// `categorical_numeric_limit` distinct values are treated as continuous and
// quantile-bucketized into `numeric_buckets` ordinal buckets; everything
// else is categorical with the observed value set as its domain. A field
// reading "nan", "inf" or a magnitude beyond double's range is not a finite
// number, so its column stays categorical. Rows with missing values (empty
// or "?" fields, after trimming whitespace) are dropped, as in the paper.
//
// Structurally malformed records (ragged width, unterminated quotes) are
// governed by `on_bad_row`: fail the load, quarantine them with a report and
// a corruption circuit breaker, or silently drop them.

// What to do with a structurally malformed CSV record.
enum class BadRowPolicy {
  kFail,        // first bad record fails the load with kDataCorruption
  kQuarantine,  // divert bad records, report them, trip the circuit breaker
                // when their fraction exceeds max_quarantine_fraction
  kDrop,        // divert bad records silently (reported count only)
};

struct LoaderOptions {
  // Attribute names forming the protected set X. Must be header names.
  std::vector<std::string> protected_attributes;
  // Label column name; empty means the last column.
  std::string label_column;
  // The label value mapped to 1; every other value maps to 0.
  std::string positive_label = "1";
  // Quantile buckets for continuous columns: those whose every value is a
  // finite number ("nan" and "inf" are not).
  int numeric_buckets = 4;
  // Numeric columns with at most this many distinct values stay categorical
  // (e.g. a 0/1 flag encoded as numbers).
  int categorical_numeric_limit = 10;
  // Upper bound on a categorical column's domain; beyond it the rarest
  // values are pooled into an "<other>" value to keep the lattice tractable.
  // Must be at least 1 (kInvalidArgument otherwise).
  int max_categories = 24;
  BadRowPolicy on_bad_row = BadRowPolicy::kFail;
  // Circuit breaker for kQuarantine: when more than this fraction of the
  // parsed records is malformed the file is judged corrupt, not merely
  // scuffed, and the load fails with kDataCorruption.
  double max_quarantine_fraction = 0.05;
};

// Where and why the quarantined records were refused.
struct QuarantineReport {
  // Up to this many concrete bad records are kept as examples; the counters
  // below always cover all of them.
  static constexpr int kMaxExamples = 10;

  int64_t rows_quarantined = 0;
  double fraction = 0.0;  // quarantined / all records seen
  std::vector<CsvBadRow> examples;
};

// Statistics of one load, for sanity reporting.
struct LoaderReport {
  int rows_loaded = 0;
  int rows_dropped_missing = 0;
  int64_t rows_quarantined = 0;  // structurally malformed records diverted
  int numeric_columns = 0;
  int categorical_columns = 0;
  int pooled_columns = 0;  // columns that needed an "<other>" value
};

// Builds a dataset from a parsed CSV table (header required). Fails with
// kDataCorruption on malformed input, kInvalidArgument on unknown
// protected/label names or a non-binary outcome after mapping.
StatusOr<Dataset> BuildDataset(const CsvTable& table,
                               const LoaderOptions& options,
                               LoaderReport* report = nullptr,
                               QuarantineReport* quarantine = nullptr);

// Reads and builds from a CSV file. On `on_bad_row` != kFail the parse runs
// in tolerant mode and the diverted records flow into `quarantine`.
StatusOr<Dataset> LoadCsvDataset(const std::string& path,
                                 const LoaderOptions& options,
                                 LoaderReport* report = nullptr,
                                 QuarantineReport* quarantine = nullptr);

}  // namespace remedy

#endif  // REMEDY_DATA_LOADER_H_
