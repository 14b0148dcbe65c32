// Differential check of BuildDataset's one-pass categorical planner against
// the string-copying planner it replaced, which lives on here as the oracle:
// every field trimmed into a std::string, counted through a std::map, coded
// through an unordered_map lookup per cell, and every numeric field parsed
// per row. Both read only finite numbers as numbers (the oracle carries the
// same rule, so it checks the planner rather than that rule).
//
// The comparison is exact: schema, codes, labels, weights, LoaderReport and
// the status of failed builds.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "data/discretize.h"
#include "data/loader.h"
#include "datagen/adult.h"

namespace remedy {
namespace {

// ---------------------------------------------------------------------------
// Oracle: the string-copying planner.

bool OracleParseNumber(const std::string& text, double* value) {
  if (text.empty()) return false;
  char* end = nullptr;
  *value = std::strtod(text.c_str(), &end);
  return end == text.c_str() + text.size() && std::isfinite(*value);
}

struct OraclePlan {
  bool numeric = false;
  bool pooled = false;
  AttributeSchema schema;
  Bucketizer bucketizer{"", {}};
  std::unordered_map<std::string, int> codes;
};

OraclePlan OraclePlanColumn(const std::string& name,
                            const std::vector<std::string>& values,
                            const LoaderOptions& options) {
  OraclePlan plan;
  bool all_numeric = true;
  std::vector<double> numbers;
  for (const std::string& value : values) {
    double number;
    if (!OracleParseNumber(value, &number)) {
      all_numeric = false;
      break;
    }
    numbers.push_back(number);
  }
  if (all_numeric) {
    std::vector<double> distinct = numbers;
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    if (static_cast<int>(distinct.size()) >
        options.categorical_numeric_limit) {
      plan.numeric = true;
      plan.bucketizer =
          Bucketizer::Quantile(name, numbers, options.numeric_buckets);
      plan.schema = plan.bucketizer.MakeSchema();
      return plan;
    }
  }
  std::map<std::string, int> frequency;
  for (const std::string& value : values) ++frequency[value];
  std::vector<std::pair<int, std::string>> ranked;
  for (const auto& [value, count] : frequency) ranked.emplace_back(count, value);
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  std::vector<std::string> domain;
  int keep = static_cast<int>(ranked.size());
  if (keep > options.max_categories) {
    keep = options.max_categories - 1;
    plan.pooled = true;
  }
  for (int i = 0; i < keep; ++i) {
    plan.codes[ranked[i].second] = i;
    domain.push_back(ranked[i].second);
  }
  if (plan.pooled) {
    const int other = static_cast<int>(domain.size());
    domain.push_back("<other>");
    for (size_t i = keep; i < ranked.size(); ++i) {
      plan.codes[ranked[i].second] = other;
    }
  }
  plan.schema = AttributeSchema(name, std::move(domain));
  return plan;
}

StatusOr<Dataset> OracleBuildDataset(const CsvTable& table,
                                     const LoaderOptions& options,
                                     LoaderReport* report_out) {
  LoaderReport report;
  const int64_t bad = static_cast<int64_t>(table.bad_rows.size());
  if (bad > 0) {
    if (options.on_bad_row == BadRowPolicy::kFail) {
      const CsvBadRow& first = table.bad_rows.front();
      return DataCorruptionError("line " + std::to_string(first.line) + ": " +
                                 first.reason);
    }
    const int64_t seen = bad + static_cast<int64_t>(table.rows.size());
    const double fraction = static_cast<double>(bad) / seen;
    report.rows_quarantined = bad;
    if (options.on_bad_row == BadRowPolicy::kQuarantine &&
        fraction > options.max_quarantine_fraction) {
      return DataCorruptionError(
          "quarantined " + std::to_string(bad) + " of " +
          std::to_string(seen) + " records (" + std::to_string(fraction) +
          "), above max_quarantine_fraction=" +
          std::to_string(options.max_quarantine_fraction));
    }
  }
  if (table.header.empty()) return DataCorruptionError("CSV has no header");
  const int width = static_cast<int>(table.header.size());
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
  std::vector<const std::vector<std::string>*> rows;
  for (const auto& row : table.rows) {
    bool missing = false;
    for (const std::string& field : row) {
      if (Trim(field).empty() || Trim(field) == "?") missing = true;
    }
    if (missing) {
      ++report.rows_dropped_missing;
    } else {
      rows.push_back(&row);
    }
  }
  if (rows.empty()) return DataCorruptionError("no complete rows in the CSV");

  std::vector<OraclePlan> plans;
  std::vector<int> feature_columns;
  for (int c = 0; c < width; ++c) {
    if (c == label_column) continue;
    feature_columns.push_back(c);
    std::vector<std::string> values;
    for (const auto* row : rows) values.push_back(Trim((*row)[c]));
    plans.push_back(OraclePlanColumn(table.header[c], values, options));
    if (plans.back().numeric) {
      ++report.numeric_columns;
    } else {
      ++report.categorical_columns;
      report.pooled_columns += plans.back().pooled;
    }
  }
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
  for (const OraclePlan& plan : plans) attributes.push_back(plan.schema);
  Dataset dataset(DataSchema(std::move(attributes), protected_indices,
                             table.header[label_column]));
  int positives = 0;
  for (const auto* row : rows) {
    std::vector<int> codes(plans.size());
    for (size_t i = 0; i < plans.size(); ++i) {
      const std::string value = Trim((*row)[feature_columns[i]]);
      if (plans[i].numeric) {
        double number = 0.0;
        EXPECT_TRUE(OracleParseNumber(value, &number)) << value;
        codes[i] = plans[i].bucketizer.Code(number);
      } else {
        codes[i] = plans[i].codes.at(value);
      }
    }
    const int label =
        Trim((*row)[label_column]) == options.positive_label ? 1 : 0;
    positives += label;
    dataset.AddRow(codes, label);
  }
  report.rows_loaded = dataset.NumRows();
  if (positives == 0 || positives == dataset.NumRows()) {
    return InvalidArgumentError(
        "labels are constant after mapping positive_label='" +
        options.positive_label + "'");
  }
  *report_out = report;
  return dataset;
}

// ---------------------------------------------------------------------------
// Comparison.

void ExpectSameBuild(const CsvTable& table, const LoaderOptions& options,
                     const std::string& context) {
  LoaderReport report, expected_report;
  const StatusOr<Dataset> built = BuildDataset(table, options, &report);
  const StatusOr<Dataset> expected =
      OracleBuildDataset(table, options, &expected_report);
  ASSERT_EQ(built.ok(), expected.ok())
      << context << ": " << built.status().ToString() << " vs "
      << expected.status().ToString();
  if (!built.ok()) {
    EXPECT_EQ(built.status().ToString(), expected.status().ToString())
        << context;
    return;
  }
  EXPECT_EQ(report.rows_loaded, expected_report.rows_loaded) << context;
  EXPECT_EQ(report.rows_dropped_missing, expected_report.rows_dropped_missing)
      << context;
  EXPECT_EQ(report.rows_quarantined, expected_report.rows_quarantined)
      << context;
  EXPECT_EQ(report.numeric_columns, expected_report.numeric_columns)
      << context;
  EXPECT_EQ(report.categorical_columns, expected_report.categorical_columns)
      << context;
  EXPECT_EQ(report.pooled_columns, expected_report.pooled_columns) << context;

  const Dataset& data = built.value();
  const Dataset& oracle = expected.value();
  const DataSchema& schema = data.schema();
  ASSERT_EQ(schema.NumAttributes(), oracle.schema().NumAttributes())
      << context;
  for (int a = 0; a < schema.NumAttributes(); ++a) {
    const AttributeSchema& attribute = schema.attribute(a);
    const AttributeSchema& want = oracle.schema().attribute(a);
    EXPECT_EQ(attribute.name(), want.name()) << context;
    EXPECT_EQ(attribute.values(), want.values()) << context << " " << a;
    EXPECT_EQ(attribute.ordinal(), want.ordinal()) << context << " " << a;
  }
  EXPECT_EQ(schema.protected_indices(), oracle.schema().protected_indices())
      << context;
  EXPECT_EQ(schema.label_name(), oracle.schema().label_name()) << context;
  ASSERT_EQ(data.NumRows(), oracle.NumRows()) << context;
  for (int r = 0; r < data.NumRows(); ++r) {
    ASSERT_EQ(data.Label(r), oracle.Label(r)) << context << " row=" << r;
    ASSERT_EQ(data.Weight(r), oracle.Weight(r)) << context << " row=" << r;
    for (int c = 0; c < data.NumColumns(); ++c) {
      ASSERT_EQ(data.Value(r, c), oracle.Value(r, c))
          << context << " row=" << r << " column=" << c;
    }
  }
}

CsvTable Parse(const std::string& csv, bool tolerant = false) {
  CsvParseOptions parse;
  parse.tolerate_bad_rows = tolerant;
  return ParseCsv(csv, parse).value();
}

// ---------------------------------------------------------------------------
// Inputs.

TEST(LoaderOracleTest, MutatedCsvMatchesOracle) {
  // The fuzz base of LoaderFuzzTest plus a numeric column above the
  // categorical limit, so damage lands in both planners' paths.
  std::string base = "color,size,age,label\n";
  Rng make(7);
  for (int i = 0; i < 60; ++i) {
    base += make.UniformInt(2) ? "red," : "blue,";
    base += make.UniformInt(2) ? "big," : "small,";
    base += std::to_string(18 + make.UniformInt(50)) + ",";
    base += std::to_string(make.UniformInt(2)) + "\n";
  }
  const char kNoise[] = {',', '"', '\n', '\r', '\0', 'x', '\xFF', '\x01',
                         ' ', '?', '.', '5'};
  Rng rng(4321);
  int compared = 0;
  for (int trial = 0; trial < 200; ++trial) {
    std::string mutated = base;
    const int edits = 1 + rng.UniformInt(8);
    for (int e = 0; e < edits; ++e) {
      const size_t pos = static_cast<size_t>(
          rng.UniformInt(static_cast<int>(mutated.size())));
      switch (rng.UniformInt(3)) {
        case 0:
          mutated[pos] = kNoise[rng.UniformInt(12)];
          break;
        case 1:
          mutated.insert(mutated.begin() + pos, kNoise[rng.UniformInt(12)]);
          break;
        default:
          mutated.erase(pos, 1 + rng.UniformInt(5));
          break;
      }
    }
    for (BadRowPolicy policy :
         {BadRowPolicy::kFail, BadRowPolicy::kQuarantine, BadRowPolicy::kDrop}) {
      CsvParseOptions parse;
      parse.tolerate_bad_rows = policy != BadRowPolicy::kFail;
      const StatusOr<CsvTable> table = ParseCsv(mutated, parse);
      if (!table.ok()) continue;
      LoaderOptions options;
      options.on_bad_row = policy;
      options.max_quarantine_fraction = 0.2;
      ExpectSameBuild(table.value(), options,
                      "trial " + std::to_string(trial));
      ++compared;
    }
  }
  EXPECT_GT(compared, 100);
}

TEST(LoaderOracleTest, PaddedFieldsAndMissingValuesMatchOracle) {
  std::string csv = "race , sex,hours,label\n";
  Rng rng(11);
  const char* races[] = {" white", "black ", "  asian  ", "white", "?", ""};
  const char* sexes[] = {"male", " female", "male\t", " ? "};
  for (int i = 0; i < 300; ++i) {
    csv += std::string(races[rng.UniformInt(6)]) + ",";
    csv += std::string(sexes[rng.UniformInt(4)]) + ",";
    csv += " " + std::to_string(20 + rng.UniformInt(40)) + " ,";
    csv += rng.UniformInt(2) ? " 1\n" : "0 \n";
  }
  LoaderOptions options;
  options.protected_attributes = {"race ", " sex"};
  ExpectSameBuild(Parse(csv), options, "padded");
}

TEST(LoaderOracleTest, PooledTailWithTiedFrequenciesMatchesOracle) {
  // Twelve values, several sharing each count, pooled down to five codes:
  // the rank order among ties decides which values survive.
  std::string csv = "city,label\n";
  const int counts[] = {9, 7, 7, 7, 5, 5, 3, 3, 3, 3, 1, 1};
  for (int v = 0; v < 12; ++v) {
    for (int i = 0; i < counts[v]; ++i) {
      // Out-of-order names so first-seen order differs from value order.
      csv += "c" + std::to_string((v * 7) % 12) + "," +
             std::to_string(i % 2) + "\n";
    }
  }
  for (int max_categories : {3, 5, 12, 13}) {
    LoaderOptions options;
    options.max_categories = max_categories;
    ExpectSameBuild(Parse(csv), options,
                    "max_categories=" + std::to_string(max_categories));
  }
}

TEST(LoaderOracleTest, NumericLookingCategoriesMatchOracle) {
  // "1" and "1.0" are one number but two strings: with few distinct
  // numbers the column is categorical over the strings; above the limit it
  // is numeric and both land in one bucket.
  std::string small = "flag,label\n";
  std::string large = "score,label\n";
  for (int i = 0; i < 120; ++i) {
    small += std::string(i % 3 == 0 ? "1" : i % 3 == 1 ? "1.0" : "2") + "," +
             std::to_string(i % 2) + "\n";
    large += (i % 5 == 0 ? std::string("1.0") : std::to_string(i % 23)) +
             "," + std::to_string(i % 2) + "\n";
  }
  LoaderOptions options;
  ExpectSameBuild(Parse(small), options, "small");
  ExpectSameBuild(Parse(large), options, "large");
  for (int limit : {0, 5, 22, 23}) {
    options.categorical_numeric_limit = limit;
    ExpectSameBuild(Parse(large), options, "limit=" + std::to_string(limit));
  }
}

TEST(LoaderOracleTest, NumericColumnAboveLimitMatchesOracle) {
  std::string csv = "age,income,label\n";
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    csv += std::to_string(17 + rng.UniformInt(70)) + ",";
    csv += std::to_string(rng.Uniform() * 1e5) + ",";
    csv += std::to_string(rng.UniformInt(2)) + "\n";
  }
  for (int buckets : {1, 4, 7}) {
    LoaderOptions options;
    options.numeric_buckets = buckets;
    ExpectSameBuild(Parse(csv), options,
                    "buckets=" + std::to_string(buckets));
  }
}

TEST(LoaderOracleTest, SyntheticAdultMatchesOracle) {
  const Dataset adult = MakeAdult(3000, 5);
  LoaderOptions options;
  options.label_column = adult.schema().label_name();
  for (int idx : adult.schema().protected_indices()) {
    options.protected_attributes.push_back(adult.schema().attribute(idx).name());
  }
  ExpectSameBuild(adult.ToCsv(), options, "adult");
}

}  // namespace
}  // namespace remedy
