#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "data/loader.h"

namespace remedy {
namespace {

CsvTable MakeTable(const std::string& csv) { return ParseCsv(csv).value(); }

TEST(LoaderTest, BuildsCategoricalDataset) {
  CsvTable table = MakeTable(
      "race,sex,outcome\n"
      "white,male,1\n"
      "black,female,0\n"
      "white,female,1\n"
      "black,male,0\n");
  LoaderOptions options;
  options.protected_attributes = {"race", "sex"};
  LoaderReport report;
  Dataset dataset = BuildDataset(table, options, &report).value();
  EXPECT_EQ(dataset.NumRows(), 4);
  EXPECT_EQ(dataset.NumColumns(), 2);
  EXPECT_EQ(dataset.schema().NumProtected(), 2);
  EXPECT_EQ(dataset.schema().label_name(), "outcome");
  EXPECT_EQ(dataset.PositiveCount(), 2);
  EXPECT_EQ(report.categorical_columns, 2);
  EXPECT_EQ(report.numeric_columns, 0);
}

TEST(LoaderTest, LabelColumnByName) {
  CsvTable table = MakeTable(
      "y,a\n"
      "yes,p\n"
      "no,q\n");
  LoaderOptions options;
  options.label_column = "y";
  options.positive_label = "yes";
  Dataset dataset = BuildDataset(table, options).value();
  EXPECT_EQ(dataset.NumColumns(), 1);
  EXPECT_EQ(dataset.Label(0), 1);
  EXPECT_EQ(dataset.Label(1), 0);
}

TEST(LoaderTest, NumericColumnsGetQuantileBuckets) {
  std::string csv = "age,label\n";
  for (int i = 0; i < 100; ++i) {
    csv += std::to_string(20 + i) + "," + std::to_string(i % 2) + "\n";
  }
  LoaderOptions options;
  options.numeric_buckets = 4;
  LoaderReport report;
  Dataset dataset = BuildDataset(MakeTable(csv), options, &report).value();
  EXPECT_EQ(report.numeric_columns, 1);
  const AttributeSchema& age = dataset.schema().attribute(0);
  EXPECT_EQ(age.Cardinality(), 4);
  EXPECT_TRUE(age.ordinal());
  // Buckets roughly balanced.
  std::vector<int> counts(4, 0);
  for (int r = 0; r < dataset.NumRows(); ++r) ++counts[dataset.Value(r, 0)];
  for (int count : counts) EXPECT_NEAR(count, 25, 10);
}

TEST(LoaderTest, SmallNumericDomainStaysCategorical) {
  CsvTable table = MakeTable(
      "flag,label\n"
      "0,1\n"
      "1,0\n"
      "0,1\n"
      "1,0\n");
  LoaderOptions options;
  LoaderReport report;
  Dataset dataset = BuildDataset(table, options, &report).value();
  EXPECT_EQ(report.categorical_columns, 1);
  EXPECT_FALSE(dataset.schema().attribute(0).ordinal());
}

TEST(LoaderTest, NonFiniteNumbersKeepColumnCategorical) {
  // 36 finite values (12 distinct, above the categorical limit) plus four
  // non-finite fields. strtod reads "nan" and "inf" as numbers, but a NaN
  // among the quantile cut points would be sorted with undefined results,
  // so the column must stay categorical with the field as its own value.
  for (const std::string odd : {"nan", "inf", "-inf", "1e999"}) {
    std::string csv = "score,label\n";
    for (int i = 0; i < 40; ++i) {
      const std::string value = i % 10 == 3 ? odd : std::to_string(i % 12);
      csv += value + "," + std::to_string(i % 2) + "\n";
    }
    LoaderOptions options;
    options.numeric_buckets = 4;
    LoaderReport report;
    Dataset dataset = BuildDataset(MakeTable(csv), options, &report).value();
    EXPECT_EQ(report.numeric_columns, 0) << odd;
    EXPECT_EQ(report.categorical_columns, 1) << odd;
    const AttributeSchema& score = dataset.schema().attribute(0);
    EXPECT_FALSE(score.ordinal()) << odd;
    EXPECT_EQ(score.Cardinality(), 13) << odd;
    ASSERT_GE(score.ValueIndex(odd), 0) << odd;
    EXPECT_EQ(dataset.Value(3, 0), score.ValueIndex(odd)) << odd;
    EXPECT_NE(dataset.Value(0, 0), score.ValueIndex(odd)) << odd;
  }
}

TEST(LoaderTest, DropsRowsWithMissingValues) {
  CsvTable table = MakeTable(
      "a,label\n"
      "x,1\n"
      ",0\n"
      "?,0\n"
      "y,0\n");
  LoaderOptions options;
  LoaderReport report;
  Dataset dataset = BuildDataset(table, options, &report).value();
  EXPECT_EQ(dataset.NumRows(), 2);
  EXPECT_EQ(report.rows_dropped_missing, 2);
}

TEST(LoaderTest, PoolsRareCategoriesIntoOther) {
  std::string csv = "city,label\n";
  // Two frequent values plus 30 singletons.
  for (int i = 0; i < 40; ++i) csv += "metropolis," + std::to_string(i % 2) + "\n";
  for (int i = 0; i < 40; ++i) csv += "gotham," + std::to_string(i % 2) + "\n";
  for (int i = 0; i < 30; ++i) {
    csv += "village" + std::to_string(i) + ",0\n";
  }
  LoaderOptions options;
  options.max_categories = 4;
  LoaderReport report;
  Dataset dataset = BuildDataset(MakeTable(csv), options, &report).value();
  const AttributeSchema& city = dataset.schema().attribute(0);
  EXPECT_EQ(city.Cardinality(), 4);
  EXPECT_GE(city.ValueIndex("<other>"), 0);
  EXPECT_GE(city.ValueIndex("metropolis"), 0);
  EXPECT_EQ(report.pooled_columns, 1);
  // Three values are kept (metropolis, gotham, and the highest-ranked
  // village); the remaining 29 villages share the pooled code.
  int other_code = city.ValueIndex("<other>");
  int pooled = 0;
  for (int r = 0; r < dataset.NumRows(); ++r) {
    pooled += dataset.Value(r, 0) == other_code;
  }
  EXPECT_EQ(pooled, 29);
}

TEST(LoaderTest, RejectsUnknownProtectedAttribute) {
  CsvTable table = MakeTable("a,label\nx,1\ny,0\n");
  LoaderOptions options;
  options.protected_attributes = {"nonexistent"};
  StatusOr<Dataset> built = BuildDataset(table, options);
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(built.status().message().find("nonexistent"), std::string::npos);
}

TEST(LoaderTest, RejectsUnknownLabelColumn) {
  CsvTable table = MakeTable("a,label\nx,1\ny,0\n");
  LoaderOptions options;
  options.label_column = "missing";
  StatusOr<Dataset> built = BuildDataset(table, options);
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
}

TEST(LoaderTest, RejectsConstantLabels) {
  CsvTable table = MakeTable("a,label\nx,1\ny,1\n");
  StatusOr<Dataset> built = BuildDataset(table, LoaderOptions());
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(built.status().message().find("constant"), std::string::npos);
}

TEST(LoaderTest, RejectsHeaderlessTable) {
  StatusOr<Dataset> built = BuildDataset(CsvTable(), LoaderOptions());
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kDataCorruption);
}

TEST(LoaderTest, RejectsNonPositiveMaxCategories) {
  CsvTable table = MakeTable(
      "a,label\n"
      "x,1\n"
      "y,0\n");
  for (int max_categories : {0, -3}) {
    LoaderOptions options;
    options.max_categories = max_categories;
    StatusOr<Dataset> built = BuildDataset(table, options);
    ASSERT_FALSE(built.ok());
    EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
  }
  LoaderOptions one;
  one.max_categories = 1;  // everything pools into "<other>"
  Dataset dataset = BuildDataset(table, one).value();
  EXPECT_EQ(dataset.schema().attribute(0).values(),
            std::vector<std::string>{"<other>"});
}

TEST(LoaderTest, RoundTripsThroughDatasetCsv) {
  // Export a dataset to CSV, reload it, and check the cells agree.
  CsvTable table = MakeTable(
      "race,sex,outcome\n"
      "white,male,1\n"
      "black,female,0\n"
      "asian,male,1\n");
  LoaderOptions options;
  options.protected_attributes = {"race"};
  Dataset first = BuildDataset(table, options).value();

  Dataset second = BuildDataset(first.ToCsv(), options).value();
  ASSERT_EQ(second.NumRows(), first.NumRows());
  for (int r = 0; r < first.NumRows(); ++r) {
    EXPECT_EQ(second.Label(r), first.Label(r));
    // Codes may be permuted (frequency order), so compare value names.
    for (int c = 0; c < first.NumColumns(); ++c) {
      EXPECT_EQ(
          second.schema().attribute(c).ValueName(second.Value(r, c)),
          first.schema().attribute(c).ValueName(first.Value(r, c)));
    }
  }
}

TEST(LoaderTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "loader_test.csv";
  CsvTable table = MakeTable("a,label\nx,1\ny,0\n");
  ASSERT_TRUE(WriteCsvFile(path, table).ok());
  LoaderOptions options;
  Dataset dataset = LoadCsvDataset(path, options).value();
  EXPECT_EQ(dataset.NumRows(), 2);
  StatusOr<Dataset> missing = LoadCsvDataset("/nonexistent/file.csv", options);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kIoError);
}

// --- Quarantine path ------------------------------------------------------

constexpr const char* kDirtyCsv =
    "race,sex,outcome\n"
    "white,male,1\n"
    "black,female,0\n"
    "too,many,fields,here\n"
    "white,female,1\n"
    "short-row\n"
    "black,male,0\n";

TEST(LoaderTest, FailPolicyRejectsBadRows) {
  CsvParseOptions parse;
  parse.tolerate_bad_rows = true;
  CsvTable table = ParseCsv(kDirtyCsv, parse).value();
  ASSERT_EQ(table.bad_rows.size(), 2u);
  LoaderOptions options;  // on_bad_row defaults to kFail
  StatusOr<Dataset> built = BuildDataset(table, options);
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kDataCorruption);
  EXPECT_NE(built.status().message().find("line 4"), std::string::npos);
}

TEST(LoaderTest, QuarantinePolicyKeepsGoodRowsAndReports) {
  CsvParseOptions parse;
  parse.tolerate_bad_rows = true;
  CsvTable table = ParseCsv(kDirtyCsv, parse).value();
  LoaderOptions options;
  options.on_bad_row = BadRowPolicy::kQuarantine;
  options.max_quarantine_fraction = 0.5;
  LoaderReport report;
  QuarantineReport quarantine;
  Dataset dataset =
      BuildDataset(table, options, &report, &quarantine).value();
  EXPECT_EQ(dataset.NumRows(), 4);
  EXPECT_EQ(report.rows_quarantined, 2);
  EXPECT_EQ(quarantine.rows_quarantined, 2);
  EXPECT_NEAR(quarantine.fraction, 2.0 / 6.0, 1e-9);
  ASSERT_EQ(quarantine.examples.size(), 2u);
  EXPECT_EQ(quarantine.examples[0].line, 4);
  EXPECT_EQ(quarantine.examples[1].line, 6);
}

TEST(LoaderTest, QuarantineCircuitBreakerTrips) {
  CsvParseOptions parse;
  parse.tolerate_bad_rows = true;
  CsvTable table = ParseCsv(kDirtyCsv, parse).value();
  LoaderOptions options;
  options.on_bad_row = BadRowPolicy::kQuarantine;
  options.max_quarantine_fraction = 0.1;  // 2/6 is well above this
  StatusOr<Dataset> built = BuildDataset(table, options);
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kDataCorruption);
  EXPECT_NE(built.status().message().find("max_quarantine_fraction"),
            std::string::npos);
}

TEST(LoaderTest, DropPolicyIgnoresCircuitBreaker) {
  CsvParseOptions parse;
  parse.tolerate_bad_rows = true;
  CsvTable table = ParseCsv(kDirtyCsv, parse).value();
  LoaderOptions options;
  options.on_bad_row = BadRowPolicy::kDrop;
  options.max_quarantine_fraction = 0.0;  // breaker only applies to kQuarantine
  LoaderReport report;
  Dataset dataset = BuildDataset(table, options, &report).value();
  EXPECT_EQ(dataset.NumRows(), 4);
  EXPECT_EQ(report.rows_quarantined, 2);
}

TEST(LoaderTest, LoadCsvDatasetQuarantinesFromDisk) {
  const std::string path = ::testing::TempDir() + "loader_dirty.csv";
  // kDirtyCsv does not parse strictly, so write the raw bytes directly.
  {
    FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(kDirtyCsv, 1, std::strlen(kDirtyCsv), f);
    std::fclose(f);
  }
  LoaderOptions options;
  options.on_bad_row = BadRowPolicy::kQuarantine;
  options.max_quarantine_fraction = 0.5;
  QuarantineReport quarantine;
  Dataset dataset =
      LoadCsvDataset(path, options, nullptr, &quarantine).value();
  EXPECT_EQ(dataset.NumRows(), 4);
  EXPECT_EQ(quarantine.rows_quarantined, 2);
  // The same file under the strict default policy fails loudly.
  StatusOr<Dataset> strict = LoadCsvDataset(path, LoaderOptions());
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), StatusCode::kDataCorruption);
}

// --- Seeded fuzz: malformed input must never abort ------------------------

TEST(LoaderFuzzTest, MutatedCsvNeverAborts) {
  // Start from a healthy file and apply random byte- and structure-level
  // damage. Every outcome must be a clean success or a clean Status —
  // no crash, no REMEDY_CHECK failure.
  std::string base = "color,size,label\n";
  Rng make(7);
  for (int i = 0; i < 60; ++i) {
    base += (make.UniformInt(2) ? "red" : "blue");
    base += ",";
    base += (make.UniformInt(2) ? "big" : "small");
    base += ",";
    base += std::to_string(make.UniformInt(2));
    base += "\n";
  }

  const char kNoise[] = {',', '"', '\n', '\r', '\0', 'x', '\xFF', '\x01'};
  Rng rng(1234);
  int parse_failures = 0;
  for (int trial = 0; trial < 200; ++trial) {
    std::string mutated = base;
    int edits = 1 + rng.UniformInt(8);
    for (int e = 0; e < edits; ++e) {
      size_t pos = static_cast<size_t>(
          rng.UniformInt(static_cast<int>(mutated.size())));
      switch (rng.UniformInt(3)) {
        case 0:  // overwrite a byte
          mutated[pos] = kNoise[rng.UniformInt(8)];
          break;
        case 1:  // insert a byte
          mutated.insert(mutated.begin() + pos, kNoise[rng.UniformInt(8)]);
          break;
        default:  // delete a span
          mutated.erase(pos, 1 + rng.UniformInt(5));
          break;
      }
    }
    for (BadRowPolicy policy :
         {BadRowPolicy::kFail, BadRowPolicy::kQuarantine, BadRowPolicy::kDrop}) {
      CsvParseOptions parse;
      parse.tolerate_bad_rows = policy != BadRowPolicy::kFail;
      StatusOr<CsvTable> table = ParseCsv(mutated, parse);
      if (!table.ok()) {
        ++parse_failures;
        continue;
      }
      LoaderOptions options;
      options.on_bad_row = policy;
      options.max_quarantine_fraction = 1.0;
      StatusOr<Dataset> built = BuildDataset(table.value(), options);
      if (built.ok()) {
        EXPECT_GT(built.value().NumRows(), 0);
      } else {
        EXPECT_NE(built.status().code(), StatusCode::kOk);
      }
    }
  }
  // Sanity: the fuzzer does exercise the failure path.
  EXPECT_GT(parse_failures, 0);
}

}  // namespace
}  // namespace remedy
