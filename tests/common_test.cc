#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <string>

#include <atomic>
#include <vector>

#include "cli/flags.h"
#include "common/csv.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"
#include "common/timer.h"

namespace remedy {
namespace {

TEST(RngTest, UniformIntStaysInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    int draw = rng.UniformInt(7);
    EXPECT_GE(draw, 0);
    EXPECT_LT(draw, 7);
  }
}

TEST(RngTest, UniformIntCoversAllValues) {
  Rng rng(2);
  std::set<int> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(99), b(99);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(1000), b.UniformInt(1000));
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int differences = 0;
  for (int i = 0; i < 100; ++i) {
    differences += a.UniformInt(1000) != b.UniformInt(1000);
  }
  EXPECT_GT(differences, 50);
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(3);
  int hits = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.02);
}

TEST(RngTest, BernoulliHandlesExtremes) {
  Rng rng(4);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
    EXPECT_FALSE(rng.Bernoulli(-0.5));  // clamped
    EXPECT_TRUE(rng.Bernoulli(1.5));    // clamped
  }
}

// Replays a fixed list of words as a 64-bit engine, so a standard-library
// distribution can be fed exactly the word UniformFromBits sees.
class ReplayEngine {
 public:
  using result_type = uint64_t;
  explicit ReplayEngine(const std::vector<uint64_t>& words) : words_(words) {}
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<uint64_t>::max();
  }
  result_type operator()() { return words_[next_++]; }

 private:
  const std::vector<uint64_t>& words_;
  size_t next_ = 0;
};

TEST(RngTest, UniformFromBitsMatchesGenerateCanonical) {
  const uint64_t two53 = uint64_t{1} << 53;
  std::vector<uint64_t> words = {0,
                                 1,
                                 two53 - 1,
                                 two53,
                                 two53 + 1,
                                 uint64_t{1} << 63,
                                 std::numeric_limits<uint64_t>::max()};
  std::mt19937_64 source(2024);
  for (int i = 0; i < 1000000; ++i) words.push_back(source());
  ReplayEngine replay(words);
  for (uint64_t word : words) {
    const double expected = std::generate_canonical<double, 53>(replay);
    ASSERT_EQ(UniformFromBits(word), expected) << "word " << word;
  }
  // The top word rounds to 1.0 and must clamp just below it.
  EXPECT_EQ(UniformFromBits(std::numeric_limits<uint64_t>::max()),
            std::nextafter(1.0, 0.0));
  EXPECT_EQ(UniformFromBits(0), 0.0);
}

TEST(RngTest, UniformAndBernoulliMatchUniformRealDistribution) {
  for (uint64_t seed : {uint64_t{1}, uint64_t{42}, uint64_t{20240607}}) {
    Rng rng(seed);
    std::mt19937_64 reference(seed);
    std::uniform_real_distribution<double> dist(0.0, 1.0);
    for (int i = 0; i < 10000; ++i) {
      ASSERT_EQ(rng.Uniform(), dist(reference)) << "seed " << seed;
      const double p = (i % 11) / 10.0;
      ASSERT_EQ(rng.Bernoulli(p), dist(reference) < p) << "seed " << seed;
    }
  }
}

TEST(RngTest, SampleWithoutReplacementIsDistinct) {
  Rng rng(7);
  std::vector<int> sample = rng.SampleWithoutReplacement(100, 30);
  EXPECT_EQ(sample.size(), 30u);
  std::set<int> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30u);
  for (int v : sample) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 100);
  }
}

TEST(RngTest, SampleWithoutReplacementFullSet) {
  Rng rng(8);
  std::vector<int> sample = rng.SampleWithoutReplacement(10, 10);
  std::sort(sample.begin(), sample.end());
  for (int i = 0; i < 10; ++i) EXPECT_EQ(sample[i], i);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(9);
  std::vector<int> values = {1, 2, 3, 4, 5, 6, 7};
  auto original = values;
  rng.Shuffle(values);
  std::sort(values.begin(), values.end());
  EXPECT_EQ(values, original);
}

TEST(RngTest, NormalHasRoughMoments) {
  Rng rng(10);
  double sum = 0.0, sum_squares = 0.0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    double x = rng.Normal(2.0, 3.0);
    sum += x;
    sum_squares += x * x;
  }
  double mean = sum / trials;
  double variance = sum_squares / trials - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.1);
  EXPECT_NEAR(variance, 9.0, 0.5);
}

TEST(RngTest, ForkDecorrelates) {
  Rng parent(11);
  Rng child = parent.Fork();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    same += parent.UniformInt(1000) == child.UniformInt(1000);
  }
  EXPECT_LT(same, 10);
}

TEST(StringUtilTest, SplitBasic) {
  std::vector<std::string> parts = Split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(Split(",a,", ',').size(), 3u);
  EXPECT_EQ(Split("", ',').size(), 1u);
}

TEST(StringUtilTest, JoinRoundTrip) {
  std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(Join(parts, ", "), "x, y, z");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  hello \t\n"), "hello");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("x"), "x");
}

TEST(StringUtilTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(1.0, 0), "1");
}

TEST(StringUtilTest, StartsWith) {
  EXPECT_TRUE(StartsWith("hello world", "hello"));
  EXPECT_FALSE(StartsWith("hi", "hello"));
}

TEST(StringUtilTest, ParseNumberConsumesTheWholeToken) {
  EXPECT_EQ(ParseNumber<int>("42").value(), 42);
  EXPECT_EQ(ParseNumber<int>("-7").value(), -7);
  EXPECT_EQ(ParseNumber<int64_t>("10000000000").value(), 10000000000);
  EXPECT_EQ(ParseNumber<uint64_t>("18446744073709551615").value(),
            UINT64_MAX);
  EXPECT_DOUBLE_EQ(ParseNumber<double>("0.25").value(), 0.25);
  EXPECT_DOUBLE_EQ(ParseNumber<double>("1e-3").value(), 0.001);
  // What atoi/atof used to turn silently into 0 or a prefix.
  for (const char* bad : {"", "abc", "12x", " 1", "1 ", "+1", "0.5.5"}) {
    StatusOr<double> parsed = ParseNumber<double>(bad);
    ASSERT_FALSE(parsed.ok()) << "'" << bad << "'";
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  }
  EXPECT_FALSE(ParseNumber<int>("1.5").ok());
  EXPECT_FALSE(ParseNumber<uint64_t>("-1").ok());
  EXPECT_FALSE(ParseNumber<int>("99999999999").ok());  // out of range
}

// A flag table of every kind, parsed from `args` (argv[0] prepended).
struct FlagFixture {
  std::string name;
  double tau = 0.1;
  bool verbose = false;
  std::vector<std::string> batches;
  std::optional<std::string> report;
  int mode = 0;

  std::vector<Flag> Table() {
    return {StringFlag("--name", &name, "n", "a string"),
            NumberFlag("--tau", &tau, "x", "a number"),
            BoolFlag("--verbose", &verbose, "a bool"),
            RepeatedFlag("--batch", &batches, "file", "repeatable"),
            OptionalPathFlag("--report", &report, "file", "optional value"),
            ChoiceFlag("--mode", &mode, Choices<int>{{"a", 1}, {"b", 2}},
                       "a choice")};
  }

  ParsedFlags Parse(std::vector<std::string> args) {
    args.insert(args.begin(), "prog");
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    return ParseFlags(static_cast<int>(argv.size()), argv.data(), Table());
  }
};

TEST(FlagsTest, EqualsAndSpaceFormsAgree) {
  FlagFixture split, joined;
  const ParsedFlags a = split.Parse(
      {"--name", "x", "--tau", "0.3", "--mode", "b", "--batch", "f.csv"});
  const ParsedFlags b =
      joined.Parse({"--name=x", "--tau=0.3", "--mode=b", "--batch=f.csv"});
  for (const ParsedFlags* parsed : {&a, &b}) {
    EXPECT_TRUE(parsed->bad_value.ok());
    EXPECT_EQ(parsed->usage_error, "");
    EXPECT_TRUE(parsed->positional.empty());
  }
  EXPECT_EQ(split.name, "x");
  EXPECT_EQ(joined.name, "x");
  EXPECT_EQ(split.tau, 0.3);
  EXPECT_EQ(joined.tau, 0.3);
  EXPECT_EQ(split.mode, 2);
  EXPECT_EQ(joined.mode, 2);
  EXPECT_EQ(split.batches, joined.batches);
  // Only the first '=' splits: the value keeps the rest.
  FlagFixture eq;
  eq.Parse({"--name=a=b"});
  EXPECT_EQ(eq.name, "a=b");
}

TEST(FlagsTest, OptionalValueFlags) {
  FlagFixture absent;
  absent.Parse({});
  EXPECT_FALSE(absent.report.has_value());

  FlagFixture bare;  // at the end of argv
  bare.Parse({"--report"});
  EXPECT_EQ(bare.report, "");

  FlagFixture before_flag;  // a following flag is not a value
  before_flag.Parse({"--report", "--verbose"});
  EXPECT_EQ(before_flag.report, "");
  EXPECT_TRUE(before_flag.verbose);

  FlagFixture joined;
  joined.Parse({"--report=out.json"});
  EXPECT_EQ(joined.report, "out.json");

  FlagFixture next_slot;  // the next argument, when it is not a flag
  const ParsedFlags parsed = next_slot.Parse({"--report", "out.json", "in"});
  EXPECT_EQ(next_slot.report, "out.json");
  EXPECT_EQ(parsed.positional, std::vector<std::string>({"in"}));

  FlagFixture empty;
  empty.Parse({"--report="});
  EXPECT_EQ(empty.report, "");
}

TEST(FlagsTest, RepeatedFlagKeepsEveryOccurrence) {
  FlagFixture flags;
  flags.Parse({"--batch", "a.csv", "--batch=b.csv", "--batch", "a.csv"});
  EXPECT_EQ(flags.batches,
            std::vector<std::string>({"a.csv", "b.csv", "a.csv"}));
  FlagFixture name;  // a plain string flag keeps the last one
  name.Parse({"--name", "x", "--name", "y"});
  EXPECT_EQ(name.name, "y");
}

TEST(FlagsTest, PositionalsInterleaveWithFlags) {
  FlagFixture flags;
  const ParsedFlags parsed =
      flags.Parse({"audit", "--tau", "0.2", "in.csv", "--verbose", "-x"});
  EXPECT_EQ(parsed.positional,
            std::vector<std::string>({"audit", "in.csv", "-x"}));
  EXPECT_EQ(flags.tau, 0.2);
  EXPECT_TRUE(flags.verbose);
}

TEST(FlagsTest, UnknownFlagIsAUsageError) {
  FlagFixture flags;
  const ParsedFlags parsed = flags.Parse({"--bogus=1", "--verbose"});
  EXPECT_EQ(parsed.usage_error, "unknown flag --bogus");
  EXPECT_TRUE(parsed.bad_value.ok());
  EXPECT_FALSE(flags.verbose);  // the parse stops at the first error
}

TEST(FlagsTest, MissingValueIsAUsageErrorNamingTheFlag) {
  for (const char* flag : {"--name", "--tau", "--batch", "--mode"}) {
    FlagFixture flags;
    const ParsedFlags parsed = flags.Parse({"in", flag});
    EXPECT_EQ(parsed.usage_error, std::string(flag) + " needs a value");
    EXPECT_TRUE(parsed.bad_value.ok()) << flag;
  }
  // A value-taking flag takes the next argument whatever it looks like.
  FlagFixture flags;
  EXPECT_EQ(flags.Parse({"--name", "--verbose"}).usage_error, "");
  EXPECT_EQ(flags.name, "--verbose");
  EXPECT_FALSE(flags.verbose);
}

TEST(FlagsTest, MalformedValuesAreInvalidArguments) {
  for (std::vector<std::string> args :
       {std::vector<std::string>{"--tau=12x"}, {"--tau", ""}, {"--tau="},
        {"--mode=c"}, {"--mode", ""}}) {
    FlagFixture flags;
    args.push_back("--verbose");
    const ParsedFlags parsed = flags.Parse(args);
    EXPECT_EQ(parsed.bad_value.code(), StatusCode::kInvalidArgument)
        << args[0];
    EXPECT_EQ(parsed.usage_error, "");
    EXPECT_FALSE(flags.verbose) << args[0];
  }
  FlagFixture flags;
  EXPECT_EQ(flags.Parse({"--mode", "c"}).bad_value.ToString(),
            "INVALID_ARGUMENT: bad --mode: 'c' is not one of a|b");
  EXPECT_EQ(flags.Parse({"--tau", "12x"}).bad_value.ToString(),
            "INVALID_ARGUMENT: bad --tau: '12x' is not a number");
  EXPECT_EQ(flags.tau, 0.1);
}

TEST(FlagsTest, BoolFlags) {
  FlagFixture absent;
  absent.Parse({"in"});
  EXPECT_FALSE(absent.verbose);
  FlagFixture given;
  const ParsedFlags parsed = given.Parse({"--verbose", "in"});
  EXPECT_TRUE(given.verbose);
  EXPECT_EQ(parsed.positional, std::vector<std::string>({"in"}));
  FlagFixture suffixed;  // an '=' suffix is ignored, never an error
  EXPECT_EQ(suffixed.Parse({"--verbose=0"}).usage_error, "");
  EXPECT_TRUE(suffixed.verbose);
}

TEST(FlagsTest, UsageListsEveryRow) {
  FlagFixture flags;
  const std::string usage = FlagUsage(flags.Table());
  for (const char* head :
       {"--name n ", "--tau x ", "--verbose ", "--batch file ",
        "--report[=file] ", "--mode a|b "}) {
    EXPECT_NE(usage.find(head), std::string::npos) << head;
  }
  EXPECT_EQ(std::count(usage.begin(), usage.end(), '\n'), 6);
}

TEST(CsvTest, ParseWithHeader) {
  CsvTable table = ParseCsv("a,b\n1,2\n3,4\n").value();
  EXPECT_EQ(table.header, (std::vector<std::string>{"a", "b"}));
  ASSERT_EQ(table.rows.size(), 2u);
  EXPECT_EQ(table.rows[1][1], "4");
}

TEST(CsvTest, ParseQuotedFields) {
  CsvParseOptions options;
  options.has_header = false;
  CsvTable table =
      ParseCsv("\"x,y\",\"he said \"\"hi\"\"\"\n", options).value();
  ASSERT_EQ(table.rows.size(), 1u);
  EXPECT_EQ(table.rows[0][0], "x,y");
  EXPECT_EQ(table.rows[0][1], "he said \"hi\"");
}

TEST(CsvTest, RejectsRaggedRows) {
  StatusOr<CsvTable> table = ParseCsv("a,b\n1,2,3\n");
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kDataCorruption);
  // The failure names the offending line.
  EXPECT_NE(table.status().message().find("line 2"), std::string::npos);
}

TEST(CsvTest, RejectsUnterminatedQuote) {
  CsvParseOptions options;
  options.has_header = false;
  StatusOr<CsvTable> table = ParseCsv("\"abc\n", options);
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kDataCorruption);
}

TEST(CsvTest, WriteQuotesWhenNeeded) {
  CsvTable table;
  table.header = {"h1", "h,2"};
  table.rows = {{"plain", "with \"quote\""}};
  CsvTable parsed = ParseCsv(WriteCsv(table)).value();
  EXPECT_EQ(parsed.header[1], "h,2");
  EXPECT_EQ(parsed.rows[0][1], "with \"quote\"");
}

TEST(CsvTest, HandlesCrlf) {
  CsvTable table = ParseCsv("a,b\r\n1,2\r\n").value();
  ASSERT_EQ(table.rows.size(), 1u);
  EXPECT_EQ(table.rows[0][0], "1");
}

TEST(CsvTest, StripsUtf8BomBeforeHeader) {
  // Split literal: "\xBFa" would otherwise parse as one hex escape.
  CsvTable table = ParseCsv("\xEF\xBB\xBF" "a,b\n1,2\n").value();
  ASSERT_EQ(table.header.size(), 2u);
  EXPECT_EQ(table.header[0], "a");  // no BOM bytes glued to the name
  ASSERT_EQ(table.rows.size(), 1u);
}

TEST(CsvTest, QuotedFieldMayContainNewlines) {
  CsvTable table = ParseCsv("a,b\n\"line one\nline two\",2\n").value();
  ASSERT_EQ(table.rows.size(), 1u);
  EXPECT_EQ(table.rows[0][0], "line one\nline two");
  EXPECT_EQ(table.rows[0][1], "2");
}

TEST(CsvTest, TrailingNewlineDoesNotProducePhantomRow) {
  EXPECT_EQ(ParseCsv("a,b\n1,2\n").value().rows.size(), 1u);
  EXPECT_EQ(ParseCsv("a,b\n1,2").value().rows.size(), 1u);     // no newline
  EXPECT_EQ(ParseCsv("a,b\n1,2\n\n\n").value().rows.size(), 1u);  // blanks
}

TEST(CsvTest, TolerantModeDivertsBadRowsAndKeepsTheRest) {
  CsvParseOptions options;
  options.tolerate_bad_rows = true;
  CsvTable table =
      ParseCsv("a,b\n1,2\nonly-one-field\n3,4,5\n6,7\n", options).value();
  ASSERT_EQ(table.rows.size(), 2u);
  EXPECT_EQ(table.rows[1][1], "7");
  ASSERT_EQ(table.bad_rows.size(), 2u);
  EXPECT_EQ(table.bad_rows[0].line, 3);
  EXPECT_EQ(table.bad_rows[1].line, 4);
}

TEST(CsvTest, TolerantModeResyncsAfterUnterminatedQuote) {
  CsvParseOptions options;
  options.tolerate_bad_rows = true;
  // The stray quote on line 2 must cost one record, not the rest of the
  // file.
  CsvTable table = ParseCsv("a,b\n\"oops,2\n3,4\n", options).value();
  ASSERT_EQ(table.bad_rows.size(), 1u);
  EXPECT_EQ(table.bad_rows[0].line, 2);
  ASSERT_EQ(table.rows.size(), 1u);
  EXPECT_EQ(table.rows[0][0], "3");
}

TEST(CsvTest, ReadFileReportsIoErrorForMissingFile) {
  StatusOr<CsvTable> table = ReadCsvFile("/nonexistent/file.csv");
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kIoError);
  // ENOENT is not transient: exactly one attempt, with context.
  EXPECT_NE(table.status().message().find("1 attempt"), std::string::npos);
}

TEST(TablePrinterTest, PrintsAlignedRows) {
  TablePrinter table({"name", "value"});
  table.AddRow({"alpha", "1"});
  table.AddRow("beta", {2.5}, 1);
  std::ostringstream out;
  table.Print(out);
  std::string text = out.str();
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("2.5"), std::string::npos);
  EXPECT_EQ(table.NumRows(), 2u);
}

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> sum{0};
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(pool.Submit([&sum, i] { sum += i; }).ok());
  }
  EXPECT_TRUE(pool.Wait().ok());
  EXPECT_EQ(sum.load(), 100 * 99 / 2);
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  ASSERT_TRUE(pool.Submit([&count] { ++count; }).ok());
  EXPECT_TRUE(pool.Wait().ok());
  EXPECT_EQ(count.load(), 1);
  ASSERT_TRUE(pool.Submit([&count] { ++count; }).ok());
  ASSERT_TRUE(pool.Submit([&count] { ++count; }).ok());
  EXPECT_TRUE(pool.Wait().ok());
  EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce) {
  for (int threads : {1, 3, 8}) {
    ThreadPool pool(threads);
    const int64_t count = 257;  // not a multiple of any worker count
    std::vector<std::atomic<int>> hits(count);
    EXPECT_TRUE(
        pool.ParallelFor(count, [&hits](int64_t i) { ++hits[i]; }).ok());
    for (int64_t i = 0; i < count; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " threads " << threads;
    }
  }
}

TEST(ThreadPoolTest, ParallelForHandlesEmptyAndTiny) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  EXPECT_TRUE(pool.ParallelFor(0, [&calls](int64_t) { ++calls; }).ok());
  EXPECT_EQ(calls.load(), 0);
  EXPECT_TRUE(pool.ParallelFor(1, [&calls](int64_t) { ++calls; }).ok());
  EXPECT_EQ(calls.load(), 1);
}

TEST(ThreadPoolTest, DefaultThreadsIsPositive) {
  EXPECT_GE(ThreadPool::DefaultThreads(), 1);
  EXPECT_EQ(ThreadPool(0).num_threads(), 1);  // floor of one worker
}

TEST(TimerTest, MeasuresElapsedTime) {
  WallTimer timer;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  double first = timer.Seconds();
  double second = timer.Seconds();
  EXPECT_GE(first, 0.0);
  EXPECT_GE(second, first);  // monotone
  timer.Restart();
  EXPECT_LE(timer.Seconds(), second + 1.0);
  (void)sink;
}

}  // namespace
}  // namespace remedy
