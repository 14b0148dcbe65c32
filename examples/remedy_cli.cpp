// remedy_cli: command-line front end for auditing and remedying CSV
// datasets — the adoption path for users with their own data.
//
//   remedy_cli audit  <csv> --protected race,gender [--label y]
//                     [--positive 1] [--tau-c 0.1] [--tau-d 0.1] [--T 1]
//   remedy_cli plan   <csv> --protected race,gender
//                     [--technique ps|us|os|massage] [--tau-c 0.1] [--T 1]
//   remedy_cli remedy <csv> --protected race,gender --out remedied.csv
//                     [--technique ps|us|os|massage] [--tau-c 0.1] [--T 1]
//                     [--remedy-backend rebuild|incremental|streaming]
//                     [--report] [--report-json[=file]]
//   remedy_cli identify <csv> --protected race,gender [--tau-c 0.1] [--T 1]
//                     [--store-dir dir [--mmap]]
//
// `identify` prints the biased regions counting from the columnar shard
// store. `--store-dir dir` spills the encoded store to per-shard files
// under `dir` and counts memory-mapped off those files (the out-of-core
// path: peak memory stays at one in-flight shard). `--mmap` re-opens a
// store already spilled to `--store-dir` instead of re-encoding the input
// (the input is still loaded for its schema); `--mmap` alone is a usage
// error.
//
// `<csv>` is a file path, or one of the built-in generators `@adult`,
// `@compas`, `@lawschool` (optionally `@adult:10000` for a row count).
// Generator input is serialized to CSV text and re-ingested through the
// regular loader, so the run exercises — and meters — the same pipeline a
// real file would. `--protected` defaults to the generator's protected set.
//
// Shared ingestion flags:
//   --on-bad-row fail|quarantine|drop   what to do with malformed records
//                                       (default: fail)
//   --max-quarantine-frac x             circuit breaker for quarantine mode
//                                       (default: 0.05)
//
// Remedy write path (remedy command; docs/REMEDY.md):
//   --remedy-backend rebuild|incremental|streaming
//       which RemedyBackend rewrites the dataset (default: incremental).
//       rebuild and incremental are row-faithful and byte-identical to
//       each other; streaming plans on the canonical materialization of
//       the leaf counts (the daemon's form) and writes canonical rows.
//       An unknown name exits 64. streaming does not support --report.
//
// Observability (any command):
//   --trace-out=file.json    record tracing spans, write Chrome trace JSON
//   --metrics                print the pipeline metrics table on exit
//   --metrics-json[=file]    dump the metrics snapshot as JSON (stdout when
//                            no file is given)
//
// Flags may appear anywhere and accept both `--flag value` and
// `--flag=value`. A numeric flag whose value is not wholly a number exits
// 64.
//
// `audit` trains a decision tree on a 70/30 split, prints the fairness
// audit (unfair subgroups + IBS alignment), and exits non-zero if any
// significant unfair subgroup was found — handy as a CI data-quality gate.
// `plan` previews the biased regions and the updates the remedy would
// apply, without writing anything.
// `remedy` rewrites the full dataset's biased regions and writes the result;
// with --report it also prints the per-region before/after audit trail.
//
// Exit codes: 0 success; 1 usage error; 2 audit gate tripped; then one code
// per error class so scripts can react to the cause — 64 invalid argument,
// 65 corrupt data (incl. the quarantine circuit breaker), 70 internal,
// 74 I/O, 75 resource exhausted.

#include <signal.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/csv.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "common/trace.h"
#include "core/ibs_identify.h"
#include "core/pipeline_report.h"
#include "core/remedy.h"
#include "core/remedy_backend.h"
#include "data/columnar.h"
#include "data/loader.h"
#include "data/profile.h"
#include "datagen/adult.h"
#include "datagen/compas.h"
#include "datagen/law_school.h"
#include "fairness/report.h"
#include "ml/model_factory.h"

namespace {

using namespace remedy;

// sysexits-flavored mapping so callers can distinguish "your flags are
// wrong" from "your data is rotten" from "the disk hiccuped".
int ExitCodeFor(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return 0;
    case StatusCode::kInvalidArgument:
      return 64;
    case StatusCode::kDataCorruption:
    case StatusCode::kOutOfRange:
      return 65;
    case StatusCode::kIoError:
      return 74;
    case StatusCode::kResourceExhausted:
      return 75;
    case StatusCode::kInternal:
      return 70;
  }
  return 70;
}

int Fail(const char* what, const Status& status) {
  std::fprintf(stderr, "%s: %s\n", what, status.ToString().c_str());
  return ExitCodeFor(status.code());
}

Status WriteTextFile(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return IoError("cannot open " + path + " for writing");
  const size_t written = std::fwrite(text.data(), 1, text.size(), f);
  const int rc = std::fclose(f);
  if (written != text.size() || rc != 0) {
    return IoError("short write to " + path);
  }
  return OkStatus();
}

struct CliArgs {
  std::string command;
  std::string input;
  std::string output;
  LoaderOptions loader;
  double tau_c = 0.1;
  double tau_d = 0.1;
  double distance = 1.0;
  RemedyTechnique technique = RemedyTechnique::kPreferentialSampling;
  // Raw --remedy-backend value; parsed in RunRemedyCommand so an unknown
  // name exits 64 (invalid argument) rather than 1 (usage).
  std::string remedy_backend_name;
  uint64_t seed = 23;
  std::string trace_out;
  bool metrics_table = false;
  bool metrics_json = false;
  std::string metrics_json_path;  // empty with metrics_json: stdout
  bool report = false;
  bool report_json = false;
  std::string report_json_path;  // empty with report_json: stdout
  bool protected_given = false;
  std::string store_dir;  // identify: spill here, count mmap-backed
  bool mmap_existing = false;  // identify: reuse an already-spilled store
  bool valid = false;
  Status flag_error;  // a malformed flag value: exits 64, not usage
};

// --- interrupt flushing ----------------------------------------------
// A long audit/remedy killed mid-run used to take its observability
// outputs with it: the trace JSON, the metrics dump and the quarantine
// report all happen after RunCommand returns. SIGINT/SIGTERM are blocked
// in every thread and consumed by a watcher thread instead, which flushes
// whatever has accumulated so far and exits with the conventional
// 128+signo. The pointers are published/retired around the regions where
// the underlying objects are alive.
std::atomic<const CliArgs*> g_cli_args{nullptr};
std::atomic<TraceSink*> g_trace_sink{nullptr};
std::atomic<QuarantineReport*> g_quarantine{nullptr};
std::atomic<bool> g_work_done{false};

void FlushOnInterrupt(int sig) {
  std::fprintf(stderr, "\ninterrupted (signal %d): flushing outputs\n", sig);
  const CliArgs* args = g_cli_args.load();
  if (args != nullptr) {
    TraceSink* sink = g_trace_sink.load();
    if (sink != nullptr && !args->trace_out.empty()) {
      Status written = sink->WriteChromeJson(args->trace_out);
      std::fprintf(stderr, "  trace %s: %s\n", args->trace_out.c_str(),
                   written.ok() ? "written" : written.ToString().c_str());
    }
    if (args->metrics_json) {
      if (args->metrics_json_path.empty()) {
        std::printf(
            "%s\n", MetricsToJson(MetricsRegistry::Global().Snapshot()).c_str());
      } else {
        Status written = WriteMetricsJsonFile(args->metrics_json_path);
        std::fprintf(stderr, "  metrics %s: %s\n",
                     args->metrics_json_path.c_str(),
                     written.ok() ? "written" : written.ToString().c_str());
      }
    }
  }
  QuarantineReport* quarantine = g_quarantine.load();
  if (quarantine != nullptr && quarantine->rows_quarantined > 0) {
    std::fprintf(stderr, "  %lld record(s) in quarantine at interrupt:\n",
                 static_cast<long long>(quarantine->rows_quarantined));
    for (const CsvBadRow& row : quarantine->examples) {
      std::fprintf(stderr, "    line %d: %s\n", row.line, row.reason.c_str());
    }
  }
  std::fflush(nullptr);
  std::_Exit(128 + sig);
}

// Polls for a blocked SIGINT/SIGTERM until the run finishes naturally.
void WatchForInterrupt(sigset_t signals) {
  struct timespec tick = {0, 100 * 1000 * 1000};  // 100ms
  while (!g_work_done.load()) {
    const int sig = sigtimedwait(&signals, nullptr, &tick);
    if (sig == SIGINT || sig == SIGTERM) FlushOnInterrupt(sig);
  }
}

// Publishes the quarantine report to the interrupt flusher for as long as
// the referenced object is alive.
struct ScopedQuarantineExport {
  explicit ScopedQuarantineExport(QuarantineReport* quarantine) {
    g_quarantine.store(quarantine);
  }
  ~ScopedQuarantineExport() { g_quarantine.store(nullptr); }
};

void PrintUsage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  remedy_cli audit  <csv> --protected a,b[,..] [--label col]\n"
      "             [--positive v] [--tau-c x] [--tau-d x] [--T x]\n"
      "  remedy_cli plan   <csv> --protected a,b[,..] [--label col]\n"
      "             [--positive v] [--tau-c x] [--T x]\n"
      "             [--technique ps|us|os|massage]\n"
      "  remedy_cli remedy <csv> --protected a,b[,..] --out file.csv\n"
      "             [--label col] [--positive v] [--tau-c x] [--T x]\n"
      "             [--technique ps|us|os|massage] [--seed n]\n"
      "             [--remedy-backend rebuild|incremental|streaming]\n"
      "             [--report] [--report-json[=file]]\n"
      "  remedy_cli identify <csv> --protected a,b[,..] [--label col]\n"
      "             [--positive v] [--tau-c x] [--T x]\n"
      "             [--store-dir dir [--mmap]]\n"
      "  <csv>:  a file path, or @adult | @compas | @lawschool\n"
      "          (append :N for N rows, e.g. @adult:10000)\n"
      "  shared: [--on-bad-row fail|quarantine|drop]\n"
      "          [--max-quarantine-frac x]\n"
      "          [--trace-out=file.json] [--metrics]\n"
      "          [--metrics-json[=file]]\n");
}

bool ParseTechnique(const std::string& name, RemedyTechnique* technique) {
  if (name == "ps") {
    *technique = RemedyTechnique::kPreferentialSampling;
  } else if (name == "us") {
    *technique = RemedyTechnique::kUndersample;
  } else if (name == "os") {
    *technique = RemedyTechnique::kOversample;
  } else if (name == "massage") {
    *technique = RemedyTechnique::kMassaging;
  } else {
    return false;
  }
  return true;
}

bool ParseBadRowPolicy(const std::string& name, BadRowPolicy* policy) {
  if (name == "fail") {
    *policy = BadRowPolicy::kFail;
  } else if (name == "quarantine") {
    *policy = BadRowPolicy::kQuarantine;
  } else if (name == "drop") {
    *policy = BadRowPolicy::kDrop;
  } else {
    return false;
  }
  return true;
}

CliArgs ParseArgs(int argc, char** argv) {
  CliArgs args;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0) {
      positional.push_back(std::move(flag));
      continue;
    }
    // Split --flag=value; flags without '=' read the next argv slot when
    // they require a value.
    std::optional<std::string> inline_value;
    const size_t eq = flag.find('=');
    if (eq != std::string::npos) {
      inline_value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    }
    auto value_of = [&]() -> std::optional<std::string> {
      if (inline_value.has_value()) return inline_value;
      if (i + 1 < argc) return std::string(argv[++i]);
      return std::nullopt;
    };
    std::optional<std::string> value;
    // Parses *value into `out`, recording a malformed number.
    auto number = [&](auto* out) {
      auto parsed = ParseNumber<std::remove_pointer_t<decltype(out)>>(*value);
      if (!parsed.ok()) {
        args.flag_error = parsed.status().WithContext("bad " + flag);
        return false;
      }
      *out = parsed.value();
      return true;
    };
    if (flag == "--protected" && (value = value_of())) {
      args.loader.protected_attributes = Split(*value, ',');
      args.protected_given = true;
    } else if (flag == "--label" && (value = value_of())) {
      args.loader.label_column = *value;
    } else if (flag == "--positive" && (value = value_of())) {
      args.loader.positive_label = *value;
    } else if (flag == "--out" && (value = value_of())) {
      args.output = *value;
    } else if (flag == "--tau-c" && (value = value_of())) {
      if (!number(&args.tau_c)) return args;
    } else if (flag == "--tau-d" && (value = value_of())) {
      if (!number(&args.tau_d)) return args;
    } else if (flag == "--T" && (value = value_of())) {
      if (!number(&args.distance)) return args;
    } else if (flag == "--seed" && (value = value_of())) {
      if (!number(&args.seed)) return args;
    } else if (flag == "--technique" && (value = value_of())) {
      if (!ParseTechnique(*value, &args.technique)) return args;
    } else if (flag == "--remedy-backend" && (value = value_of())) {
      args.remedy_backend_name = *value;
    } else if (flag == "--on-bad-row" && (value = value_of())) {
      if (!ParseBadRowPolicy(*value, &args.loader.on_bad_row)) {
        std::fprintf(stderr, "--on-bad-row wants fail|quarantine|drop\n");
        return args;
      }
    } else if (flag == "--max-quarantine-frac" && (value = value_of())) {
      if (!number(&args.loader.max_quarantine_fraction)) return args;
    } else if (flag == "--store-dir" && (value = value_of())) {
      args.store_dir = *value;
    } else if (flag == "--mmap") {
      args.mmap_existing = true;
    } else if (flag == "--trace-out" && (value = value_of())) {
      args.trace_out = *value;
    } else if (flag == "--metrics") {
      args.metrics_table = true;
    } else if (flag == "--metrics-json") {
      args.metrics_json = true;
      // Optional value: `--metrics-json=file`, or `--metrics-json file`
      // when the next slot is not a flag; bare means stdout.
      if (inline_value.has_value()) {
        args.metrics_json_path = *inline_value;
      } else if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        args.metrics_json_path = argv[++i];
      }
    } else if (flag == "--report") {
      args.report = true;
    } else if (flag == "--report-json") {
      args.report_json = true;
      if (inline_value.has_value()) {
        args.report_json_path = *inline_value;
      } else if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        args.report_json_path = argv[++i];
      }
    } else {
      std::fprintf(stderr, "unknown or incomplete flag: %s\n", flag.c_str());
      return args;
    }
  }
  if (positional.size() != 2) {
    std::fprintf(stderr, "expected a command and an input\n");
    return args;
  }
  args.command = positional[0];
  args.input = positional[1];
  const bool generated = !args.input.empty() && args.input[0] == '@';
  if (!args.protected_given && !generated) {
    std::fprintf(stderr, "--protected is required for file input\n");
    return args;
  }
  if (args.command == "remedy" && args.output.empty()) {
    std::fprintf(stderr, "remedy needs --out\n");
    return args;
  }
  if (args.mmap_existing && args.store_dir.empty()) {
    std::fprintf(stderr, "--mmap needs --store-dir\n");
    return args;
  }
  if (!args.store_dir.empty() && args.command != "identify") {
    std::fprintf(stderr, "--store-dir is an identify flag\n");
    return args;
  }
  if (!args.remedy_backend_name.empty() && args.command != "remedy") {
    std::fprintf(stderr, "--remedy-backend is a remedy flag\n");
    return args;
  }
  args.valid = args.command == "audit" || args.command == "plan" ||
               args.command == "remedy" || args.command == "identify";
  return args;
}

// Expands an `@name[:rows]` input: generates the named synthetic dataset,
// serializes it to CSV text, and re-parses that text — so generator runs
// exercise (and meter) the same ingestion path as file runs.
StatusOr<CsvTable> GenerateInput(const std::string& input, CliArgs* args) {
  std::string name = input.substr(1);
  int rows = 0;  // 0: the generator's Table II default
  const size_t colon = name.find(':');
  if (colon != std::string::npos) {
    StatusOr<int> parsed = ParseNumber<int>(name.substr(colon + 1));
    rows = parsed.ok() ? parsed.value() : 0;
    if (rows <= 0) {
      return InvalidArgumentError("bad row count in generator input '" +
                                  input + "'");
    }
    name = name.substr(0, colon);
  }
  Dataset generated;
  if (name == "adult") {
    generated = rows > 0 ? MakeAdult(rows) : MakeAdult();
  } else if (name == "compas") {
    generated = rows > 0 ? MakeCompas(rows) : MakeCompas();
  } else if (name == "lawschool") {
    generated = rows > 0 ? MakeLawSchool(rows) : MakeLawSchool();
  } else {
    return InvalidArgumentError("unknown generator '" + input +
                                "' (want @adult, @compas or @lawschool)");
  }
  if (!args->protected_given) {
    for (int index : generated.schema().protected_indices()) {
      args->loader.protected_attributes.push_back(
          generated.schema().attribute(index).name());
    }
  }
  CsvParseOptions parse;
  parse.has_header = true;
  parse.tolerate_bad_rows = args->loader.on_bad_row != BadRowPolicy::kFail;
  return ParseCsv(WriteCsv(generated.ToCsv()), parse);
}

int RunPlanCommand(const CliArgs& args, const Dataset& data) {
  RemedyParams params;
  params.ibs.imbalance_threshold = args.tau_c;
  params.ibs.distance_threshold = args.distance;
  params.technique = args.technique;
  params.seed = args.seed;
  StatusOr<std::vector<PlannedAction>> planned = PlanRemedy(data, params);
  if (!planned.ok()) return Fail("plan failed", planned.status());
  const std::vector<PlannedAction>& plan = planned.value();
  if (plan.empty()) {
    std::printf("no biased regions at tau_c = %g, T = %g\n", args.tau_c,
                args.distance);
    return 0;
  }
  TablePrinter table({"region", "|r+|", "|r-|", "ratio_r", "ratio_rn",
                      "planned update"});
  for (const PlannedAction& action : plan) {
    std::string update;
    if (!action.update.reachable) {
      update = "skip (unreachable target)";
    } else if (action.update.flips > 0) {
      update = "flip " + std::to_string(action.update.flips) + " labels";
    } else {
      if (action.update.delta_positives != 0) {
        update += (action.update.delta_positives > 0 ? "+" : "") +
                  std::to_string(action.update.delta_positives) + " pos ";
      }
      if (action.update.delta_negatives != 0) {
        update += (action.update.delta_negatives > 0 ? "+" : "") +
                  std::to_string(action.update.delta_negatives) + " neg";
      }
      if (update.empty()) update = "none (already matching)";
    }
    table.AddRow({action.region.pattern.ToString(data.schema()),
                  std::to_string(action.region.counts.positives),
                  std::to_string(action.region.counts.negatives),
                  FormatDouble(action.region.ratio, 2),
                  FormatDouble(action.region.neighbor_ratio, 2), update});
  }
  table.Print(std::cout);
  std::printf("%zu biased regions; re-run with `remedy --out` to apply.\n",
              plan.size());
  return 0;
}

// Biased regions counted from the columnar store. Default: in-memory
// encoding. --store-dir spills the encoding to per-shard files and counts
// memory-mapped off them; --mmap re-opens files a previous run spilled.
int RunIdentifyCommand(const CliArgs& args, const Dataset& data) {
  StatusOr<ColumnarShardStore> store = [&]() -> StatusOr<ColumnarShardStore> {
    if (args.store_dir.empty()) {
      return ColumnarShardStore::FromDataset(data);
    }
    if (args.mmap_existing) {
      return ColumnarShardStore::OpenSpilled(args.store_dir, data.schema());
    }
    ColumnarShardStoreBuilder builder(data.schema());
    RETURN_IF_ERROR(builder.EnableSpill(args.store_dir));
    builder.Append(data);
    return builder.FinishSpilled();
  }();
  if (!store.ok()) return Fail("store failed", store.status());

  IbsParams params;
  params.imbalance_threshold = args.tau_c;
  params.distance_threshold = args.distance;
  StatusOr<std::vector<BiasedRegion>> identified =
      IdentifyIbs(store.value(), params);
  if (!identified.ok()) return Fail("identify failed", identified.status());
  const std::vector<BiasedRegion>& ibs = identified.value();
  if (!args.store_dir.empty()) {
    std::printf("counted %s %lld-byte spilled store (%d shards) in %s\n",
                args.mmap_existing ? "existing" : "freshly written",
                static_cast<long long>(store.value().SpilledBytes()),
                store.value().NumShards(), args.store_dir.c_str());
  }
  if (ibs.empty()) {
    std::printf("no biased regions at tau_c = %g, T = %g\n", args.tau_c,
                args.distance);
    return 0;
  }
  TablePrinter table({"region", "|r+|", "|r-|", "ratio_r", "ratio_rn"});
  for (const BiasedRegion& region : ibs) {
    table.AddRow({region.pattern.ToString(data.schema()),
                  std::to_string(region.counts.positives),
                  std::to_string(region.counts.negatives),
                  FormatDouble(region.ratio, 2),
                  FormatDouble(region.neighbor_ratio, 2)});
  }
  table.Print(std::cout);
  std::printf("%zu biased regions\n", ibs.size());
  return 0;
}

int RunAuditCommand(const CliArgs& args, const Dataset& data) {
  // Where does the label concentrate? (context for the IBS findings)
  PrintDatasetProfile(ProfileDataset(data), std::cout);
  std::printf("\n");

  Rng rng(7);
  auto [train, test] = data.TrainTestSplit(0.7, rng);
  ClassifierPtr model = MakeClassifier(ModelType::kDecisionTree);
  model->Fit(train);

  AuditOptions options;
  options.discrimination_threshold = args.tau_d;
  options.ibs.imbalance_threshold = args.tau_c;
  options.ibs.distance_threshold = args.distance;
  AuditReport report =
      RunAudit(train, test, model->PredictAll(test), options);
  PrintAuditReport(report, data.schema(), std::cout);

  for (const AuditStatisticSection& section : report.sections) {
    if (!section.unfair.empty()) return 2;  // data-quality gate tripped
  }
  return 0;
}

int RunRemedyCommand(const CliArgs& args, const Dataset& data) {
  RemedyParams params;
  params.ibs.imbalance_threshold = args.tau_c;
  params.ibs.distance_threshold = args.distance;
  params.technique = args.technique;
  params.seed = args.seed;

  // Resolve --remedy-backend here (not in ParseArgs) so an unknown name
  // exits 64 like every other invalid-argument error, with the suggestion
  // list from ParseRemedyBackend in the message.
  RemedyBackendKind backend_kind = RemedyBackendKind::kIncremental;
  if (!args.remedy_backend_name.empty()) {
    StatusOr<RemedyBackendKind> parsed =
        ParseRemedyBackend(args.remedy_backend_name);
    if (!parsed.ok()) return Fail("bad --remedy-backend", parsed.status());
    backend_kind = parsed.value();
  }
  if (backend_kind == RemedyBackendKind::kStreaming &&
      (args.report || args.report_json)) {
    return Fail("bad --remedy-backend",
                InvalidArgumentError(
                    "the streaming backend plans on leaf counts and cannot "
                    "produce an audited before/after report; use "
                    "--remedy-backend rebuild or incremental with --report"));
  }
  params.engine = backend_kind == RemedyBackendKind::kRebuild
                      ? RemedyEngine::kRebuild
                      : RemedyEngine::kIncremental;

  Dataset remedied;
  RemedyStats stats;
  if (args.report || args.report_json) {
    StatusOr<PipelineReport> audited =
        RunAuditedRemedy(data, params, &remedied);
    if (!audited.ok()) return Fail("remedy failed", audited.status());
    const PipelineReport& report = audited.value();
    stats = report.stats;
    if (args.report) PrintPipelineReport(report, std::cout);
    if (args.report_json) {
      const std::string json = report.ToJson();
      if (args.report_json_path.empty()) {
        std::printf("%s\n", json.c_str());
      } else {
        Status written = WriteTextFile(args.report_json_path, json);
        if (!written.ok()) return Fail("report write failed", written);
        std::printf("wrote report %s\n", args.report_json_path.c_str());
      }
    }
  } else {
    std::unique_ptr<RemedyBackend> backend = RemedyBackend::Create(backend_kind);
    RemedySource source;
    source.dataset = &data;
    StatusOr<Dataset> result = backend->Remedy(source, params, &stats);
    if (!result.ok()) return Fail("remedy failed", result.status());
    remedied = std::move(result).value();
  }
  std::printf(
      "remedied %d regions (skipped %d) via the %s backend: +%lld / -%lld "
      "instances, %lld labels flipped; %d -> %d rows\n",
      stats.regions_processed, stats.regions_skipped,
      RemedyBackendName(backend_kind),
      static_cast<long long>(stats.instances_added),
      static_cast<long long>(stats.instances_removed),
      static_cast<long long>(stats.labels_flipped), data.NumRows(),
      remedied.NumRows());
  Status written = WriteCsvFile(args.output, remedied.ToCsv());
  if (!written.ok()) return Fail("write failed", written);
  std::printf("wrote %s\n", args.output.c_str());
  return 0;
}

int RunCommand(CliArgs& args) {
  LoaderReport report;
  QuarantineReport quarantine;
  ScopedQuarantineExport exported(&quarantine);
  StatusOr<Dataset> loaded = [&]() -> StatusOr<Dataset> {
    if (!args.input.empty() && args.input[0] == '@') {
      ASSIGN_OR_RETURN(CsvTable table, GenerateInput(args.input, &args));
      return BuildDataset(table, args.loader, &report, &quarantine);
    }
    return LoadCsvDataset(args.input, args.loader, &report, &quarantine);
  }();
  if (!loaded.ok()) return Fail("load failed", loaded.status());
  const Dataset& data = loaded.value();
  std::printf(
      "loaded %d rows (%d dropped for missing values), %d categorical + %d "
      "bucketized numeric attributes, %d protected\n",
      report.rows_loaded, report.rows_dropped_missing,
      report.categorical_columns, report.numeric_columns,
      data.schema().NumProtected());
  if (quarantine.rows_quarantined > 0) {
    std::printf("quarantined %lld malformed record(s) (%.2f%% of the file, "
                "policy %s):\n",
                static_cast<long long>(quarantine.rows_quarantined),
                100.0 * quarantine.fraction,
                args.loader.on_bad_row == BadRowPolicy::kDrop ? "drop"
                                                              : "quarantine");
    for (const CsvBadRow& row : quarantine.examples) {
      std::printf("  line %d: %s\n", row.line, row.reason.c_str());
    }
    if (quarantine.rows_quarantined >
        static_cast<int64_t>(quarantine.examples.size())) {
      std::printf("  ... and %lld more\n",
                  static_cast<long long>(quarantine.rows_quarantined -
                                         quarantine.examples.size()));
    }
  }
  std::printf("\n");

  if (args.command == "audit") return RunAuditCommand(args, data);
  if (args.command == "plan") return RunPlanCommand(args, data);
  if (args.command == "identify") return RunIdentifyCommand(args, data);
  return RunRemedyCommand(args, data);
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args = ParseArgs(argc, argv);
  if (!args.flag_error.ok()) return Fail("bad flag", args.flag_error);
  if (!args.valid) {
    PrintUsage();
    return 1;
  }

  // Blocked here (and inherited by every thread the run spawns), consumed
  // by the watcher: an interrupt flushes trace/metrics/quarantine instead
  // of silently dropping them.
  g_cli_args.store(&args);
  sigset_t signals;
  sigemptyset(&signals);
  sigaddset(&signals, SIGINT);
  sigaddset(&signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &signals, nullptr);
  std::thread watcher(WatchForInterrupt, signals);

  int rc;
  {
    // The sink brackets the whole run, so loader spans are captured too.
    std::unique_ptr<TraceSink> sink;
    if (!args.trace_out.empty()) sink = std::make_unique<TraceSink>();
    g_trace_sink.store(sink.get());
    rc = RunCommand(args);
    g_trace_sink.store(nullptr);  // main owns the final trace write below
    if (sink != nullptr) {
      Status written = sink->WriteChromeJson(args.trace_out);
      if (!written.ok()) {
        std::fprintf(stderr, "trace write failed: %s\n",
                     written.ToString().c_str());
        if (rc == 0) rc = ExitCodeFor(written.code());
      } else {
        std::printf("wrote trace %s (%zu spans)\n", args.trace_out.c_str(),
                    sink->Events().size());
      }
    }
  }

  if (args.metrics_table) {
    PrintMetricsTable(MetricsRegistry::Global().Snapshot(), std::cout);
  }
  if (args.metrics_json) {
    if (args.metrics_json_path.empty()) {
      std::printf("%s\n",
                  MetricsToJson(MetricsRegistry::Global().Snapshot()).c_str());
    } else {
      Status written = WriteMetricsJsonFile(args.metrics_json_path);
      if (!written.ok()) {
        std::fprintf(stderr, "metrics write failed: %s\n",
                     written.ToString().c_str());
        if (rc == 0) rc = ExitCodeFor(written.code());
      } else {
        std::printf("wrote metrics %s\n", args.metrics_json_path.c_str());
      }
    }
  }
  g_work_done.store(true);
  watcher.join();
  return rc;
}
