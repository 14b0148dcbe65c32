// remedy_cli: command-line front end for auditing and remedying CSV
// datasets — the adoption path for users with their own data. The
// commands (audit, plan, remedy, identify), every flag and the exit codes
// are documented in docs/CLI.md; the flag table is CliFlags below.

#include <signal.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cli/cli_common.h"
#include "cli/flags.h"
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
#include "data/columnar.h"
#include "data/loader.h"
#include "data/profile.h"
#include "fairness/report.h"
#include "ml/model_factory.h"

namespace {

using namespace remedy;

struct CliArgs {
  std::string command;
  std::string input;
  std::string output;
  LoaderOptions loader;
  std::optional<std::string> protected_list;  // unset: the generator's set
  double tau_c = 0.1;
  double tau_d = 0.1;
  double distance = 1.0;
  RemedyTechnique technique = RemedyTechnique::kPreferentialSampling;
  uint64_t seed = 23;
  std::string trace_out;
  bool metrics_table = false;
  std::optional<std::string> metrics_json;  // "": stdout
  bool report = false;
  std::optional<std::string> report_json;  // "": stdout
  std::string store_dir;  // identify: spill here, count mmap-backed
  bool mmap_existing = false;  // identify: reuse an already-spilled store
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
    if (args->metrics_json.has_value()) {
      if (args->metrics_json->empty()) {
        std::printf(
            "%s\n", MetricsToJson(MetricsRegistry::Global().Snapshot()).c_str());
      } else {
        Status written = WriteMetricsJsonFile(*args->metrics_json);
        std::fprintf(stderr, "  metrics %s: %s\n",
                     args->metrics_json->c_str(),
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

std::vector<Flag> CliFlags(CliArgs& args) {
  return {
      StringFlag("--protected", &args.protected_list, "a,b[,..]",
                 "protected attributes (required for file input)"),
      StringFlag("--label", &args.loader.label_column, "col", "label column"),
      StringFlag("--positive", &args.loader.positive_label, "v",
                 "positive label value"),
      StringFlag("--out", &args.output, "file.csv", "remedy: output path"),
      NumberFlag("--tau-c", &args.tau_c, "x", "imbalance threshold"),
      NumberFlag("--tau-d", &args.tau_d, "x",
                 "audit: discrimination threshold"),
      NumberFlag("--T", &args.distance, "x", "neighborhood distance threshold"),
      NumberFlag("--seed", &args.seed, "n", "remedy: sampling seed"),
      ChoiceFlag("--technique", &args.technique, TechniqueChoices(),
                 "plan, remedy: remedy technique"),
      ChoiceFlag("--on-bad-row", &args.loader.on_bad_row,
                 Choices<BadRowPolicy>{
                     {"fail", BadRowPolicy::kFail},
                     {"quarantine", BadRowPolicy::kQuarantine},
                     {"drop", BadRowPolicy::kDrop}},
                 "malformed-record policy"),
      NumberFlag("--max-quarantine-frac", &args.loader.max_quarantine_fraction,
                 "x", "quarantine circuit breaker"),
      StringFlag("--store-dir", &args.store_dir, "dir",
                 "identify: spill the store here and count it mapped"),
      BoolFlag("--mmap", &args.mmap_existing,
               "identify: re-open the store in --store-dir"),
      StringFlag("--trace-out", &args.trace_out, "file.json",
                 "write a Chrome trace"),
      BoolFlag("--metrics", &args.metrics_table, "print the metrics table"),
      OptionalPathFlag("--metrics-json", &args.metrics_json, "file",
                       "dump the metrics as JSON (bare: stdout)"),
      BoolFlag("--report", &args.report, "remedy: print the audit trail"),
      OptionalPathFlag("--report-json", &args.report_json, "file",
                       "remedy: the audit trail as JSON (bare: stdout)"),
  };
}

constexpr char kUsage[] =
    "usage: remedy_cli audit|plan|remedy|identify <csv> [flags]\n"
    "  <csv>: a file path, or @adult | @compas | @lawschool\n"
    "         (append :N for N rows, e.g. @adult:10000)\n"
    "flags (docs/CLI.md):\n";

// The rules between flags and positionals; a usage error, or "".
std::string CheckArgs(CliArgs& args,
                      const std::vector<std::string>& positional) {
  if (positional.size() != 2) return "expected a command and an input";
  args.command = positional[0];
  args.input = positional[1];
  if (args.protected_list.has_value()) {
    args.loader.protected_attributes = Split(*args.protected_list, ',');
  }
  const bool generated = !args.input.empty() && args.input[0] == '@';
  if (!args.protected_list.has_value() && !generated) {
    return "--protected is required for file input";
  }
  if (args.command == "remedy" && args.output.empty()) {
    return "remedy needs --out";
  }
  if (args.mmap_existing && args.store_dir.empty()) {
    return "--mmap needs --store-dir";
  }
  if (!args.store_dir.empty() && args.command != "identify") {
    return "--store-dir is an identify flag";
  }
  if (args.command != "audit" && args.command != "plan" &&
      args.command != "remedy" && args.command != "identify") {
    return "unknown command " + args.command;
  }
  return "";
}

// The JSON of an optional-value flag: to stdout when `path` is empty,
// otherwise to `path`, announced as "wrote <what> <path>".
Status EmitJson(const std::string& json, const std::string& path,
                const char* what) {
  if (path.empty()) {
    std::printf("%s\n", json.c_str());
    return OkStatus();
  }
  RETURN_IF_ERROR(WriteTextFile(path, json));
  std::printf("wrote %s %s\n", what, path.c_str());
  return OkStatus();
}

// Expands an `@name[:rows]` input: generates the named synthetic dataset,
// serializes it to CSV text, and re-parses that text — so generator runs
// exercise (and meter) the same ingestion path as file runs.
StatusOr<CsvTable> GenerateInput(CliArgs* args) {
  ASSIGN_OR_RETURN(Dataset generated, GenerateInputDataset(args->input));
  if (!args->protected_list.has_value()) {
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

  Dataset remedied;
  RemedyStats stats;
  if (args.report || args.report_json.has_value()) {
    StatusOr<PipelineReport> audited =
        RunAuditedRemedy(data, params, &remedied);
    if (!audited.ok()) return Fail("remedy failed", audited.status());
    const PipelineReport& report = audited.value();
    stats = report.stats;
    if (args.report) PrintPipelineReport(report, std::cout);
    if (args.report_json.has_value()) {
      Status written = EmitJson(report.ToJson(), *args.report_json, "report");
      if (!written.ok()) return Fail("report write failed", written);
    }
  } else {
    StatusOr<Dataset> result = RemedyDataset(data, params, &stats);
    if (!result.ok()) return Fail("remedy failed", result.status());
    remedied = std::move(result).value();
  }
  std::printf(
      "remedied %d regions (skipped %d) via the incremental backend: +%lld "
      "/ -%lld instances, %lld labels flipped; %d -> %d rows\n",
      stats.regions_processed, stats.regions_skipped,
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
      ASSIGN_OR_RETURN(CsvTable table, GenerateInput(&args));
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
  CliArgs args;
  const int usage = ParseCommandLine(argc, argv, CliFlags(args),
                                     std::bind_front(CheckArgs, std::ref(args)),
                                     kUsage, 1);
  if (usage != 0) return usage;

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
  if (args.metrics_json.has_value()) {
    Status written =
        EmitJson(MetricsToJson(MetricsRegistry::Global().Snapshot()),
                 *args.metrics_json, "metrics");
    if (!written.ok()) {
      std::fprintf(stderr, "metrics write failed: %s\n",
                   written.ToString().c_str());
      if (rc == 0) rc = ExitCodeFor(written.code());
    }
  }
  g_work_done.store(true);
  watcher.join();
  return rc;
}
