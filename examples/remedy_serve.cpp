// remedy_serve: the crash-safe streaming fairness daemon front end
// (docs/SERVICE.md).
//
//   remedy_serve <schema> --state-dir DIR [flags]
//
// `<schema>` fixes the protected-attribute universe the daemon counts
// over: a built-in generator (`@adult`, `@compas`, `@lawschool`,
// optionally `@adult:10000`) or a CSV file with `--protected a,b,...`
// (`--label` defaults to the last column). The daemon recovers whatever
// durable state `--state-dir` already holds (checkpoint + WAL tail),
// then ingests and serves.
//
// Every flag is documented in docs/CLI.md; the flag table is ServeFlags
// below.
//
// Lifecycle: without --serve the daemon ingests the requested batches,
// prints health, drains + checkpoints and exits. With --serve it then
// stays up until SIGINT/SIGTERM, which drains the queue, checkpoints,
// resets the WAL and exits 0 (the signal path is the graceful one; only
// SIGKILL loses the checkpoint, and then recovery replays the WAL).
// --health-out FILE additionally writes the final health JSON to a file.
//
// Exit codes match remedy_cli: 0 success, 1 usage, 64 invalid argument,
// 65 corrupt state, 70 internal, 74 I/O, 75 resource exhausted.

#include <signal.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cli/cli_common.h"
#include "cli/flags.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"
#include "core/hierarchy.h"
#include "data/loader.h"
#include "serve/daemon.h"

namespace {

using namespace remedy;

struct ServeArgs {
  std::string input;
  std::vector<std::string> protected_lists;  // each a,b,...; none: generator's
  std::vector<std::string> batch_files;
  bool seed = false;
  int demo_batches = 0;
  int kill_after = 0;
  bool serve = false;
  std::string health_out;
  std::optional<RemedyTechnique> remedy;  // set: one remedy round
  bool kill_after_remedy = false;
  ServeOptions options;
  LoaderOptions loader;
};

std::vector<Flag> ServeFlags(ServeArgs& args) {
  ServeOptions& options = args.options;
  return {
      StringFlag("--state-dir", &options.state_dir, "DIR",
                 "WAL and checkpoint directory (required)"),
      RepeatedFlag("--protected", &args.protected_lists, "a,b,...",
                   "protected attributes (required for file input)"),
      StringFlag("--label", &args.loader.label_column, "col", "label column"),
      BoolFlag("--seed", &args.seed, "ingest the schema dataset first"),
      RepeatedFlag("--batch", &args.batch_files, "file",
                   "ingest a CSV delta batch (repeatable)"),
      NumberFlag("--demo", &args.demo_batches, "N", "ingest N demo batches"),
      NumberFlag("--kill-after", &args.kill_after, "N",
                 "crash after N ingests (no checkpoint)"),
      BoolFlag("--serve", &args.serve, "stay up until SIGINT/SIGTERM"),
      StringFlag("--health-out", &args.health_out, "file",
                 "write the final health JSON"),
      ChoiceFlag("--remedy", &args.remedy, TechniqueChoices(),
                 "commit one remedy round after ingest"),
      BoolFlag("--auto-remedy", &options.auto_remedy,
               "remedy on every non-empty IBS epoch"),
      NumberFlag("--remedy-seed", &options.remedy.seed, "N",
                 "remedy planner seed"),
      NumberFlag("--remedy-rounds", &options.auto_remedy_max_rounds, "N",
                 "auto-remedy round budget"),
      BoolFlag("--kill-after-remedy", &args.kill_after_remedy,
               "crash after the remedy phase (no checkpoint)"),
      NumberFlag("--queue-capacity", &options.queue_capacity, "N",
                 "ingest queue capacity in batches"),
      NumberFlag("--retry-after-ms", &options.retry_after_ms, "MS",
                 "backpressure retry hint"),
      NumberFlag("--watchdog", &options.watchdog_trip_threshold, "N",
                 "apply failures before read-only"),
      NumberFlag("--checkpoint-every", &options.checkpoint_every_batches, "N",
                 "checkpoint every N batches (0: on shutdown)"),
      NumberFlag("--identify-every", &options.identify_every_epochs, "N",
                 "identify every N epochs (0: never)"),
      ChoiceFlag("--identify-mode", &options.identify_mode,
                 Choices<IdentifyMode>{
                     {"full", IdentifyMode::kFull},
                     {"incremental", IdentifyMode::kIncremental}},
                 "per-epoch identify"),
      NumberFlag("--threads", &options.build_threads, "N",
                 "recovery build fan-out"),
      NumberFlag("--tau-c", &options.ibs.imbalance_threshold, "X",
                 "imbalance threshold"),
      NumberFlag("--T", &options.ibs.distance_threshold, "X",
                 "neighborhood distance threshold"),
      NumberFlag("--min-region", &options.ibs.min_region_size, "N",
                 "smallest region audited"),
  };
}

constexpr char kUsage[] =
    "usage: remedy_serve <@adult[:N]|@compas[:N]|@lawschool[:N]|schema.csv>"
    " --state-dir DIR [flags]\n"
    "flags (docs/CLI.md):\n";

// The rules between flags and positionals; a usage error, or "".
std::string CheckArgs(ServeArgs& args,
                      const std::vector<std::string>& positional) {
  if (positional.size() != 1) return "exactly one schema input is required";
  args.input = positional[0];
  if (args.options.state_dir.empty()) return "--state-dir is required";
  for (const std::string& list : args.protected_lists) {
    for (const std::string& name : Split(list, ',')) {
      args.loader.protected_attributes.push_back(name);
    }
  }
  const bool generated = args.input[0] == '@';
  if (args.protected_lists.empty() && !generated) {
    return "--protected is required for file input";
  }
  if (args.kill_after_remedy && !args.remedy.has_value() &&
      !args.options.auto_remedy) {
    return "--kill-after-remedy needs --remedy or --auto-remedy";
  }
  if (args.remedy.has_value()) args.options.remedy.technique = *args.remedy;
  if (args.remedy.has_value() || args.options.auto_remedy) {
    args.options.enable_remedy = true;
  }
  return "";
}

// Submits pre-aggregated deltas, waiting out backpressure: a
// kResourceExhausted rejection is retried after the daemon's retry-after
// hint. Any other rejection is final.
Status SubmitWithBackpressure(ServeDaemon& daemon,
                              std::vector<Hierarchy::LeafDelta> deltas,
                              int retry_after_ms) {
  for (;;) {
    Status s = daemon.Submit(deltas);
    if (s.code() != StatusCode::kResourceExhausted) return s;
    std::this_thread::sleep_for(std::chrono::milliseconds(retry_after_ms));
  }
}

// The schema dataset's full leaf census as one batch of insertions.
std::vector<Hierarchy::LeafDelta> SeedDeltas(const Dataset& data) {
  Hierarchy hierarchy(data);
  const NodeTable& leaves = hierarchy.NodeCounts(hierarchy.LeafMask());
  std::vector<Hierarchy::LeafDelta> deltas;
  deltas.reserve(leaves.size());
  for (const auto& [key, counts] : leaves) {
    deltas.push_back({key, counts.positives, counts.negatives});
  }
  return deltas;
}

// One synthetic demo batch: a handful of insertions over the schema's
// observed leaves, deterministic in `round` so reruns are reproducible.
std::vector<Hierarchy::LeafDelta> DemoBatch(
    const std::vector<uint64_t>& leaf_keys, int round) {
  Rng rng(0x5eedULL + static_cast<uint64_t>(round));
  std::vector<Hierarchy::LeafDelta> deltas;
  const int touched = rng.UniformRange(1, 4);
  for (int i = 0; i < touched; ++i) {
    const uint64_t key =
        leaf_keys[rng.UniformInt(static_cast<int>(leaf_keys.size()))];
    deltas.push_back({key, rng.UniformInt(4), rng.UniformInt(4)});
  }
  return deltas;
}

void PrintSnapshot(const ServeDaemon& daemon) {
  std::shared_ptr<const EpochSnapshot> snap = daemon.Snapshot();
  std::printf("epoch %llu: %lld+ / %lld- instances, %zu biased region(s)%s\n",
              static_cast<unsigned long long>(snap->epoch),
              static_cast<long long>(snap->totals.positives),
              static_cast<long long>(snap->totals.negatives),
              snap->ibs.size(), snap->read_only ? " [read-only]" : "");
}

// True when a blocked SIGINT/SIGTERM is already pending (non-blocking
// probe, used between batches so a Ctrl-C mid-ingest still drains).
bool SignalPending(const sigset_t& set) {
  struct timespec zero = {0, 0};
  return sigtimedwait(&set, nullptr, &zero) > 0;
}

int Run(const ServeArgs& args, const sigset_t& signals) {
  // The schema dataset: a generator or a CSV file, through the same loader
  // remedy_cli uses.
  LoaderReport report;
  StatusOr<Dataset> schema_data =
      args.input[0] == '@'
          ? GenerateInputDataset(args.input)
          : LoadCsvDataset(args.input, args.loader, &report, nullptr);
  if (!schema_data.ok()) return Fail("schema load failed", schema_data.status());
  const Dataset& data = schema_data.value();
  std::printf("schema: %d attributes, %d protected; state dir %s\n",
              data.schema().NumAttributes(), data.schema().NumProtected(),
              args.options.state_dir.c_str());

  StatusOr<std::unique_ptr<ServeDaemon>> started =
      ServeDaemon::Start(data.schema(), args.options);
  if (!started.ok()) return Fail("daemon start failed", started.status());
  ServeDaemon& daemon = *started.value();
  std::printf("recovered: %s\n", daemon.HealthJson().c_str());

  int applied_ingests = 0;
  bool killed = false;
  auto after_ingest = [&]() -> bool {  // returns "keep going"
    ++applied_ingests;
    if (args.kill_after > 0 && applied_ingests >= args.kill_after) {
      killed = true;
      return false;
    }
    return !SignalPending(signals);
  };

  if (args.seed) {
    Status s = SubmitWithBackpressure(daemon, SeedDeltas(data),
                                      args.options.retry_after_ms);
    if (!s.ok()) return Fail("seed batch rejected", s);
    std::printf("seeded %d rows\n", data.NumRows());
    after_ingest();
  }
  bool interrupted_ingest = false;
  for (const std::string& file : args.batch_files) {
    if (interrupted_ingest || killed) break;
    Status s = daemon.IngestCsvFile(file);
    if (s.code() == StatusCode::kResourceExhausted) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(args.options.retry_after_ms));
      s = daemon.IngestCsvFile(file);
    }
    if (!s.ok()) return Fail("batch " + file + " rejected", s);
    std::printf("ingested batch %s\n", file.c_str());
    interrupted_ingest = !after_ingest();
  }
  if (args.demo_batches > 0 && !interrupted_ingest && !killed) {
    std::vector<uint64_t> leaf_keys;
    for (const Hierarchy::LeafDelta& d : SeedDeltas(data)) {
      leaf_keys.push_back(d.leaf_key);
    }
    if (leaf_keys.empty()) {
      return Fail("demo needs a non-empty schema dataset",
                  InvalidArgumentError("no leaves"));
    }
    int ingested = 0;
    for (int round = 0; round < args.demo_batches; ++round) {
      Status s = SubmitWithBackpressure(daemon, DemoBatch(leaf_keys, round),
                                        args.options.retry_after_ms);
      if (!s.ok()) return Fail("demo batch rejected", s);
      ++ingested;
      if (!after_ingest()) {
        interrupted_ingest = true;
        break;
      }
    }
    std::printf("ingested %d demo batch(es)\n", ingested);
  }

  if (killed) {
    // Crash simulation: leave the WAL as-is — no drain, no checkpoint.
    // The next start must replay to these exact counts.
    Status flushed = daemon.Flush();
    PrintSnapshot(daemon);
    std::printf("kill-after: exiting without checkpoint (wal retains %s)\n",
                flushed.ok() ? "all applied batches" : "the durable prefix");
    std::printf("final: %s\n", daemon.HealthJson().c_str());
    std::fflush(stdout);  // _Exit drops buffered output
    std::_Exit(0);  // ~ServeDaemon would checkpoint; a crash doesn't.
  }

  Status flushed = daemon.Flush();
  if (!flushed.ok()) {
    std::fprintf(stderr, "degraded: %s\n", flushed.ToString().c_str());
  }
  PrintSnapshot(daemon);

  // --- remedy phase: after ingest has drained (docs/REMEDY.md) --------
  if (args.remedy.has_value() && !daemon.read_only()) {
    RemedyParams params = args.options.remedy;
    params.ibs = args.options.ibs;
    // A concurrent auto-remedy round can make this plan stale; re-plan.
    StatusOr<RemedyCommitResult> remedied = daemon.SubmitRemedy(params);
    for (int attempt = 0;
         !remedied.ok() &&
         remedied.status().code() == StatusCode::kResourceExhausted &&
         attempt < 3;
         ++attempt) {
      remedied = daemon.SubmitRemedy(params);
    }
    if (!remedied.ok()) return Fail("remedy failed", remedied.status());
    const RemedyCommitResult& r = remedied.value();
    if (r.committed) {
      std::printf(
          "remedy committed: %zu leaf delta(s), epoch %llu -> %llu "
          "(+%lld/-%lld instances, %lld flips)\n",
          r.deltas, static_cast<unsigned long long>(r.planned_epoch),
          static_cast<unsigned long long>(r.applied_epoch),
          static_cast<long long>(r.stats.instances_added),
          static_cast<long long>(r.stats.instances_removed),
          static_cast<long long>(r.stats.labels_flipped));
    } else {
      std::printf("remedy: nothing to do at epoch %llu\n",
                  static_cast<unsigned long long>(r.planned_epoch));
    }
  }
  if (args.options.auto_remedy) {
    daemon.WaitRemedyIdle();
    Status drained = daemon.Flush();
    if (!drained.ok()) {
      std::fprintf(stderr, "degraded: %s\n", drained.ToString().c_str());
    }
    std::printf("auto-remedy quiesced: %lld remedy commit(s)\n",
                static_cast<long long>(daemon.remedy_commits()));
  }
  if (args.remedy.has_value() || args.options.auto_remedy) PrintSnapshot(daemon);
  if (args.kill_after_remedy) {
    // Crash simulation mirroring --kill-after: the remedy records are
    // durable in the WAL but no checkpoint covers them; the next start
    // must replay to the post-remedy counts.
    const std::string health = daemon.HealthJson();
    std::printf("kill-after-remedy: exiting without checkpoint\n");
    std::printf("final: %s\n", health.c_str());
    if (!args.health_out.empty()) {
      Status written = WriteTextFile(args.health_out, health + "\n");
      if (!written.ok()) return Fail("health write failed", written);
    }
    std::fflush(stdout);  // _Exit drops buffered output
    std::_Exit(0);
  }

  if (args.serve && !interrupted_ingest) {
    std::printf("serving; SIGINT/SIGTERM drains and checkpoints\n");
    std::fflush(stdout);
    int sig = 0;
    sigwait(&signals, &sig);
    std::printf("signal %d: draining\n", sig);
  } else if (interrupted_ingest) {
    std::printf("interrupted: draining\n");
  }

  Status stopped = daemon.Stop();
  if (!stopped.ok()) {
    std::fprintf(stderr, "shutdown degraded: %s\n", stopped.ToString().c_str());
  }
  const std::string health = daemon.HealthJson();
  std::printf("final: %s\n", health.c_str());
  if (!args.health_out.empty()) {
    Status written = WriteTextFile(args.health_out, health + "\n");
    if (!written.ok()) return Fail("health write failed", written);
    std::printf("wrote %s\n", args.health_out.c_str());
  }
  // A degraded-but-drained shutdown still served; only report hard errors.
  if (!stopped.ok() && !daemon.needs_recovery()) {
    return ExitCodeFor(stopped.code());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ServeArgs args;
  const int usage = ParseCommandLine(argc, argv, ServeFlags(args),
                                     std::bind_front(CheckArgs, std::ref(args)),
                                     kUsage, 1);
  if (usage != 0) return usage;
  // Block SIGINT/SIGTERM in every thread (the apply thread inherits this
  // mask), then consume them synchronously: sigwait in --serve mode, a
  // non-blocking pending probe between ingests otherwise. Either way the
  // daemon drains and checkpoints instead of dying mid-commit.
  sigset_t signals;
  sigemptyset(&signals);
  sigaddset(&signals, SIGINT);
  sigaddset(&signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &signals, nullptr);
  return Run(args, signals);
}
