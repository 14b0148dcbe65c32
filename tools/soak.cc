// soak: chaos/soak harness for the streaming fairness daemon
// (docs/SERVICE.md). Drives a scripted delta workload through ServeDaemon
// across several process "lifetimes" while a FaultInjector randomly fails
// WAL appends, fsyncs, lattice applies and ingest reads, and every
// --kill-every-th lifetime ends in a simulated SIGKILL (no checkpoint, the
// WAL is all that survives).
//
// The harness keeps an oracle — the log of every batch the daemon
// acknowledged as applied — and checks three invariants the whole way:
//
//   1. Durability: after every restart the recovered lattice digest equals
//      the oracle replay's digest (when a batch's fate was left ambiguous
//      by a mid-commit fault, either the with-batch or without-batch
//      digest, and the match retroactively settles the fate).
//   2. Liveness: the daemon answers snapshot + identify + health queries
//      after every batch, read-only or not.
//   3. Monitoring: after the final recovery a batch built to change the
//      set of biased regions changes it and trips the online IBS monitor.
//
// Exit 0 when every invariant held; 1 otherwise (the violation is printed);
// 64 when a numeric flag value is malformed, 2 for other usage errors.
//
// usage: soak --state-dir DIR [--cycles N] [--batches N] [--kill-every K]
//             [--fault-prob P] [--seed S]

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cli/flags.h"
#include "common/check.h"
#include "common/fault_injection.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/hierarchy.h"
#include "core/imbalance.h"
#include "core/region_counter.h"
#include "data/schema.h"
#include "serve/daemon.h"

namespace {

using namespace remedy;

using Batch = std::vector<Hierarchy::LeafDelta>;

struct SoakArgs {
  std::string state_dir;
  int cycles = 4;
  int batches = 25;      // per cycle
  int kill_every = 2;    // every k-th cycle ends in a simulated SIGKILL
  double fault_prob = 0.05;
  uint64_t seed = 1;
};

// The same two-protected-attribute shape the unit tests use: a (3 values)
// and b (2 values) protected, f a feature. Six leaves.
DataSchema SoakSchema() {
  std::vector<AttributeSchema> attributes = {
      AttributeSchema("a", {"a0", "a1", "a2"}),
      AttributeSchema("b", {"b0", "b1"}),
      AttributeSchema("f", {"f0", "f1"}),
  };
  return DataSchema(std::move(attributes), {0, 1});
}

// Replays `log` into a fresh lattice and digests it — the ground truth a
// recovered daemon must match.
uint64_t OracleDigest(const DataSchema& schema, const std::vector<Batch>& log) {
  Hierarchy oracle(schema, NodeTable(), RegionCounts());
  Status built = oracle.EagerBuild(1);
  REMEDY_CHECK(built.ok()) << "oracle build failed: " << built.ToString();
  for (const Batch& batch : log) oracle.ApplyDeltas(batch, true);
  return oracle.CountsDigest();
}

RegionCounts OracleTotals(const std::vector<Batch>& log) {
  RegionCounts totals;
  for (const Batch& batch : log) {
    for (const Hierarchy::LeafDelta& d : batch) {
      totals.positives += d.delta_positives;
      totals.negatives += d.delta_negatives;
    }
  }
  return totals;
}

// Net per-leaf counts of the applied log, for bounding retractions.
void OracleLeafCounts(const std::vector<Batch>& log,
                      std::vector<RegionCounts>& leaves) {
  for (RegionCounts& c : leaves) c = RegionCounts();
  for (const Batch& batch : log) {
    for (const Hierarchy::LeafDelta& d : batch) {
      leaves[d.leaf_key].positives += d.delta_positives;
      leaves[d.leaf_key].negatives += d.delta_negatives;
    }
  }
}

// One workload batch: 1-3 leaves of additions, plus (when allowed) a
// retraction bounded to leave at least one instance behind — never a
// candidate for the daemon's underflow rejection.
Batch MakeBatch(Rng& rng, const std::vector<RegionCounts>& leaves,
                bool allow_retraction) {
  Batch batch;
  const int touched = rng.UniformRange(1, 3);
  for (int i = 0; i < touched; ++i) {
    const uint64_t key =
        static_cast<uint64_t>(rng.UniformInt(static_cast<int>(leaves.size())));
    int64_t dp = rng.UniformInt(4);
    int64_t dn = rng.UniformInt(4);
    if (dp == 0 && dn == 0) dp = 1;  // no-op deltas test nothing
    batch.push_back({key, dp, dn});
  }
  if (allow_retraction && rng.Bernoulli(0.3)) {
    const uint64_t key =
        static_cast<uint64_t>(rng.UniformInt(static_cast<int>(leaves.size())));
    const RegionCounts& have = leaves[key];
    Hierarchy::LeafDelta d = {key, 0, 0};
    if (have.positives > 1) d.delta_positives = -rng.UniformRange(1, static_cast<int>(std::min<int64_t>(have.positives - 1, 3)));
    if (have.negatives > 1) d.delta_negatives = -rng.UniformRange(1, static_cast<int>(std::min<int64_t>(have.negatives - 1, 3)));
    if (d.delta_positives != 0 || d.delta_negatives != 0) batch.push_back(d);
  }
  return batch;
}

// The subgroup set the online monitor digests: (node mask, region key) of
// each biased region, in identify order.
std::vector<std::pair<uint32_t, uint64_t>> Members(
    const RegionCounter& counter, const std::vector<BiasedRegion>& ibs) {
  std::vector<std::pair<uint32_t, uint64_t>> members;
  for (const BiasedRegion& region : ibs) {
    const uint32_t mask = region.pattern.DeterministicMask();
    members.emplace_back(mask, counter.KeyFor(region.pattern, mask));
  }
  return members;
}

// A batch on leaf 0 that provably flips its membership in the set of biased
// leaf regions. A biased leaf 0 is drained, and an empty region is never
// audited. Otherwise leaf 0 becomes 500+ rows of one class: all negative
// (score 0) when its neighborhood — the leaves one attribute away (T = 1,
// nominal attributes) — is all positive (score kAllPositiveRatio, -1), and
// all positive (-1) when it is not (score >= 0). Either way the two scores
// differ by at least 1, far past tau_c.
Batch SkewLeafZero(const RegionCounter& counter,
                   const std::vector<RegionCounts>& leaves, bool biased) {
  const RegionCounts& have = leaves[0];
  if (biased) return {{0, -have.positives, -have.negatives}};
  const uint32_t leaf_mask = 0b11;  // SoakSchema's two protected attributes
  int zero[2] = {0, 0};
  counter.KeyDigits(0, leaf_mask, zero);
  RegionCounts neighborhood;
  for (uint64_t key = 1; key < leaves.size(); ++key) {
    int digits[2] = {0, 0};
    counter.KeyDigits(key, leaf_mask, digits);
    if ((digits[0] != zero[0]) + (digits[1] != zero[1]) != 1) continue;
    neighborhood.positives += leaves[key].positives;
    neighborhood.negatives += leaves[key].negatives;
  }
  if (ImbalanceScore(neighborhood) == kAllPositiveRatio) {
    return {{0, -have.positives, 500}};
  }
  return {{0, 500, -have.negatives}};
}

int Violation(const char* what) {
  std::fprintf(stderr, "SOAK VIOLATION: %s\n", what);
  return 1;
}

std::vector<Flag> SoakFlags(SoakArgs& args) {
  return {
      StringFlag("--state-dir", &args.state_dir, "DIR",
                 "daemon state directory (required)"),
      NumberFlag("--cycles", &args.cycles, "N", "process lifetimes"),
      NumberFlag("--batches", &args.batches, "N", "batches per lifetime"),
      NumberFlag("--kill-every", &args.kill_every, "K",
                 "every K-th lifetime ends in a simulated SIGKILL"),
      NumberFlag("--fault-prob", &args.fault_prob, "P",
                 "probability of each injected fault"),
      NumberFlag("--seed", &args.seed, "S", "workload and fault seed"),
  };
}

// The rules between flags and positionals; a usage error, or "".
std::string CheckArgs(const SoakArgs& args,
                      const std::vector<std::string>& positional) {
  if (!positional.empty()) return "unexpected argument " + positional[0];
  if (args.state_dir.empty()) return "--state-dir is required";
  if (args.cycles <= 0 || args.batches <= 0) {
    return "--cycles and --batches must be positive";
  }
  return "";
}

int RunSoak(const SoakArgs& args) {
  // The oracle starts empty, so the daemon must too: drop any durable
  // state a previous soak left behind (reruns share the state dir).
  std::remove((args.state_dir + "/" + ServeDaemon::kWalFileName).c_str());
  std::remove((args.state_dir + "/" + ServeDaemon::kCheckpointFileName).c_str());

  const DataSchema schema = SoakSchema();
  ServeOptions options;
  options.state_dir = args.state_dir;
  options.queue_capacity = 8;
  options.retry_after_ms = 1;
  options.ibs.min_region_size = 2;
  options.ibs.imbalance_threshold = 0.2;
  options.checkpoint_every_batches = 7;  // exercise mid-cycle checkpoints

  std::vector<Batch> applied_log;  // every batch known to be applied
  Batch pending;                   // fate left ambiguous by a fault
  bool have_pending = false;
  std::vector<RegionCounts> leaves(6);
  Rng rng(args.seed);

  int64_t total_applied = 0, total_rejected = 0, total_queries = 0;
  int kills = 0, recoveries = 0;

  for (int cycle = 0; cycle < args.cycles; ++cycle) {
    // --- recover (fault-free) and reconcile against the oracle ----------
    StatusOr<std::unique_ptr<ServeDaemon>> started =
        ServeDaemon::Start(schema, options);
    if (!started.ok()) {
      std::fprintf(stderr, "start failed: %s\n",
                   started.status().ToString().c_str());
      return Violation("daemon failed to recover from durable state");
    }
    std::unique_ptr<ServeDaemon> daemon = std::move(started.value());
    ++recoveries;

    const uint64_t recovered = daemon->Snapshot()->counts_digest;
    const uint64_t without = OracleDigest(schema, applied_log);
    if (recovered != without && have_pending) {
      applied_log.push_back(pending);  // the ambiguous batch WAS durable
      const uint64_t with = OracleDigest(schema, applied_log);
      if (recovered != with) {
        std::fprintf(stderr,
                     "cycle %d: recovered digest %llu matches neither %llu "
                     "(without pending) nor %llu (with pending)\n",
                     cycle, static_cast<unsigned long long>(recovered),
                     static_cast<unsigned long long>(without),
                     static_cast<unsigned long long>(with));
        return Violation("recovery digest diverged from the applied log");
      }
    } else if (recovered != without) {
      std::fprintf(stderr, "cycle %d: recovered %llu, oracle %llu\n", cycle,
                   static_cast<unsigned long long>(recovered),
                   static_cast<unsigned long long>(without));
      return Violation("recovery digest diverged from the applied log");
    }
    pending.clear();
    have_pending = false;
    OracleLeafCounts(applied_log, leaves);

    // --- workload under random faults -----------------------------------
    const bool kill_cycle =
        args.kill_every > 0 && (cycle + 1) % args.kill_every == 0;
    {
      FaultInjector injector;
      const uint64_t fault_seed = args.seed * 1000003ull + cycle;
      injector.FailWithProbability("wal/append", args.fault_prob,
                                   fault_seed + 1);
      injector.FailWithProbability("wal/fsync", args.fault_prob,
                                   fault_seed + 2);
      injector.FailWithProbability("serve/apply", args.fault_prob,
                                   fault_seed + 3, StatusCode::kInternal);

      for (int b = 0; b < args.batches; ++b) {
        Batch batch = MakeBatch(rng, leaves, !have_pending);
        Status submitted = daemon->Submit(batch);
        int spins = 0;
        while (submitted.code() == StatusCode::kResourceExhausted &&
               ++spins < 200) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          submitted = daemon->Submit(batch);
        }
        Status flushed = daemon->Flush();

        // Liveness: queries must answer no matter what just happened.
        std::shared_ptr<const EpochSnapshot> snap = daemon->Snapshot();
        if (snap == nullptr) return Violation("Snapshot() returned null");
        daemon->QueryIbs();
        if (daemon->HealthJson().empty()) {
          return Violation("HealthJson() returned empty");
        }
        ++total_queries;

        if (submitted.ok() && flushed.ok() && !daemon->read_only()) {
          applied_log.push_back(batch);
          OracleLeafCounts(applied_log, leaves);
          ++total_applied;
          const RegionCounts want = OracleTotals(applied_log);
          if (!(daemon->Snapshot()->totals == want)) {
            return Violation("snapshot totals diverged from the applied log");
          }
        } else if (submitted.ok()) {
          // Queued, then a fault hit the commit path: durable or not is
          // exactly what the next recovery decides.
          pending = batch;
          have_pending = true;
          break;
        } else {
          ++total_rejected;  // backpressure stuck or read-only: not queued
          if (daemon->read_only()) break;
        }
      }

      // --- end of lifetime: crash or graceful ---------------------------
      injector.Disarm("wal/append");
      injector.Disarm("wal/fsync");
      injector.Disarm("serve/apply");
      if (kill_cycle) {
        // Simulated SIGKILL: fail the shutdown checkpoint so the WAL (the
        // durable truth at crash time) is what the next start sees.
        injector.FailAlways("wal/fsync");
        ++kills;
      }
      daemon.reset();  // ~ServeDaemon → Stop → drain (+ checkpoint unless killed)
    }
  }

  // --- final recovery + the monitor must still fire ----------------------
  StatusOr<std::unique_ptr<ServeDaemon>> started =
      ServeDaemon::Start(schema, options);
  if (!started.ok()) return Violation("final recovery failed");
  std::unique_ptr<ServeDaemon> daemon = std::move(started.value());
  const uint64_t recovered = daemon->Snapshot()->counts_digest;
  uint64_t expect = OracleDigest(schema, applied_log);
  if (recovered != expect && have_pending) {
    applied_log.push_back(pending);
    expect = OracleDigest(schema, applied_log);
  }
  if (recovered != expect) {
    return Violation("final recovery digest diverged from the applied log");
  }

  // Skew leaf 0 so the subgroup set must change; the per-epoch audit must
  // show the change and the online monitor must count an alert for it.
  const RegionCounter counter(schema);
  const auto before = Members(counter, daemon->QueryIbs());
  const bool leaf_zero_biased =
      std::find(before.begin(), before.end(),
                std::pair<uint32_t, uint64_t>{0b11, 0}) != before.end();
  OracleLeafCounts(applied_log, leaves);
  const Batch skew = SkewLeafZero(counter, leaves, leaf_zero_biased);
  if (!daemon->Submit(skew).ok() || !daemon->Flush().ok()) {
    return Violation("post-soak daemon refused a clean batch");
  }
  applied_log.push_back(skew);
  if (Members(counter, daemon->QueryIbs()) == before) {
    return Violation("skewed batch left the subgroup set unchanged");
  }
  const std::string health = daemon->HealthJson();
  if (health.find("\"monitor_alerts\":0,") != std::string::npos) {
    return Violation("online monitor never fired across the soak");
  }
  Status stopped = daemon->Stop();
  if (!stopped.ok()) return Violation("clean final shutdown failed");

  std::printf(
      "soak ok: %d cycles (%d kills, %d recoveries), %lld applied, %lld "
      "rejected, %lld query rounds, final digest %llu\n",
      args.cycles, kills, recoveries, static_cast<long long>(total_applied),
      static_cast<long long>(total_rejected),
      static_cast<long long>(total_queries),
      static_cast<unsigned long long>(OracleDigest(schema, applied_log)));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  SoakArgs args;
  const int usage = ParseCommandLine(argc, argv, SoakFlags(args),
                                     std::bind_front(CheckArgs, std::cref(args)),
                                     "usage: soak --state-dir DIR [flags]\n", 2);
  if (usage != 0) return usage;
  return RunSoak(args);
}
