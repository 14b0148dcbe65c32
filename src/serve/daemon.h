#ifndef REMEDY_SERVE_DAEMON_H_
#define REMEDY_SERVE_DAEMON_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/hierarchy.h"
#include "core/ibs_identify.h"
#include "core/ibs_incremental.h"
#include "core/remedy_backend.h"
#include "serve/wal.h"

namespace remedy {

struct CsvTable;

// How PublishSnapshot maintains the per-epoch IBS (--identify-mode):
// kFull re-scores the whole lattice every identify epoch; kIncremental
// re-scores only the regions the epoch's deltas touched plus their
// comparison neighborhoods (core/ibs_incremental.h), falling back to a
// full sweep on recovery and cold starts. Output is bit-identical either
// way — the mode only moves the per-epoch cost.
enum class IdentifyMode {
  kFull,
  kIncremental,
};

// The crash-safe streaming fairness daemon (see docs/SERVICE.md).
//
// Row deltas stream in as CSV batches, land in a bounded ingest queue
// (backpressure: a full queue rejects with kResourceExhausted and a
// retry-after hint), and a single apply thread drains the queue in group
// commits — WAL append + one fsync, then Hierarchy::ApplyDeltas, then an
// immutable epoch snapshot is published for readers. Identify/audit
// queries never touch the live lattice: they read the pinned snapshot of
// some epoch, so a reader observes one consistent cut no matter how many
// batches commit mid-query.
//
// Degradation ladder: a WAL append/fsync failure or a post-commit apply
// failure that survives its retries trips read-only mode — ingestion
// rejects, queries keep answering from the last good snapshot, and the
// health endpoint says why. A post-commit failure additionally marks the
// daemon needs-recovery (the durable state is ahead of the in-memory
// lattice); restarting the daemon replays the WAL and heals. Stop() drains
// the queue, checkpoints, and resets the log, so a clean shutdown restarts
// with an empty replay.
struct ServeOptions {
  // Directory holding the daemon's durable state (created if absent, one
  // level): deltas.wal and checkpoint.rck.
  std::string state_dir;

  // Ingest queue capacity in batches; a full queue is backpressure.
  size_t queue_capacity = 64;
  // Retry-after hint (milliseconds) embedded in backpressure rejections.
  int retry_after_ms = 10;

  // Consecutive failures of one batch's post-commit lattice apply before
  // the watchdog trips read-only mode (the batch is retried in place up to
  // this many times; WAL and checkpoint failures trip immediately).
  int watchdog_trip_threshold = 3;

  // Checkpoint + WAL reset automatically every this many applied batches
  // (0 = only on Checkpoint() / Stop()).
  int64_t checkpoint_every_batches = 0;

  // Identification parameters of the per-epoch subgroup audit.
  IbsParams ibs;
  // Re-identify the IBS every this many published epochs (1 = every epoch,
  // 0 = never; the snapshot then carries the previous epoch's IBS). The
  // online monitor only sees change at identify epochs.
  int identify_every_epochs = 1;
  // Full vs dirty-region incremental identify (see IdentifyMode above).
  IdentifyMode identify_mode = IdentifyMode::kIncremental;

  // Rollup fan-out of the recovery-time EagerBuild (<= 0 = all CPUs).
  int build_threads = 1;

  // --- online remedy (PlanRemedyDeltas; docs/REMEDY.md) ---------------

  // Publish each epoch's leaf counts with its snapshot so SubmitRemedy can
  // plan against a pinned cut. Off by default: the copy costs one leaf
  // table per epoch. auto_remedy implies it.
  bool enable_remedy = false;
  // Read by nothing: PlanRemedyDeltas is the daemon's one planner. Kept
  // because perfbench/loadgen.cc assigns it; ROADMAP.md item 1 removes it.
  RemedyBackendKind remedy_backend = RemedyBackendKind::kStreaming;
  // Technique/seed/planning parameters of submitted and auto remedies.
  // The `ibs` field is overridden by ServeOptions::ibs at Start so the
  // remedy always targets the same subgroup set the monitor reports.
  RemedyParams remedy;
  // Monitor policy hook: when an identify epoch publishes a non-empty IBS,
  // a dedicated remedy thread plans and commits one remedy round, up to
  // auto_remedy_max_rounds consecutive rounds without external ingest
  // (ingest resets the budget). Convergence is natural: a round that plans
  // no deltas publishes no epoch and so triggers no further round.
  bool auto_remedy = false;
  int auto_remedy_max_rounds = 4;
};

// One published epoch: an immutable, internally consistent cut of the
// daemon's state. Readers hold the shared_ptr for as long as they like;
// publishing never mutates an already-published snapshot.
struct EpochSnapshot {
  uint64_t epoch = 0;
  uint64_t wal_sequence = 0;  // last committed record this cut includes
  RegionCounts totals;
  uint64_t counts_digest = 0;  // Hierarchy::MaintainedCountsDigest at this cut
  std::vector<BiasedRegion> ibs;
  uint64_t ibs_epoch = 0;  // epoch the ibs field was identified at
  bool read_only = false;
  // This cut's leaf census; only populated when the daemon was started
  // with remedy enabled (ServeOptions::enable_remedy / auto_remedy).
  std::shared_ptr<const NodeTable> leaf_counts;
};

// Outcome of one ServeDaemon::SubmitRemedy call.
struct RemedyCommitResult {
  uint64_t planned_epoch = 0;    // snapshot the plan was pinned to
  uint64_t pinned_sequence = 0;  // WAL sequence of that snapshot
  bool committed = false;        // false: the plan was empty (a no-op)
  uint64_t applied_epoch = 0;    // epoch the remedy became visible at
  size_t deltas = 0;             // net leaf deltas in the plan
  RemedyStats stats;
};

class ServeDaemon {
 public:
  // File names inside ServeOptions::state_dir.
  static constexpr const char* kWalFileName = "deltas.wal";
  static constexpr const char* kCheckpointFileName = "checkpoint.rck";

  // Recovers durable state (checkpoint + WAL tail replay; a cold start is
  // an empty lattice), publishes epoch 1, and starts the apply thread.
  static StatusOr<std::unique_ptr<ServeDaemon>> Start(
      const DataSchema& schema, const ServeOptions& options);

  ~ServeDaemon();
  ServeDaemon(const ServeDaemon&) = delete;
  ServeDaemon& operator=(const ServeDaemon&) = delete;

  // --- ingest side (thread-safe) -------------------------------------

  // Parses one CSV batch into leaf deltas and submits it. The header must
  // name every protected attribute and the label column (extra columns are
  // ignored); each row is one instance added (label 1/0), or, when an
  // optional "__count" column is present, a signed instance-count delta.
  // Fault point "serve/ingest". Parse errors reject the whole batch —
  // nothing partial is ever queued.
  Status IngestCsv(const std::string& csv_text);

  // Same, reading the batch from a file through the bounded-retry CSV
  // reader (transient I/O faults are retried with doubling backoff).
  Status IngestCsvFile(const std::string& path);

  // Queues pre-aggregated deltas. kResourceExhausted when the queue is
  // full (message carries the retry-after hint), kInternal in read-only
  // mode. Acceptance means queued, not yet durable — Flush() is the
  // durability barrier.
  Status Submit(std::vector<Hierarchy::LeafDelta> deltas);

  // Blocks until every batch accepted before the call has been applied (or
  // dropped by a failure). Returns the first error the daemon tripped on,
  // OkStatus while healthy.
  Status Flush();

  // --- remedy side (thread-safe; requires enable_remedy) ---------------

  // Plans one remedy with PlanRemedyDeltas against a pinned epoch
  // snapshot's leaf counts (the newest, or `pinned` when given) and commits
  // the plan as one WAL batch through the same all-or-nothing group-commit
  // path as ingest — crash-safe, and visible to readers only at the next
  // epoch. Planning runs on the calling thread, off the apply thread, so
  // ingest keeps committing while a remedy plans.
  //
  // Monotonic with ingest: the plan carries the pinned WAL sequence, and
  // the apply thread rejects it with kResourceExhausted if any batch
  // committed after the pin — re-plan against the newer epoch and retry.
  // An empty plan (nothing to do) returns committed=false, not an error.
  StatusOr<RemedyCommitResult> SubmitRemedy(const RemedyParams& params);
  StatusOr<RemedyCommitResult> SubmitRemedy(
      const RemedyParams& params,
      std::shared_ptr<const EpochSnapshot> pinned);

  // Blocks until no auto-remedy round is pending or in flight (returns
  // immediately when auto_remedy is off). Call after Flush() to observe a
  // quiesced post-remedy state deterministically.
  void WaitRemedyIdle();

  // Remedy batches WAL-committed and applied since Start.
  int64_t remedy_commits() const;

  // --- query side (thread-safe, wait-free of the apply thread) --------

  // The newest published epoch; never null after Start.
  std::shared_ptr<const EpochSnapshot> Snapshot() const;

  // A recent epoch by number (the daemon keeps a short ring of published
  // snapshots so an audit can pin one epoch across several queries);
  // nullptr when the epoch has already rotated out.
  std::shared_ptr<const EpochSnapshot> SnapshotAt(uint64_t epoch) const;

  // The IBS of the newest epoch (counts one served query).
  std::vector<BiasedRegion> QueryIbs() const;

  // One-line machine-readable health/stats report over the daemon state
  // and the metrics registry.
  std::string HealthJson() const;

  bool read_only() const;
  bool needs_recovery() const;
  uint64_t epoch() const;

  // --- lifecycle ------------------------------------------------------

  // Drains the apply thread, writes a checkpoint covering every committed
  // record, and resets the WAL. Refused (kInternal) when needs-recovery —
  // checkpointing a lattice that lags its log would lose the lag.
  Status Checkpoint();

  // Stops ingestion, drains the queue, checkpoints (unless
  // needs-recovery), and joins the apply thread. Idempotent and safe to
  // call concurrently — later callers wait for the first to finish and
  // return the same result (the first shutdown error, OkStatus if clean).
  Status Stop();

 private:
  // One queued unit of work. Ingest batches are plain deltas; a remedy
  // batch additionally carries the WAL sequence its plan was pinned to
  // (the apply thread rejects it as stale if ingest advanced past it) and
  // a ticket the submitting thread waits on for the batch's fate.
  struct Batch {
    std::vector<Hierarchy::LeafDelta> deltas;
    bool is_remedy = false;
    uint64_t pinned_sequence = 0;
    uint64_t ticket = 0;  // nonzero iff is_remedy
  };
  struct RemedyOutcome {
    Status status;
    uint64_t epoch = 0;  // publish epoch when status is OK
  };

  ServeDaemon(const DataSchema& schema, const ServeOptions& options);

  bool RemedyEnabled() const {
    return options_.enable_remedy || options_.auto_remedy;
  }

  // Shared row-parsing half of the CSV ingest entry points.
  Status IngestTable(const CsvTable& table);

  // The apply thread's main loop: drain batches in group commits.
  void ApplyLoop();
  // The auto-remedy thread: waits for monitor triggers, then SubmitRemedy.
  void RemedyLoop();
  // One group: validate + WAL-append each batch, one sync, then apply.
  // `*applied` counts the batches that made it into the lattice; remedy
  // batches report their per-ticket fate into `*remedy_outcomes` (tickets
  // missing after a group-level failure are swept by ApplyLoop). Called
  // with engine_mu_ held.
  Status CommitGroup(
      const std::vector<Batch>& batches, int64_t* applied,
      std::vector<std::pair<uint64_t, Status>>* remedy_outcomes);
  // Publishes a fresh snapshot of the current lattice state (engine_mu_
  // held).
  void PublishSnapshot();
  // Writes the checkpoint + resets the WAL (engine_mu_ held).
  Status CheckpointLocked();
  // Trips read-only mode with `why` (any thread).
  void TripReadOnly(const std::string& why, bool lattice_lags_log);

  const ServeOptions options_;
  DataSchema schema_;
  RegionCounter counter_;
  uint64_t schema_digest_ = 0;
  std::string wal_path_;
  std::string checkpoint_path_;
  RemedyParams remedy_params_;  // options_.remedy with ibs = options_.ibs

  // Engine state: everything the apply thread owns between commits.
  mutable std::mutex engine_mu_;
  std::unique_ptr<Hierarchy> hierarchy_;
  std::unique_ptr<DeltaWal> wal_;
  uint64_t epoch_ = 0;
  uint64_t last_committed_sequence_ = 0;
  int64_t batches_since_checkpoint_ = 0;
  uint64_t last_ibs_epoch_ = 0;
  uint64_t last_ibs_digest_ = 0;  // of the identified subgroup set
  std::atomic<int64_t> monitor_alerts_{0};
  // Dirty-region identify state (apply thread only, engine_mu_ held).
  IncrementalIbsState ibs_state_;
  // The leaf census last materialized into a snapshot; re-copied only when
  // a batch changed the lattice since (copy-on-write — an epoch published
  // by a dropped batch or an empty group shares the previous census).
  std::shared_ptr<const NodeTable> leaf_census_;
  bool leaf_census_stale_ = true;

  // Queue + control state.
  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // apply thread waits here
  std::condition_variable drain_cv_;  // Flush / Stop / SubmitRemedy wait here
  std::condition_variable remedy_cv_;  // remedy thread + WaitRemedyIdle
  std::deque<Batch> queue_;
  int64_t submitted_batches_ = 0;
  int64_t processed_batches_ = 0;  // applied or dropped
  int64_t applied_batches_ = 0;
  int64_t failed_batches_ = 0;
  uint64_t next_ticket_ = 1;
  std::unordered_map<uint64_t, RemedyOutcome> remedy_results_;
  int64_t remedy_commits_ = 0;
  int auto_remedy_rounds_ = 0;   // consecutive rounds since last ingest
  bool remedy_pending_ = false;  // a monitor trigger awaits the thread
  bool remedy_inflight_ = false;  // the thread is planning/committing
  bool read_only_ = false;
  bool needs_recovery_ = false;
  std::string trip_reason_;
  bool stopping_ = false;
  bool stop_started_ = false;  // some thread owns the shutdown sequence
  bool stopped_ = false;
  Status first_error_;
  // Last identify pass's accounting, mirrored here (mu_) so HealthJson
  // never has to take engine_mu_ behind a long identify or commit.
  struct IdentifyHealth {
    bool last_incremental = false;
    int64_t dirty_leaves = 0;
    int64_t rescored_regions = 0;
    int64_t cached_regions = 0;
    std::string fallback_reason;
  };
  IdentifyHealth identify_health_;

  // Published epochs, newest last; capped at kSnapshotRing.
  static constexpr size_t kSnapshotRing = 8;
  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const EpochSnapshot> snapshot_;
  std::deque<std::shared_ptr<const EpochSnapshot>> ring_;

  std::thread apply_thread_;
  std::thread remedy_thread_;  // only started when auto_remedy is on
};

}  // namespace remedy

#endif  // REMEDY_SERVE_DAEMON_H_
