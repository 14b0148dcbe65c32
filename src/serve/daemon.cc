#include "serve/daemon.h"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <unordered_map>
#include <utility>

#include "common/check.h"
#include "common/csv.h"
#include "common/fault_injection.h"
#include "common/metrics.h"
#include "common/pipeline_metrics.h"
#include "common/trace.h"
#include "data/shard_file.h"

namespace remedy {
namespace {

Status EnsureDirectory(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST) return OkStatus();
  return IoError("cannot create state directory '" + dir + "': " +
                 std::strerror(errno));
}

bool FileExists(const std::string& path) {
  struct stat info;
  return ::stat(path.c_str(), &info) == 0;
}

// Minimal JSON string escaping for the health report.
std::string EscapeJson(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char hex[8];
          std::snprintf(hex, sizeof(hex), "\\u%04x", c);
          out += hex;
        } else {
          out += c;
        }
    }
  }
  return out;
}

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

ServeDaemon::ServeDaemon(const DataSchema& schema,
                         const ServeOptions& options)
    : options_(options),
      schema_(schema),
      counter_(schema_),
      schema_digest_(SchemaDigest(schema_)),
      wal_path_(options.state_dir + "/" + kWalFileName),
      checkpoint_path_(options.state_dir + "/" + kCheckpointFileName),
      remedy_params_(options.remedy) {
  // One subgroup definition per daemon: remedies target exactly the
  // regions the per-epoch audit (and the monitor) reports.
  remedy_params_.ibs = options.ibs;
}

StatusOr<std::unique_ptr<ServeDaemon>> ServeDaemon::Start(
    const DataSchema& schema, const ServeOptions& options) {
  if (options.state_dir.empty()) {
    return InvalidArgumentError("ServeOptions::state_dir must be set");
  }
  if (options.queue_capacity == 0) {
    return InvalidArgumentError("ServeOptions::queue_capacity must be >= 1");
  }
  RETURN_IF_ERROR(EnsureDirectory(options.state_dir));
  std::unique_ptr<ServeDaemon> daemon(new ServeDaemon(schema, options));

  // Recovery: checkpoint (or cold start) + WAL tail replay.
  NodeTable leaf_counts;
  RegionCounts totals;
  uint64_t checkpoint_sequence = 0;
  const bool had_checkpoint = FileExists(daemon->checkpoint_path_);
  if (had_checkpoint) {
    ASSIGN_OR_RETURN(WalCheckpoint checkpoint,
                     ReadWalCheckpoint(daemon->checkpoint_path_));
    if (checkpoint.schema_digest != daemon->schema_digest_) {
      return InvalidArgumentError("checkpoint '" + daemon->checkpoint_path_ +
                                  "' belongs to a different schema");
    }
    leaf_counts = std::move(checkpoint.leaf_counts);
    totals = checkpoint.totals;
    checkpoint_sequence = checkpoint.wal_sequence;
    daemon->epoch_ = checkpoint.epoch;
  }
  daemon->hierarchy_ = std::make_unique<Hierarchy>(
      schema, std::move(leaf_counts), totals);
  RETURN_IF_ERROR(daemon->hierarchy_->EagerBuild(options.build_threads)
                      .WithContext("rebuilding the lattice from checkpoint"));
  ASSIGN_OR_RETURN(
      WalReplayResult replay,
      DeltaWal::Replay(daemon->wal_path_, daemon->schema_digest_,
                       checkpoint_sequence,
                       [&daemon](const WalRecord& record) {
                         daemon->hierarchy_->ApplyDeltas(
                             record.deltas, /*insert_missing=*/true);
                         return OkStatus();
                       }));
  daemon->last_committed_sequence_ = replay.last_sequence;
  ASSIGN_OR_RETURN(daemon->wal_,
                   DeltaWal::Open(daemon->wal_path_, daemon->schema_digest_,
                                  replay.last_sequence + 1));

  // The incremental identify state starts cold either way; the reason
  // distinguishes "this daemon healed from durable state" (the chaos tests
  // assert the first post-recovery identify is a full sweep) from a truly
  // empty start.
  daemon->ibs_state_.Invalidate(
      had_checkpoint || replay.records_applied > 0 ? "recovery"
                                                   : "cold_start");

  {
    std::lock_guard<std::mutex> engine_lock(daemon->engine_mu_);
    daemon->PublishSnapshot();
  }
  daemon->apply_thread_ = std::thread(&ServeDaemon::ApplyLoop, daemon.get());
  if (options.auto_remedy) {
    daemon->remedy_thread_ =
        std::thread(&ServeDaemon::RemedyLoop, daemon.get());
  }
  return daemon;
}

ServeDaemon::~ServeDaemon() {
  const Status stopped = Stop();  // shutdown errors surfaced via Stop()
  (void)stopped;
}

Status ServeDaemon::IngestCsv(const std::string& csv_text) {
  REMEDY_FAULT_POINT("serve/ingest");
  ASSIGN_OR_RETURN(CsvTable table, ParseCsv(csv_text));
  return IngestTable(table);
}

Status ServeDaemon::IngestCsvFile(const std::string& path) {
  REMEDY_FAULT_POINT("serve/ingest");
  ASSIGN_OR_RETURN(CsvTable table, ReadCsvFile(path));
  return IngestTable(table).WithContext("ingesting '" + path + "'");
}

Status ServeDaemon::IngestTable(const CsvTable& table) {
  // Resolve the batch's columns: every protected attribute plus the label,
  // by name; an optional "__count" column weights each row.
  const int num_protected = schema_.NumProtected();
  std::vector<int> value_cols(num_protected, -1);
  int label_col = -1;
  int count_col = -1;
  for (size_t c = 0; c < table.header.size(); ++c) {
    const std::string& name = table.header[c];
    if (name == schema_.label_name()) {
      label_col = static_cast<int>(c);
      continue;
    }
    if (name == "__count") {
      count_col = static_cast<int>(c);
      continue;
    }
    for (int p = 0; p < num_protected; ++p) {
      if (name == schema_.attribute(schema_.protected_indices()[p]).name()) {
        value_cols[p] = static_cast<int>(c);
      }
    }
  }
  if (label_col < 0) {
    return InvalidArgumentError("batch header lacks the label column '" +
                                schema_.label_name() + "'");
  }
  for (int p = 0; p < num_protected; ++p) {
    if (value_cols[p] < 0) {
      return InvalidArgumentError(
          "batch header lacks protected attribute '" +
          schema_.attribute(schema_.protected_indices()[p]).name() + "'");
    }
  }

  // Aggregate rows into per-leaf-key deltas. Any bad row rejects the whole
  // batch before anything is queued.
  std::unordered_map<uint64_t, std::pair<int64_t, int64_t>> aggregate;
  for (size_t r = 0; r < table.rows.size(); ++r) {
    const std::vector<std::string>& row = table.rows[r];
    uint64_t key = 0;
    for (int p = 0; p < num_protected; ++p) {
      const AttributeSchema& attribute =
          schema_.attribute(schema_.protected_indices()[p]);
      const int code = attribute.ValueIndex(row[value_cols[p]]);
      if (code < 0) {
        return InvalidArgumentError(
            "batch row " + std::to_string(r + 1) + ": unknown value '" +
            row[value_cols[p]] + "' for protected attribute '" +
            attribute.name() + "'");
      }
      key = key * static_cast<uint64_t>(counter_.Cardinality(p)) +
            static_cast<uint64_t>(code);
    }
    const std::string& label = row[label_col];
    if (label != "0" && label != "1") {
      return InvalidArgumentError("batch row " + std::to_string(r + 1) +
                                  ": label must be 0 or 1, got '" + label +
                                  "'");
    }
    int64_t count = 1;
    if (count_col >= 0) {
      const std::string& text = row[count_col];
      char* end = nullptr;
      errno = 0;
      count = std::strtoll(text.c_str(), &end, 10);
      if (errno != 0 || end == text.c_str() || *end != '\0') {
        return InvalidArgumentError("batch row " + std::to_string(r + 1) +
                                    ": bad __count '" + text + "'");
      }
    }
    auto& [positives, negatives] = aggregate[key];
    if (label == "1") {
      positives += count;
    } else {
      negatives += count;
    }
  }
  std::vector<Hierarchy::LeafDelta> deltas;
  deltas.reserve(aggregate.size());
  for (const auto& [key, counts] : aggregate) {
    if (counts.first == 0 && counts.second == 0) continue;
    deltas.push_back({key, counts.first, counts.second});
  }
  // Deterministic batch content regardless of hash order.
  std::sort(deltas.begin(), deltas.end(),
            [](const Hierarchy::LeafDelta& a, const Hierarchy::LeafDelta& b) {
              return a.leaf_key < b.leaf_key;
            });
  return Submit(std::move(deltas));
}

Status ServeDaemon::Submit(std::vector<Hierarchy::LeafDelta> deltas) {
  if (deltas.empty()) return OkStatus();
  int64_t rows = 0;
  for (const Hierarchy::LeafDelta& delta : deltas) {
    rows += std::abs(delta.delta_positives) + std::abs(delta.delta_negatives);
  }
  const PipelineMetrics& metrics = PipelineMetrics::Get();
  std::lock_guard<std::mutex> lock(mu_);
  if (stopping_ || stopped_) {
    metrics.serve_batches_rejected->Increment();
    return InternalError("daemon is shutting down");
  }
  if (read_only_) {
    metrics.serve_batches_rejected->Increment();
    return InternalError("daemon is read-only: " + trip_reason_);
  }
  if (queue_.size() >= options_.queue_capacity) {
    metrics.serve_batches_rejected->Increment();
    return ResourceExhaustedError(
        "ingest queue full (" + std::to_string(options_.queue_capacity) +
        " batches); retry after " + std::to_string(options_.retry_after_ms) +
        "ms");
  }
  Batch batch;
  batch.deltas = std::move(deltas);
  queue_.push_back(std::move(batch));
  ++submitted_batches_;
  metrics.serve_batches_ingested->Increment();
  metrics.serve_rows_ingested->Increment(rows);
  metrics.serve_queue_depth->Set(static_cast<int64_t>(queue_.size()));
  work_cv_.notify_one();
  return OkStatus();
}

Status ServeDaemon::Flush() {
  std::unique_lock<std::mutex> lock(mu_);
  const int64_t target = submitted_batches_;
  drain_cv_.wait(lock, [&] {
    return processed_batches_ >= target || stopped_;
  });
  return first_error_;
}

void ServeDaemon::ApplyLoop() {
  const PipelineMetrics& metrics = PipelineMetrics::Get();
  while (true) {
    std::vector<Batch> group;
    bool tripped = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) break;  // stopping and drained
      tripped = read_only_;
      while (!queue_.empty()) {
        group.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      metrics.serve_queue_depth->Set(0);
    }
    if (tripped) {
      // Batches that slipped into the queue while a trip was in flight
      // (Submit raced CommitGroup's TripReadOnly) must not commit:
      // appending would strand records behind a torn tail, and applying
      // would advance the lattice past the durable state. Drop them as
      // failed; only the trip on this thread sets read_only_, so this
      // drain-time check cannot itself race.
      metrics.serve_apply_failures->Increment(
          static_cast<int64_t>(group.size()));
      {
        std::lock_guard<std::mutex> lock(mu_);
        processed_batches_ += static_cast<int64_t>(group.size());
        failed_batches_ += static_cast<int64_t>(group.size());
        for (const Batch& batch : group) {
          if (batch.is_remedy) {
            remedy_results_[batch.ticket] = {
                InternalError("daemon is read-only: " + trip_reason_), 0};
          }
        }
      }
      drain_cv_.notify_all();
      continue;
    }
    const int64_t start_ns = NowNanos();
    int64_t applied = 0;
    uint64_t post_epoch = 0;
    Status committed;
    std::vector<std::pair<uint64_t, Status>> remedy_outcomes;
    {
      std::lock_guard<std::mutex> engine_lock(engine_mu_);
      committed = CommitGroup(group, &applied, &remedy_outcomes);
      // External ingest refills the auto-remedy round budget. The refill
      // must precede PublishSnapshot: the publish below may consume a
      // round for the epoch this very ingest produced, and refilling
      // afterwards would hand the loop one free round over the budget.
      int64_t committed_remedies = 0;
      for (const auto& [ticket, status] : remedy_outcomes) {
        if (status.ok()) ++committed_remedies;
      }
      if (applied > committed_remedies) {
        std::lock_guard<std::mutex> lock(mu_);
        auto_remedy_rounds_ = 0;
      }
      PublishSnapshot();
      post_epoch = epoch_;
      bool lagging;
      {
        std::lock_guard<std::mutex> lock(mu_);
        lagging = needs_recovery_;
      }
      if (committed.ok() && !lagging &&
          options_.checkpoint_every_batches > 0 &&
          batches_since_checkpoint_ >= options_.checkpoint_every_batches) {
        committed = CheckpointLocked();
      }
    }
    metrics.serve_apply_ns->Observe(NowNanos() - start_ns);
    {
      std::lock_guard<std::mutex> lock(mu_);
      processed_batches_ += static_cast<int64_t>(group.size());
      applied_batches_ += applied;
      failed_batches_ += static_cast<int64_t>(group.size()) - applied;
      if (!committed.ok() && first_error_.ok()) first_error_ = committed;
      // Resolve every remedy ticket of this group. A ticket CommitGroup
      // never reached (a group-level WAL failure returned early) fails
      // with that error; its record may still be durable, which recovery
      // reconciles like any other committed-but-unapplied batch.
      for (const auto& [ticket, status] : remedy_outcomes) {
        if (status.ok()) {
          ++remedy_commits_;
          remedy_results_[ticket] = {status, post_epoch};
        } else {
          remedy_results_[ticket] = {status, 0};
        }
      }
      for (const Batch& batch : group) {
        if (batch.is_remedy &&
            remedy_results_.find(batch.ticket) == remedy_results_.end()) {
          remedy_results_[batch.ticket] = {
              committed.ok()
                  ? InternalError("remedy batch dropped by a group failure")
                  : committed,
              0};
        }
      }
    }
    drain_cv_.notify_all();
  }
}

void ServeDaemon::RemedyLoop() {
  const PipelineMetrics& metrics = PipelineMetrics::Get();
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      remedy_cv_.wait(lock, [&] { return stopping_ || remedy_pending_; });
      if (stopping_) break;
      remedy_pending_ = false;
      remedy_inflight_ = true;
    }
    metrics.remedy_backend_auto_triggers->Increment();
    // A stale or rejected round is not retried here: if the subgroup set
    // still warrants a remedy, the next identify epoch re-triggers it.
    const StatusOr<RemedyCommitResult> result = SubmitRemedy(remedy_params_);
    (void)result;
    {
      std::lock_guard<std::mutex> lock(mu_);
      remedy_inflight_ = false;
    }
    remedy_cv_.notify_all();  // WaitRemedyIdle observers
  }
}

Status ServeDaemon::CommitGroup(
    const std::vector<Batch>& batches, int64_t* applied,
    std::vector<std::pair<uint64_t, Status>>* remedy_outcomes) {
  REMEDY_TRACE_SPAN("serve/commit_group");
  const PipelineMetrics& metrics = PipelineMetrics::Get();
  const uint32_t leaf_mask = hierarchy_->LeafMask();
  const NodeTable& leaf = hierarchy_->NodeCounts(leaf_mask);

  // Validate each batch against the lattice counts plus the net effect of
  // the earlier batches of this group, so nothing that would drive a
  // region negative is ever WAL-committed (a committed record must replay
  // cleanly forever). Each delta lands in the overlay as it is checked —
  // Submit does not require key-unique batches, and apply replays deltas
  // one by one, so a duplicate key (or a transient dip below zero) must be
  // caught here, not just the batch's net effect. A failed batch rolls its
  // accepted prefix back out of the overlay.
  auto validate = [&leaf](
      const std::vector<Hierarchy::LeafDelta>& batch,
      std::unordered_map<uint64_t, std::pair<int64_t, int64_t>>& overlay) {
    size_t accepted = 0;
    for (const Hierarchy::LeafDelta& delta : batch) {
      auto it = leaf.find(delta.leaf_key);
      const int64_t positives = it == leaf.end() ? 0 : it->second.positives;
      const int64_t negatives = it == leaf.end() ? 0 : it->second.negatives;
      auto& slot = overlay[delta.leaf_key];
      if (positives + slot.first + delta.delta_positives < 0 ||
          negatives + slot.second + delta.delta_negatives < 0) {
        for (size_t i = 0; i < accepted; ++i) {
          auto& undo = overlay[batch[i].leaf_key];
          undo.first -= batch[i].delta_positives;
          undo.second -= batch[i].delta_negatives;
        }
        return false;
      }
      slot.first += delta.delta_positives;
      slot.second += delta.delta_negatives;
      ++accepted;
    }
    return true;
  };

  std::unordered_map<uint64_t, std::pair<int64_t, int64_t>> overlay;
  std::vector<std::pair<const Batch*, uint64_t>> committed;
  // The sequence a remedy planned at this instant would have pinned:
  // everything already durable plus the batches appended ahead of it in
  // this group. A remedy whose pin is older has raced an ingest commit.
  uint64_t projected = last_committed_sequence_;
  for (const Batch& batch : batches) {
    if (batch.is_remedy && batch.pinned_sequence != projected) {
      // Stale plan: a batch committed after the snapshot the remedy was
      // planned from, so its deltas describe counts that no longer exist.
      // Reject before anything is durable — the caller re-plans against
      // the newer epoch. This is what keeps remedy monotonic with ingest.
      metrics.serve_apply_failures->Increment();
      metrics.remedy_backend_stale_plans->Increment();
      remedy_outcomes->emplace_back(
          batch.ticket,
          ResourceExhaustedError(
              "remedy plan is stale: pinned WAL sequence " +
              std::to_string(batch.pinned_sequence) + " but ingest is at " +
              std::to_string(projected) + "; re-plan and retry"));
      continue;
    }
    if (!validate(batch.deltas, overlay)) {
      // The batch would underflow a region: reject it (it was never
      // durable) and keep going — one bad client batch must not wedge the
      // daemon.
      metrics.serve_apply_failures->Increment();
      if (batch.is_remedy) {
        remedy_outcomes->emplace_back(
            batch.ticket,
            InternalError("remedy plan would underflow a region"));
      }
      continue;
    }
    StatusOr<uint64_t> sequence = wal_->Append(batch.deltas);
    if (!sequence.ok()) {
      // The log may now end in torn bytes; appending more would strand
      // records behind the tear, so stop taking writes until a restart
      // replays and repairs the log.
      metrics.serve_apply_failures->Increment();
      TripReadOnly("WAL append failed: " + sequence.status().message(),
                   /*lattice_lags_log=*/true);
      return sequence.status();
    }
    committed.emplace_back(&batch, sequence.value());
    projected = sequence.value();
  }
  if (committed.empty()) return OkStatus();
  Status synced = wal_->Sync();
  if (!synced.ok()) {
    // Unknown durability: the records may or may not survive a crash. Do
    // not apply them — keeping the in-memory lattice at or behind the
    // durable state is what lets a restart heal by replay alone.
    metrics.serve_apply_failures->Increment();
    TripReadOnly("WAL fsync failed: " + synced.message(),
                 /*lattice_lags_log=*/true);
    return synced;
  }
  for (const auto& [batch, sequence] : committed) {
    int attempts = 0;
    while (true) {
      Status stage = [&]() -> Status {
        REMEDY_FAULT_POINT("serve/apply");
        return OkStatus();
      }();
      if (stage.ok()) break;
      metrics.serve_apply_failures->Increment();
      if (++attempts >= options_.watchdog_trip_threshold) {
        // The record is durable but not in the lattice: serve stale reads
        // only, and let the next start replay the log to heal.
        TripReadOnly("lattice apply failed " + std::to_string(attempts) +
                         " times: " + stage.message(),
                     /*lattice_lags_log=*/true);
        return stage;
      }
    }
    hierarchy_->ApplyDeltas(batch->deltas, /*insert_missing=*/true);
    leaf_census_stale_ = true;
    last_committed_sequence_ = sequence;
    ++batches_since_checkpoint_;
    ++*applied;
    metrics.serve_batches_applied->Increment();
    if (batch->is_remedy) {
      metrics.remedy_backend_streaming_commits->Increment();
      remedy_outcomes->emplace_back(batch->ticket, OkStatus());
    }
  }
  return OkStatus();
}

void ServeDaemon::PublishSnapshot() {
  REMEDY_TRACE_SPAN("serve/publish");
  const int64_t start_ns = NowNanos();
  const PipelineMetrics& metrics = PipelineMetrics::Get();
  ++epoch_;
  const bool identify =
      options_.identify_every_epochs > 0 &&
      (last_ibs_epoch_ == 0 ||
       epoch_ % static_cast<uint64_t>(options_.identify_every_epochs) == 0);
  auto snapshot = std::make_shared<EpochSnapshot>();
  if (identify) {
    std::vector<BiasedRegion> ibs;
    if (options_.identify_mode == IdentifyMode::kIncremental) {
      // Bit-identical to the full sweep below (see IncrementalIbsState);
      // only the cost moves. The state self-falls-back to a full pass on
      // cold cache, recovery, or anything it cannot prove incremental.
      ibs = ibs_state_.Identify(*hierarchy_, options_.ibs);
      const IncrementalIdentifyStats& st = ibs_state_.last_stats();
      std::lock_guard<std::mutex> lock(mu_);
      identify_health_.last_incremental = st.incremental;
      identify_health_.dirty_leaves = st.dirty_leaves;
      identify_health_.rescored_regions = st.rescored_regions;
      identify_health_.cached_regions = st.cached_regions;
      identify_health_.fallback_reason = ibs_state_.last_fallback_reason();
    } else {
      ibs = IdentifyIbsInScope(*hierarchy_, options_.ibs);
    }
    // The online monitor: digest the identified subgroup set (node mask +
    // region key per subgroup) and flag epoch-over-epoch changes.
    uint64_t digest = 0xcbf29ce484222325ull;
    for (const BiasedRegion& region : ibs) {
      const uint32_t mask = region.pattern.DeterministicMask();
      uint8_t bytes[12];
      for (int i = 0; i < 4; ++i) bytes[i] = (mask >> (8 * i)) & 0xff;
      const uint64_t key = counter_.KeyFor(region.pattern, mask);
      for (int i = 0; i < 8; ++i) bytes[4 + i] = (key >> (8 * i)) & 0xff;
      digest = Fnv1a64(bytes, sizeof(bytes), digest);
    }
    if (last_ibs_epoch_ != 0 && digest != last_ibs_digest_) {
      monitor_alerts_.fetch_add(1, std::memory_order_relaxed);
      metrics.serve_monitor_alerts->Increment();
    }
    snapshot->ibs = std::move(ibs);  // the epoch's one IBS copy is identify's
    last_ibs_digest_ = digest;
    last_ibs_epoch_ = epoch_;
  } else if (const std::shared_ptr<const EpochSnapshot> previous =
                 Snapshot()) {
    snapshot->ibs = previous->ibs;  // carried forward to the next identify
  }

  snapshot->epoch = epoch_;
  snapshot->wal_sequence = last_committed_sequence_;
  snapshot->totals = hierarchy_->TotalCounts();
  // Maintained by ApplyDeltas: O(this epoch's deltas), not O(lattice).
  snapshot->counts_digest = hierarchy_->MaintainedCountsDigest();
  snapshot->ibs_epoch = last_ibs_epoch_;
  if (RemedyEnabled()) {
    // Copy-on-write census: a publish with no committed leaf change (e.g. a
    // drained group whose batches all failed validation) shares the previous
    // epoch's table instead of deep-copying a potentially million-row
    // NodeTable. Snapshots only ever read it.
    if (leaf_census_stale_ || leaf_census_ == nullptr) {
      leaf_census_ = std::make_shared<const NodeTable>(
          hierarchy_->NodeCounts(hierarchy_->LeafMask()));
      leaf_census_stale_ = false;
    }
    snapshot->leaf_counts = leaf_census_;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot->read_only = read_only_;
  }
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    snapshot_ = snapshot;
    ring_.push_back(snapshot);
    while (ring_.size() > kSnapshotRing) ring_.pop_front();
  }
  metrics.serve_publish_ns->Observe(NowNanos() - start_ns);

  // The monitor policy hook: a freshly identified non-empty subgroup set
  // wakes the auto-remedy thread, bounded by a per-quiet-period round
  // budget (external ingest refills it). The trigger must come AFTER the
  // snapshot install above: the woken thread pins Snapshot(), and pinning
  // the previous epoch would plan against a census that predates the very
  // IBS that fired. A round that commits publishes a new epoch, which
  // re-identifies and may trigger the next round; a round that plans
  // nothing publishes nothing, so the loop converges.
  if (options_.auto_remedy && identify && !snapshot->ibs.empty()) {
    bool trigger = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!read_only_ && !stopping_ && !remedy_pending_ &&
          auto_remedy_rounds_ < options_.auto_remedy_max_rounds) {
        remedy_pending_ = true;
        ++auto_remedy_rounds_;
        trigger = true;
      }
    }
    if (trigger) remedy_cv_.notify_all();
  }
  metrics.serve_epochs_published->Increment();
}

StatusOr<RemedyCommitResult> ServeDaemon::SubmitRemedy(
    const RemedyParams& params) {
  return SubmitRemedy(params, nullptr);
}

StatusOr<RemedyCommitResult> ServeDaemon::SubmitRemedy(
    const RemedyParams& params,
    std::shared_ptr<const EpochSnapshot> pinned) {
  if (!RemedyEnabled()) {
    return InvalidArgumentError(
        "remedy is disabled; start the daemon with "
        "ServeOptions::enable_remedy (or auto_remedy)");
  }
  if (pinned == nullptr) pinned = Snapshot();
  if (pinned->leaf_counts == nullptr) {
    return InvalidArgumentError(
        "pinned snapshot carries no leaf counts (epoch " +
        std::to_string(pinned->epoch) + " predates enable_remedy)");
  }

  // Plan on the calling thread against the pinned, immutable cut: the
  // apply thread keeps committing ingest while this runs.
  ASSIGN_OR_RETURN(RemedyDeltaPlan plan,
                   PlanRemedyDeltas(schema_, *pinned->leaf_counts, params));

  RemedyCommitResult result;
  result.planned_epoch = pinned->epoch;
  result.pinned_sequence = pinned->wal_sequence;
  result.stats = plan.stats;
  result.deltas = plan.deltas.size();
  if (plan.deltas.empty()) return result;  // nothing to commit

  uint64_t ticket = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ || stopped_) {
      PipelineMetrics::Get().serve_batches_rejected->Increment();
      return InternalError("daemon is shutting down");
    }
    if (read_only_) {
      PipelineMetrics::Get().serve_batches_rejected->Increment();
      return InternalError("daemon is read-only: " + trip_reason_);
    }
    if (queue_.size() >= options_.queue_capacity) {
      PipelineMetrics::Get().serve_batches_rejected->Increment();
      return ResourceExhaustedError(
          "ingest queue full (" + std::to_string(options_.queue_capacity) +
          " batches); retry after " +
          std::to_string(options_.retry_after_ms) + "ms");
    }
    ticket = next_ticket_++;
    Batch batch;
    batch.deltas = std::move(plan.deltas);
    batch.is_remedy = true;
    batch.pinned_sequence = pinned->wal_sequence;
    batch.ticket = ticket;
    queue_.push_back(std::move(batch));
    ++submitted_batches_;
    PipelineMetrics::Get().serve_queue_depth->Set(
        static_cast<int64_t>(queue_.size()));
  }
  work_cv_.notify_one();

  RemedyOutcome outcome;
  {
    std::unique_lock<std::mutex> lock(mu_);
    drain_cv_.wait(lock, [&] {
      return remedy_results_.find(ticket) != remedy_results_.end() ||
             stopped_;
    });
    auto it = remedy_results_.find(ticket);
    if (it == remedy_results_.end()) {
      return InternalError("daemon stopped before the remedy resolved");
    }
    outcome = std::move(it->second);
    remedy_results_.erase(it);
  }
  RETURN_IF_ERROR(outcome.status);
  result.committed = true;
  result.applied_epoch = outcome.epoch;
  return result;
}

void ServeDaemon::WaitRemedyIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  remedy_cv_.wait(lock, [&] {
    return stopping_ || stopped_ ||
           (!remedy_pending_ && !remedy_inflight_);
  });
}

int64_t ServeDaemon::remedy_commits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return remedy_commits_;
}

std::shared_ptr<const EpochSnapshot> ServeDaemon::Snapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return snapshot_;
}

std::shared_ptr<const EpochSnapshot> ServeDaemon::SnapshotAt(
    uint64_t epoch) const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  for (const auto& snapshot : ring_) {
    if (snapshot->epoch == epoch) return snapshot;
  }
  return nullptr;
}

std::vector<BiasedRegion> ServeDaemon::QueryIbs() const {
  PipelineMetrics::Get().serve_queries_served->Increment();
  return Snapshot()->ibs;
}

std::string ServeDaemon::HealthJson() const {
  const std::shared_ptr<const EpochSnapshot> snapshot = Snapshot();
  size_t queue_depth;
  int64_t submitted, applied, failed, remedy_commits;
  bool is_read_only, lagging;
  std::string reason;
  IdentifyHealth identify;
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_depth = queue_.size();
    submitted = submitted_batches_;
    applied = applied_batches_;
    failed = failed_batches_;
    remedy_commits = remedy_commits_;
    is_read_only = read_only_;
    lagging = needs_recovery_;
    reason = trip_reason_;
    identify = identify_health_;
  }
  std::string json = "{";
  json += "\"status\":\"" +
          std::string(is_read_only ? "read_only" : "serving") + "\",";
  // Remedy state first ("streaming": PlanRemedyDeltas plans on the leaf
  // counts), so operators can correlate this report with the recovery and
  // parity guarantees of docs/SERVICE.md + docs/REMEDY.md.
  json += "\"remedy_backend\":\"" +
          std::string(RemedyEnabled() ? "streaming" : "disabled") + "\",";
  json += "\"auto_remedy\":" +
          std::string(options_.auto_remedy ? "true" : "false") + ",";
  json += "\"remedy_commits\":" + std::to_string(remedy_commits) + ",";
  json += "\"epoch\":" + std::to_string(snapshot->epoch) + ",";
  json += "\"wal_sequence\":" + std::to_string(snapshot->wal_sequence) + ",";
  json += "\"counts_digest\":" + std::to_string(snapshot->counts_digest) +
          ",";
  json += "\"totals\":{\"positives\":" +
          std::to_string(snapshot->totals.positives) +
          ",\"negatives\":" + std::to_string(snapshot->totals.negatives) +
          "},";
  json += "\"ibs_regions\":" + std::to_string(snapshot->ibs.size()) + ",";
  json += "\"ibs_epoch\":" + std::to_string(snapshot->ibs_epoch) + ",";
  json += "\"monitor_alerts\":" +
          std::to_string(monitor_alerts_.load(std::memory_order_relaxed)) +
          ",";
  json += "\"queue_depth\":" + std::to_string(queue_depth) + ",";
  json += "\"queue_capacity\":" + std::to_string(options_.queue_capacity) +
          ",";
  json += "\"batches\":{\"submitted\":" + std::to_string(submitted) +
          ",\"applied\":" + std::to_string(applied) +
          ",\"failed\":" + std::to_string(failed) + "},";
  json += "\"read_only\":" + std::string(is_read_only ? "true" : "false") +
          ",";
  json += "\"needs_recovery\":" + std::string(lagging ? "true" : "false") +
          ",";
  json += "\"trip_reason\":\"" + EscapeJson(reason) + "\",";
  json += "\"identify_mode\":\"" +
          std::string(options_.identify_mode == IdentifyMode::kIncremental
                          ? "incremental"
                          : "full") +
          "\",";
  json += "\"identify\":{\"last_epoch_incremental\":" +
          std::string(identify.last_incremental ? "true" : "false") +
          ",\"dirty_leaves\":" + std::to_string(identify.dirty_leaves) +
          ",\"rescored_regions\":" +
          std::to_string(identify.rescored_regions) +
          ",\"cached_regions\":" + std::to_string(identify.cached_regions) +
          ",\"fallback_reason\":\"" + EscapeJson(identify.fallback_reason) +
          "\"},";
  json += "\"metrics\":" +
          MetricsToJson(MetricsRegistry::Global().Snapshot());
  json += "}";
  return json;
}

bool ServeDaemon::read_only() const {
  std::lock_guard<std::mutex> lock(mu_);
  return read_only_;
}

bool ServeDaemon::needs_recovery() const {
  std::lock_guard<std::mutex> lock(mu_);
  return needs_recovery_;
}

uint64_t ServeDaemon::epoch() const { return Snapshot()->epoch; }

void ServeDaemon::TripReadOnly(const std::string& why,
                               bool lattice_lags_log) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!read_only_) {
    read_only_ = true;
    trip_reason_ = why;
    PipelineMetrics::Get().serve_read_only_trips->Increment();
  }
  if (lattice_lags_log) needs_recovery_ = true;
}

Status ServeDaemon::CheckpointLocked() {
  // A Start that failed mid-recovery destructs before the WAL handle (or
  // even the lattice) exists; there is nothing to cut yet.
  if (wal_ == nullptr || hierarchy_ == nullptr) return OkStatus();
  RETURN_IF_ERROR(wal_->Sync());
  WalCheckpoint checkpoint;
  checkpoint.schema_digest = schema_digest_;
  checkpoint.epoch = epoch_;
  checkpoint.wal_sequence = last_committed_sequence_;
  checkpoint.leaf_counts = hierarchy_->NodeCounts(hierarchy_->LeafMask());
  checkpoint.totals = hierarchy_->TotalCounts();
  RETURN_IF_ERROR(WriteWalCheckpoint(checkpoint_path_, checkpoint));
  RETURN_IF_ERROR(wal_->Reset());
  batches_since_checkpoint_ = 0;
  return OkStatus();
}

Status ServeDaemon::Checkpoint() {
  std::lock_guard<std::mutex> engine_lock(engine_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (needs_recovery_) {
      return InternalError(
          "refusing to checkpoint: the lattice lags the WAL (" +
          trip_reason_ + "); restart to replay and heal");
    }
  }
  return CheckpointLocked();
}

Status ServeDaemon::Stop() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (stop_started_) {
      // Another caller owns the shutdown sequence (joining a std::thread
      // from two threads is UB); wait for it and report the same result.
      drain_cv_.wait(lock, [&] { return stopped_; });
      return first_error_;
    }
    stop_started_ = true;
    stopping_ = true;
  }
  work_cv_.notify_all();
  remedy_cv_.notify_all();
  // The remedy thread first: it may be waiting inside SubmitRemedy for a
  // queued batch's outcome, which the still-running apply thread resolves
  // while draining.
  if (remedy_thread_.joinable()) remedy_thread_.join();
  if (apply_thread_.joinable()) apply_thread_.join();
  Status checkpointed = needs_recovery() ? OkStatus() : Checkpoint();
  Status result;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopped_ = true;
    if (first_error_.ok() && !checkpointed.ok()) {
      first_error_ = checkpointed.WithContext("shutdown checkpoint");
    }
    result = first_error_;
  }
  drain_cv_.notify_all();
  return result;
}

}  // namespace remedy
