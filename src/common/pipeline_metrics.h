#ifndef REMEDY_COMMON_PIPELINE_METRICS_H_
#define REMEDY_COMMON_PIPELINE_METRICS_H_

#include "common/metrics.h"

namespace remedy {

// The canonical instrument set of the remedy pipeline, declared in one
// place as X-macro tables. Every metric the library emits is named here —
// instrumented code pulls its instrument from PipelineMetrics::Get()
// instead of calling MetricsRegistry::GetCounter with an ad-hoc string.
//
// This centralization is load-bearing for CI: tools/docs_check.sh greps
// the quoted names out of THESE tables and diffs them against the table in
// docs/METRICS.md, failing the docs-check test on drift. When you add a
// metric: add a row to the matching table below, document it in
// docs/METRICS.md, and use it via PipelineMetrics::Get().<field>.
//
// Naming convention: "<family>/<event>", lower_snake within segments.
// Families: lattice (hierarchy construction), ibs (subgroup
// identification), remedy (dataset repair), remedy_backend (the leaf-count
// remedy planner and the daemon's streaming commits), loader +
// csv (ingestion), threadpool, fault (fault injection), ml (model
// training / tuning), fairness (bootstrap confidence intervals), wal (the
// streaming service's write-ahead delta log), serve (the streaming
// fairness daemon).

// REMEDY_PIPELINE_COUNTERS(X): X(field, "name", "unit", "help")
#define REMEDY_PIPELINE_COUNTERS(X)                                           \
  X(lattice_nodes_built, "lattice/nodes_built", "nodes",                      \
    "lattice nodes materialized by Hierarchy::EagerBuild")                    \
  X(lattice_leaf_scans, "lattice/leaf_scans", "nodes",                        \
    "level-L nodes counted by direct dataset scan")                           \
  X(lattice_rollups, "lattice/rollups", "nodes",                              \
    "nodes derived by bottom-up rollup instead of a scan")                    \
  X(lattice_delta_rows, "lattice/delta_rows", "rows",                         \
    "leaf deltas handed to Hierarchy::ApplyDeltas (daemon, WAL replay, "      \
    "remedy engines)")                                                        \
  X(lattice_slot_map_builds, "lattice/slot_map_builds", "builds",             \
    "slot-map (re)builds of the lattice's ApplyDeltas up maps")               \
  X(lattice_shard_rows, "lattice/shard_rows", "rows",                         \
    "rows counted by the columnar store's key kernel")                        \
  X(lattice_radix_sort_keys, "lattice/radix_sort_keys", "keys",               \
    "NodeTable entries ordered by the LSD radix sort instead of a "           \
    "comparison sort")                                                        \
  X(lattice_radix_sort_passes, "lattice/radix_sort_passes", "passes",         \
    "counting passes executed by the radix sort (one per significant "        \
    "key byte)")                                                              \
  X(lattice_spill_shards, "lattice/spill_shards", "shards",                   \
    "completed shards written to disk by the spill-mode store builder")       \
  X(lattice_spill_bytes, "lattice/spill_bytes", "bytes",                      \
    "shard-file bytes written by the spill-mode store builder")               \
  X(lattice_mmap_shards, "lattice/mmap_shards", "shards",                     \
    "shard files memory-mapped by the out-of-core store")                     \
  X(lattice_mmap_bytes, "lattice/mmap_bytes", "bytes",                        \
    "shard-file bytes memory-mapped by the out-of-core store")                \
  X(lattice_mmap_releases, "lattice/mmap_releases", "shards",                 \
    "MADV_DONTNEED page releases after per-shard tally passes")               \
  X(ibs_nodes_visited, "ibs/nodes_visited", "nodes",                          \
    "lattice nodes examined by IdentifyIbs")                                  \
  X(ibs_hits, "ibs/hits", "nodes",                                            \
    "nodes flagged as imbalanced subgroups")                                  \
  X(ibs_neighbor_reuse, "ibs/neighbor_reuse", "nodes",                        \
    "neighbor-count evaluations served by the dominating-region "             \
    "optimization instead of a naive rescan")                                 \
  X(ibs_neighbor_naive, "ibs/neighbor_naive", "nodes",                        \
    "neighbor-count evaluations that fell back to the naive scan")            \
  X(ibs_incr_dirty_leaves, "ibs_incr/dirty_leaves", "keys",                   \
    "leaf region keys consumed from the dirty set per incremental "           \
    "identify pass")                                                          \
  X(ibs_incr_rescored_regions, "ibs_incr/rescored_regions", "regions",        \
    "regions re-scored by the incremental identify path (dirty keys plus "    \
    "their neighborhood frontier)")                                           \
  X(ibs_incr_neighborhood_expansions, "ibs_incr/neighborhood_expansions",     \
    "regions",                                                                \
    "frontier keys added to the re-evaluation set because a region within "   \
    "distance T of them changed")                                             \
  X(ibs_incr_cache_hits, "ibs_incr/cache_hits", "regions",                    \
    "biased verdicts reused from the previous pass's cache instead of "       \
    "being re-scored")                                                        \
  X(ibs_incr_wide_node_rescores, "ibs_incr/wide_node_rescores", "nodes",      \
    "nodes an incremental pass re-scored whole because their dirty keys "     \
    "times the frontier bound reached the node's entry count")                \
  X(ibs_incr_full_fallbacks, "ibs_incr/full_fallbacks", "passes",             \
    "incremental identify passes that fell back to a full lattice sweep "     \
    "(cold cache, recovery, rebuild, or params change)")                      \
  X(remedy_regions_planned, "remedy/regions_planned", "regions",              \
    "imbalanced regions a remedy plan was computed for")                      \
  X(remedy_oversample_rows_added, "remedy/oversample/rows_added", "rows",     \
    "rows duplicated by the oversampling technique")                          \
  X(remedy_undersample_rows_removed, "remedy/undersample/rows_removed",       \
    "rows", "rows removed by the undersampling technique")                    \
  X(remedy_preferential_rows_added, "remedy/preferential/rows_added",         \
    "rows", "rows added by preferential sampling")                            \
  X(remedy_preferential_rows_removed, "remedy/preferential/rows_removed",     \
    "rows", "rows removed by preferential sampling")                          \
  X(remedy_massaging_labels_flipped, "remedy/massaging/labels_flipped",       \
    "rows", "labels flipped by the massaging technique")                      \
  X(remedy_incremental_passes, "remedy/incremental_passes", "passes",         \
    "remedy passes served by the incremental (delta-maintained) engine")      \
  X(remedy_rebuild_passes, "remedy/rebuild_passes", "passes",                 \
    "remedy passes that fell back to a full lattice rebuild")                 \
  X(remedy_backend_plans, "remedy_backend/plans", "plans",                    \
    "delta plans computed by PlanRemedyDeltas")                               \
  X(remedy_backend_deltas_planned, "remedy_backend/deltas_planned",           \
    "deltas", "net leaf-count deltas emitted across all remedy plans")        \
  X(remedy_backend_streaming_commits, "remedy_backend/streaming_commits",     \
    "commits",                                                                \
    "remedy plans WAL-committed through the daemon's group-commit path")      \
  X(remedy_backend_stale_plans, "remedy_backend/stale_plans", "plans",        \
    "remedy plans rejected at commit because ingest advanced past the "       \
    "pinned sequence")                                                        \
  X(remedy_backend_auto_triggers, "remedy_backend/auto_triggers",             \
    "triggers", "auto-remedy rounds started by the monitor policy hook")      \
  X(loader_files, "loader/files", "files",                                    \
    "CSV files ingested by LoadCsvDataset")                                   \
  X(loader_rows_loaded, "loader/rows_loaded", "rows",                         \
    "rows accepted into a Dataset")                                           \
  X(loader_rows_dropped_missing, "loader/rows_dropped_missing", "rows",       \
    "rows dropped for missing values under DropRow policy")                   \
  X(loader_rows_quarantined, "loader/rows_quarantined", "rows",               \
    "malformed rows diverted to the quarantine file")                         \
  X(csv_records, "csv/records", "records",                                    \
    "CSV records parsed (including later-dropped ones)")                      \
  X(csv_bad_records, "csv/bad_records", "records",                           \
    "CSV records rejected by the parser as structurally malformed")           \
  X(csv_read_retries, "csv/read_retries", "attempts",                         \
    "extra read attempts taken by ReadCsvFile after transient I/O faults")    \
  X(store_shard_read_retries, "store/shard_read_retries", "attempts",         \
    "extra attempts taken opening or mapping spilled shard files after "      \
    "transient I/O faults")                                                   \
  X(wal_records_appended, "wal/records_appended", "records",                  \
    "delta batches framed into the write-ahead log")                          \
  X(wal_bytes_appended, "wal/bytes_appended", "bytes",                        \
    "bytes written to the write-ahead log (frames + payloads)")               \
  X(wal_syncs, "wal/syncs", "syncs",                                          \
    "group commits fsync'd to the write-ahead log")                           \
  X(wal_records_replayed, "wal/records_replayed", "records",                  \
    "committed records re-applied from the log during recovery")              \
  X(wal_torn_tails_repaired, "wal/torn_tails_repaired", "repairs",            \
    "incomplete log tails truncated away by recovery")                        \
  X(wal_checkpoints, "wal/checkpoints", "checkpoints",                        \
    "leaf-count checkpoints committed (tmp + rename) and the log reset")      \
  X(serve_batches_ingested, "serve/batches_ingested", "batches",              \
    "delta batches accepted into the daemon's ingest queue")                  \
  X(serve_rows_ingested, "serve/rows_ingested", "rows",                       \
    "row deltas accepted into the daemon's ingest queue")                     \
  X(serve_batches_rejected, "serve/batches_rejected", "batches",              \
    "delta batches rejected by backpressure (queue full) or read-only "       \
    "mode")                                                                   \
  X(serve_batches_applied, "serve/batches_applied", "batches",                \
    "WAL-committed batches applied to the daemon's lattice")                  \
  X(serve_apply_failures, "serve/apply_failures", "batches",                  \
    "batches whose WAL append, sync, or lattice apply failed")                \
  X(serve_epochs_published, "serve/epochs_published", "epochs",               \
    "immutable query snapshots published by the apply thread")                \
  X(serve_queries_served, "serve/queries_served", "queries",                  \
    "identify/audit queries answered from an epoch snapshot")                 \
  X(serve_monitor_alerts, "serve/monitor_alerts", "alerts",                   \
    "epoch-over-epoch subgroup changes flagged by the online monitor")        \
  X(serve_read_only_trips, "serve/read_only_trips", "trips",                  \
    "times the watchdog switched the daemon into read-only mode")             \
  X(threadpool_tasks_submitted, "threadpool/tasks_submitted", "tasks",        \
    "tasks enqueued on any ThreadPool")                                       \
  X(fault_points_crossed, "fault/points_crossed", "events",                   \
    "REMEDY_FAULT_POINT sites evaluated while an injector was active")        \
  X(fault_faults_fired, "fault/faults_fired", "events",                       \
    "fault-injection sites that actually fired a fault")                      \
  X(ml_fits, "ml/fits", "models",                                             \
    "classifier Fit calls completed (any model type)")                        \
  X(ml_trees_trained, "ml/trees_trained", "trees",                            \
    "decision trees grown inside RandomForest::Fit")                          \
  X(ml_epochs, "ml/epochs", "epochs",                                         \
    "gradient epochs run by logistic regression and the neural network")      \
  X(ml_encoded_matrices, "ml/encoded_matrices", "matrices",                   \
    "EncodedMatrix caches built from a Dataset")                              \
  X(ml_grid_candidates, "ml/grid_candidates", "candidates",                   \
    "candidate configurations evaluated by GridSearch")                       \
  X(fairness_bootstrap_replicates, "fairness/bootstrap_replicates",           \
    "replicates", "bootstrap resamples evaluated by BootstrapFairnessIndex")

// REMEDY_PIPELINE_GAUGES(X): X(field, "name", "unit", "help")
#define REMEDY_PIPELINE_GAUGES(X)                                  \
  X(threadpool_queue_depth, "threadpool/queue_depth", "tasks",     \
    "tasks waiting in ThreadPool queues (max = high-water mark)")  \
  X(serve_queue_depth, "serve/queue_depth", "batches",             \
    "batches waiting in the daemon's ingest queue (max = high-water mark)")

// REMEDY_PIPELINE_HISTOGRAMS(X): X(field, "name", "unit", "help")
#define REMEDY_PIPELINE_HISTOGRAMS(X)                              \
  X(threadpool_task_latency_ns, "threadpool/task_latency_ns", "ns", \
    "per-task wall time from dequeue to completion")                \
  X(threadpool_queue_wait_ns, "threadpool/queue_wait_ns", "ns",     \
    "per-task wall time from enqueue to dequeue")                   \
  X(ml_fit_ns, "ml/fit_ns", "ns",                                   \
    "wall time of each classifier Fit call")                        \
  X(serve_apply_ns, "serve/apply_ns", "ns",                         \
    "per-batch wall time from dequeue through WAL commit, lattice " \
    "apply, and snapshot publish")                                  \
  X(serve_publish_ns, "serve/publish_ns", "ns",                     \
    "per-epoch wall time of snapshot publish: identify, counts "    \
    "digest and snapshot build")                                    \
  X(ibs_incr_identify_ns, "ibs_incr/identify_ns", "ns",             \
    "wall time of each incremental identify pass (full fallbacks "  \
    "not included)")                                                \
  X(remedy_backend_plan_ns, "remedy_backend/plan_ns", "ns",         \
    "wall time of PlanRemedyDeltas (the count-native plan of the "  \
    "leaf census)")

// All pipeline instruments, registered once on first use. Call sites do
//   PipelineMetrics::Get().ibs_nodes_visited->Increment(n);
struct PipelineMetrics {
#define REMEDY_DECLARE_COUNTER(field, name, unit, help) Counter* field;
  REMEDY_PIPELINE_COUNTERS(REMEDY_DECLARE_COUNTER)
#undef REMEDY_DECLARE_COUNTER

#define REMEDY_DECLARE_GAUGE(field, name, unit, help) Gauge* field;
  REMEDY_PIPELINE_GAUGES(REMEDY_DECLARE_GAUGE)
#undef REMEDY_DECLARE_GAUGE

#define REMEDY_DECLARE_HISTOGRAM(field, name, unit, help) Histogram* field;
  REMEDY_PIPELINE_HISTOGRAMS(REMEDY_DECLARE_HISTOGRAM)
#undef REMEDY_DECLARE_HISTOGRAM

  // The process-wide instance (instruments registered in the global
  // MetricsRegistry; the returned reference never moves).
  static const PipelineMetrics& Get();
};

}  // namespace remedy

#endif  // REMEDY_COMMON_PIPELINE_METRICS_H_
