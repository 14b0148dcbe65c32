#ifndef REMEDY_SERVE_WAL_H_
#define REMEDY_SERVE_WAL_H_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/hierarchy.h"
#include "core/region_counter.h"
#include "data/schema.h"

namespace remedy {

// Write-ahead delta log + leaf-count checkpoints — the durability layer of
// the streaming fairness daemon (see docs/SERVICE.md).
//
// The daemon's persistent state is two files in one directory:
//
//   deltas.wal       append-only log of committed delta batches
//   checkpoint.rck   leaf NodeTable + totals as of some log position
//
// Commit protocol: a batch becomes durable by appending one framed record
// to the log and fsync'ing (group commit: many appends, one sync). Only
// after the sync does the batch touch the in-memory lattice, so a crash at
// any instant loses at most un-acked batches — never acknowledged ones —
// and replaying the log tail over the last checkpoint reconstructs the
// lattice byte-identically. The acceptance check is counts-digest
// equality (Hierarchy::CountsDigest: a sum of per-entry hashes over every
// lattice entry, zero-count entries included, finalized with the totals).
// The daemon publishes the sum ApplyDeltas maintains, refolded from
// scratch only after a wide batch, a rebuild or a restart.
// serve_chaos_test proves recovery for truncation at every byte offset and
// checks the published digest against the fold of an independently
// counted lattice.
//
// Checkpoints are written tmp + rename + fsync, then the log is reset. The
// checkpoint remembers the sequence of the last record it covers; replay
// skips records at or below it, so a crash between the rename and the log
// reset cannot double-apply.
//
// File formats (every value little-endian, FNV-1a 64 checksums, in the
// style of the .rcs shard files — see data/shard_file.h):
//
//   log    = [32-byte log header][record]...
//   record = [32-byte frame][num_deltas x 24-byte delta]
//   frame  = magic u32, num_deltas u32, sequence u64,
//            payload checksum u64, frame checksum u64 (self-zeroed)
//   delta  = leaf_key u64, delta_positives i64, delta_negatives i64
//
// A torn tail (crash mid-write) decodes as a short or checksum-failing
// frame or payload; Replay stops at the first invalid byte, truncates the
// file there, and reports how many committed records survived. Nothing
// after a torn record can be valid — records are written in order and the
// file is never overwritten in place — so stopping is safe, not lossy.

inline constexpr uint32_t kWalFileMagic = 0x4c415752u;    // "RWAL"
inline constexpr uint32_t kWalRecordMagic = 0x43525752u;  // "RWRC"
inline constexpr uint32_t kWalFileVersion = 1;
inline constexpr int64_t kWalHeaderBytes = 32;
inline constexpr int64_t kWalFrameBytes = 32;
inline constexpr int64_t kWalDeltaBytes = 24;

inline constexpr uint32_t kCheckpointMagic = 0x504b4352u;  // "RCKP"
inline constexpr uint32_t kCheckpointVersion = 1;
inline constexpr int64_t kCheckpointHeaderBytes = 64;

// One committed record, as handed to Replay's callback.
struct WalRecord {
  uint64_t sequence = 0;
  std::vector<Hierarchy::LeafDelta> deltas;
};

// What Replay found in a log.
struct WalReplayResult {
  uint64_t last_sequence = 0;  // highest sequence applied (0 when none)
  int64_t records_applied = 0;
  bool tail_repaired = false;  // a torn tail was truncated away
};

// The append-only delta log. Not thread-safe: the daemon funnels every
// append through its single apply thread.
class DeltaWal {
 public:
  DeltaWal(const DeltaWal&) = delete;
  DeltaWal& operator=(const DeltaWal&) = delete;
  ~DeltaWal();

  // Opens `path` for appending, creating it (with a fresh header) when
  // absent. An existing log must carry this schema digest; its committed
  // records are NOT validated here — call Replay first when recovering.
  // `next_sequence` numbers the first record this handle appends; pass
  // 1 + the replayed last_sequence (or 1 + the checkpoint's wal_sequence
  // when the log is empty).
  static StatusOr<std::unique_ptr<DeltaWal>> Open(const std::string& path,
                                                  uint64_t schema_digest,
                                                  uint64_t next_sequence);

  // Frames and buffers one record; returns its sequence. Durable only
  // after the next Sync(). Fault point "wal/append".
  StatusOr<uint64_t> Append(const std::vector<Hierarchy::LeafDelta>& deltas);

  // Group commit: flushes buffered appends and fsyncs the file. Fault
  // point "wal/fsync". No-op when nothing was appended since the last
  // sync.
  Status Sync();

  // Truncates the log back to its bare header after a checkpoint covering
  // every appended record; subsequent appends keep numbering from
  // next_sequence(). Syncs the truncation.
  Status Reset();

  // Sequence the next Append will be assigned.
  uint64_t next_sequence() const { return next_sequence_; }

  // Replays the committed records of `path` in order, invoking `apply` for
  // each record with sequence > `min_sequence` (checkpoint cut-off). A
  // torn tail is truncated off the file (repair); bytes that are invalid
  // for any other reason — bad header, foreign schema digest,
  // non-monotonic sequences — fail with kDataCorruption. A missing file
  // replays as zero records. Fault point "wal/replay" (per record).
  static StatusOr<WalReplayResult> Replay(
      const std::string& path, uint64_t schema_digest, uint64_t min_sequence,
      const std::function<Status(const WalRecord&)>& apply);

 private:
  DeltaWal(std::FILE* file, std::string path, uint64_t schema_digest,
           uint64_t next_sequence)
      : file_(file),
        path_(std::move(path)),
        schema_digest_(schema_digest),
        next_sequence_(next_sequence) {}

  std::FILE* file_ = nullptr;
  std::string path_;
  uint64_t schema_digest_ = 0;
  uint64_t next_sequence_ = 1;
  bool dirty_ = false;  // appends since the last Sync
};

// A durable cut of the daemon's state: the leaf node's counts (every
// coarser node re-derives by exact rollups), the level-0 totals, the query
// epoch, and the WAL sequence the counts already include.
struct WalCheckpoint {
  uint64_t schema_digest = 0;
  uint64_t epoch = 0;
  uint64_t wal_sequence = 0;
  NodeTable leaf_counts;
  RegionCounts totals;
};

// Writes `checkpoint` atomically: serialize to `path`.tmp, fsync, rename
// over `path`, fsync the directory. A crash leaves either the old
// checkpoint or the new one, never a torn file. Fault points "wal/append"
// (the serialized write) and "wal/fsync" (both syncs).
Status WriteWalCheckpoint(const std::string& path,
                          const WalCheckpoint& checkpoint);

// Reads and fully validates `path` (header + payload checksums). A missing
// file is kIoError; the caller treats it as "cold start" when no daemon
// state exists yet.
StatusOr<WalCheckpoint> ReadWalCheckpoint(const std::string& path);

}  // namespace remedy

#endif  // REMEDY_SERVE_WAL_H_
