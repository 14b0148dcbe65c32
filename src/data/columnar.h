#ifndef REMEDY_DATA_COLUMNAR_H_
#define REMEDY_DATA_COLUMNAR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/dataset.h"
#include "data/schema.h"

namespace remedy {

// Dictionary-encoded, structure-of-arrays shard store over the protected
// attributes and the label — the counting substrate of the store scan
// (RegionCounter::CountNode over a ColumnarShardStore).
//
// The row-oriented Dataset keeps every attribute as a 4-byte code; the
// counting engine only ever reads the protected columns and the label, so
// this store re-encodes exactly those as contiguous per-attribute code
// arrays (u8 when the cardinality fits a byte, u16 otherwise) cut into
// fixed-size shards. One shard of Adult's 8-attribute protected space costs
// 9 bytes/row instead of the Dataset's 60, and the per-attribute arrays
// stream through SIMD lanes without gathers.
//
// Rows are append-only: the store is a build-once counting input, not a
// mutable dataset (the remedy write path stays on Dataset).
//
// Shards live in one of two places:
//  - in memory (FromDataset / Finish): the original RAM-resident form;
//  - on disk (OpenSpilled / FinishSpilled): per-shard files written by the
//    builder's spill mode and memory-mapped lazily on first count, so the
//    store can exceed RAM. Both forms serve the counting kernels through
//    the same ShardView pointers and count bit-identically.
class ColumnarShardStore {
 public:
  // ~256k rows per shard: big enough that per-shard setup amortizes away,
  // small enough that a spilled store's resident pages stay bounded by
  // the shard in flight.
  static constexpr int64_t kDefaultShardRows = 256 * 1024;

  // One protected attribute's codes within one shard. Exactly one of the
  // two arrays is populated, chosen by the attribute's cardinality.
  struct ColumnCodes {
    std::vector<uint8_t> narrow;   // cardinality <= 256
    std::vector<uint16_t> wide;    // cardinality <= 65536
  };

  struct Shard {
    int64_t num_rows = 0;
    std::vector<ColumnCodes> columns;  // one per protected attribute
    std::vector<uint8_t> labels;       // 0 / 1
  };

  // Raw-pointer view of one shard — the only form the counting kernels
  // read, so in-memory vectors and mmap'd file payloads count through
  // identical code. Pointers stay valid while the store is alive (and, for
  // spilled stores, mapped); views are cheap value types rebuilt per scan.
  struct ShardView {
    struct Column {
      const uint8_t* narrow = nullptr;   // set when the attribute is u8-coded
      const uint16_t* wide = nullptr;    // set when u16-coded
    };
    int64_t num_rows = 0;
    std::vector<Column> columns;  // one per protected attribute
    const uint8_t* labels = nullptr;
  };

  ColumnarShardStore() = default;

  // Re-encodes the protected columns + labels of `data`.
  static ColumnarShardStore FromDataset(const Dataset& data,
                                        int64_t shard_rows = kDefaultShardRows);

  // Opens a store spilled to `dir` by ColumnarShardStoreBuilder (see
  // EnableSpill): validates every shard file's header — magic, version,
  // checksum, schema digest against `schema`, column widths, contiguous
  // shard indices, exact file sizes — and computes the store totals from
  // the headers alone. No payload byte is read and nothing is mapped yet;
  // the first count (EnsureMapped / View) maps the files.
  // kIoError when files are missing or unreadable, kDataCorruption when
  // their bytes are wrong (e.g. a truncated spill), kInvalidArgument when
  // the store belongs to a different schema.
  static StatusOr<ColumnarShardStore> OpenSpilled(const std::string& dir,
                                                  const DataSchema& schema);

  const DataSchema& schema() const { return schema_; }
  int NumProtected() const { return static_cast<int>(cardinalities_.size()); }
  int Cardinality(int position) const { return cardinalities_[position]; }
  // True when protected attribute `position` is stored as u8 codes.
  bool IsNarrow(int position) const { return cardinalities_[position] <= 256; }

  int64_t NumRows() const { return num_rows_; }
  int64_t shard_rows() const { return shard_rows_; }
  int NumShards() const;
  // In-memory shard access (tests, re-encoding); dies on a spilled store —
  // counting code must go through View().
  const Shard& shard(int index) const;

  // View of shard `index`, mapping a spilled store's files on first use
  // (and dying if that map fails — Status-clean callers reach map errors
  // via EnsureMapped / Hierarchy::PrepareCounting first).
  ShardView View(int index) const;

  // True when the shards live in files and count memory-mapped.
  bool mmap_backed() const { return mapped_ != nullptr; }

  // Maps every shard file of a spilled store (no-op otherwise). Idempotent
  // and thread-safe; fault point "store/mmap_map". Mapping is deferred to
  // here — not OpenSpilled — so opening a store stays metadata-only and
  // pages only ever fault in under a tally pass.
  Status EnsureMapped() const;

  // Tally-pass paging hints around one shard, no-ops for in-memory stores:
  // Begin advises MADV_SEQUENTIAL over the shard's payload (aggressive
  // readahead for the streaming scan), End advises MADV_DONTNEED (drops
  // the clean pages so resident memory stays bounded by the shards in
  // flight, not the store size).
  void BeginShardPass(int index) const;
  void EndShardPass(int index) const;

  // Total on-disk bytes of a spilled store's shard files (0 in memory).
  int64_t SpilledBytes() const;

  int64_t PositiveCount() const { return positives_; }
  int64_t NegativeCount() const { return negatives_; }

 private:
  friend class ColumnarShardStoreBuilder;

  struct MappedState;  // the spilled-store half, defined in columnar.cc

  DataSchema schema_;
  std::vector<int> cardinalities_;  // of the protected attributes, in order
  std::vector<Shard> shards_;
  int64_t shard_rows_ = kDefaultShardRows;
  int64_t num_rows_ = 0;
  int64_t positives_ = 0;
  int64_t negatives_ = 0;
  // Shared (not unique) so the store keeps its value semantics; the state
  // is read-only after EnsureMapped, so sharing between copies is safe.
  std::shared_ptr<MappedState> mapped_;
};

// Streaming builder: appends rows (or whole Dataset chunks) one at a time,
// cutting a new shard every `shard_rows` rows, so arbitrarily large inputs
// build a store without any row-oriented copy ever materializing. The row
// stream fully determines the store: chunk boundaries never shift shard
// cuts, so streaming N rows in any chunking yields the same shards as
// FromDataset on the equivalent Dataset.
//
// With EnableSpill(dir) the builder becomes the out-of-core writer: every
// completed shard is written to its own checksummed file in `dir` (see
// data/shard_file.h) and dropped from memory, so peak RSS stays at one
// in-flight shard no matter how many rows stream through. Finish with
// FinishSpilled(), which returns the store re-opened over the files.
class ColumnarShardStoreBuilder {
 public:
  explicit ColumnarShardStoreBuilder(
      DataSchema schema,
      int64_t shard_rows = ColumnarShardStore::kDefaultShardRows);

  // Switches this builder to spill mode. `dir` is created if absent (one
  // level; parents must exist) and stale shard files in it are removed so
  // a shorter re-spill can never leave trailing shards behind. Must be
  // called before the first row; fails with kIoError when the directory
  // cannot be created or cleaned.
  Status EnableSpill(const std::string& dir);

  // Appends one row given the full attribute-code vector (Dataset::AddRow
  // layout; non-protected columns are ignored).
  void AddRow(const std::vector<int>& values, int label);

  // Appends every row of `chunk` (schema attribute count must match).
  void Append(const Dataset& chunk);

  int64_t NumRows() const { return store_.num_rows_; }

  // Finalizes and returns the in-memory store; the builder is left empty.
  // Dies in spill mode — use FinishSpilled().
  ColumnarShardStore Finish();

  // Spill-mode finalize: writes the final (possibly partial) shard, then
  // validates and opens the spilled store exactly as OpenSpilled would —
  // every header the writer just produced is re-read and re-checked. A
  // shard-write failure during AddRow/Append is sticky and surfaces here
  // (rows accepted after the failure are counted but never written, so the
  // builder stays cheap to drain). Fault point "store/spill_write" covers
  // each shard write.
  StatusOr<ColumnarShardStore> FinishSpilled();

 private:
  // Returns the shard the next row lands in, cutting a new one when the
  // current shard is full (in spill mode: writing it out and reusing the
  // buffer).
  ColumnarShardStore::Shard& ShardForNextRow();
  void PushCode(ColumnarShardStore::Shard& shard, int position, int code);
  void FinishRow(ColumnarShardStore::Shard& shard, int label);
  Status SpillShard(ColumnarShardStore::Shard& shard);

  ColumnarShardStore store_;
  std::vector<int> protected_cols_;  // dataset column index per position
  bool spilling_ = false;
  std::string spill_dir_;
  uint64_t schema_digest_ = 0;
  int spilled_shards_ = 0;
  Status spill_status_;
};

}  // namespace remedy

#endif  // REMEDY_DATA_COLUMNAR_H_
