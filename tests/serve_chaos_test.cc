// Chaos suite for the crash-safe streaming daemon (docs/SERVICE.md).
//
// The load-bearing half is the kill-point matrix: a WAL is truncated at
// EVERY byte offset — simulating a kill at any instant of any commit — and
// recovery must land on the counts digest of an uninterrupted run over the
// surviving committed prefix. The rest drives each fault point of the
// commit pipeline (wal/append, wal/fsync, wal/replay, serve/apply,
// serve/ingest) through the daemon's public API and checks the degradation
// ladder: reject, go read-only, keep answering queries, heal on restart.

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "common/pipeline_metrics.h"
#include "core/hierarchy.h"
#include "data/shard_file.h"
#include "serve/daemon.h"
#include "serve/wal.h"
#include "test_util.h"

namespace remedy {
namespace {

using remedy::testing::AddRows;
using remedy::testing::SmallSchema;

std::string TempPath(const std::string& name) {
  // Keyed by pid so the plain/TSan/ASan twins never collide when ctest
  // schedules the same case from all three binaries concurrently.
  return ::testing::TempDir() + name + "_" + std::to_string(::getpid());
}

// A unique, empty state directory per test case.
std::string FreshDir(const std::string& name) {
  static int counter = 0;
  const std::string dir =
      TempPath("serve_" + name + "_" + std::to_string(counter++));
  std::remove((dir + "/" + ServeDaemon::kWalFileName).c_str());
  std::remove((dir + "/" + ServeDaemon::kCheckpointFileName).c_str());
  ::rmdir(dir.c_str());
  return dir;
}

std::vector<uint8_t> ReadBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  std::vector<uint8_t> bytes(static_cast<size_t>(std::ftell(f)));
  std::fseek(f, 0, SEEK_SET);
  EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  return bytes;
}

void WriteBytes(const std::string& path, const uint8_t* data, size_t size) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(data, 1, size, f), size);
  std::fclose(f);
}

int64_t FileSize(const std::string& path) {
  struct stat info;
  if (::stat(path.c_str(), &info) != 0) return -1;
  return static_cast<int64_t>(info.st_size);
}

// SmallSchema leaf keys: a (3 values) then b (2 values), key = a * 2 + b.
uint64_t LeafKey(int a, int b) { return static_cast<uint64_t>(a * 2 + b); }

Hierarchy::LeafDelta Delta(int a, int b, int64_t dp, int64_t dn) {
  return {LeafKey(a, b), dp, dn};
}

// An empty count-seeded hierarchy, built and ready for ApplyDeltas.
std::unique_ptr<Hierarchy> EmptyHierarchy(const DataSchema& schema) {
  auto hierarchy =
      std::make_unique<Hierarchy>(schema, NodeTable(), RegionCounts());
  EXPECT_TRUE(hierarchy->EagerBuild(1).ok());
  return hierarchy;
}

// The batches the WAL tests commit: one record each, sequences 1..N.
std::vector<std::vector<Hierarchy::LeafDelta>> TestBatches() {
  return {
      {Delta(0, 0, 5, 3), Delta(1, 1, 2, 7)},
      {Delta(0, 1, 1, 4), Delta(2, 0, 6, 2)},
      {Delta(0, 0, -2, 1), Delta(2, 1, 3, 3)},
      {Delta(1, 0, 8, 0), Delta(1, 1, -1, -2)},
      {Delta(2, 0, 0, -1), Delta(0, 1, 2, 2)},
      {Delta(0, 0, 1, 1), Delta(2, 1, -3, 4)},
  };
}

// ---------------------------------------------------------------------------
// WAL unit level
// ---------------------------------------------------------------------------

TEST(DeltaWalTest, AppendSyncReplayRoundTrip) {
  const DataSchema schema = SmallSchema();
  const uint64_t digest = SchemaDigest(schema);
  const std::string path = TempPath("wal_roundtrip.wal");
  std::remove(path.c_str());
  const auto batches = TestBatches();
  {
    StatusOr<std::unique_ptr<DeltaWal>> wal = DeltaWal::Open(path, digest, 1);
    ASSERT_TRUE(wal.ok()) << wal.status();
    for (const auto& batch : batches) {
      StatusOr<uint64_t> sequence = wal.value()->Append(batch);
      ASSERT_TRUE(sequence.ok()) << sequence.status();
    }
    ASSERT_TRUE(wal.value()->Sync().ok());
  }
  std::vector<WalRecord> replayed;
  StatusOr<WalReplayResult> result =
      DeltaWal::Replay(path, digest, 0, [&](const WalRecord& record) {
        replayed.push_back(record);
        return OkStatus();
      });
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result.value().records_applied,
            static_cast<int64_t>(batches.size()));
  EXPECT_EQ(result.value().last_sequence, batches.size());
  EXPECT_FALSE(result.value().tail_repaired);
  ASSERT_EQ(replayed.size(), batches.size());
  for (size_t i = 0; i < batches.size(); ++i) {
    EXPECT_EQ(replayed[i].sequence, i + 1);
    ASSERT_EQ(replayed[i].deltas.size(), batches[i].size());
    for (size_t d = 0; d < batches[i].size(); ++d) {
      EXPECT_EQ(replayed[i].deltas[d].leaf_key, batches[i][d].leaf_key);
      EXPECT_EQ(replayed[i].deltas[d].delta_positives,
                batches[i][d].delta_positives);
      EXPECT_EQ(replayed[i].deltas[d].delta_negatives,
                batches[i][d].delta_negatives);
    }
  }
}

TEST(DeltaWalTest, ReplaySkipsRecordsTheCheckpointCovers) {
  const DataSchema schema = SmallSchema();
  const uint64_t digest = SchemaDigest(schema);
  const std::string path = TempPath("wal_cutoff.wal");
  std::remove(path.c_str());
  const auto batches = TestBatches();
  {
    StatusOr<std::unique_ptr<DeltaWal>> wal = DeltaWal::Open(path, digest, 1);
    ASSERT_TRUE(wal.ok());
    for (const auto& batch : batches) {
      ASSERT_TRUE(wal.value()->Append(batch).ok());
    }
    ASSERT_TRUE(wal.value()->Sync().ok());
  }
  std::vector<uint64_t> sequences;
  StatusOr<WalReplayResult> result =
      DeltaWal::Replay(path, digest, /*min_sequence=*/4,
                       [&](const WalRecord& record) {
                         sequences.push_back(record.sequence);
                         return OkStatus();
                       });
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result.value().records_applied, 2);
  EXPECT_EQ(sequences, (std::vector<uint64_t>{5, 6}));
}

TEST(DeltaWalTest, ReplayRejectsForeignSchema) {
  const std::string path = TempPath("wal_schema.wal");
  std::remove(path.c_str());
  {
    StatusOr<std::unique_ptr<DeltaWal>> wal = DeltaWal::Open(path, 111, 1);
    ASSERT_TRUE(wal.ok());
  }
  StatusOr<WalReplayResult> result = DeltaWal::Replay(
      path, 222, 0, [](const WalRecord&) { return OkStatus(); });
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(DeltaWalTest, NonMonotonicSequenceIsHardCorruption) {
  const DataSchema schema = SmallSchema();
  const uint64_t digest = SchemaDigest(schema);
  const std::string path = TempPath("wal_sequence.wal");
  std::remove(path.c_str());
  // Open never validates the body, so appending with a rewound numbering
  // forges a checksum-valid but out-of-order log.
  {
    StatusOr<std::unique_ptr<DeltaWal>> wal = DeltaWal::Open(path, digest, 5);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal.value()->Append({Delta(0, 0, 1, 0)}).ok());
    ASSERT_TRUE(wal.value()->Sync().ok());
  }
  {
    StatusOr<std::unique_ptr<DeltaWal>> wal = DeltaWal::Open(path, digest, 3);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal.value()->Append({Delta(0, 1, 1, 0)}).ok());
    ASSERT_TRUE(wal.value()->Sync().ok());
  }
  StatusOr<WalReplayResult> result = DeltaWal::Replay(
      path, digest, 0, [](const WalRecord&) { return OkStatus(); });
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataCorruption);
}

TEST(DeltaWalTest, ResetKeepsNumberingAndDropsRecords) {
  const DataSchema schema = SmallSchema();
  const uint64_t digest = SchemaDigest(schema);
  const std::string path = TempPath("wal_reset.wal");
  std::remove(path.c_str());
  StatusOr<std::unique_ptr<DeltaWal>> wal = DeltaWal::Open(path, digest, 1);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(wal.value()->Append({Delta(0, 0, 1, 0)}).ok());
  ASSERT_TRUE(wal.value()->Sync().ok());
  ASSERT_TRUE(wal.value()->Reset().ok());
  EXPECT_EQ(FileSize(path), kWalHeaderBytes);
  StatusOr<uint64_t> next = wal.value()->Append({Delta(0, 1, 1, 0)});
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next.value(), 2u);  // numbering continues across the reset
  ASSERT_TRUE(wal.value()->Sync().ok());
  std::vector<uint64_t> sequences;
  StatusOr<WalReplayResult> result =
      DeltaWal::Replay(path, digest, /*min_sequence=*/1,
                       [&](const WalRecord& record) {
                         sequences.push_back(record.sequence);
                         return OkStatus();
                       });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(sequences, (std::vector<uint64_t>{2}));
}

TEST(WalCheckpointTest, WriteReadRoundTrip) {
  const std::string path = TempPath("ckpt_roundtrip.rck");
  std::remove(path.c_str());
  WalCheckpoint checkpoint;
  checkpoint.schema_digest = 987654321;
  checkpoint.epoch = 42;
  checkpoint.wal_sequence = 17;
  checkpoint.leaf_counts = NodeTable({{LeafKey(0, 0), {5, 3}},
                                      {LeafKey(1, 1), {2, 7}},
                                      {LeafKey(2, 0), {6, 2}}});
  checkpoint.totals = {13, 12};
  ASSERT_TRUE(WriteWalCheckpoint(path, checkpoint).ok());
  StatusOr<WalCheckpoint> read = ReadWalCheckpoint(path);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read.value().schema_digest, checkpoint.schema_digest);
  EXPECT_EQ(read.value().epoch, checkpoint.epoch);
  EXPECT_EQ(read.value().wal_sequence, checkpoint.wal_sequence);
  ASSERT_EQ(read.value().leaf_counts.size(), 3u);
  EXPECT_EQ(read.value().leaf_counts.at(LeafKey(1, 1)).negatives, 7);
  EXPECT_EQ(read.value().totals.positives, 13);
  EXPECT_EQ(read.value().totals.negatives, 12);
}

TEST(WalCheckpointTest, BitFlipAnywhereIsDetected) {
  const std::string path = TempPath("ckpt_bitflip.rck");
  WalCheckpoint checkpoint;
  checkpoint.schema_digest = 1;
  checkpoint.epoch = 2;
  checkpoint.wal_sequence = 3;
  checkpoint.leaf_counts = NodeTable({{LeafKey(0, 0), {4, 5}}});
  checkpoint.totals = {4, 5};
  const std::vector<uint8_t> clean = [&] {
    std::remove(path.c_str());
    EXPECT_TRUE(WriteWalCheckpoint(path, checkpoint).ok());
    return ReadBytes(path);
  }();
  for (size_t at = 0; at < clean.size(); ++at) {
    std::vector<uint8_t> corrupt = clean;
    corrupt[at] ^= 0x40;
    WriteBytes(path, corrupt.data(), corrupt.size());
    StatusOr<WalCheckpoint> read = ReadWalCheckpoint(path);
    EXPECT_FALSE(read.ok()) << "bit flip at byte " << at << " undetected";
  }
}

TEST(WalCheckpointTest, WrappingEntryCountIsRejected) {
  const std::string path = TempPath("ckpt_wrap.rck");
  std::remove(path.c_str());
  WalCheckpoint checkpoint;
  checkpoint.schema_digest = 7;
  checkpoint.leaf_counts =
      NodeTable({{LeafKey(0, 0), {1, 2}}, {LeafKey(1, 0), {3, 4}}});
  checkpoint.totals = {4, 6};
  ASSERT_TRUE(WriteWalCheckpoint(path, checkpoint).ok());
  std::vector<uint8_t> bytes = ReadBytes(path);
  // Craft num_entries so `num_entries * 24 + 16` wraps back to the true
  // payload size (2^61 * 24 ≡ 0 mod 2^64) and recompute the header
  // checksum, leaving the size sanity check as the only line of defense —
  // a naive check would pass and send the decode loop far out of bounds.
  constexpr size_t kOffNumEntries = 8;  // header layout, see wal.cc
  constexpr size_t kOffChecksum = 56;
  auto get_u64 = [&](size_t at) {
    uint64_t value = 0;
    for (int i = 0; i < 8; ++i) {
      value |= static_cast<uint64_t>(bytes[at + i]) << (8 * i);
    }
    return value;
  };
  auto put_u64 = [&](size_t at, uint64_t value) {
    for (int i = 0; i < 8; ++i) bytes[at + i] = (value >> (8 * i)) & 0xff;
  };
  put_u64(kOffNumEntries, get_u64(kOffNumEntries) + (1ull << 61));
  put_u64(kOffChecksum, 0);
  put_u64(kOffChecksum, Fnv1a64(bytes.data(), kCheckpointHeaderBytes));
  WriteBytes(path, bytes.data(), bytes.size());
  StatusOr<WalCheckpoint> read = ReadWalCheckpoint(path);
  ASSERT_FALSE(read.ok()) << "wrapping entry count slipped past validation";
  EXPECT_EQ(read.status().code(), StatusCode::kDataCorruption);
}

TEST(WalCheckpointTest, FailedWriteLeavesNoTmpAndOldCheckpointIntact) {
  const std::string path = TempPath("ckpt_atomic.rck");
  std::remove(path.c_str());
  WalCheckpoint checkpoint;
  checkpoint.schema_digest = 7;
  checkpoint.leaf_counts = NodeTable({{LeafKey(0, 0), {1, 1}}});
  checkpoint.totals = {1, 1};
  ASSERT_TRUE(WriteWalCheckpoint(path, checkpoint).ok());
  checkpoint.epoch = 99;
  FaultInjector injector;
  injector.FailAlways("wal/fsync");
  ASSERT_FALSE(WriteWalCheckpoint(path, checkpoint).ok());
  injector.Disarm("wal/fsync");
  EXPECT_EQ(FileSize(path + ".tmp"), -1);  // no torn tmp left behind
  StatusOr<WalCheckpoint> read = ReadWalCheckpoint(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value().epoch, 0u);  // the old cut survived
}

// ---------------------------------------------------------------------------
// The kill-point matrix: truncate the log at EVERY byte offset — a kill at
// any instant of any append/fsync — and require recovery to land on the
// digest of an uninterrupted run over however many records stayed durable.
// ---------------------------------------------------------------------------

// The digest of a lattice reseeded from the summed leaf counts of the
// first `records` batches: an oracle independent of ApplyDeltas' paths.
uint64_t ReseededDigest(
    const DataSchema& schema,
    const std::vector<std::vector<Hierarchy::LeafDelta>>& batches,
    size_t records) {
  std::map<uint64_t, RegionCounts> leaves;
  RegionCounts totals;
  for (size_t r = 0; r < records; ++r) {
    for (const Hierarchy::LeafDelta& delta : batches[r]) {
      leaves[delta.leaf_key].positives += delta.delta_positives;
      leaves[delta.leaf_key].negatives += delta.delta_negatives;
      totals.positives += delta.delta_positives;
      totals.negatives += delta.delta_negatives;
    }
  }
  Hierarchy reseeded(schema,
                     NodeTable(std::vector<NodeTable::Entry>(leaves.begin(),
                                                             leaves.end())),
                     totals);
  EXPECT_TRUE(reseeded.EagerBuild(1).ok());
  return reseeded.CountsDigest();
}

// Logs `batches` one record each, truncates the log at every byte offset,
// and requires each recovery to land on the digest of an uninterrupted run
// over the records that stayed durable, which must equal the reseeded one.
void RunKillPointMatrix(
    const std::vector<std::vector<Hierarchy::LeafDelta>>& batches,
    const std::string& name) {
  const DataSchema schema = SmallSchema();
  const uint64_t digest = SchemaDigest(schema);
  const std::string clean_path = TempPath(name + "_clean.wal");
  std::remove(clean_path.c_str());
  {
    StatusOr<std::unique_ptr<DeltaWal>> wal =
        DeltaWal::Open(clean_path, digest, 1);
    ASSERT_TRUE(wal.ok());
    for (const auto& batch : batches) {
      ASSERT_TRUE(wal.value()->Append(batch).ok());
    }
    ASSERT_TRUE(wal.value()->Sync().ok());
  }
  const std::vector<uint8_t> bytes = ReadBytes(clean_path);

  // File offsets after the header and after each complete record, and the
  // uninterrupted-run digest with k records applied.
  std::vector<int64_t> boundary = {kWalHeaderBytes};
  std::vector<uint64_t> expected_digest;
  {
    auto hierarchy = EmptyHierarchy(schema);
    expected_digest.push_back(hierarchy->CountsDigest());
    for (const auto& batch : batches) {
      boundary.push_back(boundary.back() + kWalFrameBytes +
                         static_cast<int64_t>(batch.size()) * kWalDeltaBytes);
      hierarchy->ApplyDeltas(batch, /*insert_missing=*/true);
      expected_digest.push_back(hierarchy->CountsDigest());
    }
  }
  for (size_t k = 0; k < expected_digest.size(); ++k) {
    ASSERT_EQ(expected_digest[k], ReseededDigest(schema, batches, k))
        << k << " records";
  }
  ASSERT_EQ(boundary.back(), static_cast<int64_t>(bytes.size()));

  const std::string path = TempPath(name + "_cut.wal");
  for (size_t cut = 0; cut <= bytes.size(); ++cut) {
    std::remove(path.c_str());
    WriteBytes(path, bytes.data(), cut);

    // How many records are fully durable in this prefix, and whether the
    // prefix ends exactly on a record (or header) boundary.
    size_t survivors = 0;
    while (survivors + 1 < boundary.size() &&
           boundary[survivors + 1] <= static_cast<int64_t>(cut)) {
      ++survivors;
    }
    const bool on_boundary =
        static_cast<int64_t>(cut) == boundary[survivors] &&
        cut >= static_cast<size_t>(kWalHeaderBytes);

    auto hierarchy = EmptyHierarchy(schema);
    StatusOr<WalReplayResult> result =
        DeltaWal::Replay(path, digest, 0, [&](const WalRecord& record) {
          hierarchy->ApplyDeltas(record.deltas, /*insert_missing=*/true);
          return OkStatus();
        });
    ASSERT_TRUE(result.ok()) << "cut at byte " << cut << ": "
                             << result.status();
    EXPECT_EQ(result.value().records_applied,
              static_cast<int64_t>(survivors))
        << "cut at byte " << cut;
    EXPECT_EQ(result.value().tail_repaired, !on_boundary)
        << "cut at byte " << cut;
    EXPECT_EQ(hierarchy->CountsDigest(), expected_digest[survivors])
        << "cut at byte " << cut
        << ": recovery diverged from the uninterrupted run";

    // The repair truncated the torn bytes away, so a second replay (the
    // next restart) sees a clean log with the same survivors.
    EXPECT_EQ(FileSize(path),
              cut < static_cast<size_t>(kWalHeaderBytes)
                  ? 0
                  : boundary[survivors])
        << "cut at byte " << cut;
    int64_t second_pass = 0;
    StatusOr<WalReplayResult> again =
        DeltaWal::Replay(path, digest, 0, [&](const WalRecord&) {
          ++second_pass;
          return OkStatus();
        });
    if (cut >= static_cast<size_t>(kWalHeaderBytes)) {
      ASSERT_TRUE(again.ok()) << "cut at byte " << cut;
      EXPECT_EQ(second_pass, static_cast<int64_t>(survivors));
      EXPECT_FALSE(again.value().tail_repaired) << "cut at byte " << cut;
    }
  }
}

TEST(WalKillPointMatrixTest, TruncationAtEveryOffsetRecoversValidPrefix) {
  RunKillPointMatrix(TestBatches(), "wal_matrix");
}

// The daemon's first record is its whole census, which replay applies to
// the empty lattice by ApplyDeltas' rollup path; narrow records follow.
TEST(WalKillPointMatrixTest, WideSeedRecordRecoversAtEveryOffset) {
  std::vector<std::vector<Hierarchy::LeafDelta>> batches = {{}};
  for (int a = 0; a < 3; ++a) {
    for (int b = 0; b < 2; ++b) {
      batches[0].push_back(Delta(a, b, 10 + a, 12 - b));
    }
  }
  for (const auto& batch : TestBatches()) batches.push_back(batch);
  const Counter& rollups = *PipelineMetrics::Get().lattice_rollup_applies;
  const int64_t before = rollups.Value();
  EmptyHierarchy(SmallSchema())->ApplyDeltas(batches[0],
                                             /*insert_missing=*/true);
  ASSERT_EQ(rollups.Value() - before, 1) << "the seed record is not wide";
  RunKillPointMatrix(batches, "wal_matrix_seed");
}

// A bit flip inside a committed record's payload is caught by the payload
// checksum; replay conservatively treats everything from the flip on as
// torn tail.
TEST(WalKillPointMatrixTest, PayloadBitFlipStopsReplayAtPriorRecord) {
  const DataSchema schema = SmallSchema();
  const uint64_t digest = SchemaDigest(schema);
  const std::string path = TempPath("wal_bitflip.wal");
  std::remove(path.c_str());
  const auto batches = TestBatches();
  {
    StatusOr<std::unique_ptr<DeltaWal>> wal = DeltaWal::Open(path, digest, 1);
    ASSERT_TRUE(wal.ok());
    for (const auto& batch : batches) {
      ASSERT_TRUE(wal.value()->Append(batch).ok());
    }
    ASSERT_TRUE(wal.value()->Sync().ok());
  }
  std::vector<uint8_t> bytes = ReadBytes(path);
  // Flip one payload byte of record 3 (records 1..2 stay intact).
  const int64_t record_bytes =
      kWalFrameBytes + static_cast<int64_t>(batches[0].size()) * kWalDeltaBytes;
  bytes[kWalHeaderBytes + 2 * record_bytes + kWalFrameBytes + 5] ^= 0x01;
  WriteBytes(path, bytes.data(), bytes.size());
  int64_t replayed = 0;
  StatusOr<WalReplayResult> result =
      DeltaWal::Replay(path, digest, 0, [&](const WalRecord&) {
        ++replayed;
        return OkStatus();
      });
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(replayed, 2);
  EXPECT_TRUE(result.value().tail_repaired);
}

// ---------------------------------------------------------------------------
// Daemon level
// ---------------------------------------------------------------------------

// The CSV batch used by the ingest tests: 12 rows over 3 of the 6 cells.
constexpr char kBatchCsv[] =
    "a,b,label\n"
    "a0,b0,1\na0,b0,1\na0,b0,0\n"
    "a1,b1,1\na1,b1,0\na1,b1,0\na1,b1,0\n"
    "a2,b0,1\na2,b0,1\na2,b0,1\na2,b0,0\na2,b0,0\n";

// The same rows as kBatchCsv, as a Dataset (f mirrors the label).
Dataset BatchDataset() {
  Dataset data(SmallSchema());
  AddRows(data, 2, 0, 0, 1, 1);
  AddRows(data, 1, 0, 0, 0, 0);
  AddRows(data, 1, 1, 1, 1, 1);
  AddRows(data, 3, 1, 1, 0, 0);
  AddRows(data, 3, 2, 0, 1, 1);
  AddRows(data, 2, 2, 0, 0, 0);
  return data;
}

ServeOptions SmallOptions(const std::string& dir) {
  ServeOptions options;
  options.state_dir = dir;
  options.ibs.min_region_size = 2;  // tiny test data still gets audited
  options.ibs.imbalance_threshold = 0.2;
  return options;
}

TEST(ServeDaemonTest, IngestMatchesBatchCountedHierarchy) {
  const DataSchema schema = SmallSchema();
  auto daemon = ServeDaemon::Start(schema, SmallOptions(FreshDir("ingest")));
  ASSERT_TRUE(daemon.ok()) << daemon.status();
  ASSERT_TRUE(daemon.value()->IngestCsv(kBatchCsv).ok());
  ASSERT_TRUE(daemon.value()->Flush().ok());

  Dataset data = BatchDataset();
  Hierarchy batch_counted(data);
  ASSERT_TRUE(batch_counted.EagerBuild(1).ok());
  std::shared_ptr<const EpochSnapshot> snapshot = daemon.value()->Snapshot();
  EXPECT_EQ(snapshot->totals.positives, 6);
  EXPECT_EQ(snapshot->totals.negatives, 6);
  EXPECT_EQ(snapshot->counts_digest, batch_counted.CountsDigest())
      << "streamed deltas diverged from batch counting the same rows";
  EXPECT_FALSE(snapshot->read_only);
  EXPECT_TRUE(daemon.value()->Stop().ok());
}

TEST(ServeDaemonTest, CountColumnCarriesSignedWeights) {
  const DataSchema schema = SmallSchema();
  auto daemon = ServeDaemon::Start(schema, SmallOptions(FreshDir("weights")));
  ASSERT_TRUE(daemon.ok());
  ASSERT_TRUE(daemon.value()
                  ->IngestCsv("a,b,label,__count\na0,b0,1,10\na0,b0,0,4\n")
                  .ok());
  ASSERT_TRUE(daemon.value()->Flush().ok());
  EXPECT_EQ(daemon.value()->Snapshot()->totals.positives, 10);
  // Signed weights retract earlier rows (a label flip, a deletion).
  ASSERT_TRUE(
      daemon.value()->IngestCsv("a,b,label,__count\na0,b0,1,-3\n").ok());
  ASSERT_TRUE(daemon.value()->Flush().ok());
  EXPECT_EQ(daemon.value()->Snapshot()->totals.positives, 7);
  EXPECT_EQ(daemon.value()->Snapshot()->totals.negatives, 4);
  EXPECT_TRUE(daemon.value()->Stop().ok());
}

TEST(ServeDaemonTest, BadBatchesRejectWholeWithoutSideEffects) {
  const DataSchema schema = SmallSchema();
  auto daemon = ServeDaemon::Start(schema, SmallOptions(FreshDir("badcsv")));
  ASSERT_TRUE(daemon.ok());
  // Unknown value, bad label, missing column: all reject as a whole.
  EXPECT_EQ(daemon.value()->IngestCsv("a,b,label\na9,b0,1\n").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(daemon.value()->IngestCsv("a,b,label\na0,b0,yes\n").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(daemon.value()->IngestCsv("a,label\na0,1\n").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      daemon.value()->IngestCsv("a,b,label,__count\na0,b0,1,many\n").code(),
      StatusCode::kInvalidArgument);
  ASSERT_TRUE(daemon.value()->Flush().ok());
  EXPECT_EQ(daemon.value()->Snapshot()->totals.positives, 0);
  EXPECT_EQ(daemon.value()->Snapshot()->totals.negatives, 0);
  EXPECT_FALSE(daemon.value()->read_only());
  EXPECT_TRUE(daemon.value()->Stop().ok());
}

TEST(ServeDaemonTest, UnderflowingBatchIsDroppedNotCommitted) {
  const DataSchema schema = SmallSchema();
  auto daemon =
      ServeDaemon::Start(schema, SmallOptions(FreshDir("underflow")));
  ASSERT_TRUE(daemon.ok());
  // Retracting from an empty region would drive counts negative; the batch
  // is dropped before it ever reaches the WAL, and the daemon stays live.
  ASSERT_TRUE(daemon.value()->Submit({Delta(0, 0, -5, 0)}).ok());
  ASSERT_TRUE(daemon.value()->Flush().ok());
  EXPECT_EQ(daemon.value()->Snapshot()->totals.positives, 0);
  EXPECT_FALSE(daemon.value()->read_only());
  EXPECT_NE(daemon.value()->HealthJson().find("\"failed\":1"),
            std::string::npos);
  // The daemon still applies later valid work.
  ASSERT_TRUE(daemon.value()->Submit({Delta(0, 0, 2, 1)}).ok());
  ASSERT_TRUE(daemon.value()->Flush().ok());
  EXPECT_EQ(daemon.value()->Snapshot()->totals.positives, 2);
  EXPECT_TRUE(daemon.value()->Stop().ok());
}

TEST(ServeDaemonTest, DuplicateKeysInOneBatchValidateCumulatively) {
  const DataSchema schema = SmallSchema();
  const std::string dir = FreshDir("dupkeys");
  uint64_t digest = 0;
  {
    auto daemon = ServeDaemon::Start(schema, SmallOptions(dir));
    ASSERT_TRUE(daemon.ok());
    ASSERT_TRUE(daemon.value()->Submit({Delta(0, 0, 8, 0)}).ok());
    ASSERT_TRUE(daemon.value()->Flush().ok());
    // Each -5 alone passes against the leaf count of 8; together they
    // underflow. Submit's contract allows duplicate keys, so validation
    // must accumulate them — the batch is dropped before it is ever
    // WAL-committed (a committed record has to replay cleanly forever).
    ASSERT_TRUE(
        daemon.value()->Submit({Delta(0, 0, -5, 0), Delta(0, 0, -5, 0)}).ok());
    ASSERT_TRUE(daemon.value()->Flush().ok());
    EXPECT_EQ(daemon.value()->Snapshot()->totals.positives, 8);
    EXPECT_FALSE(daemon.value()->read_only());
    // Valid duplicate keys still commit, and a rejected batch rolls its
    // overlay back: this one validates against the untouched count of 8.
    ASSERT_TRUE(
        daemon.value()->Submit({Delta(0, 0, 2, 0), Delta(0, 0, 3, 0)}).ok());
    ASSERT_TRUE(daemon.value()->Flush().ok());
    EXPECT_EQ(daemon.value()->Snapshot()->totals.positives, 13);
    digest = daemon.value()->Snapshot()->counts_digest;
    // Kill (failed shutdown checkpoint) so the restart must replay the WAL.
    FaultInjector injector;
    injector.FailAlways("wal/fsync");
    EXPECT_FALSE(daemon.value()->Stop().ok());
  }
  auto daemon = ServeDaemon::Start(schema, SmallOptions(dir));
  ASSERT_TRUE(daemon.ok()) << daemon.status();
  EXPECT_EQ(daemon.value()->Snapshot()->counts_digest, digest)
      << "a WAL-committed record failed to replay to the served state";
  EXPECT_TRUE(daemon.value()->Stop().ok());
}

TEST(ServeDaemonTest, BatchesQueuedDuringATripNeverCommit) {
  // Regression: a batch accepted by Submit while CommitGroup was tripping
  // read-only used to be WAL-appended and applied by the next group —
  // advancing the served counts past durable-but-unapplied records and
  // stranding records behind the torn tail. Race a submitter against a
  // first-fsync failure; whatever lands in the queue around the trip must
  // be dropped, leaving the served digest exactly where the last
  // acknowledged commit left it.
  const DataSchema schema = SmallSchema();
  auto daemon =
      ServeDaemon::Start(schema, SmallOptions(FreshDir("tripdrop")));
  ASSERT_TRUE(daemon.ok());
  ASSERT_TRUE(daemon.value()->IngestCsv(kBatchCsv).ok());
  ASSERT_TRUE(daemon.value()->Flush().ok());
  const uint64_t clean_digest = daemon.value()->Snapshot()->counts_digest;

  FaultInjector injector;
  // Only the next group's sync fails; later syncs would succeed, so any
  // batch the old code let through WOULD commit and move the digest.
  injector.FailNth("wal/fsync", 1);
  std::thread submitter([&] {
    for (int i = 0; i < 50000; ++i) {
      const Status submitted = daemon.value()->Submit({Delta(0, 0, 1, 0)});
      if (submitted.code() == StatusCode::kInternal) return;  // read-only
    }
  });
  submitter.join();
  EXPECT_FALSE(daemon.value()->Flush().ok());
  EXPECT_TRUE(daemon.value()->read_only());
  EXPECT_TRUE(daemon.value()->needs_recovery());
  EXPECT_EQ(daemon.value()->Snapshot()->counts_digest, clean_digest)
      << "a batch queued during the trip was committed after it";
  EXPECT_FALSE(daemon.value()->Stop().ok());
}

TEST(ServeDaemonTest, ConcurrentStopCallersAgreeAndDoNotCrash) {
  // Stop() is documented safe for concurrent callers: exactly one thread
  // runs the shutdown sequence (a double std::thread::join is UB), the
  // rest wait and report the same result. The TSan twin is the teeth.
  const DataSchema schema = SmallSchema();
  auto daemon =
      ServeDaemon::Start(schema, SmallOptions(FreshDir("stopstorm")));
  ASSERT_TRUE(daemon.ok());
  ASSERT_TRUE(daemon.value()->IngestCsv(kBatchCsv).ok());
  std::array<Status, 4> results;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < results.size(); ++t) {
    threads.emplace_back([&, t] { results[t] = daemon.value()->Stop(); });
  }
  for (std::thread& thread : threads) thread.join();
  for (const Status& result : results) EXPECT_TRUE(result.ok()) << result;
  EXPECT_EQ(daemon.value()->Snapshot()->totals.positives, 6);
}

TEST(ServeDaemonTest, CleanRestartPreservesDigestAndResetsWal) {
  const DataSchema schema = SmallSchema();
  const std::string dir = FreshDir("restart");
  uint64_t digest = 0;
  {
    auto daemon = ServeDaemon::Start(schema, SmallOptions(dir));
    ASSERT_TRUE(daemon.ok());
    ASSERT_TRUE(daemon.value()->IngestCsv(kBatchCsv).ok());
    ASSERT_TRUE(daemon.value()->Flush().ok());
    digest = daemon.value()->Snapshot()->counts_digest;
    ASSERT_TRUE(daemon.value()->Stop().ok());
  }
  // The shutdown checkpoint covered everything: the log is bare.
  EXPECT_EQ(FileSize(dir + "/" + ServeDaemon::kWalFileName), kWalHeaderBytes);
  auto daemon = ServeDaemon::Start(schema, SmallOptions(dir));
  ASSERT_TRUE(daemon.ok()) << daemon.status();
  EXPECT_EQ(daemon.value()->Snapshot()->counts_digest, digest);
  EXPECT_EQ(daemon.value()->Snapshot()->totals.positives, 6);
  EXPECT_TRUE(daemon.value()->Stop().ok());
}

TEST(ServeDaemonTest, KillWithoutCheckpointReplaysWalOnRestart) {
  const DataSchema schema = SmallSchema();
  const std::string dir = FreshDir("killrecover");
  uint64_t digest = 0;
  {
    auto daemon = ServeDaemon::Start(schema, SmallOptions(dir));
    ASSERT_TRUE(daemon.ok());
    ASSERT_TRUE(daemon.value()->IngestCsv(kBatchCsv).ok());
    ASSERT_TRUE(daemon.value()->Submit({Delta(1, 0, 4, 4)}).ok());
    ASSERT_TRUE(daemon.value()->Flush().ok());
    digest = daemon.value()->Snapshot()->counts_digest;
    // Simulate a kill: the shutdown checkpoint fails, leaving recovery
    // nothing but the WAL (exactly the state a SIGKILL leaves behind).
    FaultInjector injector;
    injector.FailAlways("wal/fsync");
    EXPECT_FALSE(daemon.value()->Stop().ok());
  }
  ASSERT_GT(FileSize(dir + "/" + ServeDaemon::kWalFileName), kWalHeaderBytes);
  auto daemon = ServeDaemon::Start(schema, SmallOptions(dir));
  ASSERT_TRUE(daemon.ok()) << daemon.status();
  EXPECT_EQ(daemon.value()->Snapshot()->counts_digest, digest)
      << "WAL replay diverged from the pre-kill state";
  EXPECT_TRUE(daemon.value()->Stop().ok());
}

TEST(ServeDaemonTest, AutoCheckpointCutoffNeverDoubleApplies) {
  const DataSchema schema = SmallSchema();
  const std::string dir = FreshDir("autockpt");
  ServeOptions options = SmallOptions(dir);
  options.checkpoint_every_batches = 1;  // checkpoint after every commit
  uint64_t digest = 0;
  {
    auto daemon = ServeDaemon::Start(schema, options);
    ASSERT_TRUE(daemon.ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(daemon.value()->Submit({Delta(i, 0, 3, 2)}).ok());
      ASSERT_TRUE(daemon.value()->Flush().ok());
    }
    digest = daemon.value()->Snapshot()->counts_digest;
    ASSERT_TRUE(daemon.value()->Stop().ok());
  }
  auto daemon = ServeDaemon::Start(schema, options);
  ASSERT_TRUE(daemon.ok());
  EXPECT_EQ(daemon.value()->Snapshot()->counts_digest, digest);
  EXPECT_EQ(daemon.value()->Snapshot()->totals.positives, 9);
  EXPECT_TRUE(daemon.value()->Stop().ok());
}

TEST(ServeDaemonTest, WalAppendFailureTripsReadOnlyAndRestartHeals) {
  const DataSchema schema = SmallSchema();
  const std::string dir = FreshDir("appendfail");
  uint64_t clean_digest = 0;
  {
    auto daemon = ServeDaemon::Start(schema, SmallOptions(dir));
    ASSERT_TRUE(daemon.ok());
    ASSERT_TRUE(daemon.value()->IngestCsv(kBatchCsv).ok());
    ASSERT_TRUE(daemon.value()->Flush().ok());
    clean_digest = daemon.value()->Snapshot()->counts_digest;

    FaultInjector injector;
    injector.FailNth("wal/append", 1);
    ASSERT_TRUE(daemon.value()->Submit({Delta(0, 0, 1, 1)}).ok());
    EXPECT_FALSE(daemon.value()->Flush().ok());
    EXPECT_TRUE(daemon.value()->read_only());
    EXPECT_TRUE(daemon.value()->needs_recovery());
    // Degraded, not dead: ingestion rejects, queries keep answering from
    // the last good epoch.
    EXPECT_EQ(daemon.value()->Submit({Delta(0, 0, 1, 0)}).code(),
              StatusCode::kInternal);
    EXPECT_EQ(daemon.value()->Snapshot()->counts_digest, clean_digest);
    EXPECT_TRUE(daemon.value()->Snapshot()->read_only);
    EXPECT_NE(daemon.value()->HealthJson().find("\"status\":\"read_only\""),
              std::string::npos);
    // needs-recovery refuses to checkpoint (it would forget the lag).
    EXPECT_FALSE(daemon.value()->Checkpoint().ok());
    EXPECT_FALSE(daemon.value()->Stop().ok());
  }
  // The failed append never became durable, so recovery lands exactly on
  // the last acknowledged state.
  auto daemon = ServeDaemon::Start(schema, SmallOptions(dir));
  ASSERT_TRUE(daemon.ok()) << daemon.status();
  EXPECT_FALSE(daemon.value()->read_only());
  EXPECT_EQ(daemon.value()->Snapshot()->counts_digest, clean_digest);
  EXPECT_TRUE(daemon.value()->Stop().ok());
}

TEST(ServeDaemonTest, ApplyWatchdogTripsAfterBoundedRetriesAndHeals) {
  const DataSchema schema = SmallSchema();
  const std::string dir = FreshDir("watchdog");
  ServeOptions options = SmallOptions(dir);
  options.watchdog_trip_threshold = 3;
  uint64_t healed_digest = 0;
  {
    // What the lattice must look like once the WAL-committed batch lands.
    auto expected = EmptyHierarchy(schema);
    expected->ApplyDeltas({Delta(2, 1, 5, 5)}, /*insert_missing=*/true);
    healed_digest = expected->CountsDigest();
  }
  {
    auto daemon = ServeDaemon::Start(schema, options);
    ASSERT_TRUE(daemon.ok());
    FaultInjector injector;
    injector.FailAlways("serve/apply", StatusCode::kInternal);
    ASSERT_TRUE(daemon.value()->Submit({Delta(2, 1, 5, 5)}).ok());
    EXPECT_FALSE(daemon.value()->Flush().ok());
    EXPECT_EQ(injector.HitCount("serve/apply"), 3);  // bounded, then trip
    EXPECT_TRUE(daemon.value()->read_only());
    EXPECT_TRUE(daemon.value()->needs_recovery());
    // The batch is durable but not applied: reads stay at the old epoch.
    EXPECT_EQ(daemon.value()->Snapshot()->totals.positives, 0);
    injector.Disarm("serve/apply");
    EXPECT_FALSE(daemon.value()->Stop().ok());
  }
  // Restart replays the committed record the watchdog kept out: healed.
  auto daemon = ServeDaemon::Start(schema, options);
  ASSERT_TRUE(daemon.ok()) << daemon.status();
  EXPECT_EQ(daemon.value()->Snapshot()->counts_digest, healed_digest);
  EXPECT_EQ(daemon.value()->Snapshot()->totals.positives, 5);
  EXPECT_TRUE(daemon.value()->Stop().ok());
}

TEST(ServeDaemonTest, ReplayFaultSurfacesThroughStart) {
  const DataSchema schema = SmallSchema();
  const std::string dir = FreshDir("replayfault");
  {
    auto daemon = ServeDaemon::Start(schema, SmallOptions(dir));
    ASSERT_TRUE(daemon.ok());
    ASSERT_TRUE(daemon.value()->Submit({Delta(0, 0, 3, 3)}).ok());
    ASSERT_TRUE(daemon.value()->Flush().ok());
    FaultInjector injector;
    injector.FailAlways("wal/fsync");  // kill: leave the WAL for recovery
    EXPECT_FALSE(daemon.value()->Stop().ok());
  }
  FaultInjector injector;
  injector.FailAlways("wal/replay", StatusCode::kDataCorruption);
  auto failed = ServeDaemon::Start(schema, SmallOptions(dir));
  EXPECT_FALSE(failed.ok());
  injector.Disarm("wal/replay");
  auto daemon = ServeDaemon::Start(schema, SmallOptions(dir));
  ASSERT_TRUE(daemon.ok()) << daemon.status();
  EXPECT_EQ(daemon.value()->Snapshot()->totals.positives, 3);
  EXPECT_TRUE(daemon.value()->Stop().ok());
}

TEST(ServeDaemonTest, IngestFaultRejectsBeforeParsing) {
  const DataSchema schema = SmallSchema();
  auto daemon =
      ServeDaemon::Start(schema, SmallOptions(FreshDir("ingestfault")));
  ASSERT_TRUE(daemon.ok());
  FaultInjector injector;
  injector.FailNth("serve/ingest", 1);
  EXPECT_EQ(daemon.value()->IngestCsv(kBatchCsv).code(),
            StatusCode::kIoError);
  // Transient: the very next ingest goes through untouched.
  EXPECT_TRUE(daemon.value()->IngestCsv(kBatchCsv).ok());
  ASSERT_TRUE(daemon.value()->Flush().ok());
  EXPECT_EQ(daemon.value()->Snapshot()->totals.positives, 6);
  EXPECT_TRUE(daemon.value()->Stop().ok());
}

TEST(ServeDaemonTest, BackpressureRejectsWithRetryAfterHint) {
  const DataSchema schema = SmallSchema();
  ServeOptions options = SmallOptions(FreshDir("backpressure"));
  options.queue_capacity = 1;
  options.retry_after_ms = 7;
  auto daemon = ServeDaemon::Start(schema, options);
  ASSERT_TRUE(daemon.ok());
  // Outrun the single apply thread (each group commit fsyncs, submission
  // is microseconds): some Submit must hit the full queue.
  int64_t accepted = 0;
  bool backpressured = false;
  for (int i = 0; i < 20000 && !backpressured; ++i) {
    Status submitted = daemon.value()->Submit({Delta(0, 0, 1, 0)});
    if (submitted.ok()) {
      ++accepted;
    } else {
      ASSERT_EQ(submitted.code(), StatusCode::kResourceExhausted);
      EXPECT_NE(submitted.message().find("retry after 7ms"),
                std::string::npos);
      backpressured = true;
    }
  }
  EXPECT_TRUE(backpressured) << "queue of 1 never filled in 20k submissions";
  // Backpressure sheds load without losing accepted work: the accepted
  // batches all commit.
  ASSERT_TRUE(daemon.value()->Flush().ok());
  EXPECT_EQ(daemon.value()->Snapshot()->totals.positives, accepted);
  EXPECT_TRUE(daemon.value()->Stop().ok());
}

TEST(ServeDaemonTest, SnapshotRingPinsRecentEpochsOnly) {
  const DataSchema schema = SmallSchema();
  auto daemon = ServeDaemon::Start(schema, SmallOptions(FreshDir("ring")));
  ASSERT_TRUE(daemon.ok());
  // Flush after each submit forces one group (and one epoch) per batch.
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(daemon.value()->Submit({Delta(0, 0, 1, 1)}).ok());
    ASSERT_TRUE(daemon.value()->Flush().ok());
  }
  const uint64_t now = daemon.value()->epoch();
  ASSERT_GE(now, 13u);  // epoch 1 at Start + one per batch
  std::shared_ptr<const EpochSnapshot> pinned =
      daemon.value()->SnapshotAt(now);
  ASSERT_NE(pinned, nullptr);
  EXPECT_EQ(pinned->epoch, now);
  EXPECT_EQ(daemon.value()->SnapshotAt(1), nullptr) << "epoch 1 never ages";
  // A pinned epoch stays immutable while newer epochs publish.
  const int64_t pinned_positives = pinned->totals.positives;
  ASSERT_TRUE(daemon.value()->Submit({Delta(1, 1, 9, 9)}).ok());
  ASSERT_TRUE(daemon.value()->Flush().ok());
  EXPECT_EQ(pinned->totals.positives, pinned_positives);
  EXPECT_GT(daemon.value()->Snapshot()->totals.positives, pinned_positives);
  EXPECT_TRUE(daemon.value()->Stop().ok());
}

// The monitor_alerts counter of the daemon's health report.
int64_t MonitorAlerts(const ServeDaemon& daemon) {
  const std::string json = daemon.HealthJson();
  const std::string field = "\"monitor_alerts\":";
  const size_t at = json.find(field);
  EXPECT_NE(at, std::string::npos) << json;
  if (at == std::string::npos) return -1;
  return std::stoll(json.substr(at + field.size()));
}

TEST(ServeDaemonTest, MonitorAlertsWhenTheIbsChanges) {
  const DataSchema schema = SmallSchema();
  ServeOptions options = SmallOptions(FreshDir("monitor"));
  options.ibs.min_region_size = 20;
  auto daemon = ServeDaemon::Start(schema, options);
  ASSERT_TRUE(daemon.ok());
  // Epoch 2: every cell balanced — no biased subgroup.
  ASSERT_TRUE(daemon.value()
                  ->IngestCsv("a,b,label,__count\n"
                              "a0,b0,1,25\na0,b0,0,25\na0,b1,1,25\na0,b1,0,25\n"
                              "a1,b0,1,25\na1,b0,0,25\na1,b1,1,25\na1,b1,0,25\n"
                              "a2,b0,1,25\na2,b0,0,25\na2,b1,1,25\na2,b1,0,25\n")
                  .ok());
  ASSERT_TRUE(daemon.value()->Flush().ok());
  EXPECT_TRUE(daemon.value()->QueryIbs().empty());
  // Epoch 3: cell (a0, b0) turns heavily positive — the IBS changes and
  // the online monitor must notice.
  ASSERT_TRUE(
      daemon.value()->IngestCsv("a,b,label,__count\na0,b0,1,200\n").ok());
  ASSERT_TRUE(daemon.value()->Flush().ok());
  const std::vector<BiasedRegion> skewed = daemon.value()->QueryIbs();
  EXPECT_FALSE(skewed.empty());
  const int64_t alerts = MonitorAlerts(*daemon.value());
  EXPECT_GT(alerts, 0) << "IBS changed but no monitor alert fired";

  // Epoch 4: one more positive in (a0, b0) moves the counts of biased
  // regions, but no region joins or leaves: the (mask, key) set the
  // monitor digests is the same, so no alert fires.
  ASSERT_TRUE(
      daemon.value()->IngestCsv("a,b,label,__count\na0,b0,1,1\n").ok());
  ASSERT_TRUE(daemon.value()->Flush().ok());
  const std::vector<BiasedRegion> recounted = daemon.value()->QueryIbs();
  ASSERT_EQ(recounted.size(), skewed.size());
  bool counts_moved = false;
  for (size_t i = 0; i < skewed.size(); ++i) {
    EXPECT_EQ(recounted[i].pattern.DeterministicMask(),
              skewed[i].pattern.DeterministicMask());
    EXPECT_EQ(recounted[i].key, skewed[i].key);
    counts_moved = counts_moved || !(recounted[i].counts == skewed[i].counts);
  }
  EXPECT_TRUE(counts_moved) << "the epoch must change an IBS region's counts";
  EXPECT_EQ(MonitorAlerts(*daemon.value()), alerts)
      << "counts moved within an unchanged subgroup set";

  // Epoch 5: (a0, b0) balanced again — regions leave the IBS, and the
  // monitor fires exactly once more.
  ASSERT_TRUE(
      daemon.value()->IngestCsv("a,b,label,__count\na0,b0,0,201\n").ok());
  ASSERT_TRUE(daemon.value()->Flush().ok());
  EXPECT_LT(daemon.value()->QueryIbs().size(), recounted.size());
  EXPECT_EQ(MonitorAlerts(*daemon.value()), alerts + 1);
  EXPECT_TRUE(daemon.value()->Stop().ok());
}

TEST(ServeDaemonTest, SeededHierarchyMatchesDatasetBuiltDigest) {
  // The recovery path's foundation: a hierarchy seeded from a checkpoint's
  // leaf table must be indistinguishable from one counted off the rows.
  Dataset data = BatchDataset();
  Hierarchy from_rows(data);
  ASSERT_TRUE(from_rows.EagerBuild(1).ok());
  NodeTable leaves = from_rows.NodeCounts(from_rows.LeafMask());
  RegionCounts totals = from_rows.TotalCounts();
  Hierarchy seeded(data.schema(), std::move(leaves), totals);
  ASSERT_TRUE(seeded.EagerBuild(1).ok());
  EXPECT_EQ(seeded.CountsDigest(), from_rows.CountsDigest());
}

}  // namespace
}  // namespace remedy
