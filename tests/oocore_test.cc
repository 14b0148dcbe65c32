// Out-of-core shard store suite: spill/open round-trips, the central
// equivalence contract (counting off memory-mapped shard files is
// byte-identical to counting the in-memory store and the row-oriented
// Dataset of the same rows), and the corruption paths (truncated or
// overwritten shard files surface a clean Status, never a crash).

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/hierarchy.h"
#include "core/ibs_identify.h"
#include "core/region_counter.h"
#include "data/columnar.h"
#include "data/shard_file.h"
#include "datagen/generator.h"
#include "datagen/random_spec.h"

namespace remedy {
namespace {

// TSan executes the same suite ~10x slower; fewer random trials keep the
// twin fast while every code path still runs.
#ifdef REMEDY_TSAN_BUILD
constexpr int kTrials = 3;
constexpr const char* kDirTag = "oocore_tsan_";
#else
constexpr int kTrials = 10;
constexpr const char* kDirTag = "oocore_";
#endif

// Per-test spill directory: the default and TSan twins share TempDir() and
// ctest may run their cases concurrently, so the tag keeps them disjoint.
std::string SpillDir(const std::string& name) {
  return ::testing::TempDir() + kDirTag + name;
}

SyntheticSpec SmallSpec(Rng& rng, int rows) {
  RandomSpecOptions options;
  options.min_attributes = 2;
  options.max_attributes = 5;
  options.max_cardinality = 6;
  options.max_protected = 4;
  options.num_rows = rows;
  return RandomSpec(rng, options);
}

// Order-sensitive digest of an identification result (the bench's
// acceptance metric): two runs agree iff their IBS outputs are identical
// region for region.
uint64_t IbsDigest(const std::vector<BiasedRegion>& ibs) {
  uint64_t h = 14695981039346656037ull;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  mix(ibs.size());
  for (const BiasedRegion& region : ibs) {
    for (int i = 0; i < region.pattern.Arity(); ++i) {
      mix(static_cast<uint64_t>(
          static_cast<int64_t>(region.pattern.Value(i))));
    }
    mix(static_cast<uint64_t>(region.counts.positives));
    mix(static_cast<uint64_t>(region.counts.negatives));
    mix(static_cast<uint64_t>(region.neighbor_counts.positives));
    mix(static_cast<uint64_t>(region.neighbor_counts.negatives));
  }
  return h;
}

TEST(OocoreTest, SpillRoundTripPreservesEveryRow) {
  Rng rng(81);
  for (int trial = 0; trial < kTrials; ++trial) {
    const SyntheticSpec spec = SmallSpec(rng, 500 + rng.UniformInt(3000));
    const int64_t shard_rows = 64 + rng.UniformInt(400);
    const std::string dir =
        SpillDir("roundtrip_" + std::to_string(trial));
    ColumnarShardStore in_memory =
        GenerateSyntheticStore(spec, 11 + trial, shard_rows);
    StatusOr<ColumnarShardStore> spilled =
        GenerateSyntheticSpilledStore(spec, 11 + trial, dir, shard_rows);
    ASSERT_TRUE(spilled.ok()) << spilled.status().ToString();
    const ColumnarShardStore& mapped = spilled.value();
    EXPECT_TRUE(mapped.mmap_backed());
    EXPECT_FALSE(in_memory.mmap_backed());
    ASSERT_EQ(mapped.NumRows(), in_memory.NumRows());
    ASSERT_EQ(mapped.NumShards(), in_memory.NumShards());
    EXPECT_EQ(mapped.PositiveCount(), in_memory.PositiveCount());
    EXPECT_EQ(mapped.NegativeCount(), in_memory.NegativeCount());
    EXPECT_GT(mapped.SpilledBytes(), 0);
    EXPECT_EQ(in_memory.SpilledBytes(), 0);
    // Every code and label of every shard must match the in-memory twin.
    for (int s = 0; s < mapped.NumShards(); ++s) {
      const ColumnarShardStore::ShardView a = mapped.View(s);
      const ColumnarShardStore::ShardView b = in_memory.View(s);
      ASSERT_EQ(a.num_rows, b.num_rows) << "shard " << s;
      ASSERT_EQ(a.columns.size(), b.columns.size());
      for (int64_t r = 0; r < a.num_rows; ++r) {
        for (size_t p = 0; p < a.columns.size(); ++p) {
          const uint32_t code_a = a.columns[p].wide != nullptr
                                      ? a.columns[p].wide[r]
                                      : a.columns[p].narrow[r];
          const uint32_t code_b = b.columns[p].wide != nullptr
                                      ? b.columns[p].wide[r]
                                      : b.columns[p].narrow[r];
          ASSERT_EQ(code_a, code_b)
              << "shard " << s << " row " << r << " column " << p;
        }
        ASSERT_EQ(a.labels[r], b.labels[r]) << "shard " << s << " row " << r;
      }
    }
  }
}

TEST(OocoreTest, EmptyStoreSpillsAndReopens) {
  Rng rng(5);
  const SyntheticSpec spec = SmallSpec(rng, 10);
  const std::string dir = SpillDir("empty");
  ColumnarShardStoreBuilder builder(spec.MakeSchema());
  ASSERT_TRUE(builder.EnableSpill(dir).ok());
  StatusOr<ColumnarShardStore> spilled = builder.FinishSpilled();
  ASSERT_TRUE(spilled.ok()) << spilled.status().ToString();
  EXPECT_EQ(spilled.value().NumRows(), 0);
  EXPECT_EQ(spilled.value().NumShards(), 1);
  ASSERT_TRUE(spilled.value().EnsureMapped().ok());
  EXPECT_EQ(spilled.value().View(0).num_rows, 0);
}

// The central equivalence contract: node counts and the end-to-end IBS off
// the mmap-backed store are identical to the in-memory store and to the
// Dataset row scan of the same rows (the generator streams the same rows
// in the same RNG order into every form).
TEST(OocoreTest, MmapMatchesInMemoryAndDataset) {
  Rng rng(4242);
  for (int trial = 0; trial < kTrials; ++trial) {
    const SyntheticSpec spec = SmallSpec(rng, 400 + rng.UniformInt(2500));
    const int64_t shard_rows = 64 + rng.UniformInt(300);
    const std::string dir = SpillDir("equiv_" + std::to_string(trial));
    const ColumnarShardStore in_memory =
        GenerateSyntheticStore(spec, 900 + trial, shard_rows);
    StatusOr<ColumnarShardStore> spilled =
        GenerateSyntheticSpilledStore(spec, 900 + trial, dir, shard_rows);
    ASSERT_TRUE(spilled.ok()) << spilled.status().ToString();
    const ColumnarShardStore& mapped = spilled.value();
    const Dataset data = GenerateSynthetic(spec, 900 + trial);

    RegionCounter counter(in_memory.schema());
    const uint32_t leaf_mask = (1u << counter.NumProtected()) - 1;
    for (uint32_t mask = 1; mask <= leaf_mask; ++mask) {
      const NodeTable reference = counter.CountNode(data, mask);
      EXPECT_EQ(counter.CountNode(in_memory, mask), reference)
          << "in-memory mask=" << mask << " trial=" << trial;
      EXPECT_EQ(counter.CountNode(mapped, mask), reference)
          << "mmap mask=" << mask << " trial=" << trial;
    }

    IbsParams params;
    params.imbalance_threshold = 0.4;
    StatusOr<std::vector<BiasedRegion>> reference = IdentifyIbs(data, params);
    ASSERT_TRUE(reference.ok());
    const uint64_t expected = IbsDigest(reference.value());
    for (const ColumnarShardStore* store : {&in_memory, &mapped}) {
      StatusOr<std::vector<BiasedRegion>> got = IdentifyIbs(*store, params);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(IbsDigest(got.value()), expected)
          << (store->mmap_backed() ? "mmap" : "in-memory")
          << " trial=" << trial;
    }
  }
}

void Truncate(const std::string& path, int64_t remove_bytes) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fseek(f, 0, SEEK_END), 0);
  const long size = std::ftell(f);
  std::fclose(f);
  ASSERT_GT(size, remove_bytes);
  ASSERT_EQ(::truncate(path.c_str(), size - remove_bytes), 0);
}

TEST(OocoreTest, TruncatedShardFileIsCleanErrorAtOpen) {
  Rng rng(33);
  const SyntheticSpec spec = SmallSpec(rng, 1200);
  const std::string dir = SpillDir("truncated_open");
  StatusOr<ColumnarShardStore> spilled =
      GenerateSyntheticSpilledStore(spec, 2, dir, /*shard_rows=*/256);
  ASSERT_TRUE(spilled.ok());
  Truncate(dir + "/" + ShardFileName(0), 5);
  StatusOr<ColumnarShardStore> reopened =
      ColumnarShardStore::OpenSpilled(dir, spec.MakeSchema());
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kDataCorruption)
      << reopened.status().ToString();
}

TEST(OocoreTest, TruncationAfterOpenSurfacesThroughIdentify) {
  // OpenSpilled validated the files, then the store shrank on disk before
  // the first count: the lazy map (reached via Hierarchy::PrepareCounting)
  // must re-check and return a clean error, not crash on a short mapping.
  Rng rng(34);
  const SyntheticSpec spec = SmallSpec(rng, 1500);
  const std::string dir = SpillDir("truncated_lazy");
  StatusOr<ColumnarShardStore> spilled =
      GenerateSyntheticSpilledStore(spec, 3, dir, /*shard_rows=*/256);
  ASSERT_TRUE(spilled.ok());
  StatusOr<ColumnarShardStore> reopened =
      ColumnarShardStore::OpenSpilled(dir, spec.MakeSchema());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  Truncate(dir + "/" + ShardFileName(reopened.value().NumShards() - 1), 9);
  IbsParams params;
  params.imbalance_threshold = 0.4;
  StatusOr<std::vector<BiasedRegion>> ibs =
      IdentifyIbs(reopened.value(), params);
  ASSERT_FALSE(ibs.ok());
  EXPECT_EQ(ibs.status().code(), StatusCode::kDataCorruption)
      << ibs.status().ToString();
}

TEST(OocoreTest, CorruptedHeaderByteIsCleanError) {
  Rng rng(35);
  const SyntheticSpec spec = SmallSpec(rng, 800);
  const std::string dir = SpillDir("corrupt_header");
  StatusOr<ColumnarShardStore> spilled =
      GenerateSyntheticSpilledStore(spec, 4, dir, /*shard_rows=*/256);
  ASSERT_TRUE(spilled.ok());
  const std::string path = dir + "/" + ShardFileName(0);
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, 17, SEEK_SET), 0);  // inside num_rows
  const unsigned char garbage = 0xee;
  ASSERT_EQ(std::fwrite(&garbage, 1, 1, f), 1u);
  std::fclose(f);
  StatusOr<ColumnarShardStore> reopened =
      ColumnarShardStore::OpenSpilled(dir, spec.MakeSchema());
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kDataCorruption)
      << reopened.status().ToString();
}

TEST(OocoreTest, WrongSchemaIsRejected) {
  Rng rng(36);
  const SyntheticSpec spec = SmallSpec(rng, 600);
  const std::string dir = SpillDir("wrong_schema");
  StatusOr<ColumnarShardStore> spilled =
      GenerateSyntheticSpilledStore(spec, 5, dir, /*shard_rows=*/256);
  ASSERT_TRUE(spilled.ok());
  SyntheticSpec other = SmallSpec(rng, 600);
  StatusOr<ColumnarShardStore> reopened =
      ColumnarShardStore::OpenSpilled(dir, other.MakeSchema());
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kInvalidArgument)
      << reopened.status().ToString();
}

TEST(OocoreTest, MissingDirectoryIsIoError) {
  Rng rng(37);
  const SyntheticSpec spec = SmallSpec(rng, 100);
  StatusOr<ColumnarShardStore> reopened = ColumnarShardStore::OpenSpilled(
      SpillDir("never_created"), spec.MakeSchema());
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kIoError)
      << reopened.status().ToString();
}

TEST(OocoreTest, ShardFileHeaderRoundTrip) {
  ShardFileHeader header;
  header.shard_index = 7;
  header.num_rows = 12345;
  header.num_positives = 678;
  header.schema_digest = 0xabcdef0123456789ull;
  header.column_widths = {1, 2, 1, 1, 2};
  header.payload_bytes = header.ComputedPayloadBytes();
  const std::vector<uint8_t> bytes = EncodeShardFileHeader(header);
  ASSERT_EQ(static_cast<int64_t>(bytes.size()), header.HeaderBytes());
  StatusOr<ShardFileHeader> decoded =
      DecodeShardFileHeader(bytes.data(), bytes.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().shard_index, header.shard_index);
  EXPECT_EQ(decoded.value().num_rows, header.num_rows);
  EXPECT_EQ(decoded.value().num_positives, header.num_positives);
  EXPECT_EQ(decoded.value().schema_digest, header.schema_digest);
  EXPECT_EQ(decoded.value().column_widths, header.column_widths);
  EXPECT_EQ(decoded.value().payload_bytes, header.payload_bytes);
  // Any single flipped bit must break the header checksum.
  std::vector<uint8_t> bent = bytes;
  bent[9] ^= 0x10;
  EXPECT_FALSE(DecodeShardFileHeader(bent.data(), bent.size()).ok());
}

}  // namespace
}  // namespace remedy
