// Counting-paths parity suite. A hierarchy counts its leaf node with one of
// two scans, chosen by the input it holds: the row scan over a Dataset, or
// the key-kernel scan over a ColumnarShardStore (with a row-at-a-time walk
// for key spaces past 32 bits). Both must produce the same NodeTable for
// the same rows, whatever the schema, the shard size, the key-space branch
// or the key kernel the CPU runs.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "common/pipeline_metrics.h"
#include "common/rng.h"
#include "core/counting_kernels.h"
#include "core/hierarchy.h"
#include "core/ibs_identify.h"
#include "core/region_counter.h"
#include "data/columnar.h"
#include "datagen/generator.h"
#include "datagen/random_spec.h"

namespace remedy {
namespace {

// Every protected attribute, deterministic.
uint32_t LeafMaskOf(const RegionCounter& counter) {
  return (1u << counter.NumProtected()) - 1;
}

// A dataset whose protected attributes have exactly `cardinalities` values
// each (all protected), filled with `rows` uniform random rows.
Dataset UniformDataset(const std::vector<int>& cardinalities, int rows,
                       uint64_t seed) {
  std::vector<AttributeSchema> attributes;
  std::vector<int> protected_indices;
  for (size_t i = 0; i < cardinalities.size(); ++i) {
    std::vector<std::string> values;
    for (int v = 0; v < cardinalities[i]; ++v) {
      values.push_back(std::to_string(v));
    }
    attributes.emplace_back("a" + std::to_string(i), values);
    protected_indices.push_back(static_cast<int>(i));
  }
  Dataset data(DataSchema(attributes, protected_indices));
  Rng rng(seed);
  std::vector<int> row(cardinalities.size());
  for (int r = 0; r < rows; ++r) {
    for (size_t i = 0; i < cardinalities.size(); ++i) {
      row[i] = rng.UniformInt(cardinalities[i]);
    }
    data.AddRow(row, rng.Bernoulli(0.4) ? 1 : 0);
  }
  return data;
}

// The central contract: for random schemas, row counts and shard sizes,
// the store scan produces the exact NodeTable of the row scan — full
// contents, every lattice node.
TEST(CountingPathsTest, StoreScanMatchesRowScanOnRandomInputs) {
  Rng rng(4242);
  RandomSpecOptions options;
  options.min_attributes = 2;
  options.max_attributes = 6;
  options.max_cardinality = 7;
  options.max_protected = 5;
  for (int trial = 0; trial < 30; ++trial) {
    options.num_rows = 50 + rng.UniformInt(1200);
    SyntheticSpec spec = RandomSpec(rng, options);
    Dataset data = GenerateSynthetic(spec, 1000 + trial);
    // Small shards so multi-shard scans run at test-scale rows.
    const int64_t shard_rows = 16 + rng.UniformInt(200);
    ColumnarShardStore store =
        ColumnarShardStore::FromDataset(data, shard_rows);
    RegionCounter counter(data.schema());
    for (uint32_t mask = 1; mask <= LeafMaskOf(counter); ++mask) {
      EXPECT_EQ(counter.CountNode(store, mask), counter.CountNode(data, mask))
          << "mask=" << mask << " trial=" << trial
          << " shard_rows=" << shard_rows;
    }
  }
}

// One schema per tally branch of the store scan, sized by the leaf key
// space: per-lane (<= 2^14), one dense table (<= 2^21), hash map (<= 2^32)
// and the row-at-a-time walk past 32 bits. Coarser masks of each schema
// land in the smaller branches too. lattice/shard_rows moves exactly when
// the key kernel ran, which tells the walk apart from the kernel. Shards
// longer than one kernel block (8192 rows) make the scan key each shard
// in several blocks.
TEST(CountingPathsTest, EveryKeySpaceBranchMatchesRowScan) {
  struct Case {
    const char* branch;
    std::vector<int> cardinalities;
    uint64_t leaf_key_space;
  };
  const std::vector<Case> cases = {
      {"lane", {5, 7, 3}, 105},
      {"dense", {40, 50, 30}, 60000},
      {"sparse", {300, 300, 40}, 3600000},
      {"walk", {2000, 2000, 1200}, 4800000000ull},
  };
  const Counter& shard_rows = *PipelineMetrics::Get().lattice_shard_rows;
  for (const Case& c : cases) {
    Dataset data = UniformDataset(c.cardinalities, 20000, 77);
    ColumnarShardStore store = ColumnarShardStore::FromDataset(data, 9000);
    RegionCounter counter(data.schema());
    const uint32_t leaf = LeafMaskOf(counter);
    ASSERT_EQ(counter.KeySpace(leaf), c.leaf_key_space) << c.branch;
    for (uint32_t mask = 1; mask <= leaf; ++mask) {
      const int64_t before = shard_rows.Value();
      EXPECT_EQ(counter.CountNode(store, mask), counter.CountNode(data, mask))
          << c.branch << " mask=" << mask;
      const bool kernel = counter.KeySpace(mask) <= (uint64_t{1} << 32);
      EXPECT_EQ(shard_rows.Value() - before, kernel ? data.NumRows() : 0)
          << c.branch << " mask=" << mask;
    }
  }
}

// Both key kernels against the row scan's own key, RegionCounter::RowKey,
// row for row: the portable kernel always, AVX2 when this CPU has it.
// Includes u16-coded (cardinality > 256) columns, and keys each shard in
// random-length blocks so row offsets and the kernels' scalar tails run.
TEST(CountingPathsTest, KeyKernelsMatchRowKeys) {
  Rng rng(99);
  for (int trial = 0; trial < 12; ++trial) {
    std::vector<int> cardinalities;
    const int arity = 1 + rng.UniformInt(4);
    for (int i = 0; i < arity; ++i) {
      cardinalities.push_back(rng.Bernoulli(0.3) ? 257 + rng.UniformInt(300)
                                                 : 2 + rng.UniformInt(9));
    }
    Dataset data = UniformDataset(cardinalities, 200 + rng.UniformInt(900),
                                  500 + trial);
    const int64_t shard_rows = 33 + rng.UniformInt(300);
    ColumnarShardStore store =
        ColumnarShardStore::FromDataset(data, shard_rows);
    RegionCounter counter(data.schema());
    for (uint32_t mask = 1; mask <= LeafMaskOf(counter); ++mask) {
      const LeafKeyPlan plan = MakeLeafKeyPlan(cardinalities, mask);
      ASSERT_TRUE(plan.FitsU32());
      int row = 0;
      for (int s = 0; s < store.NumShards(); ++s) {
        const ColumnarShardStore::ShardView shard = store.View(s);
        std::vector<uint32_t> portable(shard.num_rows);
        std::vector<uint32_t> avx2(shard.num_rows);
        for (int64_t begin = 0; begin < shard.num_rows;) {
          const int64_t count = std::min<int64_t>(1 + rng.UniformInt(40),
                                                  shard.num_rows - begin);
          ComputeShardKeysPortable(shard, plan, begin, count,
                                   portable.data() + begin);
          if (Avx2CountingAvailable()) {
            ComputeShardKeysAvx2(shard, plan, begin, count,
                                 avx2.data() + begin);
          }
          begin += count;
        }
        for (int64_t i = 0; i < shard.num_rows; ++i, ++row) {
          const uint64_t expected = counter.RowKey(data, row, mask);
          ASSERT_EQ(portable[i], expected)
              << "portable trial=" << trial << " mask=" << mask
              << " row=" << row;
          if (Avx2CountingAvailable()) {
            ASSERT_EQ(avx2[i], expected)
                << "avx2 trial=" << trial << " mask=" << mask
                << " row=" << row;
          }
        }
      }
    }
  }
}

// Through the Hierarchy: a store-backed lattice equals a Dataset-backed one
// node for node, and so do the level-0 totals.
TEST(CountingPathsTest, StoreHierarchyMatchesDatasetHierarchy) {
  Rng rng(7);
  RandomSpecOptions options;
  options.num_rows = 900;
  SyntheticSpec spec = RandomSpec(rng, options);
  Dataset data = GenerateSynthetic(spec, 55);
  ColumnarShardStore store = ColumnarShardStore::FromDataset(data, 128);

  Hierarchy reference(data);
  Hierarchy over_store(store);
  for (uint32_t mask : reference.BottomUpMasks()) {
    EXPECT_EQ(over_store.NodeCounts(mask), reference.NodeCounts(mask))
        << "mask=" << mask;
  }
  EXPECT_EQ(over_store.TotalCounts(), reference.TotalCounts());
}

// End to end, fixed seed: IBS identification is identical region for
// region over a Dataset, an in-memory store and an mmap-backed spilled
// store of the same rows — the check backend_smoke runs at 1M rows,
// pinned here at unit scale.
TEST(CountingPathsTest, IdentifyIbsIdenticalAcrossInputs) {
  Rng rng(31);
  RandomSpecOptions options;
  options.num_rows = 1500;
  options.num_injections = 4;
  SyntheticSpec spec = RandomSpec(rng, options);
  Dataset data = GenerateSynthetic(spec, 321);
  ColumnarShardStore in_memory = ColumnarShardStore::FromDataset(data, 200);
  ColumnarShardStoreBuilder builder(data.schema(), 200);
  // Per-process directory: the sanitizer twin may run at the same time.
  const std::string dir = ::testing::TempDir() + "counting_paths_ibs_" +
                          std::to_string(::getpid());
  ASSERT_TRUE(builder.EnableSpill(dir).ok());
  builder.Append(data);
  StatusOr<ColumnarShardStore> spilled = builder.FinishSpilled();
  ASSERT_TRUE(spilled.ok()) << spilled.status().ToString();
  ASSERT_TRUE(spilled.value().mmap_backed());

  IbsParams params;
  params.imbalance_threshold = 0.05;
  params.min_region_size = 10;
  StatusOr<std::vector<BiasedRegion>> reference = IdentifyIbs(data, params);
  ASSERT_TRUE(reference.ok());
  ASSERT_FALSE(reference.value().empty());

  for (const ColumnarShardStore* store : {&in_memory, &spilled.value()}) {
    StatusOr<std::vector<BiasedRegion>> got = IdentifyIbs(*store, params);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    const char* input = store->mmap_backed() ? "mmap" : "in-memory";
    ASSERT_EQ(got.value().size(), reference.value().size()) << input;
    for (size_t i = 0; i < got.value().size(); ++i) {
      const BiasedRegion& a = got.value()[i];
      const BiasedRegion& b = reference.value()[i];
      EXPECT_EQ(a.pattern, b.pattern) << input;
      EXPECT_EQ(a.counts, b.counts) << input;
      EXPECT_EQ(a.neighbor_counts, b.neighbor_counts) << input;
      EXPECT_EQ(a.ratio, b.ratio) << input;  // exact: same integer inputs
      EXPECT_EQ(a.neighbor_ratio, b.neighbor_ratio) << input;
    }
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace remedy
