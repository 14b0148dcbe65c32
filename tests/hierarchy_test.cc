#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/pipeline_metrics.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/hierarchy.h"
#include "data/columnar.h"
#include "test_util.h"

namespace remedy {
namespace {

using ::remedy::testing::GridDataset;

Dataset ThreeByTwo() {
  return GridDataset({{{2, 3}, {1, 2}},
                      {{4, 1}, {5, 5}},
                      {{1, 1}, {3, 2}}});
}

// Four protected attributes (2·3·2·4 leaf regions) with random rows, for
// exercising the lattice beyond the two-attribute grid.
Dataset RandomFourAttrDataset(uint64_t seed, int rows) {
  std::vector<AttributeSchema> attributes = {
      AttributeSchema("w", {"w0", "w1"}),
      AttributeSchema("x", {"x0", "x1", "x2"}),
      AttributeSchema("y", {"y0", "y1"}),
      AttributeSchema("z", {"z0", "z1", "z2", "z3"}),
  };
  DataSchema schema(std::move(attributes), {0, 1, 2, 3});
  Rng rng(seed);
  Dataset data(schema);
  for (int i = 0; i < rows; ++i) {
    data.AddRow({rng.UniformInt(2), rng.UniformInt(3), rng.UniformInt(2),
                 rng.UniformInt(4)},
                rng.UniformInt(2));
  }
  return data;
}

TEST(HierarchyTest, LeafMask) {
  Dataset data = ThreeByTwo();
  Hierarchy hierarchy(data);
  EXPECT_EQ(hierarchy.NumProtected(), 2);
  EXPECT_EQ(hierarchy.LeafMask(), 0b11u);
}

TEST(HierarchyTest, TotalCounts) {
  Dataset data = ThreeByTwo();
  Hierarchy hierarchy(data);
  EXPECT_EQ(hierarchy.TotalCounts().positives, data.PositiveCount());
  EXPECT_EQ(hierarchy.TotalCounts().negatives, data.NegativeCount());
}

TEST(HierarchyTest, NodeCountsAreMemoized) {
  Dataset data = ThreeByTwo();
  Hierarchy hierarchy(data);
  const auto& first = hierarchy.NodeCounts(0b11);
  const auto& second = hierarchy.NodeCounts(0b11);
  EXPECT_EQ(&first, &second);  // same map instance
}

TEST(HierarchyTest, InvalidateRefreshesAfterMutation) {
  Dataset data = ThreeByTwo();
  Hierarchy hierarchy(data);
  int64_t before = hierarchy.TotalCounts().positives;
  data.AddRow({0, 0, 1}, 1);
  // Stale until invalidated.
  EXPECT_EQ(hierarchy.TotalCounts().positives, before);
  hierarchy.Invalidate();
  EXPECT_EQ(hierarchy.TotalCounts().positives, before + 1);
}

TEST(HierarchyTest, ParentMasksRemoveOneBit) {
  std::vector<uint32_t> parents = Hierarchy::ParentMasks(0b111);
  std::sort(parents.begin(), parents.end());
  EXPECT_EQ(parents, (std::vector<uint32_t>{0b011, 0b101, 0b110}));
  // Level-1 nodes have no parents here (level 0 is TotalCounts()).
  EXPECT_TRUE(Hierarchy::ParentMasks(0b100).empty());
}

TEST(HierarchyTest, MasksAtLevelHaveRightPopcount) {
  Dataset data = ThreeByTwo();
  Hierarchy hierarchy(data);
  std::vector<uint32_t> level1 = hierarchy.MasksAtLevel(1);
  EXPECT_EQ(level1, (std::vector<uint32_t>{0b01, 0b10}));
  std::vector<uint32_t> level2 = hierarchy.MasksAtLevel(2);
  EXPECT_EQ(level2, (std::vector<uint32_t>{0b11}));
}

TEST(HierarchyTest, BottomUpOrderIsLeafFirst) {
  Dataset data = ThreeByTwo();
  Hierarchy hierarchy(data);
  std::vector<uint32_t> masks = hierarchy.BottomUpMasks();
  ASSERT_EQ(masks.size(), 3u);
  EXPECT_EQ(masks[0], 0b11u);
  // Levels are non-increasing along the traversal.
  for (size_t i = 1; i < masks.size(); ++i) {
    EXPECT_LE(std::popcount(masks[i]), std::popcount(masks[i - 1]));
  }
}

TEST(HierarchyTest, BottomUpCoversAllNonEmptyMasks) {
  Dataset data = ThreeByTwo();
  Hierarchy hierarchy(data);
  std::vector<uint32_t> masks = hierarchy.BottomUpMasks();
  std::sort(masks.begin(), masks.end());
  EXPECT_EQ(masks, (std::vector<uint32_t>{0b01, 0b10, 0b11}));
}

TEST(HierarchyTest, MasksAtLevelEnumeratesCombinationsAscending) {
  Dataset data = RandomFourAttrDataset(1, 50);
  Hierarchy hierarchy(data);
  const int binomial[5] = {1, 4, 6, 4, 1};  // C(4, k)
  for (int level = 1; level <= 4; ++level) {
    std::vector<uint32_t> masks = hierarchy.MasksAtLevel(level);
    EXPECT_EQ(masks.size(), static_cast<size_t>(binomial[level]));
    EXPECT_TRUE(std::is_sorted(masks.begin(), masks.end()));
    for (uint32_t mask : masks) {
      EXPECT_EQ(std::popcount(mask), level);
      EXPECT_EQ(mask & ~hierarchy.LeafMask(), 0u);
    }
  }
}

TEST(HierarchyTest, RollupNodeCountsMatchDirectScan) {
  Dataset data = RandomFourAttrDataset(7, 600);
  Hierarchy hierarchy(data);
  const RegionCounter& counter = hierarchy.counter();
  // Lazy access in arbitrary (not bottom-up) order still has to agree with
  // a direct one-pass scan of every node.
  for (uint32_t mask = 1; mask <= hierarchy.LeafMask(); ++mask) {
    EXPECT_EQ(hierarchy.NodeCounts(mask), counter.CountNode(data, mask))
        << "mask " << mask;
  }
}

TEST(HierarchyTest, EagerBuildMatchesLazyAndDirectScan) {
  Dataset data = RandomFourAttrDataset(11, 400);
  Hierarchy eager(data);
  ASSERT_TRUE(eager.EagerBuild(1).ok());
  Hierarchy lazy(data);
  for (uint32_t mask = 1; mask <= eager.LeafMask(); ++mask) {
    EXPECT_EQ(eager.NodeCounts(mask), lazy.NodeCounts(mask))
        << "mask " << mask;
  }
  EXPECT_EQ(eager.TotalCounts(), lazy.TotalCounts());
}

TEST(HierarchyTest, EagerBuildSingleAndMultiThreadCachesAreIdentical) {
  for (uint64_t seed : {3u, 19u}) {
    Dataset data = RandomFourAttrDataset(seed, 500);
    Hierarchy serial(data);
    ASSERT_TRUE(serial.EagerBuild(1).ok());
    Hierarchy parallel(data);
    ASSERT_TRUE(parallel.EagerBuild(std::max(4, ThreadPool::DefaultThreads())).ok());
    for (uint32_t mask = 1; mask <= serial.LeafMask(); ++mask) {
      EXPECT_EQ(serial.NodeCounts(mask), parallel.NodeCounts(mask))
          << "mask " << mask << " seed " << seed;
    }
  }
}

TEST(HierarchyTest, EagerBuildOnPartiallyBuiltHierarchy) {
  Dataset data = RandomFourAttrDataset(5, 300);
  Hierarchy hierarchy(data);
  hierarchy.NodeCounts(0b0101);  // lazy-build a slice first
  ASSERT_TRUE(hierarchy.EagerBuild(2).ok());
  Hierarchy fresh(data);
  ASSERT_TRUE(fresh.EagerBuild(1).ok());
  for (uint32_t mask = 1; mask <= hierarchy.LeafMask(); ++mask) {
    EXPECT_EQ(hierarchy.NodeCounts(mask), fresh.NodeCounts(mask))
        << "mask " << mask;
  }
}

TEST(HierarchyTest, ApplyDeltaPropagatesToEveryAncestor) {
  Dataset data = RandomFourAttrDataset(21, 200);
  Hierarchy hierarchy(data);
  ASSERT_TRUE(hierarchy.EagerBuild(1).ok());
  const RegionCounter& counter = hierarchy.counter();
  const uint32_t leaf = hierarchy.LeafMask();

  const uint64_t leaf_key = counter.RowKey(data, 0, leaf);
  const int64_t dp = data.Label(0) == 1 ? -1 : 1;
  const int64_t dn = -dp;  // one label flip of row 0
  hierarchy.ApplyDelta({leaf_key, dp, dn});

  // Every node's entry at the projected key moves by exactly the delta;
  // every other entry is untouched.
  Hierarchy before(data);
  for (uint32_t mask = 1; mask <= leaf; ++mask) {
    const uint64_t key = counter.ProjectKey(leaf_key, leaf, mask);
    for (const auto& [k, counts] : hierarchy.NodeCounts(mask)) {
      RegionCounts expected = before.NodeCounts(mask).at(k);
      if (k == key) {
        expected.positives += dp;
        expected.negatives += dn;
      }
      EXPECT_EQ(counts, expected) << "mask " << mask << " key " << k;
    }
  }
  EXPECT_EQ(hierarchy.TotalCounts().positives,
            before.TotalCounts().positives + dp);
  EXPECT_EQ(hierarchy.TotalCounts().negatives,
            before.TotalCounts().negatives + dn);
}

TEST(HierarchyTest, ApplyDeltasMatchesRebuildOfMutatedDataset) {
  Dataset data = RandomFourAttrDataset(33, 500);
  Hierarchy incremental(data);
  ASSERT_TRUE(incremental.EagerBuild(1).ok());
  const RegionCounter& counter = incremental.counter();
  const uint32_t leaf = incremental.LeafMask();

  // Random flips, duplications, and removals, mirrored as count deltas.
  Rng rng(99);
  Dataset mutated = data;
  std::vector<char> keep(data.NumRows(), 1);
  std::vector<char> touched(data.NumRows(), 0);  // flip/remove once per row
  std::unordered_map<uint64_t, std::pair<int64_t, int64_t>> net;
  for (int step = 0; step < 120; ++step) {
    const int row = rng.UniformInt(data.NumRows());
    const uint64_t key = counter.RowKey(data, row, leaf);
    auto& d = net[key];
    switch (rng.UniformInt(3)) {
      case 0: {  // flip
        if (touched[row]) break;
        touched[row] = 1;
        const int label = mutated.Label(row);
        mutated.SetLabel(row, 1 - label);
        d.first += label == 1 ? -1 : 1;
        d.second += label == 1 ? 1 : -1;
        break;
      }
      case 1: {  // duplicate
        mutated.AppendRowFrom(data, row);
        (data.Label(row) == 1 ? d.first : d.second) += 1;
        break;
      }
      case 2: {  // remove (tombstone in the mirror)
        if (touched[row]) break;
        touched[row] = 1;
        keep[row] = 0;
        (data.Label(row) == 1 ? d.first : d.second) -= 1;
        break;
      }
    }
  }
  // Rebuild the removal side: rows tombstoned by case 2 still sit in
  // `mutated`, so build the reference dataset from scratch instead.
  Dataset reference(data.schema());
  for (int r = 0; r < mutated.NumRows(); ++r) {
    if (r >= data.NumRows() || keep[r]) reference.AppendRowFrom(mutated, r);
  }

  std::vector<Hierarchy::LeafDelta> deltas;
  for (const auto& [key, d] : net) {
    if (d.first != 0 || d.second != 0) {
      deltas.push_back({key, d.first, d.second});
    }
  }
  incremental.ApplyDeltas(deltas);

  Hierarchy rebuilt(reference);
  for (uint32_t mask = 1; mask <= leaf; ++mask) {
    // Delta maintenance keeps entries whose counts reached zero; ignore
    // them when comparing against the rebuilt node.
    std::vector<NodeTable::Entry> nonzero;
    for (const auto& entry : incremental.NodeCounts(mask)) {
      if (entry.second.Total() > 0) nonzero.push_back(entry);
    }
    EXPECT_EQ(nonzero, rebuilt.NodeCounts(mask).entries()) << "mask " << mask;
  }
  EXPECT_EQ(incremental.TotalCounts(), rebuilt.TotalCounts());
}

TEST(HierarchyTest, EagerBuildSingleProtectedAttribute) {
  std::vector<AttributeSchema> attributes = {
      AttributeSchema("a", {"a0", "a1", "a2"}),
  };
  DataSchema schema(std::move(attributes), {0});
  Dataset data(schema);
  data.AddRow({0}, 1);
  data.AddRow({1}, 0);
  data.AddRow({1}, 1);
  Hierarchy hierarchy(data);
  ASSERT_TRUE(hierarchy.EagerBuild(4).ok());
  EXPECT_EQ(hierarchy.NodeCounts(0b1).size(), 2u);
  EXPECT_EQ(hierarchy.TotalCounts(), (RegionCounts{2, 1}));
}

// ---------------------------------------------------------------------------
// Counts digest: the sum ApplyDeltas maintains vs the from-scratch fold
// ---------------------------------------------------------------------------

// One random batch against the hierarchy's current leaf table, applied in
// order: ingest into existing leaves, retractions that drive a leaf to
// exactly zero, label flips, repeats of a key already in the batch, and —
// with `insert_missing` — leaf keys the lattice may never have seen. Each
// delta is bounded by the counts left after the batch's earlier deltas, so
// no count dips below zero mid-batch. `max_ops` bounds the batch length.
std::vector<Hierarchy::LeafDelta> RandomDigestBatch(Hierarchy& hierarchy,
                                                    Rng& rng,
                                                    bool insert_missing,
                                                    int max_ops) {
  const NodeTable& leaves = hierarchy.NodeCounts(hierarchy.LeafMask());
  const uint64_t key_space = hierarchy.counter().KeySpace(hierarchy.LeafMask());
  std::unordered_map<uint64_t, RegionCounts> running;
  auto current = [&](uint64_t key) -> RegionCounts& {
    auto it = running.find(key);
    if (it != running.end()) return it->second;
    RegionCounts counts;
    auto leaf = leaves.find(key);
    if (leaf != leaves.end()) counts = leaf->second;
    return running.emplace(key, counts).first->second;
  };
  std::vector<Hierarchy::LeafDelta> batch;
  const int ops = rng.UniformRange(1, max_ops);
  for (int op = 0; op < ops; ++op) {
    Hierarchy::LeafDelta delta;
    const int kind = rng.UniformInt(5);
    if (kind == 4 && !batch.empty()) {
      // A repeat of a key this batch already touched.
      delta.leaf_key = batch[rng.UniformInt(static_cast<int>(batch.size()))]
                           .leaf_key;
    } else if ((kind == 3 && insert_missing) || leaves.empty()) {
      delta.leaf_key = static_cast<uint64_t>(
          rng.UniformInt(static_cast<int>(key_space)));
    } else if (!leaves.empty()) {
      delta.leaf_key =
          std::next(leaves.begin(),
                    rng.UniformInt(static_cast<int>(leaves.size())))
              ->first;
    }
    if (!insert_missing && leaves.find(delta.leaf_key) == leaves.end()) {
      continue;
    }
    RegionCounts& counts = current(delta.leaf_key);
    switch (rng.UniformInt(3)) {
      case 0:  // ingest
        delta.delta_positives = rng.UniformInt(4);
        delta.delta_negatives = rng.UniformInt(4);
        break;
      case 1:  // retraction to zero
        delta.delta_positives = -counts.positives;
        delta.delta_negatives = -counts.negatives;
        break;
      default:  // one label flip, when there is a label to flip
        if (counts.positives > 0) {
          delta.delta_positives = -1;
          delta.delta_negatives = 1;
        } else if (counts.negatives > 0) {
          delta.delta_positives = 1;
          delta.delta_negatives = -1;
        }
    }
    counts.positives += delta.delta_positives;
    counts.negatives += delta.delta_negatives;
    batch.push_back(delta);
  }
  return batch;
}

// The digest a count-seeded lattice of the same leaf table and totals
// folds from scratch — an oracle independent of the delta history.
uint64_t ReseededDigest(Hierarchy& hierarchy) {
  Hierarchy reseeded(hierarchy.schema(),
                     hierarchy.NodeCounts(hierarchy.LeafMask()),
                     hierarchy.TotalCounts());
  EXPECT_TRUE(reseeded.EagerBuild(1).ok());
  return reseeded.CountsDigest();
}

// Runs `batches` random batches, alternating the insert and no-insert
// forms (plus the single-delta ApplyDelta form), and checks the maintained
// digest after each against the fold and against a reseeded lattice.
void RunDigestStream(Hierarchy& hierarchy, uint64_t seed, int batches,
                     const std::string& where) {
  Rng rng(seed);
  for (int b = 0; b < batches; ++b) {
    const bool insert_missing = b % 2 == 0;
    std::vector<Hierarchy::LeafDelta> batch =
        RandomDigestBatch(hierarchy, rng, insert_missing, 6);
    if (b % 5 == 4 && !batch.empty()) {
      hierarchy.ApplyDelta(batch.front());
    } else {
      hierarchy.ApplyDeltas(batch, insert_missing);
    }
    const uint64_t maintained = hierarchy.MaintainedCountsDigest();
    ASSERT_EQ(maintained, hierarchy.CountsDigest())
        << where << " batch " << b;
    ASSERT_EQ(maintained, ReseededDigest(hierarchy)) << where << " batch " << b;
  }
}

TEST(HierarchyDigestTest, MaintainedDigestTracksEveryBackingForm) {
  Dataset data = RandomFourAttrDataset(5, 300);
  {
    Hierarchy from_rows(data);
    ASSERT_TRUE(from_rows.EagerBuild(1).ok());
    RunDigestStream(from_rows, 1, 60, "dataset-backed");
  }
  {
    const ColumnarShardStore store = ColumnarShardStore::FromDataset(data);
    Hierarchy from_store(store);
    ASSERT_TRUE(from_store.EagerBuild(1).ok());
    RunDigestStream(from_store, 2, 60, "store-backed");
  }
  {
    Hierarchy from_rows(data);
    Hierarchy seeded(data.schema(), from_rows.NodeCounts(from_rows.LeafMask()),
                     from_rows.TotalCounts());
    ASSERT_TRUE(seeded.EagerBuild(1).ok());
    RunDigestStream(seeded, 3, 60, "count-seeded");
  }
}

TEST(HierarchyDigestTest, EqualAcrossBackingsAndEmptyStart) {
  // The three backings of one dataset digest alike, and a lattice grown
  // from nothing by insert_missing deltas digests like one counted at once.
  Dataset data = RandomFourAttrDataset(8, 250);
  Hierarchy from_rows(data);
  const ColumnarShardStore store = ColumnarShardStore::FromDataset(data);
  Hierarchy from_store(store);
  ASSERT_TRUE(from_rows.EagerBuild(1).ok());
  ASSERT_TRUE(from_store.EagerBuild(2).ok());
  EXPECT_EQ(from_rows.MaintainedCountsDigest(),
            from_store.MaintainedCountsDigest());

  Hierarchy grown(data.schema(), NodeTable(), RegionCounts{});
  ASSERT_TRUE(grown.EagerBuild(1).ok());
  // Reading after every insert refolds while the lattice is smaller than
  // a batch's deltas x nodes, and maintains the sum once it is larger.
  for (const auto& [key, counts] : from_rows.NodeCounts(from_rows.LeafMask())) {
    grown.ApplyDeltas({{key, counts.positives, counts.negatives}},
                      /*insert_missing=*/true);
    ASSERT_EQ(grown.MaintainedCountsDigest(), grown.CountsDigest())
        << "after inserting leaf " << key;
  }
  EXPECT_EQ(grown.MaintainedCountsDigest(), from_rows.CountsDigest());
}

TEST(HierarchyDigestTest, LargeBatchGoesStaleAndRefoldsOnce) {
  // A batch touching every leaf has deltas x nodes above the lattice's
  // entry count, so ApplyDeltas drops the sum and the next read refolds;
  // small batches after it are maintained again.
  Dataset data = RandomFourAttrDataset(13, 400);
  Hierarchy hierarchy(data);
  ASSERT_TRUE(hierarchy.EagerBuild(1).ok());
  (void)hierarchy.MaintainedCountsDigest();
  std::vector<Hierarchy::LeafDelta> every_leaf;
  for (uint64_t key = 0;
       key < hierarchy.counter().KeySpace(hierarchy.LeafMask()); ++key) {
    every_leaf.push_back({key, 2, 1});
  }
  hierarchy.ApplyDeltas(every_leaf, /*insert_missing=*/true);
  EXPECT_EQ(hierarchy.MaintainedCountsDigest(), hierarchy.CountsDigest());
  EXPECT_EQ(hierarchy.MaintainedCountsDigest(), ReseededDigest(hierarchy));
  RunDigestStream(hierarchy, 17, 20, "after the refold");
}

TEST(HierarchyDigestTest, InvalidateAndRebuildAcrossThreadCounts) {
  Dataset data = RandomFourAttrDataset(21, 350);
  std::vector<uint64_t> digests;
  for (int threads : {1, 2, 4, 0}) {
    Hierarchy hierarchy(data);
    ASSERT_TRUE(hierarchy.EagerBuild(threads).ok());
    const uint64_t built = hierarchy.MaintainedCountsDigest();
    RunDigestStream(hierarchy, 23, 25, "before rebuild");
    // The rebuild recounts the unchanged dataset: the deltas are gone.
    hierarchy.Invalidate();
    ASSERT_TRUE(hierarchy.EagerBuild(threads).ok());
    EXPECT_EQ(hierarchy.MaintainedCountsDigest(), built)
        << "threads " << threads;
    EXPECT_EQ(hierarchy.CountsDigest(), built) << "threads " << threads;
    RunDigestStream(hierarchy, 29, 25, "after rebuild");
    digests.push_back(hierarchy.MaintainedCountsDigest());
  }
  for (size_t i = 1; i < digests.size(); ++i) {
    EXPECT_EQ(digests[i], digests[0]) << "thread-count variant " << i;
  }
}

TEST(HierarchyDigestTest, SwappedCountsAndDroppedZeroEntryDigestApart) {
  const DataSchema schema = remedy::testing::SmallSchema();
  const RegionCounts totals{7, 5};
  auto digest = [&](std::vector<NodeTable::Entry> leaves) {
    Hierarchy hierarchy(schema, NodeTable(std::move(leaves)), totals);
    EXPECT_TRUE(hierarchy.EagerBuild(1).ok());
    EXPECT_EQ(hierarchy.MaintainedCountsDigest(), hierarchy.CountsDigest());
    return hierarchy.CountsDigest();
  };
  const uint64_t base = digest({{0, {3, 1}}, {5, {4, 4}}});
  // Same totals, same keys, the two keys' counts swapped.
  EXPECT_NE(base, digest({{0, {4, 4}}, {5, {3, 1}}}));
  // A kept zero entry is not an absent one.
  EXPECT_NE(base, digest({{0, {3, 1}}, {2, {0, 0}}, {5, {4, 4}}}));
  EXPECT_EQ(base, digest({{5, {4, 4}}, {0, {3, 1}}}));  // order-free
}

// ---------------------------------------------------------------------------
// Slot-mapped ApplyDeltas: the up maps, their build/drop rule, and parity
// ---------------------------------------------------------------------------

// A batch over most existing leaves: ingest, label flips and retractions
// to zero, each leaf once — deltas x nodes well past the entry count.
std::vector<Hierarchy::LeafDelta> WideBatch(Hierarchy& hierarchy, Rng& rng) {
  std::vector<Hierarchy::LeafDelta> batch;
  for (const auto& [key, counts] :
       hierarchy.NodeCounts(hierarchy.LeafMask())) {
    if (rng.UniformInt(4) == 0) continue;
    Hierarchy::LeafDelta delta{key, 0, 0};
    switch (rng.UniformInt(3)) {
      case 0:
        delta.delta_positives = rng.UniformInt(3);
        delta.delta_negatives = rng.UniformInt(3);
        break;
      case 1:
        delta.delta_positives = -counts.positives;
        delta.delta_negatives = -counts.negatives;
        break;
      default:
        if (counts.positives > 0) {
          delta = {key, -1, 1};
        } else if (counts.negatives > 0) {
          delta = {key, 1, -1};
        }
    }
    if (delta.delta_positives != 0 || delta.delta_negatives != 0) {
      batch.push_back(delta);
    }
  }
  return batch;
}

// ApplyDeltas' path rule, modeled apart from Hierarchy. The slot maps are
// built once the keyed work since they were last valid (deltas x nodes,
// this batch included) reaches the lattice's entry count. A batch that
// inserts a leaf drops them: when its own keyed work reaches the entry
// count it takes the rollup, which also zeroes the keyed work.
struct PathRule {
  enum class Path { kNone, kKeyed, kSlotted, kRolledUp };
  bool maps_valid = false;
  size_t keyed_work = 0;

  // The path of a batch of `deltas` deltas; sets `*build` when it builds
  // the maps.
  Path Next(size_t deltas, bool inserts, size_t nodes, size_t entries,
            bool* build) {
    *build = false;
    if (deltas == 0) return Path::kNone;
    const size_t work = deltas * nodes;
    if (maps_valid || keyed_work + work >= entries) {
      if (!inserts) {
        if (!maps_valid) {
          *build = true;
          maps_valid = true;
          keyed_work = 0;
        }
        return Path::kSlotted;
      }
      maps_valid = false;
      if (work >= entries) {
        keyed_work = 0;
        return Path::kRolledUp;
      }
    }
    keyed_work += work;
    return Path::kKeyed;
  }
};

size_t LatticeEntries(Hierarchy& hierarchy) {
  size_t entries = 0;
  for (uint32_t mask = 1; mask <= hierarchy.LeafMask(); ++mask) {
    entries += hierarchy.NodeCounts(mask).size();
  }
  return entries;
}

bool InsertsALeaf(Hierarchy& hierarchy,
                  const std::vector<Hierarchy::LeafDelta>& batch) {
  const NodeTable& leaves = hierarchy.NodeCounts(hierarchy.LeafMask());
  for (const Hierarchy::LeafDelta& delta : batch) {
    if (leaves.count(delta.leaf_key) == 0) return true;
  }
  return false;
}

// Mixes narrow, wide and inserting batches. After each one, every node
// must equal the node of a lattice freshly seeded from the leaf table, the
// maintained digest must equal the fold, and lattice/slot_map_builds and
// lattice/rollup_applies must move exactly as PathRule says.
void RunSlotMapStream(Hierarchy& hierarchy, uint64_t seed, int batches,
                      const std::string& where) {
  const Counter& builds = *PipelineMetrics::Get().lattice_slot_map_builds;
  const Counter& rollups = *PipelineMetrics::Get().lattice_rollup_applies;
  const uint32_t leaf = hierarchy.LeafMask();
  const uint64_t key_space = hierarchy.counter().KeySpace(leaf);
  PathRule rule;
  int wide = 0, inserting = 0, built = 0;
  Rng rng(seed);
  for (int b = 0; b < batches; ++b) {
    std::vector<Hierarchy::LeafDelta> batch;
    const int kind = rng.UniformInt(4);
    if (kind == 0) {
      batch = WideBatch(hierarchy, rng);
    } else {
      batch = RandomDigestBatch(hierarchy, rng, /*insert_missing=*/false, 3);
    }
    const NodeTable& leaves = hierarchy.NodeCounts(leaf);
    if (kind == 1 && leaves.size() < key_space) {
      // An inserting batch: one leaf key the lattice lacks.
      uint64_t key = static_cast<uint64_t>(
          rng.UniformInt(static_cast<int>(key_space)));
      while (leaves.count(key) != 0) key = (key + 1) % key_space;
      batch.push_back({key, 1, rng.UniformInt(2)});
    }
    const bool inserts = InsertsALeaf(hierarchy, batch);
    const size_t entries = LatticeEntries(hierarchy);
    bool expect_build = false;
    // leaf == the node count
    const PathRule::Path path =
        rule.Next(batch.size(), inserts, leaf, entries, &expect_build);
    wide += kind == 0 && batch.size() * leaf >= entries;
    inserting += inserts;
    built += expect_build;

    const int64_t builds_before = builds.Value();
    const int64_t rollups_before = rollups.Value();
    hierarchy.ApplyDeltas(batch, /*insert_missing=*/true);
    ASSERT_EQ(builds.Value() - builds_before, expect_build ? 1 : 0)
        << where << " batch " << b << " (" << batch.size() << " deltas, "
        << (inserts ? "inserting" : "no inserts") << ")";
    ASSERT_EQ(rollups.Value() - rollups_before,
              path == PathRule::Path::kRolledUp ? 1 : 0)
        << where << " batch " << b;
    ASSERT_EQ(hierarchy.MaintainedCountsDigest(), hierarchy.CountsDigest())
        << where << " batch " << b;
    Hierarchy reseeded(hierarchy.schema(), hierarchy.NodeCounts(leaf),
                       hierarchy.TotalCounts());
    ASSERT_TRUE(reseeded.EagerBuild(1).ok());
    for (uint32_t mask = 1; mask <= leaf; ++mask) {
      ASSERT_TRUE(hierarchy.NodeCounts(mask) == reseeded.NodeCounts(mask))
          << where << " batch " << b << " mask " << mask;
    }
  }
  // The stream must have exercised every branch of the rule.
  EXPECT_GT(wide, 0) << where;
  EXPECT_GT(inserting, 0) << where;
  EXPECT_GT(built, 1) << where;
}

TEST(HierarchySlotMapTest, MixedBatchesMatchAReseededLatticeOnEveryBacking) {
  Dataset data = RandomFourAttrDataset(41, 120);  // leaves left to insert
  {
    Hierarchy from_rows(data);
    ASSERT_TRUE(from_rows.EagerBuild(1).ok());
    RunSlotMapStream(from_rows, 43, 80, "dataset-backed");
  }
  {
    const ColumnarShardStore store = ColumnarShardStore::FromDataset(data);
    Hierarchy from_store(store);
    ASSERT_TRUE(from_store.EagerBuild(2).ok());
    RunSlotMapStream(from_store, 47, 80, "store-backed");
  }
  {
    Hierarchy from_rows(data);
    Hierarchy seeded(data.schema(), from_rows.NodeCounts(from_rows.LeafMask()),
                     from_rows.TotalCounts());
    ASSERT_TRUE(seeded.EagerBuild(1).ok());
    RunSlotMapStream(seeded, 53, 80, "count-seeded");
  }
}

TEST(HierarchySlotMapTest, RollUpSlotsIndexTheProjectedParentEntry) {
  // Every (child, parent) pair of the lattice, not only EagerBuild's fixed
  // child: slot i names the parent entry of child key i's projection.
  Dataset data = RandomFourAttrDataset(59, 90);
  Hierarchy hierarchy(data);
  ASSERT_TRUE(hierarchy.EagerBuild(1).ok());
  const RegionCounter& counter = hierarchy.counter();
  for (uint32_t child = 1; child <= hierarchy.LeafMask(); ++child) {
    for (uint32_t parent : Hierarchy::ParentMasks(child)) {
      const NodeTable& up = hierarchy.NodeCounts(parent);
      const std::vector<uint32_t> slots = counter.RollUpSlots(
          hierarchy.NodeCounts(child), child, up, parent);
      ASSERT_EQ(slots.size(), hierarchy.NodeCounts(child).size());
      size_t i = 0;
      for (const auto& [key, counts] : hierarchy.NodeCounts(child)) {
        ASSERT_LT(slots[i], up.size());
        EXPECT_EQ(up.entries()[slots[i]].first,
                  counter.ProjectKey(key, child, parent))
            << "child " << child << " parent " << parent << " key " << key;
        ++i;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rollup ApplyDeltas: wide inserting batches merged into the leaf table and
// rolled up, against the keyed path's arithmetic
// ---------------------------------------------------------------------------

// The keyed path's result, computed apart from Hierarchy: each delta of
// `batch`, in order, upserted at its key's projection in every node.
std::vector<NodeTable> KeyedOracle(
    Hierarchy& hierarchy, const std::vector<Hierarchy::LeafDelta>& batch) {
  const uint32_t leaf = hierarchy.LeafMask();
  std::vector<NodeTable> nodes(leaf + 1);
  for (uint32_t mask = 1; mask <= leaf; ++mask) {
    nodes[mask] = hierarchy.NodeCounts(mask);
    for (const Hierarchy::LeafDelta& delta : batch) {
      nodes[mask].UpsertDelta(
          hierarchy.counter().ProjectKey(delta.leaf_key, leaf, mask),
          delta.delta_positives, delta.delta_negatives);
    }
  }
  return nodes;
}

// Applies `batch` under dirty tracking and checks what every batch must
// show, whichever path it took: each node equals the keyed oracle and a
// lattice reseeded from the leaf table, the maintained digest equals the
// fold, and the slot-map and rollup counters move as `rule` says. Returns
// the path taken.
PathRule::Path ApplyAndCheck(Hierarchy& hierarchy, PathRule& rule,
                             const std::vector<Hierarchy::LeafDelta>& batch,
                             const std::string& where) {
  const PipelineMetrics& metrics = PipelineMetrics::Get();
  const uint32_t leaf = hierarchy.LeafMask();
  const std::vector<NodeTable> oracle = KeyedOracle(hierarchy, batch);
  bool expect_build = false;
  const PathRule::Path path =
      rule.Next(batch.size(), InsertsALeaf(hierarchy, batch), leaf,
                LatticeEntries(hierarchy), &expect_build);
  hierarchy.EnableDirtyTracking();
  hierarchy.ClearDirtySet();
  const int64_t builds_before = metrics.lattice_slot_map_builds->Value();
  const int64_t rollups_before = metrics.lattice_rollup_applies->Value();
  hierarchy.ApplyDeltas(batch, /*insert_missing=*/true);
  EXPECT_EQ(metrics.lattice_slot_map_builds->Value() - builds_before,
            expect_build ? 1 : 0)
      << where;
  EXPECT_EQ(metrics.lattice_rollup_applies->Value() - rollups_before,
            path == PathRule::Path::kRolledUp ? 1 : 0)
      << where;
  EXPECT_EQ(hierarchy.MaintainedCountsDigest(), hierarchy.CountsDigest())
      << where;
  Hierarchy reseeded(hierarchy.schema(), hierarchy.NodeCounts(leaf),
                     hierarchy.TotalCounts());
  EXPECT_TRUE(reseeded.EagerBuild(1).ok());
  for (uint32_t mask = 1; mask <= leaf; ++mask) {
    EXPECT_TRUE(hierarchy.NodeCounts(mask) == oracle[mask])
        << where << ": mask " << mask << " differs from the keyed path";
    EXPECT_TRUE(hierarchy.NodeCounts(mask) == reseeded.NodeCounts(mask))
        << where << ": mask " << mask << " differs from a reseeded lattice";
  }
  return path;
}

std::vector<uint64_t> SortedUnique(std::vector<uint64_t> keys) {
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

// A batch the rollup path took leaves every node whole-dirty, lists the
// batch's distinct leaf keys (ascending) at the leaf and no key elsewhere,
// and the totals' drift.
void ExpectRolledUpMarks(const Hierarchy& hierarchy,
                         const std::vector<Hierarchy::LeafDelta>& batch,
                         const std::string& where) {
  std::vector<uint64_t> leaf_keys;
  RegionCounts drift;
  for (const Hierarchy::LeafDelta& delta : batch) {
    leaf_keys.push_back(delta.leaf_key);
    drift.positives += delta.delta_positives;
    drift.negatives += delta.delta_negatives;
  }
  leaf_keys = SortedUnique(std::move(leaf_keys));
  const DirtySet& dirty = hierarchy.dirty_set();
  EXPECT_EQ(dirty.nodes.size(), static_cast<size_t>(hierarchy.LeafMask()))
      << where;
  for (const auto& [mask, marks] : dirty.nodes) {
    EXPECT_TRUE(marks.whole) << where << ": mask " << mask;
    if (mask == hierarchy.LeafMask()) {
      EXPECT_EQ(marks.keys, leaf_keys) << where;
    } else {
      EXPECT_TRUE(marks.keys.empty()) << where << ": mask " << mask;
    }
  }
  EXPECT_EQ(dirty.delta_positives, drift.positives) << where;
  EXPECT_EQ(dirty.delta_negatives, drift.negatives) << where;
}

// A keyed batch marks no node whole and lists, per node, the projection of
// every delta's key in batch order, a repeat of the previous key dropped;
// or compacted (sorted, each key once) where the list outgrew twice the
// node's entries.
void ExpectKeyedMarks(Hierarchy& hierarchy,
                      const std::vector<Hierarchy::LeafDelta>& batch,
                      const std::string& where) {
  const uint32_t leaf = hierarchy.LeafMask();
  for (uint32_t mask = 1; mask <= leaf; ++mask) {
    std::vector<uint64_t> expected;
    for (const Hierarchy::LeafDelta& delta : batch) {
      const uint64_t key =
          hierarchy.counter().ProjectKey(delta.leaf_key, leaf, mask);
      if (expected.empty() || expected.back() != key) expected.push_back(key);
    }
    const auto it = hierarchy.dirty_set().nodes.find(mask);
    ASSERT_NE(it, hierarchy.dirty_set().nodes.end()) << where;
    const std::vector<uint64_t>& keys = it->second.keys;
    EXPECT_FALSE(it->second.whole) << where << ": mask " << mask;
    if (expected.size() <= 2 * hierarchy.NodeCounts(mask).size()) {
      EXPECT_EQ(keys, expected) << where << ": mask " << mask;
    } else {
      EXPECT_EQ(keys, SortedUnique(expected)) << where << ": mask " << mask;
    }
  }
}

// Leaf keys the lattice lacks, ascending, at most `limit` of them.
std::vector<uint64_t> MissingLeaves(Hierarchy& hierarchy, size_t limit) {
  const NodeTable& leaves = hierarchy.NodeCounts(hierarchy.LeafMask());
  std::vector<uint64_t> missing;
  for (uint64_t key = 0;
       key < hierarchy.counter().KeySpace(hierarchy.LeafMask()) &&
       missing.size() < limit;
       ++key) {
    if (leaves.count(key) == 0) missing.push_back(key);
  }
  return missing;
}

// The five wide inserting batches, each checked on both paths' terms, and
// keyed and wide batches around the last that show the rollup dropped the
// maps and zeroed the keyed work. `seed_rows` seeds the (empty) lattice
// first.
void RunRollUpCases(Hierarchy& hierarchy, const NodeTable& seed_rows,
                    uint64_t seed, const std::string& where) {
  using Path = PathRule::Path;
  PathRule rule;
  Rng rng(seed);

  // A seed into the empty lattice: every populated leaf at once.
  ASSERT_EQ(LatticeEntries(hierarchy), 0u) << where;
  std::vector<Hierarchy::LeafDelta> batch;
  for (const auto& [key, counts] : seed_rows) {
    batch.push_back({key, counts.positives, counts.negatives});
  }
  ASSERT_EQ(ApplyAndCheck(hierarchy, rule, batch, where + " seed"),
            Path::kRolledUp);
  ExpectRolledUpMarks(hierarchy, batch, where + " seed");

  // A wide batch over the populated lattice plus leaves it lacks.
  batch = WideBatch(hierarchy, rng);
  for (uint64_t key : MissingLeaves(hierarchy, 3)) {
    batch.push_back({key, 2, 1});
  }
  std::sort(batch.begin(), batch.end(),
            [](const Hierarchy::LeafDelta& a, const Hierarchy::LeafDelta& b) {
              return a.leaf_key < b.leaf_key;
            });
  ASSERT_EQ(ApplyAndCheck(hierarchy, rule, batch, where + " wide"),
            Path::kRolledUp);
  ExpectRolledUpMarks(hierarchy, batch, where + " wide");

  // Retractions that drive every other populated leaf to zero (the entry
  // stays), alongside new leaves.
  batch.clear();
  const std::vector<uint64_t> fresh = MissingLeaves(hierarchy, 2);
  size_t f = 0;
  int i = 0;
  for (const auto& [key, counts] :
       hierarchy.NodeCounts(hierarchy.LeafMask())) {
    while (f < fresh.size() && fresh[f] < key) {
      batch.push_back({fresh[f++], 1, 0});
    }
    if (i++ % 2 == 0 && counts.Total() > 0) {
      batch.push_back({key, -counts.positives, -counts.negatives});
    } else {
      batch.push_back({key, 0, 1});
    }
  }
  while (f < fresh.size()) batch.push_back({fresh[f++], 1, 0});
  ASSERT_EQ(ApplyAndCheck(hierarchy, rule, batch, where + " retractions"),
            Path::kRolledUp);
  ExpectRolledUpMarks(hierarchy, batch, where + " retractions");

  // Unsorted input, with one key repeated (its deltas apply in order).
  batch = WideBatch(hierarchy, rng);
  for (uint64_t key : MissingLeaves(hierarchy, 2)) {
    batch.push_back({key, 0, 2});
  }
  ASSERT_GE(batch.size(), 2u);
  batch.push_back({batch.front().leaf_key, 1, 1});
  std::reverse(batch.begin(), batch.end());
  ASSERT_EQ(ApplyAndCheck(hierarchy, rule, batch, where + " unsorted"),
            Path::kRolledUp);
  ExpectRolledUpMarks(hierarchy, batch, where + " unsorted");

  // Inserting batches on either side of the threshold: the widest whose
  // keyed work stays below the entry count is keyed, the narrowest that
  // reaches it rolls up.
  const auto inserting = [&hierarchy](bool reach) {
    const size_t entries = LatticeEntries(hierarchy);
    const size_t nodes = hierarchy.LeafMask();
    const size_t deltas =
        reach ? (entries + nodes - 1) / nodes : (entries - 1) / nodes;
    std::vector<Hierarchy::LeafDelta> inserts = {
        {MissingLeaves(hierarchy, 1).at(0), 1, 0}};
    for (const auto& [key, counts] :
         hierarchy.NodeCounts(hierarchy.LeafMask())) {
      if (inserts.size() == deltas) break;
      inserts.push_back({key, 0, 1});
    }
    return inserts;
  };
  batch = inserting(/*reach=*/false);
  ASSERT_EQ(ApplyAndCheck(hierarchy, rule, batch, where + " below"),
            Path::kKeyed);
  ExpectKeyedMarks(hierarchy, batch, where + " below");
  batch = inserting(/*reach=*/true);
  ASSERT_EQ(ApplyAndCheck(hierarchy, rule, batch, where + " at threshold"),
            Path::kRolledUp);
  ExpectRolledUpMarks(hierarchy, batch, where + " at threshold");

  // A keyed batch just under the threshold, so the keyed work the next
  // rollup must zero is nearly the entry count.
  const auto near_threshold = [&hierarchy] {
    const size_t deltas =
        (LatticeEntries(hierarchy) - 1) / hierarchy.LeafMask();
    std::vector<Hierarchy::LeafDelta> keyed;
    for (const auto& [key, counts] :
         hierarchy.NodeCounts(hierarchy.LeafMask())) {
      if (keyed.size() == deltas) break;
      keyed.push_back({key, 1, 0});
    }
    return keyed;
  };
  batch = near_threshold();
  ASSERT_FALSE(batch.empty()) << where;
  ASSERT_EQ(ApplyAndCheck(hierarchy, rule, batch, where + " keyed"),
            Path::kKeyed);
  ExpectKeyedMarks(hierarchy, batch, where + " keyed");

  // A (0,0) delta for a missing leaf inserts a zero-count entry.
  const std::vector<uint64_t> zero = MissingLeaves(hierarchy, 1);
  ASSERT_EQ(zero.size(), 1u) << where << ": no leaf left to insert";
  batch.clear();
  for (const auto& [key, counts] :
       hierarchy.NodeCounts(hierarchy.LeafMask())) {
    if (key > zero[0] && (batch.empty() || batch.back().leaf_key < zero[0])) {
      batch.push_back({zero[0], 0, 0});
    }
    batch.push_back({key, 1, 0});
  }
  if (batch.back().leaf_key < zero[0]) batch.push_back({zero[0], 0, 0});
  ASSERT_EQ(ApplyAndCheck(hierarchy, rule, batch, where + " zero insert"),
            Path::kRolledUp);
  ExpectRolledUpMarks(hierarchy, batch, where + " zero insert");
  const NodeTable& leaves = hierarchy.NodeCounts(hierarchy.LeafMask());
  ASSERT_NE(leaves.find(zero[0]), leaves.end()) << where;
  EXPECT_EQ(leaves.at(zero[0]).Total(), 0) << where;

  // The rollup dropped the maps and zeroed the keyed work: another batch
  // just under the threshold stays keyed (with the earlier one's work
  // still counted it would build the maps), and the next wide one builds
  // them afresh.
  batch = near_threshold();
  ASSERT_EQ(ApplyAndCheck(hierarchy, rule, batch, where + " keyed again"),
            Path::kKeyed);
  ExpectKeyedMarks(hierarchy, batch, where + " keyed again");
  batch = WideBatch(hierarchy, rng);
  ASSERT_EQ(ApplyAndCheck(hierarchy, rule, batch, where + " wide, no inserts"),
            Path::kSlotted);
}

TEST(HierarchySlotMapTest, WideInsertingBatchesRollUpLikeTheKeyedPath) {
  Dataset data = RandomFourAttrDataset(61, 60);  // leaves left to insert
  Hierarchy counted(data);
  const NodeTable seed_rows = counted.NodeCounts(counted.LeafMask());
  {
    Hierarchy seeded(data.schema(), NodeTable(), RegionCounts{});
    ASSERT_TRUE(seeded.EagerBuild(1).ok());
    RunRollUpCases(seeded, seed_rows, 67, "count-seeded");
  }
  {
    const ColumnarShardStore store =
        ColumnarShardStore::FromDataset(Dataset(data.schema()));
    Hierarchy from_store(store);
    ASSERT_TRUE(from_store.EagerBuild(2).ok());
    RunRollUpCases(from_store, seed_rows, 71, "store-backed");
  }
}

TEST(HierarchyRollUpDeathTest, NegativeCountDiesOnTheRollupPath) {
  // Every populated leaf +1 and one new leaf take the rollup path (deltas x
  // nodes reach the entry count); one retraction past a leaf's count dies.
  Dataset data = RandomFourAttrDataset(73, 60);
  Hierarchy hierarchy(data);
  ASSERT_TRUE(hierarchy.EagerBuild(1).ok());
  const std::vector<uint64_t> missing = MissingLeaves(hierarchy, 1);
  ASSERT_EQ(missing.size(), 1u);
  std::vector<Hierarchy::LeafDelta> batch = {{missing[0], 1, 0}};
  uint64_t victim = 0;
  for (const auto& [key, counts] :
       hierarchy.NodeCounts(hierarchy.LeafMask())) {
    if (counts.positives > 0) victim = key;
    batch.push_back({key, 0, 1});
  }
  const int64_t held =
      hierarchy.NodeCounts(hierarchy.LeafMask()).at(victim).positives;
  std::vector<Hierarchy::LeafDelta> reordered(batch.rbegin(), batch.rend());
  batch.push_back({victim, -held - 1, 0});
  ASSERT_GE(batch.size() * hierarchy.LeafMask(), LatticeEntries(hierarchy));
  EXPECT_DEATH(hierarchy.ApplyDeltas(batch, /*insert_missing=*/true),
               "delta drove region key " + std::to_string(victim) +
                   " negative");
  // Unsorted, with a later delta that would cover the retraction: the
  // keyed path dies at the retraction, so the rollup must too.
  reordered.push_back({victim, -held - 1, 0});
  reordered.push_back({victim, held + 5, 0});
  EXPECT_DEATH(hierarchy.ApplyDeltas(reordered, /*insert_missing=*/true),
               "delta drove region key " + std::to_string(victim) +
                   " negative");
}

}  // namespace
}  // namespace remedy
