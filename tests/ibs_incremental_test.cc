// Parity suite for the dirty-region incremental identify path
// (core/ibs_incremental.h).
//
// The load-bearing half is randomized equivalence: long delta streams —
// ingest, retractions, remedy-style label flips, brand-new subgroups — are
// applied to a lattice, and after EVERY epoch the incremental identify must
// be byte-identical (same IbsSetDigest, same region-for-region fields) to a
// from-scratch IdentifyIbsInNode sweep of the same hierarchy, across
// random schemas, both neighbor algorithms, ordinal metrics, whole-node
// distance regimes, and EagerBuild thread counts {1, 2, 4, 0}. The rest
// pins the fallback ladder (cold cache, params change, rebuild, swap,
// explicit Invalidate) and the serve wiring: daemon digest parity between
// --identify-mode full and incremental, copy-on-write of the leaf census,
// and WAL-replay recovery forcing a full first identify.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "common/rng.h"
#include "core/hierarchy.h"
#include "core/ibs_identify.h"
#include "core/ibs_incremental.h"
#include "datagen/generator.h"
#include "datagen/random_spec.h"
#include "serve/daemon.h"
#include "test_util.h"

namespace remedy {
namespace {

using remedy::testing::SmallSchema;

#ifdef REMEDY_TSAN_BUILD
// TSan is ~10x slower; the thread-interleaving coverage does not need the
// long streams (the plain binary runs those).
constexpr int kLongStreamEpochs = 40;
constexpr int kSpecSeeds = 2;
constexpr int kShortStreamEpochs = 24;
#else
// The acceptance stream: 200+ epochs of parity on the main workload.
constexpr int kLongStreamEpochs = 220;
constexpr int kSpecSeeds = 4;
constexpr int kShortStreamEpochs = 60;
#endif

// The full sweep the daemon's kFull mode runs — the parity oracle.
std::vector<BiasedRegion> FullSweep(Hierarchy& hierarchy,
                                    const IbsParams& params) {
  std::vector<BiasedRegion> ibs;
  for (uint32_t mask : ScopeMasks(hierarchy, params.scope)) {
    std::vector<BiasedRegion> in_node =
        IdentifyIbsInNode(hierarchy, mask, params);
    ibs.insert(ibs.end(), in_node.begin(), in_node.end());
  }
  return ibs;
}

// Field-for-field equality with useful failure output; the digest alone
// would say "different" without saying where.
void ExpectSameIbs(const std::vector<BiasedRegion>& incremental,
                   const std::vector<BiasedRegion>& full,
                   const std::string& where) {
  ASSERT_EQ(incremental.size(), full.size()) << where;
  for (size_t i = 0; i < full.size(); ++i) {
    const BiasedRegion& a = incremental[i];
    const BiasedRegion& b = full[i];
    EXPECT_TRUE(a.pattern == b.pattern) << where << " region " << i;
    EXPECT_EQ(a.counts.positives, b.counts.positives) << where << " " << i;
    EXPECT_EQ(a.counts.negatives, b.counts.negatives) << where << " " << i;
    EXPECT_EQ(a.neighbor_counts.positives, b.neighbor_counts.positives)
        << where << " " << i;
    EXPECT_EQ(a.neighbor_counts.negatives, b.neighbor_counts.negatives)
        << where << " " << i;
    // Bit-identity, not approximate agreement: same float ops, same order.
    EXPECT_EQ(a.ratio, b.ratio) << where << " " << i;
    EXPECT_EQ(a.neighbor_ratio, b.neighbor_ratio) << where << " " << i;
  }
  EXPECT_EQ(IbsSetDigest(incremental), IbsSetDigest(full)) << where;
}

// One random delta batch against the hierarchy's CURRENT leaf table:
// insertions into existing leaves, bounded retractions (never driving a
// count negative), remedy-style label flips, and occasionally a brand-new
// leaf key (insert_missing ingest). Pre-aggregated per key, as ApplyDeltas
// requires.
std::vector<Hierarchy::LeafDelta> RandomBatch(Hierarchy& hierarchy,
                                              Rng& rng) {
  const NodeTable& leaves = hierarchy.NodeCounts(hierarchy.LeafMask());
  std::map<uint64_t, std::pair<int64_t, int64_t>> net;
  auto remaining = [&](uint64_t key) -> RegionCounts {
    RegionCounts counts;
    auto it = leaves.find(key);
    if (it != leaves.end()) counts = it->second;
    auto applied = net.find(key);
    if (applied != net.end()) {
      counts.positives += applied->second.first;
      counts.negatives += applied->second.second;
    }
    return counts;
  };
  const int ops = rng.UniformRange(1, 6);
  for (int op = 0; op < ops; ++op) {
    const int kind = rng.UniformInt(4);
    if (kind == 3 || leaves.empty()) {
      // A never-seen subgroup appearing mid-stream.
      Pattern pattern(hierarchy.NumProtected());
      for (int i = 0; i < hierarchy.NumProtected(); ++i) {
        pattern.SetValue(i, rng.UniformInt(hierarchy.counter().Cardinality(i)));
      }
      const uint64_t key =
          hierarchy.counter().KeyFor(pattern, hierarchy.LeafMask());
      auto& entry = net[key];
      entry.first += rng.UniformInt(4);
      entry.second += rng.UniformInt(4);
      continue;
    }
    const uint64_t key =
        std::next(leaves.begin(),
                  rng.UniformInt(static_cast<int>(leaves.size())))
            ->first;
    const RegionCounts counts = remaining(key);
    auto& entry = net[key];
    if (kind == 0) {  // ingest
      entry.first += rng.UniformInt(5);
      entry.second += rng.UniformInt(5);
    } else if (kind == 1) {  // retraction, bounded by what is there
      if (counts.positives > 0) {
        entry.first -=
            rng.UniformInt(static_cast<int>(counts.positives) + 1);
      }
      if (counts.negatives > 0) {
        entry.second -=
            rng.UniformInt(static_cast<int>(counts.negatives) + 1);
      }
    } else {  // remedy-style label flip: totals stay put
      if (counts.positives > 0 && rng.Bernoulli(0.5)) {
        const int flips =
            rng.UniformRange(1, static_cast<int>(counts.positives));
        entry.first -= flips;
        entry.second += flips;
      } else if (counts.negatives > 0) {
        const int flips =
            rng.UniformRange(1, static_cast<int>(counts.negatives));
        entry.first += flips;
        entry.second -= flips;
      }
    }
  }
  std::vector<Hierarchy::LeafDelta> deltas;
  for (const auto& [key, delta] : net) {
    if (delta.first == 0 && delta.second == 0) continue;
    deltas.push_back({key, delta.first, delta.second});
  }
  return deltas;
}

// A wide batch: one delta on each of three leaves in four (so at least
// half the leaves are dirty). About half the batches are label flips
// only, which keeps the totals steady; the rest mix flips with ingest,
// retractions that leave each leaf populated (so every leaf can always
// flip), and one brand-new leaf. Keys ascend and are unique, as
// ApplyDeltas requires.
std::vector<Hierarchy::LeafDelta> WideBatch(Hierarchy& hierarchy, Rng& rng) {
  const NodeTable& leaves = hierarchy.NodeCounts(hierarchy.LeafMask());
  const bool flips_only = rng.Bernoulli(0.5);
  const size_t skip = static_cast<size_t>(rng.UniformInt(4));
  std::vector<Hierarchy::LeafDelta> deltas;
  size_t i = 0;
  for (const auto& [key, counts] : leaves) {
    if (i++ % 4 == skip) continue;
    const int kind = flips_only ? 2 : rng.UniformInt(3);
    const bool positive =
        counts.positives > 0 && (counts.negatives == 0 || rng.Bernoulli(0.5));
    if (kind == 0) {  // ingest
      deltas.push_back({key, rng.UniformRange(1, 2), rng.UniformInt(3)});
    } else if (kind == 1 && counts.Total() > 1) {  // retract one instance
      deltas.push_back({key, positive ? -1 : 0, positive ? 0 : -1});
    } else {  // flip one label
      deltas.push_back({key, positive ? -1 : 1, positive ? 1 : -1});
    }
  }
  const uint64_t key_space =
      hierarchy.counter().KeySpace(hierarchy.LeafMask());
  if (!flips_only && leaves.size() < key_space) {
    uint64_t key = static_cast<uint64_t>(
        rng.UniformInt(static_cast<int>(key_space)));
    while (leaves.count(key) != 0) key = (key + 1) % key_space;
    deltas.push_back({key, 1, rng.UniformInt(2)});
    std::sort(deltas.begin(), deltas.end(),
              [](const Hierarchy::LeafDelta& a, const Hierarchy::LeafDelta& b) {
                return a.leaf_key < b.leaf_key;
              });
  }
  return deltas;
}

using BatchGenerator =
    std::vector<Hierarchy::LeafDelta> (*)(Hierarchy& hierarchy, Rng& rng);

// Runs `epochs` batches from `next_batch` through one hierarchy, asserting
// per-epoch parity of the incremental state against the from-scratch
// sweep. Returns the stream's total of wide_node_rescores.
int64_t RunParityStream(Hierarchy& hierarchy, const IbsParams& params,
                        int epochs, uint64_t stream_seed,
                        const std::string& where,
                        BatchGenerator next_batch = RandomBatch) {
  IncrementalIbsState state;
  Rng rng(stream_seed);
  int64_t wide_node_rescores = 0;
  for (int epoch = 0; epoch < epochs; ++epoch) {
    hierarchy.ApplyDeltas(next_batch(hierarchy, rng),
                          /*insert_missing=*/true);
    std::vector<BiasedRegion> incremental = state.Identify(hierarchy, params);
    std::vector<BiasedRegion> full = FullSweep(hierarchy, params);
    ExpectSameIbs(incremental, full,
                  where + " epoch " + std::to_string(epoch));
    if (epoch > 0) {
      EXPECT_TRUE(state.last_stats().incremental)
          << where << " epoch " << epoch
          << " unexpectedly fell back: " << state.last_fallback_reason();
      wide_node_rescores += state.last_stats().wide_node_rescores;
    }
    if (::testing::Test::HasFatalFailure()) break;
  }
  return wide_node_rescores;
}

IbsParams TestParams() {
  IbsParams params;
  params.imbalance_threshold = 0.15;
  params.distance_threshold = 1.0;
  params.min_region_size = 5;  // small random data still gets audited
  return params;
}

// ---------------------------------------------------------------------------
// Randomized equivalence over delta streams
// ---------------------------------------------------------------------------

TEST(IbsIncrementalTest, LongStreamParityOnRandomSchema) {
  Rng spec_rng(0xabcdef01u);
  SyntheticSpec spec = RandomSpec(spec_rng);
  spec.num_rows = 600;
  Dataset data = GenerateSynthetic(spec, 7);
  Hierarchy hierarchy(data);
  ASSERT_TRUE(hierarchy.EagerBuild(1).ok());
  RunParityStream(hierarchy, TestParams(), kLongStreamEpochs, 0x5eed,
                  "long-stream");
}

TEST(IbsIncrementalTest, RandomSchemasBothAlgorithms) {
  for (int seed = 0; seed < kSpecSeeds; ++seed) {
    Rng spec_rng(0x1000u + static_cast<uint64_t>(seed));
    SyntheticSpec spec = RandomSpec(spec_rng);
    spec.num_rows = 400;
    Dataset data = GenerateSynthetic(spec, 100 + seed);
    for (IbsAlgorithm algorithm :
         {IbsAlgorithm::kOptimized, IbsAlgorithm::kNaive}) {
      Hierarchy hierarchy(data);
      ASSERT_TRUE(hierarchy.EagerBuild(1).ok());
      IbsParams params = TestParams();
      params.algorithm = algorithm;
      RunParityStream(hierarchy, params, kShortStreamEpochs,
                      0x900du + static_cast<uint64_t>(seed),
                      "spec " + std::to_string(seed) + " algo " +
                          (algorithm == IbsAlgorithm::kNaive ? "naive"
                                                             : "optimized"));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(IbsIncrementalTest, ParityAcrossThreadCounts) {
  // The same delta stream replayed onto lattices built with different
  // EagerBuild fan-outs must produce identical incremental results — the
  // build is thread-count-invariant and the identify path is downstream of
  // it. Batches are pre-generated once so every replica sees the exact
  // stream (RandomBatch reads the evolving table, so generating per-replica
  // could diverge if a build were wrong — pin the input, compare output).
  Rng spec_rng(0x77);
  SyntheticSpec spec = RandomSpec(spec_rng);
  spec.num_rows = 500;
  Dataset data = GenerateSynthetic(spec, 11);
  std::vector<std::vector<Hierarchy::LeafDelta>> stream;
  {
    Hierarchy scratch(data);
    ASSERT_TRUE(scratch.EagerBuild(1).ok());
    Rng rng(0xfeed);
    for (int epoch = 0; epoch < kShortStreamEpochs; ++epoch) {
      stream.push_back(RandomBatch(scratch, rng));
      scratch.ApplyDeltas(stream.back(), /*insert_missing=*/true);
    }
  }
  const IbsParams params = TestParams();
  std::vector<std::vector<uint64_t>> digests;  // per thread count, per epoch
  for (int threads : {1, 2, 4, 0}) {
    Hierarchy hierarchy(data);
    ASSERT_TRUE(hierarchy.EagerBuild(threads).ok());
    IncrementalIbsState state;
    std::vector<uint64_t> epoch_digests;
    for (size_t epoch = 0; epoch < stream.size(); ++epoch) {
      hierarchy.ApplyDeltas(stream[epoch], /*insert_missing=*/true);
      std::vector<BiasedRegion> incremental =
          state.Identify(hierarchy, params);
      std::vector<BiasedRegion> full = FullSweep(hierarchy, params);
      ExpectSameIbs(incremental, full,
                    "threads " + std::to_string(threads) + " epoch " +
                        std::to_string(epoch));
      epoch_digests.push_back(IbsSetDigest(incremental));
      if (::testing::Test::HasFatalFailure()) return;
    }
    digests.push_back(std::move(epoch_digests));
  }
  for (size_t i = 1; i < digests.size(); ++i) {
    EXPECT_EQ(digests[i], digests[0])
        << "thread-count variant " << i << " diverged";
  }
}

// An ordinal age (5 values) and a nominal group (3) protected, with the
// positive rate rising along the ordinal.
Dataset OrdinalAgeDataset() {
  std::vector<AttributeSchema> attributes = {
      AttributeSchema("age", {"a0", "a1", "a2", "a3", "a4"},
                      /*ordinal=*/true),
      AttributeSchema("group", {"g0", "g1", "g2"}),
      AttributeSchema("f", {"f0", "f1"}),
  };
  DataSchema schema(std::move(attributes), {0, 1});
  Dataset data(schema);
  Rng rows(0x0dd);
  for (int i = 0; i < 400; ++i) {
    const int age = rows.UniformInt(5);
    const int group = rows.UniformInt(3);
    const int label = rows.Bernoulli(0.3 + 0.1 * age) ? 1 : 0;
    data.AddRow({age, group, label}, label);
  }
  return data;
}

TEST(IbsIncrementalTest, OrdinalMetricsAndFractionalThreshold) {
  // Ordinal protected attributes break the unit-distance assumption: the
  // frontier expansion must honor |code_a - code_b| metrics through the
  // naive enumeration. T = 1.5 keeps neighborhoods proper subsets of the
  // nodes (no whole-node shortcut) and reaches 2 steps along the ordinal.
  Dataset data = OrdinalAgeDataset();
  Hierarchy hierarchy(data);
  ASSERT_TRUE(hierarchy.EagerBuild(1).ok());
  IbsParams params = TestParams();
  params.algorithm = IbsAlgorithm::kNaive;
  params.distance_threshold = 1.5;
  RunParityStream(hierarchy, params, kShortStreamEpochs, 0xbead, "ordinal");
}

TEST(IbsIncrementalTest, WholeNodeRegimeTotalsDriftAndSteadyFlips) {
  // T = 8 >= every node diameter of SmallSchema: r_n = totals - r
  // everywhere. Flip-only batches keep the totals steady (only dirty
  // regions re-score); ingest batches drift them (whole nodes re-sweep).
  // Both paths must stay bit-identical to the full sweep.
  Dataset data = remedy::testing::GridDataset({{{40, 10}, {10, 10}},
                                               {{10, 10}, {10, 10}},
                                               {{10, 10}, {12, 8}}});
  Hierarchy hierarchy(data);
  ASSERT_TRUE(hierarchy.EagerBuild(1).ok());
  IbsParams params = TestParams();
  params.distance_threshold = 8.0;
  IncrementalIbsState state;
  (void)state.Identify(hierarchy, params);  // warm the cache

  // Remedy-style flips: totals steady, per-region counts move.
  hierarchy.ApplyDeltas({{0, -3, 3}, {5, 3, -3}}, /*insert_missing=*/true);
  std::vector<BiasedRegion> incremental = state.Identify(hierarchy, params);
  ExpectSameIbs(incremental, FullSweep(hierarchy, params), "steady flips");
  EXPECT_TRUE(state.last_stats().incremental);
  EXPECT_EQ(state.last_stats().full_node_rescores, 0)
      << "steady totals must not trigger whole-node re-sweeps";

  // Ingest: the totals drift, every whole-node neighborhood moves.
  hierarchy.ApplyDeltas({{1, 7, 0}}, /*insert_missing=*/true);
  incremental = state.Identify(hierarchy, params);
  ExpectSameIbs(incremental, FullSweep(hierarchy, params), "totals drift");
  EXPECT_TRUE(state.last_stats().incremental);
  EXPECT_GT(state.last_stats().full_node_rescores, 0);
}

TEST(IbsIncrementalTest, ZeroDriftBatchesAtUnitDistanceOnNominalSchema) {
  // T = 1, optimized, four nominal attributes: level-1 nodes are in the
  // whole-node regime (diameter 1), deeper ones are not. Each batch moves
  // instances of one label between two leaves, so the totals never drift:
  // the level-1 nodes re-score only their dirty regions, the deeper nodes
  // their dirty regions plus frontier — whose level-1 parents are then
  // read from the node tables, not from a gathered set.
  std::vector<AttributeSchema> attributes = {
      AttributeSchema("w", {"w0", "w1", "w2"}),
      AttributeSchema("x", {"x0", "x1"}),
      AttributeSchema("y", {"y0", "y1", "y2"}),
      AttributeSchema("z", {"z0", "z1"}),
  };
  DataSchema schema(std::move(attributes), {0, 1, 2, 3});
  Dataset data(schema);
  Rng rows(0x2e70);
  for (int i = 0; i < 700; ++i) {
    const int w = rows.UniformInt(3);
    const int label = rows.Bernoulli(0.25 + 0.2 * w) ? 1 : 0;
    data.AddRow({w, rows.UniformInt(2), rows.UniformInt(3), rows.UniformInt(2)},
                label);
  }
  Hierarchy hierarchy(data);
  ASSERT_TRUE(hierarchy.EagerBuild(1).ok());
  IbsParams params = TestParams();
  ASSERT_EQ(params.distance_threshold, 1.0);
  ASSERT_EQ(params.algorithm, IbsAlgorithm::kOptimized);
  IncrementalIbsState state;
  (void)state.Identify(hierarchy, params);  // warm the cache

  const uint64_t key_space = hierarchy.counter().KeySpace(hierarchy.LeafMask());
  Rng rng(0x5ca1e);
  for (int epoch = 0; epoch < kShortStreamEpochs; ++epoch) {
    const NodeTable& leaves = hierarchy.NodeCounts(hierarchy.LeafMask());
    std::vector<Hierarchy::LeafDelta> batch;
    const auto& [from, counts] = *std::next(
        leaves.begin(), rng.UniformInt(static_cast<int>(leaves.size())));
    // The destination may be a leaf no row has populated yet.
    uint64_t to = static_cast<uint64_t>(
        rng.UniformInt(static_cast<int>(key_space)));
    if (to == from) to = (to + 1) % key_space;
    const bool positives = counts.positives > 0 &&
                           (counts.negatives == 0 || rng.Bernoulli(0.5));
    const int64_t available = positives ? counts.positives : counts.negatives;
    if (available == 0) continue;
    const int64_t moved = rng.UniformRange(1, static_cast<int>(available));
    batch.push_back({from, positives ? -moved : 0, positives ? 0 : -moved});
    batch.push_back({to, positives ? moved : 0, positives ? 0 : moved});
    hierarchy.ApplyDeltas(batch, /*insert_missing=*/true);
    ASSERT_EQ(hierarchy.dirty_set().delta_positives, 0);
    ASSERT_EQ(hierarchy.dirty_set().delta_negatives, 0);

    std::vector<BiasedRegion> incremental = state.Identify(hierarchy, params);
    ExpectSameIbs(incremental, FullSweep(hierarchy, params),
                  "zero drift epoch " + std::to_string(epoch));
    EXPECT_TRUE(state.last_stats().incremental);
    EXPECT_EQ(state.last_stats().full_node_rescores, 0)
        << "steady totals must not re-sweep a whole-node neighborhood";
    EXPECT_GT(state.last_stats().expanded_regions, 0);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(IbsIncrementalTest, GatheredChildBelowWholeNodeParentUnderSteadyTotals) {
  // Five nominal attributes of four values, T = 1: the level-1 nodes are
  // whole-node neighborhoods (diameter 1), so with steady totals their
  // re-evaluation sets hold only their dirty keys. A level-2 node with two
  // dirty keys gathers them plus their frontier (2 x 7 keys < 16 entries),
  // and a frontier key's projection onto a level-1 parent is in general
  // not dirty there: the gathered child must sum that parent over its
  // table, not over the parent's gathered set.
  std::vector<AttributeSchema> attributes;
  std::vector<int> protected_indices;
  for (int i = 0; i < 5; ++i) {
    const std::string name = "p" + std::to_string(i);
    attributes.emplace_back(
        name, std::vector<std::string>{name + "a", name + "b", name + "c",
                                       name + "d"});
    protected_indices.push_back(i);
  }
  Dataset data(DataSchema(std::move(attributes), protected_indices));
  Rng rows(0x9a7e);
  for (int i = 0; i < 6000; ++i) {
    std::vector<int> row(5);
    for (int& value : row) value = rows.UniformInt(4);
    const double p = 0.2 + 0.15 * row[0] + 0.1 * (row[2] == 1);
    data.AddRow(row, rows.Bernoulli(p) ? 1 : 0);
  }
  Hierarchy hierarchy(data);
  ASSERT_TRUE(hierarchy.EagerBuild(1).ok());
  IbsParams params = TestParams();
  params.imbalance_threshold = 0.1;
  ASSERT_EQ(params.scope, IbsScope::kLattice);
  ASSERT_EQ(params.distance_threshold, 1.0);
  IncrementalIbsState state;
  (void)state.Identify(hierarchy, params);  // warm the cache

  const NodeTable& leaves = hierarchy.NodeCounts(hierarchy.LeafMask());
  Rng rng(0x57ead);
  for (int epoch = 0; epoch < kShortStreamEpochs; ++epoch) {
    // One label's instances move between two populated leaves.
    const auto& [from, from_counts] = *std::next(
        leaves.begin(), rng.UniformInt(static_cast<int>(leaves.size())));
    uint64_t to = std::next(leaves.begin(),
                            rng.UniformInt(static_cast<int>(leaves.size())))
                      ->first;
    if (to == from) continue;
    const bool positives = from_counts.positives > 0 &&
                           (from_counts.negatives == 0 || rng.Bernoulli(0.5));
    const int64_t available =
        positives ? from_counts.positives : from_counts.negatives;
    if (available == 0) continue;
    const int64_t moved = rng.UniformRange(1, static_cast<int>(available));
    std::vector<Hierarchy::LeafDelta> batch = {
        {from, positives ? -moved : 0, positives ? 0 : -moved},
        {to, positives ? moved : 0, positives ? 0 : moved}};
    if (to < from) std::swap(batch[0], batch[1]);
    hierarchy.ApplyDeltas(batch, /*insert_missing=*/true);
    ASSERT_EQ(hierarchy.dirty_set().delta_positives, 0);
    ASSERT_EQ(hierarchy.dirty_set().delta_negatives, 0);

    const std::vector<BiasedRegion> incremental =
        state.Identify(hierarchy, params);
    const std::vector<BiasedRegion> full =
        IdentifyIbsInScope(hierarchy, params);
    ASSERT_EQ(IbsSetDigest(incremental), IbsSetDigest(full))
        << "epoch " << epoch;
    EXPECT_TRUE(state.last_stats().incremental);
    EXPECT_EQ(state.last_stats().full_node_rescores, 0) << "epoch " << epoch;
    // Every node was gathered, the deeper ones with their frontier: none
    // is re-scored whole.
    EXPECT_GT(state.last_stats().expanded_regions, 0) << "epoch " << epoch;
    EXPECT_EQ(state.last_stats().wide_node_rescores, 0) << "epoch " << epoch;
  }
}

TEST(IbsIncrementalTest, LeafAndTopScopesReadParentsOutsideTheScope) {
  // Leaf scope scores only the leaf node, whose dominating regions sit one
  // level up, outside the scope; top scope scores level 1, whose parent is
  // the level-0 totals. Both must match the full sweep of the same scope.
  Rng spec_rng(0x5c09e);
  SyntheticSpec spec = RandomSpec(spec_rng);
  spec.num_rows = 500;
  Dataset data = GenerateSynthetic(spec, 19);
  for (IbsScope scope : {IbsScope::kLeaf, IbsScope::kTop}) {
    for (IbsAlgorithm algorithm :
         {IbsAlgorithm::kOptimized, IbsAlgorithm::kNaive}) {
      Hierarchy hierarchy(data);
      ASSERT_TRUE(hierarchy.EagerBuild(1).ok());
      IbsParams params = TestParams();
      params.scope = scope;
      params.algorithm = algorithm;
      RunParityStream(
          hierarchy, params, kShortStreamEpochs,
          0x5c0u + static_cast<uint64_t>(scope),
          std::string(scope == IbsScope::kLeaf ? "leaf" : "top") + " scope " +
              (algorithm == IbsAlgorithm::kNaive ? "naive" : "optimized"));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// ---------------------------------------------------------------------------
// Wide batches: whole-node re-scoring for covering frontiers
// ---------------------------------------------------------------------------

// Three leaves in four dirty every epoch: dirty keys x FrontierBound reach
// the entry count of many nodes, which are then re-scored whole — the
// output must stay bit-identical, and the wide path must have run.
TEST(IbsIncrementalTest, WideBatchesAtUnitDistanceBothAlgorithms) {
  // Two or more protected attributes: with one, the only node is in the
  // whole-node regime (T = 1 is its diameter), where a dirty key has no
  // frontier and three leaves in four never cover it.
  RandomSpecOptions options;
  options.min_protected = 2;
  for (int seed = 0; seed < kSpecSeeds; ++seed) {
    Rng spec_rng(0x3a1de0u + static_cast<uint64_t>(seed));
    SyntheticSpec spec = RandomSpec(spec_rng, options);
    spec.num_rows = 500;
    Dataset data = GenerateSynthetic(spec, 300 + seed);
    for (IbsAlgorithm algorithm :
         {IbsAlgorithm::kOptimized, IbsAlgorithm::kNaive}) {
      Hierarchy hierarchy(data);
      ASSERT_TRUE(hierarchy.EagerBuild(1).ok());
      IbsParams params = TestParams();
      params.algorithm = algorithm;
      const std::string where =
          "wide spec " + std::to_string(seed) + " algo " +
          (algorithm == IbsAlgorithm::kNaive ? "naive" : "optimized");
      EXPECT_GT(RunParityStream(hierarchy, params, kShortStreamEpochs,
                                0x3a1du + static_cast<uint64_t>(seed), where,
                                WideBatch),
                0)
          << where;
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(IbsIncrementalTest, WideBatchesOnOrdinalMetrics) {
  // T = 1.5 on an ordinal attribute: FrontierBound counts the +-1 steps
  // along the ordinal (2 values) and their combinations with a nominal
  // change, not 1 + sum (c_i - 1).
  Dataset data = OrdinalAgeDataset();
  for (IbsAlgorithm algorithm :
       {IbsAlgorithm::kOptimized, IbsAlgorithm::kNaive}) {
    Hierarchy hierarchy(data);
    ASSERT_TRUE(hierarchy.EagerBuild(1).ok());
    IbsParams params = TestParams();
    params.algorithm = algorithm;
    params.distance_threshold = 1.5;
    EXPECT_GT(RunParityStream(hierarchy, params, kShortStreamEpochs, 0x0b1d,
                              "wide ordinal", WideBatch),
              0);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(IbsIncrementalTest, WideBatchesInLeafAndTopScopes) {
  // Leaf scope: the one scored node reads its parents outside the scope.
  // Top scope: level 1 is in the whole-node regime at T = 1, so only the
  // flip-only (steady-totals) epochs take the wide path there.
  Rng spec_rng(0x3a1de5);
  SyntheticSpec spec = RandomSpec(spec_rng);
  spec.num_rows = 500;
  Dataset data = GenerateSynthetic(spec, 23);
  for (IbsScope scope : {IbsScope::kLeaf, IbsScope::kTop}) {
    for (IbsAlgorithm algorithm :
         {IbsAlgorithm::kOptimized, IbsAlgorithm::kNaive}) {
      Hierarchy hierarchy(data);
      ASSERT_TRUE(hierarchy.EagerBuild(1).ok());
      IbsParams params = TestParams();
      params.scope = scope;
      params.algorithm = algorithm;
      const std::string where =
          std::string(scope == IbsScope::kLeaf ? "wide leaf" : "wide top") +
          " scope " +
          (algorithm == IbsAlgorithm::kNaive ? "naive" : "optimized");
      EXPECT_GT(RunParityStream(hierarchy, params, kShortStreamEpochs,
                                0x3a1e0u + static_cast<uint64_t>(scope),
                                where, WideBatch),
                0)
          << where;
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// ---------------------------------------------------------------------------
// Fallback ladder + stats accounting
// ---------------------------------------------------------------------------

TEST(IbsIncrementalTest, FallbackReasonsCoverTheLadder) {
  Dataset data = remedy::testing::GridDataset({{{30, 10}, {10, 10}},
                                               {{10, 10}, {10, 10}},
                                               {{10, 10}, {10, 10}}});
  Hierarchy hierarchy(data);
  ASSERT_TRUE(hierarchy.EagerBuild(1).ok());
  IbsParams params = TestParams();
  IncrementalIbsState state;

  (void)state.Identify(hierarchy, params);
  EXPECT_FALSE(state.last_stats().incremental);
  EXPECT_EQ(state.last_fallback_reason(), "cold_cache");
  EXPECT_TRUE(state.has_cache());

  // Params change invalidates every cached verdict.
  params.imbalance_threshold = 0.3;
  (void)state.Identify(hierarchy, params);
  EXPECT_FALSE(state.last_stats().incremental);
  EXPECT_EQ(state.last_fallback_reason(), "params_changed");

  // A rebuild from the row source moves the mutation generation: the
  // interim counts changed in ways no dirty set describes.
  hierarchy.Invalidate();
  ASSERT_TRUE(hierarchy.EagerBuild(1).ok());
  (void)state.Identify(hierarchy, params);
  EXPECT_FALSE(state.last_stats().incremental);
  EXPECT_EQ(state.last_fallback_reason(), "lattice_rebuilt");

  // A different hierarchy object entirely.
  Hierarchy other(data);
  ASSERT_TRUE(other.EagerBuild(1).ok());
  (void)state.Identify(other, params);
  EXPECT_FALSE(state.last_stats().incremental);
  EXPECT_EQ(state.last_fallback_reason(), "hierarchy_swapped");

  // Explicit Invalidate (the daemon's recovery path).
  state.Invalidate("recovery");
  (void)state.Identify(other, params);
  EXPECT_FALSE(state.last_stats().incremental);
  EXPECT_EQ(state.last_fallback_reason(), "recovery");

  // With a warm cache and no interim deltas, everything serves from cache.
  std::vector<BiasedRegion> cached = state.Identify(other, params);
  EXPECT_TRUE(state.last_stats().incremental);
  EXPECT_EQ(state.last_stats().rescored_regions, 0);
  EXPECT_EQ(state.last_stats().dirty_leaves, 0);
  ExpectSameIbs(cached, FullSweep(other, params), "all-cached epoch");
  // Sticky: the incremental pass keeps the last fallback reason readable.
  EXPECT_EQ(state.last_fallback_reason(), "recovery");
}

TEST(IbsIncrementalTest, StatsAccountDirtyAndExpandedRegions) {
  Dataset data = remedy::testing::GridDataset({{{30, 10}, {10, 10}},
                                               {{10, 10}, {10, 10}},
                                               {{10, 10}, {10, 10}}});
  Hierarchy hierarchy(data);
  ASSERT_TRUE(hierarchy.EagerBuild(1).ok());
  const IbsParams params = TestParams();
  IncrementalIbsState state;
  (void)state.Identify(hierarchy, params);

  hierarchy.ApplyDeltas({{0, 2, 1}}, /*insert_missing=*/true);
  (void)state.Identify(hierarchy, params);
  const IncrementalIdentifyStats& stats = state.last_stats();
  EXPECT_TRUE(stats.incremental);
  EXPECT_EQ(stats.dirty_leaves, 1);
  // One leaf delta projects into one region per node; the leaf node also
  // pulls its T-neighborhood into the re-evaluation set.
  EXPECT_GT(stats.dirty_regions, 0);
  EXPECT_GT(stats.expanded_regions, 0);
  EXPECT_GT(stats.rescored_regions, 0);
}

// ---------------------------------------------------------------------------
// Serve wiring: daemon parity, copy-on-write census, recovery fallback
// ---------------------------------------------------------------------------

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + name + "_" + std::to_string(::getpid());
}

std::string FreshDir(const std::string& name) {
  static int counter = 0;
  const std::string dir =
      TempPath("ibs_incr_" + name + "_" + std::to_string(counter++));
  std::remove((dir + "/" + ServeDaemon::kWalFileName).c_str());
  std::remove((dir + "/" + ServeDaemon::kCheckpointFileName).c_str());
  ::rmdir(dir.c_str());
  return dir;
}

ServeOptions DaemonOptions(const std::string& dir, IdentifyMode mode) {
  ServeOptions options;
  options.state_dir = dir;
  options.identify_mode = mode;
  options.ibs.min_region_size = 2;
  options.ibs.imbalance_threshold = 0.2;
  return options;
}

// SmallSchema leaf keys: a (3 values) then b (2 values), key = a * 2 + b.
Hierarchy::LeafDelta Delta(int a, int b, int64_t dp, int64_t dn) {
  return {static_cast<uint64_t>(a * 2 + b), dp, dn};
}

TEST(IbsIncrementalServeTest, DaemonModesProduceIdenticalIbs) {
  const DataSchema schema = SmallSchema();
  auto full = ServeDaemon::Start(
      schema, DaemonOptions(FreshDir("modefull"), IdentifyMode::kFull));
  auto incremental = ServeDaemon::Start(
      schema, DaemonOptions(FreshDir("modeincr"), IdentifyMode::kIncremental));
  ASSERT_TRUE(full.ok()) << full.status();
  ASSERT_TRUE(incremental.ok()) << incremental.status();

  Rng rng(0x1ce);
  for (int batch = 0; batch < 25; ++batch) {
    std::vector<Hierarchy::LeafDelta> deltas;
    for (int a = 0; a < 3; ++a) {
      for (int b = 0; b < 2; ++b) {
        if (rng.Bernoulli(0.4)) {
          deltas.push_back(Delta(a, b, rng.UniformInt(5), rng.UniformInt(5)));
        }
      }
    }
    if (deltas.empty()) deltas.push_back(Delta(0, 0, 1, 1));
    ASSERT_TRUE(full.value()->Submit(deltas).ok());
    ASSERT_TRUE(incremental.value()->Submit(deltas).ok());
    ASSERT_TRUE(full.value()->Flush().ok());
    ASSERT_TRUE(incremental.value()->Flush().ok());
    EXPECT_EQ(full.value()->Snapshot()->counts_digest,
              incremental.value()->Snapshot()->counts_digest);
    EXPECT_EQ(IbsSetDigest(full.value()->QueryIbs()),
              IbsSetDigest(incremental.value()->QueryIbs()))
        << "identify modes diverged at batch " << batch;
  }
  EXPECT_TRUE(full.value()->Stop().ok());
  EXPECT_TRUE(incremental.value()->Stop().ok());
}

TEST(IbsIncrementalServeTest, LeafCensusIsCopiedOnWriteOnly) {
  // A publish with no committed leaf change must share the previous
  // epoch's census table instead of deep-copying it. The zero-apply epoch
  // here comes from a validation-dropped batch: duplicate keys that
  // underflow in aggregate are rejected before the WAL, but the drained
  // group still publishes.
  const DataSchema schema = SmallSchema();
  ServeOptions options =
      DaemonOptions(FreshDir("cow"), IdentifyMode::kIncremental);
  options.enable_remedy = true;  // snapshots carry the census only then
  auto daemon = ServeDaemon::Start(schema, options);
  ASSERT_TRUE(daemon.ok()) << daemon.status();

  ASSERT_TRUE(daemon.value()->Submit({Delta(0, 0, 8, 2)}).ok());
  ASSERT_TRUE(daemon.value()->Flush().ok());
  std::shared_ptr<const EpochSnapshot> applied = daemon.value()->Snapshot();
  ASSERT_NE(applied->leaf_counts, nullptr);

  ASSERT_TRUE(
      daemon.value()->Submit({Delta(0, 0, -5, 0), Delta(0, 0, -5, 0)}).ok());
  ASSERT_TRUE(daemon.value()->Flush().ok());
  std::shared_ptr<const EpochSnapshot> dropped = daemon.value()->Snapshot();
  EXPECT_GT(dropped->epoch, applied->epoch);
  EXPECT_EQ(dropped->leaf_counts.get(), applied->leaf_counts.get())
      << "a no-change epoch deep-copied the leaf census";

  // A committed change must produce a fresh table (and fresh contents).
  ASSERT_TRUE(daemon.value()->Submit({Delta(1, 1, 3, 3)}).ok());
  ASSERT_TRUE(daemon.value()->Flush().ok());
  std::shared_ptr<const EpochSnapshot> changed = daemon.value()->Snapshot();
  EXPECT_NE(changed->leaf_counts.get(), dropped->leaf_counts.get());
  EXPECT_EQ(changed->leaf_counts->at(static_cast<uint64_t>(3)).positives, 3);
  EXPECT_TRUE(daemon.value()->Stop().ok());
}

// Pulls "key":"value" or "key":value out of the daemon's health JSON.
std::string HealthField(const std::string& json, const std::string& key) {
  const std::string quoted = "\"" + key + "\":";
  const size_t at = json.find(quoted);
  if (at == std::string::npos) return "";
  size_t begin = at + quoted.size();
  size_t end;
  if (json[begin] == '"') {
    ++begin;
    end = json.find('"', begin);
  } else {
    end = json.find_first_of(",}", begin);
  }
  return json.substr(begin, end - begin);
}

TEST(IbsIncrementalServeTest, RecoveryForcesFullIdentifyThenIncremental) {
  const DataSchema schema = SmallSchema();
  const std::string dir = FreshDir("recovery");
  {
    auto daemon = ServeDaemon::Start(
        schema, DaemonOptions(dir, IdentifyMode::kIncremental));
    ASSERT_TRUE(daemon.ok()) << daemon.status();
    // A cold start is a full pass too, and says so.
    EXPECT_EQ(HealthField(daemon.value()->HealthJson(), "identify_mode"),
              "incremental");
    EXPECT_EQ(HealthField(daemon.value()->HealthJson(), "fallback_reason"),
              "cold_start");

    ASSERT_TRUE(daemon.value()->Submit({Delta(0, 0, 6, 2)}).ok());
    ASSERT_TRUE(daemon.value()->Flush().ok());
    const std::string health = daemon.value()->HealthJson();
    EXPECT_EQ(HealthField(health, "last_epoch_incremental"), "true")
        << health;

    // Kill: the shutdown checkpoint fails, stranding the WAL for replay —
    // the state a SIGKILL leaves behind.
    FaultInjector injector;
    injector.FailAlways("wal/fsync");
    EXPECT_FALSE(daemon.value()->Stop().ok());
  }
  auto daemon = ServeDaemon::Start(
      schema, DaemonOptions(dir, IdentifyMode::kIncremental));
  ASSERT_TRUE(daemon.ok()) << daemon.status();
  // WAL replay rebuilt the lattice behind the incremental state's back:
  // the first post-recovery identify must be a full sweep and say why.
  std::string health = daemon.value()->HealthJson();
  EXPECT_EQ(HealthField(health, "fallback_reason"), "recovery") << health;
  EXPECT_EQ(HealthField(health, "last_epoch_incremental"), "false") << health;
  EXPECT_EQ(daemon.value()->Snapshot()->totals.positives, 6);

  // The very next committed epoch identifies incrementally again.
  ASSERT_TRUE(daemon.value()->Submit({Delta(2, 1, 1, 4)}).ok());
  ASSERT_TRUE(daemon.value()->Flush().ok());
  health = daemon.value()->HealthJson();
  EXPECT_EQ(HealthField(health, "last_epoch_incremental"), "true") << health;
  EXPECT_EQ(HealthField(health, "fallback_reason"), "recovery") << health;
  EXPECT_TRUE(daemon.value()->Stop().ok());
}

}  // namespace
}  // namespace remedy
