#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/hierarchy.h"
#include "core/ibs_identify.h"
#include "core/imbalance.h"
#include "datagen/adult.h"
#include "test_util.h"

namespace remedy {
namespace {

using ::remedy::testing::GridDataset;
using ::remedy::testing::SmallSchema;

// A grid with one strongly skewed cell (a0, b0): ratio 4.0 vs balanced
// neighbors at ratio ~1.0.
Dataset PlantedBias() {
  return GridDataset({{{200, 50}, {50, 50}},
                      {{50, 50}, {50, 50}},
                      {{50, 50}, {50, 50}}});
}

TEST(IbsIdentifyTest, FindsPlantedBiasedRegion) {
  IbsParams params;
  params.imbalance_threshold = 1.0;
  std::vector<BiasedRegion> ibs = IdentifyIbs(PlantedBias(), params).value();
  ASSERT_FALSE(ibs.empty());
  bool found = false;
  for (const BiasedRegion& region : ibs) {
    if (region.pattern == Pattern({0, 0})) {
      found = true;
      EXPECT_DOUBLE_EQ(region.ratio, 4.0);
      EXPECT_NEAR(region.neighbor_ratio, 1.0, 0.01);
      EXPECT_EQ(region.counts.positives, 200);
      EXPECT_EQ(region.counts.negatives, 50);
    }
  }
  EXPECT_TRUE(found);
}

TEST(IbsIdentifyTest, BalancedDataHasNoIbs) {
  Dataset data = GridDataset({{{50, 50}, {50, 50}},
                              {{50, 50}, {50, 50}},
                              {{50, 50}, {50, 50}}});
  IbsParams params;
  params.imbalance_threshold = 0.1;
  EXPECT_TRUE(IdentifyIbs(data, params).value().empty());
}

TEST(IbsIdentifyTest, SizeFilterSkipsSmallRegions) {
  // The skewed cell has only 20 instances; k = 30 must skip it.
  Dataset data = GridDataset({{{18, 2}, {50, 50}},
                              {{50, 50}, {50, 50}},
                              {{50, 50}, {50, 50}}});
  IbsParams params;
  params.imbalance_threshold = 0.5;
  params.min_region_size = 30;
  for (const BiasedRegion& region : IdentifyIbs(data, params).value()) {
    EXPECT_NE(region.pattern, Pattern({0, 0}));
  }
  params.min_region_size = 10;
  std::vector<BiasedRegion> ibs = IdentifyIbs(data, params).value();
  bool found = std::any_of(ibs.begin(), ibs.end(), [](const BiasedRegion& r) {
    return r.pattern == Pattern({0, 0});
  });
  EXPECT_TRUE(found);
}

TEST(IbsIdentifyTest, ThresholdControlsSensitivity) {
  Dataset data = PlantedBias();
  IbsParams loose;
  loose.imbalance_threshold = 0.05;
  IbsParams tight;
  tight.imbalance_threshold = 5.0;
  EXPECT_GE(IdentifyIbs(data, loose).value().size(),
            IdentifyIbs(data, tight).value().size());
  EXPECT_TRUE(IdentifyIbs(data, tight).value().empty());
}

TEST(IbsIdentifyTest, LeafScopeOnlyLeafLevel) {
  IbsParams params;
  params.imbalance_threshold = 0.3;
  params.scope = IbsScope::kLeaf;
  for (const BiasedRegion& region : IdentifyIbs(PlantedBias(), params).value()) {
    EXPECT_EQ(region.pattern.NumDeterministic(), 2);
  }
}

TEST(IbsIdentifyTest, TopScopeOnlyLevelOne) {
  IbsParams params;
  params.imbalance_threshold = 0.05;
  params.scope = IbsScope::kTop;
  std::vector<BiasedRegion> ibs = IdentifyIbs(PlantedBias(), params).value();
  for (const BiasedRegion& region : ibs) {
    EXPECT_EQ(region.pattern.NumDeterministic(), 1);
  }
  // The a0 marginal (250 pos / 100 neg vs others ~1.0) must show up.
  bool found = std::any_of(ibs.begin(), ibs.end(), [](const BiasedRegion& r) {
    return r.pattern == Pattern({0, Pattern::kWildcard});
  });
  EXPECT_TRUE(found);
}

TEST(IbsIdentifyTest, LatticeScopeIsSupersetOfLeafAndTop) {
  IbsParams params;
  params.imbalance_threshold = 0.3;
  std::vector<BiasedRegion> lattice = IdentifyIbs(PlantedBias(), params).value();
  params.scope = IbsScope::kLeaf;
  std::vector<BiasedRegion> leaf = IdentifyIbs(PlantedBias(), params).value();
  params.scope = IbsScope::kTop;
  std::vector<BiasedRegion> top = IdentifyIbs(PlantedBias(), params).value();
  EXPECT_EQ(lattice.size(), leaf.size() + top.size());
}

TEST(IbsIdentifyTest, AllPositiveRegionUsesSentinel) {
  Dataset data = GridDataset({{{60, 0}, {30, 30}},
                              {{30, 30}, {30, 30}},
                              {{30, 30}, {30, 30}}});
  IbsParams params;
  params.imbalance_threshold = 1.0;
  std::vector<BiasedRegion> ibs = IdentifyIbs(data, params).value();
  bool found = false;
  for (const BiasedRegion& region : ibs) {
    if (region.pattern == Pattern({0, 0})) {
      found = true;
      EXPECT_DOUBLE_EQ(region.ratio, kAllPositiveRatio);
    }
  }
  // |(-1) - ~1.0| = 2 > 1: the sentinel makes the region biased.
  EXPECT_TRUE(found);
}

TEST(IbsIdentifyTest, DominatesAnyBiasedRegion) {
  IbsParams params;
  params.imbalance_threshold = 1.0;
  std::vector<BiasedRegion> ibs = IdentifyIbs(PlantedBias(), params).value();
  // (a=0) dominates the biased (a0, b0).
  EXPECT_TRUE(
      DominatesAnyBiasedRegion(Pattern({0, Pattern::kWildcard}), ibs));
  EXPECT_FALSE(
      DominatesAnyBiasedRegion(Pattern({2, Pattern::kWildcard}), ibs));
}

// Property: naive and optimized algorithms find identical IBS on random
// data, for T = 1 and for the whole-node regime.
class IbsAlgorithmEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(IbsAlgorithmEquivalenceTest, NaiveEqualsOptimized) {
  auto [seed, distance_threshold] = GetParam();
  Rng rng(seed);
  Dataset data(SmallSchema());
  for (int i = 0; i < 400; ++i) {
    int a = rng.UniformInt(3), b = rng.UniformInt(2);
    // Skew some cells so the IBS is non-trivial.
    double p = (a == 0 && b == 0) ? 0.8 : (a == 2 ? 0.2 : 0.5);
    data.AddRow({a, b, rng.UniformInt(2)}, rng.Bernoulli(p) ? 1 : 0);
  }
  IbsParams params;
  params.imbalance_threshold = 0.2;
  params.min_region_size = 10;
  params.distance_threshold = distance_threshold;
  params.algorithm = IbsAlgorithm::kNaive;
  std::vector<BiasedRegion> naive = IdentifyIbs(data, params).value();
  params.algorithm = IbsAlgorithm::kOptimized;
  std::vector<BiasedRegion> optimized = IdentifyIbs(data, params).value();
  ASSERT_EQ(naive.size(), optimized.size());
  for (size_t i = 0; i < naive.size(); ++i) {
    EXPECT_EQ(naive[i].pattern, optimized[i].pattern);
    EXPECT_EQ(naive[i].neighbor_counts, optimized[i].neighbor_counts);
    EXPECT_DOUBLE_EQ(naive[i].neighbor_ratio, optimized[i].neighbor_ratio);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndThresholds, IbsAlgorithmEquivalenceTest,
    ::testing::Combine(::testing::Range(0, 6),
                       ::testing::Values(1.0, 2.0)));

// The Fig. 9 workload end to end: on Adult widened to |X| = 3..8, the naive
// and optimized identification must produce field-for-field identical IBS.
// Combined with the rollup-vs-scan equivalence in region_counter_test, this
// pins the counting engine to the per-node-scan reference behavior.
TEST(IbsIdentifyTest, AdultScalabilityNaiveEqualsOptimized) {
#ifdef REMEDY_TSAN_BUILD
  GTEST_SKIP() << "45k-row dataset sweep is too slow under TSan";
#endif
  Dataset base = MakeAdult();
  for (int count = 3; count <= 8; ++count) {
    Dataset data = base;
    data.SetProtected(AdultScalabilityProtected(count));
    IbsParams params;
    params.imbalance_threshold = 0.5;
    params.algorithm = IbsAlgorithm::kNaive;
    std::vector<BiasedRegion> naive = IdentifyIbs(data, params).value();
    params.algorithm = IbsAlgorithm::kOptimized;
    std::vector<BiasedRegion> optimized = IdentifyIbs(data, params).value();
    ASSERT_EQ(naive.size(), optimized.size()) << "|X| = " << count;
    for (size_t i = 0; i < naive.size(); ++i) {
      EXPECT_EQ(naive[i].pattern, optimized[i].pattern);
      EXPECT_EQ(naive[i].counts, optimized[i].counts);
      EXPECT_EQ(naive[i].neighbor_counts, optimized[i].neighbor_counts);
      EXPECT_DOUBLE_EQ(naive[i].ratio, optimized[i].ratio);
      EXPECT_DOUBLE_EQ(naive[i].neighbor_ratio, optimized[i].neighbor_ratio);
    }
  }
}

// ---------------------------------------------------------------------------
// NodeSweep differential tests: the whole-node sweep against two oracles —
// the per-region route (NeighborhoodCalculator::OptimizedNeighborCounts on
// a Pattern, which packs and binary-searches each parent key; the naive
// enumeration where the optimized route does not apply) and, on lattices
// small enough, a row-scan brute force of Definitions 4-5 in the manner of
// tests/oracle_test.cc.
// ---------------------------------------------------------------------------

// A random nominal (or, with `ordinal`, partly ordinal) dataset whose
// protected attributes have the given cardinalities. Values lean towards
// low codes, so some regions pass a small size filter even when the key
// space dwarfs the row count, and the label leans on the first two
// attributes, so the IBS is not empty.
Dataset RandomLatticeData(uint64_t seed, const std::vector<int>& cards,
                          int rows, bool ordinal = false) {
  std::vector<AttributeSchema> attributes;
  std::vector<int> protected_indices;
  for (size_t i = 0; i < cards.size(); ++i) {
    std::vector<std::string> values;
    for (int v = 0; v < cards[i]; ++v) {
      values.push_back("p" + std::to_string(i) + "_" + std::to_string(v));
    }
    attributes.emplace_back("p" + std::to_string(i), std::move(values),
                            ordinal && i % 2 == 0);
    protected_indices.push_back(static_cast<int>(i));
  }
  attributes.emplace_back("f", std::vector<std::string>{"f0", "f1"});
  Dataset data(DataSchema(std::move(attributes), protected_indices));
  Rng rng(seed);
  std::vector<int> row(cards.size() + 1);
  for (int r = 0; r < rows; ++r) {
    for (size_t i = 0; i < cards.size(); ++i) {
      row[i] = std::min(rng.UniformInt(cards[i]), rng.UniformInt(cards[i]));
    }
    row[cards.size()] = rng.UniformInt(2);
    const double p = 0.2 + 0.5 * (row[0] % 2) + 0.2 * (row[1] == 0);
    data.AddRow(row, rng.Bernoulli(p) ? 1 : 0);
  }
  return data;
}

// The per-region oracle of node `mask`: each region's neighbor counts by
// the Pattern route, judged by JudgeRegion.
std::vector<BiasedRegion> PerRegionOracle(Hierarchy& hierarchy,
                                          uint32_t mask,
                                          const IbsParams& params) {
  NeighborhoodCalculator neighborhood(hierarchy, params.distance_threshold);
  const bool optimized = params.algorithm == IbsAlgorithm::kOptimized &&
                         neighborhood.SupportsOptimized(mask);
  std::vector<BiasedRegion> biased;
  for (const auto& [key, counts] : hierarchy.NodeCounts(mask)) {
    if (counts.Total() <= params.min_region_size) continue;
    const Pattern pattern = hierarchy.counter().PatternFor(key, mask);
    const RegionCounts neighbor_counts =
        optimized ? neighborhood.OptimizedNeighborCounts(pattern, counts)
                  : neighborhood.NaiveNeighborCounts(pattern);
    BiasedRegion region;
    if (JudgeRegion(hierarchy.counter(), mask, key, counts, neighbor_counts,
                    params, &region) == RegionVerdict::kBiased) {
      biased.push_back(region);
    }
  }
  return biased;
}

// The brute force of node `mask`: every populated region's counts and its
// neighboring region's (every row of another same-node region within
// distance T) by scanning the rows. "Within T" is the library's budget,
// restated: squared distance at most T^2 + 1e-9.
std::vector<BiasedRegion> BruteForceNode(const Dataset& data,
                                         const RegionCounter& counter,
                                         uint32_t mask,
                                         const IbsParams& params) {
  const DataSchema& schema = data.schema();
  const int arity = schema.NumProtected();
  const double budget =
      params.distance_threshold * params.distance_threshold + 1e-9;
  auto squared_distance = [&schema, arity](const Pattern& a,
                                           const Pattern& b) {
    double squared = 0.0;
    for (int i = 0; i < arity; ++i) {
      if (!a.IsDeterministic(i)) continue;
      const double d = schema.attribute(schema.protected_indices()[i])
                           .Distance(a.Value(i), b.Value(i));
      squared += d * d;
    }
    return squared;
  };
  auto row_pattern = [&](int r) {
    Pattern pattern(arity);
    for (int i = 0; i < arity; ++i) {
      if (mask & (1u << i)) {
        pattern.SetValue(i, data.Value(r, schema.protected_indices()[i]));
      }
    }
    return pattern;
  };
  std::map<uint64_t, Pattern> regions;
  for (int r = 0; r < data.NumRows(); ++r) {
    const Pattern pattern = row_pattern(r);
    regions.emplace(counter.KeyFor(pattern, mask), pattern);
  }
  std::vector<BiasedRegion> biased;
  for (const auto& [key, pattern] : regions) {
    RegionCounts counts;
    RegionCounts neighbor_counts;
    for (int r = 0; r < data.NumRows(); ++r) {
      const Pattern other = row_pattern(r);
      RegionCounts* into = &counts;
      if (other != pattern) {
        if (squared_distance(pattern, other) > budget) continue;
        into = &neighbor_counts;
      }
      ++(data.Label(r) == 1 ? into->positives : into->negatives);
    }
    if (counts.Total() <= params.min_region_size) continue;
    const double ratio = ImbalanceScore(counts);
    const double neighbor_ratio = ImbalanceScore(neighbor_counts);
    if (std::abs(ratio - neighbor_ratio) > params.imbalance_threshold) {
      biased.push_back(BiasedRegion{pattern, key, counts, neighbor_counts,
                                    ratio, neighbor_ratio});
    }
  }
  return biased;
}

// Field-for-field equality, ratios compared exactly.
void ExpectSameRegions(const std::vector<BiasedRegion>& actual,
                       const std::vector<BiasedRegion>& expected,
                       const std::string& context) {
  ASSERT_EQ(actual.size(), expected.size()) << context;
  for (size_t i = 0; i < actual.size(); ++i) {
    const BiasedRegion& a = actual[i];
    const BiasedRegion& e = expected[i];
    EXPECT_EQ(a.key, e.key) << context;
    EXPECT_EQ(a.pattern, e.pattern) << context;
    EXPECT_EQ(a.counts, e.counts) << context;
    EXPECT_EQ(a.neighbor_counts, e.neighbor_counts) << context;
    EXPECT_EQ(std::bit_cast<uint64_t>(a.ratio),
              std::bit_cast<uint64_t>(e.ratio))
        << context;
    EXPECT_EQ(std::bit_cast<uint64_t>(a.neighbor_ratio),
              std::bit_cast<uint64_t>(e.neighbor_ratio))
        << context;
  }
}

// Sweeps every node of `masks` with one NodeSweep (so its sum buffer is
// reused across nodes of different sizes) and checks each node against the
// per-region oracle — and against the brute force when `data` is given.
// Returns the number of biased regions, so callers can insist the check
// was not vacuous.
size_t CheckSweep(Hierarchy& hierarchy, const std::vector<uint32_t>& masks,
                  const IbsParams& params, const Dataset* data,
                  const std::string& context) {
  NodeSweep sweep(hierarchy, params);
  size_t found = 0;
  for (uint32_t mask : masks) {
    const std::string where = context + " mask " + std::to_string(mask);
    std::vector<BiasedRegion> swept;
    sweep.Sweep(mask, &swept);
    ExpectSameRegions(swept, PerRegionOracle(hierarchy, mask, params), where);
    if (data != nullptr) {
      ExpectSameRegions(
          swept, BruteForceNode(*data, hierarchy.counter(), mask, params),
          where + " (brute force)");
    }
    found += swept.size();
  }
  return found;
}

IbsParams SweepParams(double distance_threshold) {
  IbsParams params;
  params.imbalance_threshold = 0.1;
  params.min_region_size = 4;
  params.distance_threshold = distance_threshold;
  return params;
}

// Random schemas of 2-8 protected attributes: even seeds dense (small
// cardinalities, rows well above the leaf key space), odd seeds sparse
// (cardinalities up to 41, most leaves empty). T = 1 runs the parent-sum
// walk; T = |X| >= every node's diameter runs the whole-node regime; T just
// below 1, past the budget's slack, admits no unit step, so every node
// takes the naive walk.
class NodeSweepDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(NodeSweepDifferentialTest, MatchesPerRegionRouteAndBruteForce) {
  const int seed = GetParam();
  Rng rng(1000 + seed);
  const int num_protected = 2 + seed % 7;
  const bool dense = seed % 2 == 0;
  std::vector<int> cards(num_protected);
  for (int& card : cards) {
    card = dense ? 2 + rng.UniformInt(4) : 2 + rng.UniformInt(40);
  }
  if (!dense) cards[0] = 41;
  const Dataset data =
      RandomLatticeData(seed, cards, dense ? 1500 : 1000);
  Hierarchy hierarchy(data);
  // The brute force scans rows per region; keep it to the small lattices.
  const Dataset* brute = num_protected <= (dense ? 4 : 3) ? &data : nullptr;
  const std::string context = "seed " + std::to_string(seed);
  for (double t : {1.0, 1.0 - 6e-10, static_cast<double>(num_protected)}) {
    const IbsParams params = SweepParams(t);
    EXPECT_GT(CheckSweep(hierarchy, hierarchy.BottomUpMasks(), params, brute,
                         context + " T " + std::to_string(t)),
              0u);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSchemas, NodeSweepDifferentialTest,
                         ::testing::Range(0, 14));

TEST(NodeSweepTest, OrdinalAttributesTakeTheNaivePath) {
  // Every other protected attribute is ordinal: nodes holding one score
  // each region by naive enumeration, the others by the parent-sum walk,
  // in one pass.
  const Dataset data = RandomLatticeData(7, {5, 3, 4, 2}, 1200,
                                         /*ordinal=*/true);
  Hierarchy hierarchy(data);
  for (double t : {1.0, 1.5}) {
    IbsParams params = SweepParams(t);
    EXPECT_GT(CheckSweep(hierarchy, hierarchy.BottomUpMasks(), params, &data,
                         "ordinal T " + std::to_string(t)),
              0u);
    params.algorithm = IbsAlgorithm::kNaive;
    CheckSweep(hierarchy, hierarchy.BottomUpMasks(), params, &data,
               "ordinal naive T " + std::to_string(t));
  }
}

TEST(NodeSweepTest, SizeFilterBoundary) {
  // (a0, b0) holds 250 instances: a region is scored only when it holds
  // more than min_region_size.
  const Dataset data = PlantedBias();
  Hierarchy hierarchy(data);
  IbsParams params;
  params.imbalance_threshold = 1.0;
  const uint32_t leaf = hierarchy.LeafMask();
  const uint64_t key = hierarchy.counter().KeyFor(Pattern({0, 0}), leaf);
  ASSERT_EQ(hierarchy.NodeCounts(leaf).at(key).Total(), 250);
  for (int k : {249, 250}) {
    params.min_region_size = k;
    NodeSweep sweep(hierarchy, params);
    std::vector<BiasedRegion> swept;
    const int64_t scored = sweep.Sweep(leaf, &swept);
    ExpectSameRegions(swept, PerRegionOracle(hierarchy, leaf, params),
                      "k " + std::to_string(k));
    ExpectSameRegions(swept,
                      BruteForceNode(data, hierarchy.counter(), leaf, params),
                      "k " + std::to_string(k) + " (brute force)");
    const bool kept = std::any_of(
        swept.begin(), swept.end(),
        [&](const BiasedRegion& region) { return region.key == key; });
    EXPECT_EQ(kept, k == 249);
    EXPECT_EQ(scored, k == 249 ? 1 : 0);
  }
}

TEST(NodeSweepTest, CountSeededLatticeWithZeroCountEntries) {
  // A count-seeded lattice whose deltas empty some leaves: ApplyDeltas
  // keeps their entries (and every ancestor's) at zero, and the walk must
  // step over them exactly as the per-region searches do. With
  // min_region_size = -1 the empty regions are scored too.
  const Dataset data = RandomLatticeData(11, {3, 4, 2, 3}, 800);
  Hierarchy source(data);
  const uint32_t leaf = source.LeafMask();
  const NodeTable leaves = source.NodeCounts(leaf);
  Hierarchy hierarchy(data.schema(), leaves, source.TotalCounts());
  ASSERT_TRUE(hierarchy.EagerBuild(1).ok());
  std::vector<Hierarchy::LeafDelta> deltas;
  int emptied = 0;
  for (const auto& [key, counts] : leaves) {
    if (key % 3 == 0) {
      deltas.push_back({key, -counts.positives, -counts.negatives});
      ++emptied;
    } else if (key % 3 == 1 && counts.negatives > 0) {
      deltas.push_back({key, 2, -1});
    }
  }
  ASSERT_GT(emptied, 0);
  hierarchy.ApplyDeltas(deltas);
  size_t zero_entries = 0;
  for (uint32_t mask : hierarchy.BottomUpMasks()) {
    for (const auto& [key, counts] : hierarchy.NodeCounts(mask)) {
      zero_entries += counts.Total() == 0;
    }
  }
  ASSERT_GT(zero_entries, 0u);
  for (int k : {4, 0, -1}) {
    IbsParams params = SweepParams(1.0);
    params.min_region_size = k;
    EXPECT_GT(CheckSweep(hierarchy, hierarchy.BottomUpMasks(), params,
                         nullptr, "k " + std::to_string(k)),
              0u);
  }
}

TEST(NodeSweepTest, KeySpacePast32Bits) {
  // Seven attributes of cardinality 41: the leaf key space is 41^7 ~ 2^37,
  // and every row with a nonzero first code has a key past 2^32.
  const Dataset data = RandomLatticeData(5, std::vector<int>(7, 41), 1500);
  Hierarchy hierarchy(data);
  const uint32_t leaf = hierarchy.LeafMask();
  ASSERT_GT(hierarchy.counter().KeySpace(leaf), uint64_t{1} << 32);
  ASSERT_GT(hierarchy.NodeCounts(leaf).entries().back().first,
            uint64_t{UINT32_MAX});
  IbsParams params = SweepParams(1.0);
  params.min_region_size = 1;
  EXPECT_GT(CheckSweep(hierarchy, hierarchy.BottomUpMasks(), params, nullptr,
                       "wide keys"),
            0u);
}

TEST(NodeSweepTest, LeafAndTopScopes) {
  // Leaf and Top sweeps on a lazily built lattice: the Leaf sweep builds
  // its parent nodes on demand, the Top sweep's one parent is level 0.
  const Dataset data = RandomLatticeData(3, {4, 3, 5}, 1500);
  for (IbsScope scope : {IbsScope::kLeaf, IbsScope::kTop}) {
    IbsParams params = SweepParams(1.0);
    params.scope = scope;
    Hierarchy hierarchy(data);
    const std::vector<uint32_t> masks = ScopeMasks(hierarchy, scope);
    EXPECT_GT(CheckSweep(hierarchy, masks, params, &data, "scope"), 0u);
    // IdentifyIbs runs the same sweep over the scope.
    Hierarchy fresh(data);
    std::vector<BiasedRegion> expected;
    for (uint32_t mask : masks) {
      for (auto& entry : PerRegionOracle(fresh, mask, params)) {
        expected.push_back(std::move(entry));
      }
    }
    const std::vector<BiasedRegion> ibs = IdentifyIbs(data, params).value();
    ASSERT_EQ(ibs.size(), expected.size());
    for (size_t i = 0; i < ibs.size(); ++i) {
      EXPECT_EQ(ibs[i].pattern, expected[i].pattern);
      EXPECT_EQ(ibs[i].neighbor_counts, expected[i].neighbor_counts);
    }
  }
}

TEST(NodeSweepTest, LevelOneNodesJustBelowUnitDistance) {
  // One budget decides both predicates. Within its slack below 1 a level-1
  // node (diameter one unit step) is in the whole-node regime; further
  // below, the budget admits no unit step and no node takes an optimized
  // path. The sweep matches the per-region route either way.
  const Dataset data = RandomLatticeData(9, {4, 3, 5}, 1500);
  Hierarchy hierarchy(data);
  for (double t : {1.0 - 4e-10, 1.0 - 6e-10}) {
    const bool within_slack = t > 1.0 - 5e-10;
    NeighborhoodCalculator neighborhood(hierarchy, t);
    EXPECT_EQ(neighborhood.SupportsOptimized(0b1), within_slack) << t;
    EXPECT_EQ(neighborhood.WholeNodeNeighborhood(0b1), within_slack) << t;
    EXPECT_EQ(neighborhood.SupportsOptimized(0b11), within_slack) << t;
    CheckSweep(hierarchy, ScopeMasks(hierarchy, IbsScope::kTop),
               SweepParams(t), nullptr, "just below 1");
  }
}

TEST(IbsIdentifyTest, NaiveAndOptimizedAgreeJustAroundUnitDistance) {
  // (a0, b0)'s three unit-distance neighbors hold (6, 24). Just below 1
  // the budget admits no unit step, so neither strategy may count them;
  // just above, both must. A T within 1e-9 of 1 once took the optimized
  // path while the naive walk's budget dropped the unit steps: at
  // T = 1 - 6e-10 this probe read optimized (6, 24) against naive (0, 0).
  const Dataset data = GridDataset({{{8, 2}, {2, 8}},
                                    {{2, 8}, {5, 5}},
                                    {{2, 8}, {5, 5}}});
  Hierarchy hierarchy(data);
  for (double t : {1.0 - 6e-10, 1.0, 1.0 + 6e-10}) {
    NeighborhoodCalculator neighborhood(hierarchy, t);
    const RegionCounts expected =
        t < 1.0 ? RegionCounts{} : RegionCounts{6, 24};
    EXPECT_EQ(neighborhood.NaiveNeighborCounts(Pattern({0, 0})), expected)
        << t;
    if (neighborhood.SupportsOptimized(0b11)) {
      EXPECT_EQ(neighborhood.OptimizedNeighborCounts(Pattern({0, 0}),
                                                     RegionCounts{8, 2}),
                expected)
          << t;
    }
    IbsParams params;
    params.imbalance_threshold = 0.5;
    params.min_region_size = 1;
    params.distance_threshold = t;
    params.algorithm = IbsAlgorithm::kNaive;
    const std::vector<BiasedRegion> naive = IdentifyIbs(data, params).value();
    params.algorithm = IbsAlgorithm::kOptimized;
    const std::vector<BiasedRegion> optimized =
        IdentifyIbs(data, params).value();
    ASSERT_EQ(naive.size(), optimized.size()) << t;
    for (size_t i = 0; i < naive.size(); ++i) {
      EXPECT_EQ(naive[i].pattern, optimized[i].pattern) << t;
      EXPECT_EQ(naive[i].neighbor_counts, optimized[i].neighbor_counts) << t;
    }
    if (t >= 1.0) {
      EXPECT_TRUE(std::any_of(optimized.begin(), optimized.end(),
                              [](const BiasedRegion& r) {
                                return r.pattern == Pattern({0, 0});
                              }))
          << t;
    }
  }
}

TEST(NodeSweepDeathTest, MissingParentProjectionDies) {
  // A two-node lattice over (a, b) -> (a) whose parent lacks a1, the
  // projection of the child's (a1, b1): a parent contains its child, so
  // this is corrupt state, and the walk stops in every build type.
  const RegionCounter counter(SmallSchema());
  const NodeTable child(
      {{counter.KeyFor(Pattern({0, 0}), 0b11), RegionCounts{3, 1}},
       {counter.KeyFor(Pattern({1, 1}), 0b11), RegionCounts{2, 2}}});
  const NodeTable parent(
      {{counter.KeyFor(Pattern({0, Pattern::kWildcard}), 0b01),
        RegionCounts{3, 1}}});
  std::vector<RegionCounts> sums(child.size());
  EXPECT_DEATH(
      counter.AddParentCounts(child.entries(), 0b11, parent.entries(), 0b01,
                              sums.data()),
      "parent node lacks the projection");
}

}  // namespace
}  // namespace remedy
