#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "core/imbalance.h"
#include "test_util.h"

namespace remedy {
namespace {

using ::remedy::testing::GridDataset;

TEST(ImbalanceScoreTest, RatioOfPositivesToNegatives) {
  EXPECT_DOUBLE_EQ(ImbalanceScore(882, 397), 882.0 / 397.0);  // Example 4
  EXPECT_DOUBLE_EQ(ImbalanceScore(0, 5), 0.0);
  EXPECT_DOUBLE_EQ(ImbalanceScore(RegionCounts{3, 6}), 0.5);
}

TEST(ImbalanceScoreTest, AllPositiveSentinel) {
  EXPECT_DOUBLE_EQ(ImbalanceScore(7, 0), kAllPositiveRatio);
  EXPECT_DOUBLE_EQ(ImbalanceScore(0, 0), kAllPositiveRatio);
}

TEST(NeighborhoodTest, NaiveNeighborsAtDistanceOne) {
  // 3x2 grid; region (a0, b0) has T=1 neighbors (a1,b0), (a2,b0), (a0,b1).
  Dataset data = GridDataset({{{2, 3}, {1, 2}},
                              {{4, 1}, {5, 5}},
                              {{1, 1}, {3, 2}}});
  Hierarchy hierarchy(data);
  NeighborhoodCalculator neighborhood(hierarchy, 1.0);
  RegionCounts counts = neighborhood.NaiveNeighborCounts(Pattern({0, 0}));
  EXPECT_EQ(counts.positives, 4 + 1 + 1);
  EXPECT_EQ(counts.negatives, 1 + 1 + 2);
}

TEST(NeighborhoodTest, NaiveExcludesRegionItself) {
  Dataset data = GridDataset({{{10, 10}, {1, 1}},
                              {{1, 1}, {1, 1}},
                              {{1, 1}, {1, 1}}});
  Hierarchy hierarchy(data);
  NeighborhoodCalculator neighborhood(hierarchy, 1.0);
  RegionCounts counts = neighborhood.NaiveNeighborCounts(Pattern({0, 0}));
  // (a0,b0)'s own 10/10 must not appear.
  EXPECT_EQ(counts.positives, 3);
  EXPECT_EQ(counts.negatives, 3);
}

TEST(NeighborhoodTest, LargeTCoversWholeNode) {
  Dataset data = GridDataset({{{2, 3}, {1, 2}},
                              {{4, 1}, {5, 5}},
                              {{1, 1}, {3, 2}}});
  Hierarchy hierarchy(data);
  // T = sqrt(2) covers the node diameter of a 2-attribute nominal node.
  NeighborhoodCalculator neighborhood(hierarchy, 2.0);
  RegionCounts counts = neighborhood.NaiveNeighborCounts(Pattern({1, 1}));
  EXPECT_EQ(counts.positives, data.PositiveCount() - 5);
  EXPECT_EQ(counts.negatives, data.NegativeCount() - 5);
}

TEST(NeighborhoodTest, OptimizedMatchesNaiveAtTOne) {
  Dataset data = GridDataset({{{2, 3}, {1, 2}},
                              {{4, 1}, {5, 5}},
                              {{1, 1}, {3, 2}}});
  Hierarchy hierarchy(data);
  NeighborhoodCalculator neighborhood(hierarchy, 1.0);
  const auto& node = hierarchy.NodeCounts(0b11);
  for (int a = 0; a < 3; ++a) {
    for (int b = 0; b < 2; ++b) {
      Pattern pattern({a, b});
      RegionCounts region =
          node.at(hierarchy.counter().KeyFor(pattern, 0b11));
      RegionCounts naive = neighborhood.NaiveNeighborCounts(pattern);
      RegionCounts optimized =
          neighborhood.OptimizedNeighborCounts(pattern, region);
      EXPECT_EQ(naive, optimized) << "(" << a << "," << b << ")";
    }
  }
}

TEST(NeighborhoodTest, OptimizedMatchesNaiveAtLevelOne) {
  Dataset data = GridDataset({{{2, 3}, {1, 2}},
                              {{4, 1}, {5, 5}},
                              {{1, 1}, {3, 2}}});
  Hierarchy hierarchy(data);
  NeighborhoodCalculator neighborhood(hierarchy, 1.0);
  const auto& node = hierarchy.NodeCounts(0b01);
  for (int a = 0; a < 3; ++a) {
    Pattern pattern({a, Pattern::kWildcard});
    RegionCounts region = node.at(hierarchy.counter().KeyFor(pattern, 0b01));
    EXPECT_EQ(neighborhood.NaiveNeighborCounts(pattern),
              neighborhood.OptimizedNeighborCounts(pattern, region));
  }
}

TEST(NeighborhoodTest, OptimizedLargeTUsesNodeComplement) {
  Dataset data = GridDataset({{{2, 3}, {1, 2}},
                              {{4, 1}, {5, 5}},
                              {{1, 1}, {3, 2}}});
  Hierarchy hierarchy(data);
  NeighborhoodCalculator neighborhood(hierarchy, 2.0);  // T = |X| regime
  Pattern pattern({1, 1});
  RegionCounts region{5, 5};
  RegionCounts counts =
      neighborhood.OptimizedNeighborCounts(pattern, region);
  EXPECT_EQ(counts.positives, data.PositiveCount() - 5);
  EXPECT_EQ(counts.negatives, data.NegativeCount() - 5);
  EXPECT_EQ(counts, neighborhood.NaiveNeighborCounts(pattern));
}

TEST(NeighborhoodTest, SupportsOptimizedRules) {
  Dataset data = GridDataset({{{1, 1}, {1, 1}},
                              {{1, 1}, {1, 1}},
                              {{1, 1}, {1, 1}}});
  Hierarchy hierarchy(data);
  EXPECT_TRUE(NeighborhoodCalculator(hierarchy, 1.0).SupportsOptimized(0b11));
  EXPECT_TRUE(NeighborhoodCalculator(hierarchy, 2.0).SupportsOptimized(0b11));
  // T = 1.3 is neither T=1 nor the whole-node regime.
  EXPECT_FALSE(
      NeighborhoodCalculator(hierarchy, 1.3).SupportsOptimized(0b11));
}

TEST(NeighborhoodTest, FrontierBoundCoversEveryRegionsNeighborKeys) {
  // An ordinal age (5 values) beside nominal g (3) and f (2). The bound
  // must be at least 1 + |AppendNeighborKeys| for every key of every node,
  // and here it is reached (an interior age value has the most neighbors
  // at every step).
  std::vector<AttributeSchema> attributes = {
      AttributeSchema("age", {"a0", "a1", "a2", "a3", "a4"},
                      /*ordinal=*/true),
      AttributeSchema("g", {"g0", "g1", "g2"}),
      AttributeSchema("f", {"f0", "f1"}),
  };
  Dataset data(DataSchema(std::move(attributes), {0, 1, 2}));
  data.AddRow({0, 0, 0}, 1);
  Hierarchy hierarchy(data);
  for (double t : {1.0, 1.5, 2.0, 2.5}) {
    NeighborhoodCalculator neighborhood(hierarchy, t);
    for (uint32_t mask = 1; mask <= hierarchy.LeafMask(); ++mask) {
      const int64_t bound = neighborhood.FrontierBound(mask);
      int64_t most = 0;
      for (uint64_t key = 0; key < hierarchy.counter().KeySpace(mask);
           ++key) {
        std::vector<uint64_t> keys;
        neighborhood.AppendNeighborKeys(mask, key, &keys);
        most = std::max(most, static_cast<int64_t>(keys.size()) + 1);
      }
      EXPECT_EQ(bound, most) << "T " << t << " mask " << mask;
    }
  }
  // T = 1 on the nominal pair: 1 + (3 - 1) + (2 - 1).
  EXPECT_EQ(NeighborhoodCalculator(hierarchy, 1.0).FrontierBound(0b110), 4);
  // T = 1.5 on the leaf: no change, one +-1 / nominal step (2 + 2 + 1), or
  // two of them (2 * 2 + 2 * 1 + 2 * 1).
  EXPECT_EQ(NeighborhoodCalculator(hierarchy, 1.5).FrontierBound(0b111), 14);
}

// Property sweep: naive and optimized agree on random datasets at T = 1
// for every region of every node.
class NeighborhoodPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(NeighborhoodPropertyTest, NaiveEqualsOptimizedEverywhere) {
  Rng rng(GetParam());
  Dataset data(remedy::testing::SmallSchema());
  int rows = 200 + rng.UniformInt(200);
  for (int i = 0; i < rows; ++i) {
    data.AddRow({rng.UniformInt(3), rng.UniformInt(2), rng.UniformInt(2)},
                rng.UniformInt(2));
  }
  Hierarchy hierarchy(data);
  NeighborhoodCalculator neighborhood(hierarchy, 1.0);
  for (uint32_t mask : hierarchy.BottomUpMasks()) {
    const auto node = hierarchy.NodeCounts(mask);
    for (const auto& [key, counts] : node) {
      Pattern pattern = hierarchy.counter().PatternFor(key, mask);
      EXPECT_EQ(neighborhood.NaiveNeighborCounts(pattern),
                neighborhood.OptimizedNeighborCounts(pattern, counts))
          << pattern.ToString(data.schema()) << " seed " << GetParam();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NeighborhoodPropertyTest,
                         ::testing::Range(0, 8));

}  // namespace
}  // namespace remedy
