#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <vector>

#include "core/pattern.h"
#include "test_util.h"

namespace remedy {
namespace {

using ::remedy::testing::SmallSchema;

TEST(PatternTest, WildcardConstruction) {
  Pattern pattern(3);
  EXPECT_EQ(pattern.Arity(), 3);
  EXPECT_EQ(pattern.NumDeterministic(), 0);
  EXPECT_EQ(pattern.DeterministicMask(), 0u);
  EXPECT_FALSE(pattern.IsDeterministic(1));
}

TEST(PatternTest, DeterministicMaskAndCount) {
  Pattern pattern({1, Pattern::kWildcard, 0});
  EXPECT_EQ(pattern.NumDeterministic(), 2);
  EXPECT_EQ(pattern.DeterministicMask(), 0b101u);
  EXPECT_TRUE(pattern.IsDeterministic(0));
  EXPECT_FALSE(pattern.IsDeterministic(1));
}

TEST(PatternTest, MatchesRows) {
  Dataset data(SmallSchema());
  data.AddRow({1, 0, 1}, 1);
  data.AddRow({1, 1, 0}, 0);
  data.AddRow({2, 0, 0}, 0);
  Pattern a1({1, Pattern::kWildcard});
  EXPECT_TRUE(a1.Matches(data, 0));
  EXPECT_TRUE(a1.Matches(data, 1));
  EXPECT_FALSE(a1.Matches(data, 2));
  Pattern a1b0({1, 0});
  EXPECT_TRUE(a1b0.Matches(data, 0));
  EXPECT_FALSE(a1b0.Matches(data, 1));
  Pattern everything(2);
  EXPECT_TRUE(everything.Matches(data, 2));
}

TEST(PatternTest, DominanceDefinition) {
  // (a=1) dominates (a=1, b=0): replace b's element with X.
  Pattern general({1, Pattern::kWildcard});
  Pattern specific({1, 0});
  EXPECT_TRUE(general.Dominates(specific));
  EXPECT_FALSE(specific.Dominates(general));
  // Every pattern dominates itself.
  EXPECT_TRUE(general.Dominates(general));
  EXPECT_TRUE(specific.Dominates(specific));
  // The all-wildcard pattern dominates everything.
  Pattern top(2);
  EXPECT_TRUE(top.Dominates(specific));
  // Conflicting values break dominance.
  Pattern other({2, Pattern::kWildcard});
  EXPECT_FALSE(other.Dominates(specific));
}

TEST(PatternTest, SameNodeComparesDeterministicSets) {
  Pattern a({1, Pattern::kWildcard});
  Pattern b({2, Pattern::kWildcard});
  Pattern c({Pattern::kWildcard, 0});
  EXPECT_TRUE(a.SameNode(b));
  EXPECT_FALSE(a.SameNode(c));
}

TEST(PatternTest, DistanceWithinNode) {
  DataSchema schema = SmallSchema();
  Pattern a({0, 0});
  Pattern b({1, 0});
  Pattern c({1, 1});
  EXPECT_DOUBLE_EQ(a.Distance(b, schema), 1.0);
  EXPECT_DOUBLE_EQ(a.Distance(c, schema), std::sqrt(2.0));
  EXPECT_DOUBLE_EQ(a.Distance(a, schema), 0.0);
}

TEST(PatternTest, DistanceUsesOrdinalMetric) {
  std::vector<AttributeSchema> attributes = {
      AttributeSchema("age", {"a", "b", "c", "d"}, /*ordinal=*/true),
  };
  DataSchema schema(std::move(attributes), {0});
  // NB: Pattern({0}) would resolve to the arity constructor; spell the
  // vector out for single-element patterns.
  Pattern first(std::vector<int>{0});
  Pattern last(std::vector<int>{3});
  EXPECT_DOUBLE_EQ(first.Distance(last, schema), 3.0);
}

TEST(PatternTest, ToStringOmitsWildcards) {
  DataSchema schema = SmallSchema();
  Pattern pattern({1, Pattern::kWildcard});
  EXPECT_EQ(pattern.ToString(schema), "(a=a1)");
  Pattern leaf({2, 0});
  EXPECT_EQ(leaf.ToString(schema), "(a=a2, b=b0)");
  Pattern top(2);
  EXPECT_EQ(top.ToString(schema), "(*)");
}

TEST(PatternTest, OrderingIsLexicographic) {
  Pattern a({0, 1});
  Pattern b({1, 0});
  EXPECT_TRUE(a < b);
  EXPECT_FALSE(b < a);
  EXPECT_TRUE(a == Pattern({0, 1}));
}

TEST(PatternTest, ArityZeroAndThirtyTwoRoundTrip) {
  Pattern empty(0);
  EXPECT_EQ(empty.Arity(), 0);
  EXPECT_EQ(empty.NumDeterministic(), 0);
  EXPECT_EQ(empty.DeterministicMask(), 0u);
  EXPECT_TRUE(empty == Pattern(std::vector<int>{}));
  EXPECT_TRUE(empty == Pattern());

  std::vector<int> values(Pattern::kMaxArity);
  for (int i = 0; i < Pattern::kMaxArity; ++i) {
    values[i] = i % 3 == 0 ? Pattern::kWildcard : i * 1000;
  }
  values[31] = Pattern::kMaxValue;
  const Pattern wide(values);
  EXPECT_EQ(wide.Arity(), Pattern::kMaxArity);
  uint32_t mask = 0;
  for (int i = 0; i < Pattern::kMaxArity; ++i) {
    EXPECT_EQ(wide.Value(i), values[i]) << i;
    if (values[i] != Pattern::kWildcard) mask |= 1u << i;
  }
  EXPECT_EQ(wide.DeterministicMask(), mask);
  EXPECT_EQ(wide.NumDeterministic(), std::popcount(mask));
  const Pattern copy = wide;
  EXPECT_TRUE(copy == wide);
  EXPECT_TRUE(copy.Dominates(wide));
}

TEST(PatternTest, SetValueKeepsTheMaskInStep) {
  Pattern pattern({2, Pattern::kWildcard, 0, 1});
  ASSERT_EQ(pattern.DeterministicMask(), 0b1101u);
  ASSERT_EQ(pattern.NumDeterministic(), 3);
  // Setting a wildcard clears the position's bit.
  pattern.SetValue(2, Pattern::kWildcard);
  EXPECT_EQ(pattern.DeterministicMask(), 0b1001u);
  EXPECT_EQ(pattern.NumDeterministic(), 2);
  EXPECT_FALSE(pattern.IsDeterministic(2));
  // Clearing a wildcard sets it.
  pattern.SetValue(1, 3);
  EXPECT_EQ(pattern.DeterministicMask(), 0b1011u);
  EXPECT_EQ(pattern.NumDeterministic(), 3);
  EXPECT_TRUE(pattern.IsDeterministic(1));
  // Re-setting a deterministic value or a wildcard changes nothing else.
  pattern.SetValue(0, 0);
  pattern.SetValue(2, Pattern::kWildcard);
  EXPECT_EQ(pattern.DeterministicMask(), 0b1011u);
  EXPECT_TRUE(pattern == Pattern({0, 3, Pattern::kWildcard, 1}));
}

TEST(PatternTest, OrderAcrossAritiesMatchesVectorOrder) {
  const std::vector<std::vector<int>> sequences = {
      {},
      {Pattern::kWildcard},
      {0},
      {0, Pattern::kWildcard},
      {0, 0},
      {0, 0, 0},
      {0, 1},
      {1},
      {1, Pattern::kWildcard, 2},
      {Pattern::kMaxValue},
      {Pattern::kWildcard, Pattern::kMaxValue},
  };
  for (const std::vector<int>& a : sequences) {
    for (const std::vector<int>& b : sequences) {
      EXPECT_EQ(Pattern(a) == Pattern(b), a == b);
      EXPECT_EQ(Pattern(a) < Pattern(b), a < b);
    }
  }
}

TEST(PatternDeathTest, LimitsDie) {
  EXPECT_DEATH(Pattern(Pattern::kMaxArity + 1), "arity 33");
  EXPECT_DEATH(Pattern(std::vector<int>(Pattern::kMaxArity + 1, 0)),
               "arity 33");
  EXPECT_DEATH(Pattern({0, Pattern::kMaxValue + 1}), "value 32768");
  Pattern pattern(2);
  EXPECT_DEATH(pattern.SetValue(1, Pattern::kMaxValue + 1), "value 32768");
  EXPECT_DEATH(pattern.SetValue(1, -2), "value -2");
}

}  // namespace
}  // namespace remedy
