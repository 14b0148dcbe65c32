#include "core/radix_sort.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "core/region_counter.h"

namespace remedy {
namespace {

using Entry = NodeTable::Entry;

std::vector<Entry> RandomEntries(Rng& rng, int n, uint64_t key_bits) {
  std::vector<Entry> entries;
  entries.reserve(n);
  const uint64_t mask =
      key_bits >= 64 ? ~uint64_t{0} : (uint64_t{1} << key_bits) - 1;
  for (int i = 0; i < n; ++i) {
    uint64_t key = 0;
    for (int b = 0; b < 64; b += 16) {
      key |= static_cast<uint64_t>(rng.UniformInt(1 << 16)) << b;
    }
    entries.push_back({key & mask,
                       RegionCounts{rng.UniformRange(0, 50),
                                    rng.UniformRange(0, 50)}});
  }
  return entries;
}

// The property the NodeTable constructor relies on: RadixSortByKey orders
// exactly like a stable comparison sort on the key, preserving each entry's
// counts. Sweeps sizes around the std::sort/radix threshold and key widths
// from one byte to the full 64 bits (exercising the pass-count early-out).
TEST(RadixSortTest, MatchesStableSortOnRandomInputs) {
  Rng rng(1234);
  for (int trial = 0; trial < 200; ++trial) {
    const int n = 1 + rng.UniformInt(2000);
    const uint64_t key_bits = 1 + rng.UniformInt(64);
    std::vector<Entry> entries = RandomEntries(rng, n, key_bits);
    std::vector<Entry> expected = entries;
    std::stable_sort(expected.begin(), expected.end(),
                     [](const Entry& a, const Entry& b) {
                       return a.first < b.first;
                     });
    RadixSortByKey(entries);
    ASSERT_EQ(entries.size(), expected.size());
    for (size_t i = 0; i < entries.size(); ++i) {
      EXPECT_EQ(entries[i].first, expected[i].first) << "at " << i;
      EXPECT_EQ(entries[i].second, expected[i].second) << "at " << i;
    }
  }
}

TEST(RadixSortTest, HandlesEdgeCases) {
  std::vector<Entry> empty;
  RadixSortByKey(empty);
  EXPECT_TRUE(empty.empty());

  std::vector<Entry> one = {{42, RegionCounts{1, 2}}};
  RadixSortByKey(one);
  EXPECT_EQ(one[0].first, 42u);

  // All keys zero: no counting pass runs at all.
  std::vector<Entry> zeros(100, Entry{0, RegionCounts{1, 0}});
  RadixSortByKey(zeros);
  for (const Entry& e : zeros) EXPECT_EQ(e.first, 0u);

  // Already sorted: the is_sorted fast path must keep it intact.
  std::vector<Entry> sorted;
  for (uint64_t k = 0; k < 1000; ++k) {
    sorted.push_back({k * 3, RegionCounts{static_cast<int64_t>(k), 1}});
  }
  std::vector<Entry> expected = sorted;
  RadixSortByKey(sorted);
  EXPECT_EQ(sorted, expected);
}

TEST(RadixSortTest, StableAcrossDuplicateKeys) {
  // Duplicate keys keep their arrival order (stability), which the
  // NodeTable duplicate-merge loop then collapses deterministically.
  std::vector<Entry> entries;
  Rng rng(9);
  for (int i = 0; i < 5000; ++i) {
    entries.push_back({static_cast<uint64_t>(rng.UniformInt(7)),
                       RegionCounts{i, 0}});
  }
  std::vector<Entry> expected = entries;
  std::stable_sort(expected.begin(), expected.end(),
                   [](const Entry& a, const Entry& b) {
                     return a.first < b.first;
                   });
  RadixSortByKey(entries);
  EXPECT_EQ(entries, expected);
}

TEST(RadixSortTest, NodeTableUsesSortedOrderWithMergedDuplicates) {
  // End to end through the NodeTable constructor, above the radix
  // threshold: shuffled duplicate-heavy entries come out ascending with
  // counts summed per key.
  Rng rng(77);
  std::vector<Entry> entries;
  const int kKeys = 700;
  for (int copy = 0; copy < 3; ++copy) {
    for (int k = 0; k < kKeys; ++k) {
      entries.push_back({static_cast<uint64_t>(k), RegionCounts{1, 2}});
    }
  }
  rng.Shuffle(entries);
  ASSERT_GE(entries.size(), kRadixSortMinEntries);
  NodeTable table(std::move(entries));
  ASSERT_EQ(table.size(), static_cast<size_t>(kKeys));
  uint64_t expected_key = 0;
  for (const auto& [key, counts] : table) {
    EXPECT_EQ(key, expected_key++);
    EXPECT_EQ(counts.positives, 3);
    EXPECT_EQ(counts.negatives, 6);
  }
}

}  // namespace
}  // namespace remedy
