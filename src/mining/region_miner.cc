#include "mining/region_miner.h"

#include <algorithm>
#include <unordered_map>

#include "common/check.h"
#include "core/hierarchy.h"
#include "core/imbalance.h"
#include "mining/fpgrowth.h"

namespace remedy {
namespace {

// Item encoding: one id block per protected position.
std::vector<int> ItemOffsets(const DataSchema& schema) {
  std::vector<int> offsets;
  offsets.reserve(schema.NumProtected());
  int next = 0;
  for (int column : schema.protected_indices()) {
    offsets.push_back(next);
    next += schema.attribute(column).Cardinality();
  }
  return offsets;
}

Pattern ItemsetToPattern(const std::vector<int>& items,
                         const std::vector<int>& offsets, int arity) {
  Pattern pattern(arity);
  for (int item : items) {
    // The owning position is the last offset <= item.
    int position = static_cast<int>(
        std::upper_bound(offsets.begin(), offsets.end(), item) -
        offsets.begin() - 1);
    REMEDY_DCHECK(position >= 0);
    REMEDY_DCHECK(!pattern.IsDeterministic(position));
    pattern.SetValue(position, item - offsets[position]);
  }
  return pattern;
}

std::vector<std::vector<int>> BuildTransactions(const Dataset& data) {
  const DataSchema& schema = data.schema();
  std::vector<int> offsets = ItemOffsets(schema);
  std::vector<std::vector<int>> transactions(data.NumRows());
  for (int r = 0; r < data.NumRows(); ++r) {
    std::vector<int>& transaction = transactions[r];
    transaction.reserve(schema.NumProtected());
    for (int i = 0; i < schema.NumProtected(); ++i) {
      transaction.push_back(offsets[i] +
                            data.Value(r, schema.protected_indices()[i]));
    }
  }
  return transactions;
}

}  // namespace

std::vector<MinedRegion> MineFrequentRegions(const Dataset& data,
                                             int64_t min_size) {
  REMEDY_CHECK(data.schema().NumProtected() > 0);
  const DataSchema& schema = data.schema();
  std::vector<int> offsets = ItemOffsets(schema);

  FpGrowthMiner miner(min_size);
  std::vector<FrequentItemset> itemsets =
      miner.Mine(BuildTransactions(data));

  std::vector<MinedRegion> regions;
  regions.reserve(itemsets.size());
  for (const FrequentItemset& itemset : itemsets) {
    regions.push_back({ItemsetToPattern(itemset.items, offsets,
                                        schema.NumProtected()),
                       itemset.support});
  }
  // Lattice order: node mask (bottom-up handled by callers), key ascending.
  RegionCounter counter(schema);
  std::sort(regions.begin(), regions.end(),
            [&counter](const MinedRegion& a, const MinedRegion& b) {
              uint32_t mask_a = a.pattern.DeterministicMask();
              uint32_t mask_b = b.pattern.DeterministicMask();
              if (mask_a != mask_b) return mask_a < mask_b;
              return counter.KeyFor(a.pattern, mask_a) <
                     counter.KeyFor(b.pattern, mask_b);
            });
  return regions;
}

std::vector<BiasedRegion> IdentifyIbsWithMiner(const Dataset& data,
                                               const IbsParams& params) {
  // Strictly-greater size filter, as in Algorithm 1.
  std::vector<MinedRegion> candidates =
      MineFrequentRegions(data, params.min_region_size + 1);

  // Group candidates by hierarchy node.
  std::unordered_map<uint32_t, std::vector<const MinedRegion*>> by_mask;
  for (const MinedRegion& region : candidates) {
    by_mask[region.pattern.DeterministicMask()].push_back(&region);
  }

  Hierarchy hierarchy(data);
  NeighborhoodCalculator neighborhood(hierarchy, params.distance_threshold);
  const RegionCounter& counter = hierarchy.counter();

  std::vector<BiasedRegion> ibs;
  for (uint32_t mask : ScopeMasks(hierarchy, params.scope)) {
    auto it = by_mask.find(mask);
    if (it == by_mask.end()) continue;
    const bool use_optimized =
        params.algorithm == IbsAlgorithm::kOptimized &&
        neighborhood.SupportsOptimized(mask);
    // Candidates arrive key-sorted from MineFrequentRegions.
    const auto& node = hierarchy.NodeCounts(mask);
    for (const MinedRegion* candidate : it->second) {
      const uint64_t key = counter.KeyFor(candidate->pattern, mask);
      const RegionCounts& counts = node.at(key);
      REMEDY_DCHECK(counts.Total() == candidate->size);
      RegionCounts neighbor_counts =
          use_optimized
              ? neighborhood.OptimizedNeighborCounts(candidate->pattern,
                                                     counts)
              : neighborhood.NaiveNeighborCounts(candidate->pattern);
      double ratio = ImbalanceScore(counts);
      double neighbor_ratio = ImbalanceScore(neighbor_counts);
      if (std::abs(ratio - neighbor_ratio) > params.imbalance_threshold) {
        ibs.push_back({candidate->pattern, key, counts, neighbor_counts,
                       ratio, neighbor_ratio});
      }
    }
  }
  return ibs;
}

}  // namespace remedy
