#ifndef REMEDY_CORE_IMBALANCE_H_
#define REMEDY_CORE_IMBALANCE_H_

#include <bit>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "core/hierarchy.h"
#include "core/pattern.h"
#include "core/region_counter.h"

namespace remedy {

// Sentinel imbalance score for regions with no negative instances (Def. 3).
inline constexpr double kAllPositiveRatio = -1.0;

// Imbalance score ratio_r = |r+| / |r-|, or kAllPositiveRatio when |r-| = 0.
double ImbalanceScore(const RegionCounts& counts);
double ImbalanceScore(int64_t positives, int64_t negatives);

// Computes the (positive, negative) counts of a region's neighboring region
// r_n — the union of same-node regions within Euclidean distance T (Def. 4).
//
// Two interchangeable strategies mirror Sec. III:
//  * Naive: enumerate every candidate neighbor pattern within distance T and
//    sum its counts — (c-1)·d·T lookups per region.
//  * Optimized: reuse the counts of the dominating regions R_d one level up:
//      |r_n^±| = Σ_{r_k ∈ R_d} |r_k^±|  −  |R_d| · |r^±|      (T = 1)
//    and for T = |X| the neighboring region is everything but r, so node
//    totals (= dataset totals) minus r. One dominating region per
//    deterministic attribute of r. The per-region form below looks each
//    one up; a whole-node sweep (NodeSweep, core/ibs_identify.h) instead
//    walks each parent node once, merging it against the node's table.
//
// The optimized strategy assumes the paper's basic unit-distance setting
// (every pair of distinct values one unit apart); the naive strategy also
// honors ordinal attribute metrics. `IdentifyIbs` property-tests their
// agreement on nominal data.
class NeighborhoodCalculator {
 public:
  // `hierarchy` must outlive the calculator. T is the distance threshold.
  NeighborhoodCalculator(Hierarchy& hierarchy, double distance_threshold);

  double distance_threshold() const { return distance_threshold_; }

  // Naive neighbor counts of region `pattern` (mask = its node).
  RegionCounts NaiveNeighborCounts(const Pattern& pattern);

  // Optimized neighbor counts of region `key` of node `mask`, region by
  // region — the incremental pass's gathered sets and the Pattern form
  // below use it; whole-node sweeps sum the same parents by merge-walk
  // (NodeSweep). `parent_counts(parent_mask, parent_key)` returns the
  // counts of one dominating region one level up (never called for level
  // 0, whose counts are TotalCounts()): from the parent node's gathered
  // re-evaluation set or from the parents' NodeTables (NodeTableParents).
  // Each parent key is re-packed from the region's digits, no Pattern
  // involved. Requires SupportsOptimized(mask).
  template <typename ParentCounts>
  RegionCounts OptimizedNeighborCounts(uint32_t mask, uint64_t key,
                                       const RegionCounts& region_counts,
                                       ParentCounts&& parent_counts);

  // Pattern form of the above, reading parents from the hierarchy's node
  // tables. Requires T == 1 or T >= the node diameter (the T = |X|
  // regime); dies otherwise.
  RegionCounts OptimizedNeighborCounts(const Pattern& pattern,
                                       const RegionCounts& region_counts);

  // True when `distance_threshold` is handled by the optimized fast paths.
  bool SupportsOptimized(uint32_t mask) const;

  // True when T covers node `mask`'s whole key space (T >= the node
  // diameter): every region of the node is then in every other region's
  // neighboring region, so r_n = node totals - r for both strategies. In
  // this regime a region's neighbor counts change only when the dataset
  // totals or its own counts do — the incremental identify path keys its
  // re-evaluation rule on this predicate.
  bool WholeNodeNeighborhood(uint32_t mask) const;

  // Appends the key of every candidate neighbor of region `key` of node
  // `mask` (the same-node regions within distance T, excluding the region
  // itself) to `keys`, whether or not the node's table holds an entry for
  // it. Mirrors NaiveNeighborCounts' enumeration exactly — same budget,
  // same per-attribute metrics — but on key digits, so "the keys this
  // returns" is precisely "the regions whose neighborhood contains `key`"
  // (the metric is symmetric). This is the dirty-frontier expansion of the
  // incremental identify path.
  void AppendNeighborKeys(uint32_t mask, uint64_t key,
                          std::vector<uint64_t>* keys);

  // An upper bound, over every region of node `mask`, on the keys
  // AppendNeighborKeys appends for it, plus one for the region itself:
  // 1 + sum over mask positions of (c_i - 1) at T = 1 on nominal
  // attributes. Counts the value-change combinations that fit the budget,
  // taking at each position and squared step the most values any origin
  // value has at that step. The incremental identify path's cost model.
  int64_t FrontierBound(uint32_t mask);

 private:
  // Recursively enumerates neighbor patterns by substituting deterministic
  // values, pruning on accumulated squared distance.
  void AccumulateNeighbors(const Pattern& original, Pattern& current,
                           const std::vector<int>& det_positions,
                           size_t next_position, double squared_distance,
                           RegionCounts* total);

  // Same enumeration on key digits: `weights[p]` is the key stride of
  // position p, `key` the neighbor built so far.
  void CollectNeighborKeys(const int* digits, const uint64_t* weights,
                           const int* det_positions, int num_positions,
                           int next_position, double squared_distance,
                           uint64_t key, std::vector<uint64_t>* keys);

  // Largest possible squared distance between two regions of node `mask`
  // under the per-attribute metrics.
  double SquaredDiameter(uint32_t mask) const;

  // FrontierBound's count over the mask positions from `position` on, with
  // `squared_distance` of the budget spent.
  double BoundFrom(uint32_t mask, int position, double squared_distance) const;

  Hierarchy& hierarchy_;
  double distance_threshold_;
  // Per protected position: the largest squared distance between two of
  // its values, and whether its metric is ordinal.
  std::vector<double> max_squared_distance_;
  std::vector<bool> ordinal_;
  // The smallest squared distance any value change costs, at any position.
  double min_squared_step_ = std::numeric_limits<double>::infinity();
  // Per protected position, ascending by squared distance within the
  // budget: (squared distance, the most values any one value has there).
  // Filled by the first FrontierBound call.
  std::vector<std::vector<std::pair<double, int>>> steps_;
};

// Parent-count source of the per-region dominating-region sum that
// binary-searches the parents' NodeTables, resolving each parent node once,
// on first use (so a caller builds lazily exactly the parents it reads).
// Serves the Pattern form of OptimizedNeighborCounts and the incremental
// pass's parents that have no gathered set; whole-node sweeps walk the
// parents instead (RegionCounter::AddParentCounts). Dies, in every build
// type, on a missing parent region: a parent contains its child, so it
// exists whenever the child does.
class NodeTableParents {
 public:
  NodeTableParents(Hierarchy& hierarchy, uint32_t mask)
      : hierarchy_(hierarchy), mask_(mask) {}

  const RegionCounts& operator()(uint32_t parent_mask, uint64_t parent_key) {
    const NodeTable*& table =
        tables_[std::countr_zero(mask_ ^ parent_mask)];
    if (table == nullptr) table = &hierarchy_.NodeCounts(parent_mask);
    const auto it = table->find(parent_key);
    REMEDY_CHECK(it != table->end()) << "dominating region missing from node";
    return it->second;
  }

 private:
  Hierarchy& hierarchy_;
  uint32_t mask_;
  const NodeTable* tables_[32] = {};  // by the position the parent drops
};

template <typename ParentCounts>
RegionCounts NeighborhoodCalculator::OptimizedNeighborCounts(
    uint32_t mask, uint64_t key, const RegionCounts& region_counts,
    ParentCounts&& parent_counts) {
  REMEDY_DCHECK(mask != 0 && SupportsOptimized(mask));
  const RegionCounts& total = hierarchy_.TotalCounts();
  if (WholeNodeNeighborhood(mask)) {
    // T = |X|: the neighboring region is every other region of the node,
    // whose union is the entire dataset minus r.
    return {total.positives - region_counts.positives,
            total.negatives - region_counts.negatives};
  }

  // T = 1: sum the dominating regions R_d (one deterministic element
  // removed) and subtract the |R_d|-fold over-count of r itself.
  const RegionCounter& counter = hierarchy_.counter();
  int digits[32];
  counter.KeyDigits(key, mask, digits);
  RegionCounts sum;
  int64_t num_dominating = 0;
  for (uint32_t bits = mask; bits != 0; bits &= bits - 1) {
    const uint32_t parent_mask = mask & ~(bits & (~bits + 1));
    ++num_dominating;
    const RegionCounts& parent =
        parent_mask == 0
            ? total
            : parent_counts(parent_mask,
                            counter.PackDigits(digits, parent_mask));
    sum.positives += parent.positives;
    sum.negatives += parent.negatives;
  }
  return {sum.positives - num_dominating * region_counts.positives,
          sum.negatives - num_dominating * region_counts.negatives};
}

}  // namespace remedy

#endif  // REMEDY_CORE_IMBALANCE_H_
