#ifndef REMEDY_CORE_IBS_IDENTIFY_H_
#define REMEDY_CORE_IBS_IDENTIFY_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/hierarchy.h"
#include "core/imbalance.h"
#include "core/pattern.h"
#include "data/columnar.h"
#include "data/dataset.h"

namespace remedy {

// Which slice of the hierarchy the identification traverses (Sec. V-A/b).
enum class IbsScope {
  kLattice,  // every level from the leaves up to level 1 (the paper's method)
  kLeaf,     // only fully-deterministic intersectional regions
  kTop,      // only level 1 (single protected attributes)
};

// Which neighbor-count computation to use (Sec. III-A vs III-B).
enum class IbsAlgorithm {
  kNaive,
  kOptimized,
};

// Parameters of Problem 1 (Implicit Biased Set identification).
struct IbsParams {
  double imbalance_threshold = 0.1;  // tau_c
  double distance_threshold = 1.0;   // T
  int min_region_size = 30;          // k, the CLT rule of thumb
  IbsScope scope = IbsScope::kLattice;
  IbsAlgorithm algorithm = IbsAlgorithm::kOptimized;
};

// One region of the Implicit Biased Set, with the evidence that put it there.
struct BiasedRegion {
  Pattern pattern;
  RegionCounts counts;           // |r+|, |r-|
  RegionCounts neighbor_counts;  // |r_n+|, |r_n-|
  double ratio = 0.0;            // ratio_r
  double neighbor_ratio = 0.0;   // ratio_rn
};

// Identifies the IBS of `data` (Algorithm 1): every region with more than
// `min_region_size` instances whose imbalance score differs from its
// neighboring region's by more than `imbalance_threshold`. Regions are
// returned in the bottom-up traversal order, deterministically.
// Fails with kInvalidArgument when `data` has no protected attributes.
StatusOr<std::vector<BiasedRegion>> IdentifyIbs(const Dataset& data,
                                                const IbsParams& params);

// Same identification over a columnar shard store — the out-of-core entry
// point: a 10M+-row input streams into a store chunk by chunk (see
// GenerateSyntheticStore) and is identified without a Dataset copy ever
// existing. Output is byte-identical to the Dataset form on equal rows.
StatusOr<std::vector<BiasedRegion>> IdentifyIbs(
    const ColumnarShardStore& store, const IbsParams& params);

// Same, but reusing a caller-owned hierarchy (so the remedy loop can share
// memoized node counts across nodes of one pass). One NodeSweep::Sweep of
// node `mask`; a caller sweeping many nodes keeps one NodeSweep instead.
std::vector<BiasedRegion> IdentifyIbsInNode(Hierarchy& hierarchy,
                                            uint32_t mask,
                                            const IbsParams& params);

// The IBS of a caller-owned hierarchy over `params.scope`, ordered as
// IdentifyIbs orders it: one NodeSweep over ScopeMasks. The daemon's full
// identify mode runs it on its live lattice. A spilled store's hierarchy
// needs Hierarchy::PrepareCounting first, as IdentifyIbs does.
std::vector<BiasedRegion> IdentifyIbsInScope(Hierarchy& hierarchy,
                                             const IbsParams& params);

// Outcome of scoring one region: too small to judge, judged clean, or
// judged biased (out filled).
enum class RegionVerdict { kSkipped, kUnbiased, kBiased };

// Judges a region against its neighboring region (Def. 4): biased when
// their imbalance scores differ by more than tau_c. Decodes the region's
// Pattern into `out` only for a biased verdict.
RegionVerdict JudgeRegion(const RegionCounter& counter, uint32_t mask,
                          uint64_t key, const RegionCounts& counts,
                          const RegionCounts& neighbor_counts,
                          const IbsParams& params, BiasedRegion* out);

// Scores the region at `key` of node `mask` region by region: the route of
// the incremental identify path's gathered sets, and of NodeSweep for the
// naive ablation and the T >= diameter regime. Its neighbor counts are the
// exact integers NodeSweep's parent-sum walk produces, and both judge with
// JudgeRegion, so the full and incremental paths are bit-identical.
// `use_optimized` must be `params.algorithm == kOptimized &&
// neighborhood.SupportsOptimized(mask)`, i.e. the caller resolves the
// strategy once per node. `parent_counts` is the dominating-region source
// of NeighborhoodCalculator::OptimizedNeighborCounts (unused by naive).
template <typename ParentCounts>
RegionVerdict ScoreRegion(Hierarchy& hierarchy,
                          NeighborhoodCalculator& neighborhood,
                          bool use_optimized, uint32_t mask, uint64_t key,
                          const RegionCounts& counts, const IbsParams& params,
                          ParentCounts&& parent_counts, BiasedRegion* out) {
  if (counts.Total() <= params.min_region_size) return RegionVerdict::kSkipped;
  const RegionCounts neighbor_counts =
      use_optimized
          ? neighborhood.OptimizedNeighborCounts(mask, key, counts,
                                                 parent_counts)
          : neighborhood.NaiveNeighborCounts(
                hierarchy.counter().PatternFor(key, mask));
  return JudgeRegion(hierarchy.counter(), mask, key, counts, neighbor_counts,
                     params, out);
}

// The whole-node sweep of one identify pass: scores every region of a
// node's table in ascending key order and emits (key, region) for each
// biased verdict. Every full identify runs it — IdentifyIbs, the remedy
// loops, the incremental path's full pass and whole-node re-scores. Build
// one per pass and sweep each node with it: its NeighborhoodCalculator
// walks every value pair of every protected attribute when built. Counts
// may change between sweeps (the remedy loops apply deltas per node).
//
// Under T = 1 on nominal attributes (SupportsOptimized and not
// WholeNodeNeighborhood) the node's dominating-region sums come from one
// galloping merge-walk per parent node (RegionCounter::AddParentCounts)
// into a per-entry array; each region then costs a subtraction and
// JudgeRegion, with no parent key packed or searched per region. The
// naive ablation and the T >= diameter regime score region by region
// (ScoreRegion). The sums are the exact integers of the per-region
// dominating-region sum, so the output is bit-identical to it.
class NodeSweep {
 public:
  // `hierarchy` must outlive the sweep.
  NodeSweep(Hierarchy& hierarchy, const IbsParams& params);

  // Sweeps node `mask`: appends (region key, region) of each biased region
  // to `biased`, ascending by key, and returns how many regions it scored
  // (those with more than min_region_size instances). Publishes the
  // ibs/* node counters.
  int64_t Sweep(uint32_t mask,
                std::vector<std::pair<uint64_t, BiasedRegion>>* biased);

  NeighborhoodCalculator& neighborhood() { return neighborhood_; }

 private:
  // The T = 1 parent-sum sweep of `node` (node `mask`'s table).
  int64_t SweepParentSums(
      uint32_t mask, const NodeTable& node,
      std::vector<std::pair<uint64_t, BiasedRegion>>* biased);

  Hierarchy& hierarchy_;
  IbsParams params_;
  NeighborhoodCalculator neighborhood_;
  std::vector<RegionCounts> sums_;  // per entry of the node being swept
};

// Node masks visited under `scope`, in traversal order.
std::vector<uint32_t> ScopeMasks(const Hierarchy& hierarchy, IbsScope scope);

// True if `pattern`'s region is in (or equal to) one of the biased regions'
// patterns — convenience for the Fig. 3 validation experiment, which also
// marks subgroups that *dominate* biased regions.
bool DominatesAnyBiasedRegion(const Pattern& pattern,
                              const std::vector<BiasedRegion>& ibs);

}  // namespace remedy

#endif  // REMEDY_CORE_IBS_IDENTIFY_H_
