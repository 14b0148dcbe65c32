#include "core/ibs_identify.h"

#include <cmath>

#include "common/check.h"
#include "common/pipeline_metrics.h"
#include "common/trace.h"

namespace remedy {

std::vector<uint32_t> ScopeMasks(const Hierarchy& hierarchy, IbsScope scope) {
  switch (scope) {
    case IbsScope::kLattice:
      return hierarchy.BottomUpMasks();
    case IbsScope::kLeaf:
      return {hierarchy.LeafMask()};
    case IbsScope::kTop: {
      std::vector<uint32_t> masks;
      for (int i = 0; i < hierarchy.NumProtected(); ++i) {
        masks.push_back(1u << i);
      }
      return masks;
    }
  }
  REMEDY_CHECK(false) << "unreachable scope";
  return {};
}

RegionVerdict JudgeRegion(const RegionCounter& counter, uint32_t mask,
                          uint64_t key, const RegionCounts& counts,
                          const RegionCounts& neighbor_counts,
                          const IbsParams& params, BiasedRegion* out) {
  double ratio = ImbalanceScore(counts);
  double neighbor_ratio = ImbalanceScore(neighbor_counts);
  if (std::abs(ratio - neighbor_ratio) <= params.imbalance_threshold) {
    return RegionVerdict::kUnbiased;
  }
  *out = {counter.PatternFor(key, mask), key, counts, neighbor_counts, ratio,
          neighbor_ratio};
  return RegionVerdict::kBiased;
}

NodeSweep::NodeSweep(Hierarchy& hierarchy, const IbsParams& params)
    : hierarchy_(hierarchy),
      params_(params),
      neighborhood_(hierarchy, params.distance_threshold) {}

int64_t NodeSweep::Sweep(uint32_t mask, std::vector<BiasedRegion>* biased) {
  // NodeTable iteration is already in ascending key order, so the sweep is
  // deterministic without re-sorting, and each entry carries its counts —
  // no second lookup per region.
  const size_t first_biased = biased->size();
  const int64_t scored = SweepRun(
      mask, hierarchy_.NodeCounts(mask).entries(),
      [this](uint32_t parent_mask) -> std::span<const NodeTable::Entry> {
        return hierarchy_.NodeCounts(parent_mask).entries();
      },
      biased);
  // Tallied per node, so the inner sweep costs no atomics.
  const PipelineMetrics& metrics = PipelineMetrics::Get();
  metrics.ibs_nodes_visited->Increment();
  metrics.ibs_hits->Increment(
      static_cast<int64_t>(biased->size() - first_biased));
  if (scored > 0) {
    (UsesOptimized(mask) ? metrics.ibs_neighbor_reuse
                         : metrics.ibs_neighbor_naive)
        ->Increment(scored);
  }
  return scored;
}

int64_t NodeSweep::SweepRun(uint32_t mask,
                            std::span<const NodeTable::Entry> run,
                            const ParentRun& parent_run,
                            std::vector<BiasedRegion>* biased) {
  const bool use_optimized = UsesOptimized(mask);
  if (use_optimized && !neighborhood_.WholeNodeNeighborhood(mask)) {
    return SweepParentSums(mask, run, parent_run, biased);
  }
  // Region by region: the naive enumeration, or r_n = totals - r in the
  // T >= diameter regime. Neither reads a parent.
  NodeTableParents parents(hierarchy_, mask);
  int64_t scored = 0;
  for (const auto& [key, counts] : run) {
    if (counts.Total() <= params_.min_region_size) continue;
    ++scored;
    const RegionCounts neighbor_counts =
        use_optimized
            ? neighborhood_.OptimizedNeighborCounts(
                  mask, key, counts, parents)
            : neighborhood_.NaiveNeighborCounts(
                  hierarchy_.counter().PatternFor(key, mask));
    BiasedRegion region;
    if (JudgeRegion(hierarchy_.counter(), mask, key, counts, neighbor_counts,
                    params_, &region) == RegionVerdict::kBiased) {
      biased->push_back(region);
    }
  }
  return scored;
}

int64_t NodeSweep::SweepParentSums(uint32_t mask,
                                   std::span<const NodeTable::Entry> run,
                                   const ParentRun& parent_run,
                                   std::vector<BiasedRegion>* biased) {
  // |r_n| = sum over the dominating regions R_d (one deterministic element
  // removed) - |R_d| * |r|. Every parent is a real node: a level-1 nominal
  // node's diameter is one unit step, within any budget SupportsOptimized
  // accepts, so it is always swept whole.
  const RegionCounter& counter = hierarchy_.counter();
  sums_.assign(run.size(), RegionCounts{});
  int64_t num_dominating = 0;
  for (uint32_t bits = mask; bits != 0; bits &= bits - 1) {
    const uint32_t parent_mask = mask & ~(bits & (~bits + 1));
    ++num_dominating;
    REMEDY_DCHECK(parent_mask != 0) << "a level-1 node is swept whole";
    counter.AddParentCounts(run, mask, parent_run(parent_mask), parent_mask,
                            sums_.data());
  }
  int64_t scored = 0;
  for (size_t i = 0; i < run.size(); ++i) {
    const auto& [key, counts] = run[i];
    if (counts.Total() <= params_.min_region_size) continue;
    ++scored;
    const RegionCounts neighbor_counts{
        sums_[i].positives - num_dominating * counts.positives,
        sums_[i].negatives - num_dominating * counts.negatives};
    BiasedRegion region;
    if (JudgeRegion(counter, mask, key, counts, neighbor_counts, params_,
                    &region) == RegionVerdict::kBiased) {
      biased->push_back(region);
    }
  }
  return scored;
}

std::vector<BiasedRegion> IdentifyIbsInNode(Hierarchy& hierarchy,
                                            uint32_t mask,
                                            const IbsParams& params) {
  std::vector<BiasedRegion> biased;
  NodeSweep(hierarchy, params).Sweep(mask, &biased);
  return biased;
}

std::vector<BiasedRegion> IdentifyIbsInScope(Hierarchy& hierarchy,
                                             const IbsParams& params) {
  NodeSweep sweep(hierarchy, params);
  std::vector<BiasedRegion> biased;
  for (uint32_t mask : ScopeMasks(hierarchy, params.scope)) {
    REMEDY_TRACE_SPAN_ARG("ibs/node", mask);
    sweep.Sweep(mask, &biased);
  }
  return biased;
}

namespace {

StatusOr<std::vector<BiasedRegion>> IdentifyWithHierarchy(
    Hierarchy& hierarchy, const IbsParams& params) {
  REMEDY_TRACE_SPAN("ibs/identify");
  // A spilled store maps its shard files here, so a missing or truncated
  // spill is a clean error from IdentifyIbs instead of a crash mid-count.
  RETURN_IF_ERROR(hierarchy.PrepareCounting());
  return IdentifyIbsInScope(hierarchy, params);
}

}  // namespace

StatusOr<std::vector<BiasedRegion>> IdentifyIbs(const Dataset& data,
                                                const IbsParams& params) {
  if (data.schema().NumProtected() == 0) {
    return InvalidArgumentError(
        "IBS identification needs protected attributes");
  }
  Hierarchy hierarchy(data);
  return IdentifyWithHierarchy(hierarchy, params);
}

StatusOr<std::vector<BiasedRegion>> IdentifyIbs(
    const ColumnarShardStore& store, const IbsParams& params) {
  if (store.schema().NumProtected() == 0) {
    return InvalidArgumentError(
        "IBS identification needs protected attributes");
  }
  Hierarchy hierarchy(store);
  return IdentifyWithHierarchy(hierarchy, params);
}

bool DominatesAnyBiasedRegion(const Pattern& pattern,
                              const std::vector<BiasedRegion>& ibs) {
  for (const BiasedRegion& region : ibs) {
    if (pattern.Dominates(region.pattern)) return true;
  }
  return false;
}

}  // namespace remedy
