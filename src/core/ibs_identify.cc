#include "core/ibs_identify.h"

#include <cmath>
#include <iterator>

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
  *out = {counter.PatternFor(key, mask), counts, neighbor_counts, ratio,
          neighbor_ratio};
  return RegionVerdict::kBiased;
}

std::vector<BiasedRegion> IdentifyIbsInNode(Hierarchy& hierarchy,
                                            uint32_t mask,
                                            const IbsParams& params) {
  NeighborhoodCalculator neighborhood(hierarchy, params.distance_threshold);
  const bool use_optimized =
      params.algorithm == IbsAlgorithm::kOptimized &&
      neighborhood.SupportsOptimized(mask);

  // NodeTable iteration is already in ascending key order, so the sweep is
  // deterministic without re-sorting, and each entry carries its counts —
  // no second lookup per region.
  const NodeTable& node = hierarchy.NodeCounts(mask);
  NodeTableParents parents(hierarchy, mask);
  std::vector<BiasedRegion> biased;
  // Batch the per-region tallies locally and publish once per node, so the
  // inner sweep costs no atomics.
  int64_t reuse = 0;
  int64_t naive = 0;
  for (const auto& [key, counts] : node) {
    BiasedRegion region;
    const RegionVerdict verdict =
        ScoreRegion(hierarchy, neighborhood, use_optimized, mask, key, counts,
                    params, parents, &region);
    if (verdict == RegionVerdict::kSkipped) continue;
    use_optimized ? ++reuse : ++naive;
    if (verdict == RegionVerdict::kBiased) {
      biased.push_back(std::move(region));
    }
  }
  const PipelineMetrics& metrics = PipelineMetrics::Get();
  metrics.ibs_nodes_visited->Increment();
  metrics.ibs_hits->Increment(static_cast<int64_t>(biased.size()));
  if (reuse > 0) metrics.ibs_neighbor_reuse->Increment(reuse);
  if (naive > 0) metrics.ibs_neighbor_naive->Increment(naive);
  return biased;
}

namespace {

StatusOr<std::vector<BiasedRegion>> IdentifyWithHierarchy(
    Hierarchy& hierarchy, const IbsParams& params) {
  REMEDY_TRACE_SPAN("ibs/identify");
  // A spilled store maps its shard files here, so a missing or truncated
  // spill is a clean error from IdentifyIbs instead of a crash mid-count.
  RETURN_IF_ERROR(hierarchy.PrepareCounting());
  std::vector<BiasedRegion> ibs;
  for (uint32_t mask : ScopeMasks(hierarchy, params.scope)) {
    REMEDY_TRACE_SPAN_ARG("ibs/node", mask);
    std::vector<BiasedRegion> node_biased =
        IdentifyIbsInNode(hierarchy, mask, params);
    ibs.insert(ibs.end(), std::make_move_iterator(node_biased.begin()),
               std::make_move_iterator(node_biased.end()));
  }
  return ibs;
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
