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
  *out = {counter.PatternFor(key, mask), counts, neighbor_counts, ratio,
          neighbor_ratio};
  return RegionVerdict::kBiased;
}

NodeSweep::NodeSweep(Hierarchy& hierarchy, const IbsParams& params)
    : hierarchy_(hierarchy),
      params_(params),
      neighborhood_(hierarchy, params.distance_threshold) {}

int64_t NodeSweep::Sweep(
    uint32_t mask, std::vector<std::pair<uint64_t, BiasedRegion>>* biased) {
  const bool use_optimized = params_.algorithm == IbsAlgorithm::kOptimized &&
                             neighborhood_.SupportsOptimized(mask);
  // NodeTable iteration is already in ascending key order, so the sweep is
  // deterministic without re-sorting, and each entry carries its counts —
  // no second lookup per region.
  const NodeTable& node = hierarchy_.NodeCounts(mask);
  const size_t first_biased = biased->size();
  int64_t scored = 0;
  if (use_optimized && !neighborhood_.WholeNodeNeighborhood(mask)) {
    scored = SweepParentSums(mask, node, biased);
  } else {
    NodeTableParents parents(hierarchy_, mask);
    for (const auto& [key, counts] : node) {
      BiasedRegion region;
      const RegionVerdict verdict =
          ScoreRegion(hierarchy_, neighborhood_, use_optimized, mask, key,
                      counts, params_, parents, &region);
      if (verdict == RegionVerdict::kSkipped) continue;
      ++scored;
      if (verdict == RegionVerdict::kBiased) {
        biased->emplace_back(key, std::move(region));
      }
    }
  }
  // Tallied per node, so the inner sweep costs no atomics.
  const PipelineMetrics& metrics = PipelineMetrics::Get();
  metrics.ibs_nodes_visited->Increment();
  metrics.ibs_hits->Increment(
      static_cast<int64_t>(biased->size() - first_biased));
  if (scored > 0) {
    (use_optimized ? metrics.ibs_neighbor_reuse : metrics.ibs_neighbor_naive)
        ->Increment(scored);
  }
  return scored;
}

int64_t NodeSweep::SweepParentSums(
    uint32_t mask, const NodeTable& node,
    std::vector<std::pair<uint64_t, BiasedRegion>>* biased) {
  // |r_n| = sum over the dominating regions R_d (one deterministic element
  // removed) - |R_d| * |r|. A level-1 node's one dominating region is the
  // whole dataset, shared by every region. (At T = 1 such a node is in the
  // whole-node regime; only a T within SupportsOptimized's tolerance below
  // 1 brings it here.)
  const RegionCounter& counter = hierarchy_.counter();
  sums_.assign(node.size(), RegionCounts{});
  RegionCounts shared;
  int64_t num_dominating = 0;
  for (uint32_t bits = mask; bits != 0; bits &= bits - 1) {
    const uint32_t parent_mask = mask & ~(bits & (~bits + 1));
    ++num_dominating;
    if (parent_mask == 0) {
      shared = hierarchy_.TotalCounts();
    } else {
      counter.AddParentCounts(node, mask, hierarchy_.NodeCounts(parent_mask),
                              parent_mask, sums_.data());
    }
  }
  int64_t scored = 0;
  const std::vector<NodeTable::Entry>& entries = node.entries();
  for (size_t i = 0; i < entries.size(); ++i) {
    const auto& [key, counts] = entries[i];
    if (counts.Total() <= params_.min_region_size) continue;
    ++scored;
    const RegionCounts neighbor_counts{
        shared.positives + sums_[i].positives -
            num_dominating * counts.positives,
        shared.negatives + sums_[i].negatives -
            num_dominating * counts.negatives};
    BiasedRegion region;
    if (JudgeRegion(counter, mask, key, counts, neighbor_counts, params_,
                    &region) == RegionVerdict::kBiased) {
      biased->emplace_back(key, std::move(region));
    }
  }
  return scored;
}

namespace {

std::vector<BiasedRegion> WithoutKeys(
    std::vector<std::pair<uint64_t, BiasedRegion>> keyed) {
  std::vector<BiasedRegion> regions;
  regions.reserve(keyed.size());
  for (auto& [key, region] : keyed) regions.push_back(std::move(region));
  return regions;
}

}  // namespace

std::vector<BiasedRegion> IdentifyIbsInNode(Hierarchy& hierarchy,
                                            uint32_t mask,
                                            const IbsParams& params) {
  std::vector<std::pair<uint64_t, BiasedRegion>> keyed;
  NodeSweep(hierarchy, params).Sweep(mask, &keyed);
  return WithoutKeys(std::move(keyed));
}

std::vector<BiasedRegion> IdentifyIbsInScope(Hierarchy& hierarchy,
                                             const IbsParams& params) {
  NodeSweep sweep(hierarchy, params);
  std::vector<std::pair<uint64_t, BiasedRegion>> keyed;
  for (uint32_t mask : ScopeMasks(hierarchy, params.scope)) {
    REMEDY_TRACE_SPAN_ARG("ibs/node", mask);
    sweep.Sweep(mask, &keyed);
  }
  return WithoutKeys(std::move(keyed));
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
