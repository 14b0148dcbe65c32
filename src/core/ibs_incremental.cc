#include "core/ibs_incremental.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/check.h"
#include "common/clock.h"
#include "common/pipeline_metrics.h"
#include "common/trace.h"
#include "core/imbalance.h"

namespace remedy {
namespace {

// The params fields a cached verdict depends on (backend choice only moves
// where counts come from, and counts are bit-identical across backends).
bool SameParams(const IbsParams& a, const IbsParams& b) {
  return a.imbalance_threshold == b.imbalance_threshold &&
         a.distance_threshold == b.distance_threshold &&
         a.min_region_size == b.min_region_size && a.scope == b.scope &&
         a.algorithm == b.algorithm;
}

// Phase-1 result for one scoped node.
struct NodeWork {
  enum class Kind {
    kClean,  // no verdict input moved: every cached verdict is exact
    kWhole,  // the re-evaluation set covers the node: score its NodeTable
    kKeys,   // score `gathered`, keep the cached verdicts elsewhere
  };
  uint32_t mask = 0;
  Kind kind = Kind::kClean;
  // kKeys: the re-evaluation keys that have a table entry, ascending, with
  // their counts.
  std::vector<NodeTable::Entry> gathered;
};

// The last of the `n` (>= 1) ascending entries at `first` whose key is <=
// `key`, or `first` when none is. Branch-free: the loop count depends only
// on `n`, so no comparison mispredicts — on the small, cache-resident
// gathered runs of phase 2 that halves the cost of a lookup. (On a large
// NodeTable the branchy std::lower_bound wins: its speculated loads
// overlap the cache misses that these dependent ones serialize.)
const NodeTable::Entry* FloorEntry(const NodeTable::Entry* first, size_t n,
                                   uint64_t key) {
  for (; n > 1; n -= n / 2) {
    first = first[n / 2].first <= key ? first + n / 2 : first;
  }
  return first;
}

// The entries of `node` at `keys` (ascending, unique); keys without an
// entry are regions the full sweep never visits, so they are dropped.
std::vector<NodeTable::Entry> GatherEntries(const NodeTable& node,
                                            const std::vector<uint64_t>& keys) {
  std::vector<NodeTable::Entry> gathered;
  gathered.reserve(keys.size());
  auto it = node.begin();
  for (uint64_t key : keys) {
    // Keys ascend, so each search starts where the previous one ended.
    it = std::lower_bound(it, node.end(), key,
                          [](const NodeTable::Entry& entry, uint64_t k) {
                            return entry.first < k;
                          });
    if (it == node.end()) break;
    if (it->first == key) gathered.push_back(*it);
  }
  return gathered;
}

// Parent-count source of phase 2 for a gathered node: a dominating
// region's counts from the parent node's gathered set when it is there —
// under T = 1 on nominal attributes every parent of a re-scored region is
// dirty or on the frontier — or from the table of a parent re-scored
// whole, which holds every key, searched the same branch-free way; else
// from the parent's NodeTable (Leaf/Top scopes, whole-node parents under
// steady totals). All hold the same counts.
class GatheredParents {
 public:
  GatheredParents(Hierarchy& hierarchy, uint32_t mask,
                  const std::unordered_map<uint32_t, const NodeWork*>& work)
      : tables_(hierarchy, mask), mask_(mask) {
    for (uint32_t bits = mask; bits != 0; bits &= bits - 1) {
      const uint32_t parent_mask = mask & ~(bits & (~bits + 1));
      auto it = work.find(parent_mask);
      if (it == work.end()) continue;
      const std::vector<NodeTable::Entry>*& run =
          gathered_[std::countr_zero(mask ^ parent_mask)];
      if (it->second->kind == NodeWork::Kind::kKeys) {
        run = &it->second->gathered;
      } else if (it->second->kind == NodeWork::Kind::kWhole) {
        run = &hierarchy.NodeCounts(parent_mask).entries();
      }
    }
  }

  const RegionCounts& operator()(uint32_t parent_mask, uint64_t parent_key) {
    // A parent drops one position of its child's mask, so the index is
    // below 32; the `& 31` tells GCC's -Warray-bounds as much.
    const std::vector<NodeTable::Entry>* gathered =
        gathered_[std::countr_zero(mask_ ^ parent_mask) & 31];
    if (gathered != nullptr && !gathered->empty()) {
      const NodeTable::Entry* entry =
          FloorEntry(gathered->data(), gathered->size(), parent_key);
      if (entry->first == parent_key) return entry->second;
    }
    return tables_(parent_mask, parent_key);
  }

 private:
  NodeTableParents tables_;
  uint32_t mask_;
  const std::vector<NodeTable::Entry>* gathered_[32] = {};
};

}  // namespace

std::string IncrementalIbsState::FullPassReason(const Hierarchy& hierarchy,
                                                const IbsParams& params) const {
  if (!pending_reason_.empty()) return pending_reason_;
  if (!have_cache_) return "cold_cache";
  if (cached_hierarchy_ != &hierarchy) return "hierarchy_swapped";
  if (cached_generation_ != hierarchy.mutation_generation()) {
    return "lattice_rebuilt";
  }
  if (!SameParams(cached_params_, params)) return "params_changed";
  if (!hierarchy.dirty_tracking()) return "tracking_disabled";
  return "";
}

std::vector<BiasedRegion> IncrementalIbsState::FullPass(
    Hierarchy& hierarchy, const IbsParams& params, const std::string& reason) {
  REMEDY_TRACE_SPAN("ibs_incr/full_pass");
  PipelineMetrics::Get().ibs_incr_full_fallbacks->Increment();
  stats_ = {};
  last_fallback_reason_ = reason;
  cache_.clear();
  std::vector<BiasedRegion> out;
  for (uint32_t mask : ScopeMasks(hierarchy, params.scope)) {
    NodeCache& cached = cache_[mask];
    // A sweep per node, which frees its sum buffer after each node: one
    // held across the pass read about 20 MB more peak RSS in the serving
    // daemon (heap layout; the live data is the same).
    NodeSweep(hierarchy, params).Sweep(mask, &cached.biased);
    for (const auto& [key, region] : cached.biased) out.push_back(region);
  }
  have_cache_ = true;
  pending_reason_.clear();
  cached_hierarchy_ = &hierarchy;
  cached_params_ = params;
  // From here on the dirty set describes exactly what diverges from the
  // cache; the generation stamp catches anything it would not.
  hierarchy.EnableDirtyTracking();
  hierarchy.ClearDirtySet();
  cached_generation_ = hierarchy.mutation_generation();
  return out;
}

std::vector<BiasedRegion> IncrementalIbsState::Identify(
    Hierarchy& hierarchy, const IbsParams& params) {
  const std::string reason = FullPassReason(hierarchy, params);
  if (!reason.empty()) return FullPass(hierarchy, params, reason);

  REMEDY_TRACE_SPAN("ibs_incr/identify");
  const int64_t start_ns = MonotonicNanos();
  stats_ = {};
  stats_.incremental = true;
  const DirtySet& dirty = hierarchy.dirty_set();
  const bool totals_drifted =
      dirty.delta_positives != 0 || dirty.delta_negatives != 0;
  {
    auto leaf_it = dirty.touched.find(hierarchy.LeafMask());
    if (leaf_it != dirty.touched.end()) {
      stats_.dirty_leaves = static_cast<int64_t>(leaf_it->second.size());
    }
  }

  NodeSweep sweep(hierarchy, params);
  NeighborhoodCalculator& neighborhood = sweep.neighborhood();
  const std::vector<uint32_t> masks = ScopeMasks(hierarchy, params.scope);

  // Phase 1: each scoped node's re-evaluation set — the dirty keys (own
  // counts changed), plus, when a neighborhood is a proper subset of the
  // node, every key within distance T of a dirty key (its neighbor sum
  // includes the change; the metric is symmetric) — gathered with counts.
  // In the whole-node regime (r_n = totals - r) a totals drift moves every
  // region, so the whole node re-scores; with steady totals clean regions
  // keep r_n unchanged and only the dirty keys re-score.
  std::vector<NodeWork> work(masks.size());
  std::unordered_map<uint32_t, const NodeWork*> work_by_mask;
  for (size_t n = 0; n < masks.size(); ++n) {
    NodeWork& node_work = work[n];
    const uint32_t mask = masks[n];
    node_work.mask = mask;
    work_by_mask.emplace(mask, &node_work);
    auto dirty_it = dirty.touched.find(mask);
    const bool node_dirty =
        dirty_it != dirty.touched.end() && !dirty_it->second.empty();
    const bool whole_node = neighborhood.WholeNodeNeighborhood(mask);
    if (!node_dirty && !(whole_node && totals_drifted)) continue;  // kClean

    const NodeTable& node = hierarchy.NodeCounts(mask);
    if (node_dirty) {
      stats_.dirty_regions += static_cast<int64_t>(dirty_it->second.size());
    }
    if (whole_node && totals_drifted) {
      ++stats_.full_node_rescores;
      node_work.kind = NodeWork::Kind::kWhole;
      continue;
    }
    // Each dirty key re-scores itself and, when neighborhoods are proper
    // subsets of the node, at most FrontierBound - 1 frontier keys. Once
    // that reaches the node's entry count, scoring the whole table costs
    // no more than the set would and skips the expansion, sort and gather
    // (the seed batch, where every region is dirty, is one such node).
    const int64_t num_dirty = static_cast<int64_t>(dirty_it->second.size());
    const int64_t per_key =
        whole_node ? 1 : neighborhood.FrontierBound(mask);
    if (num_dirty * per_key >= static_cast<int64_t>(node.size())) {
      ++stats_.wide_node_rescores;
      node_work.kind = NodeWork::Kind::kWhole;
      continue;
    }
    std::vector<uint64_t> reeval(dirty_it->second.begin(),
                                 dirty_it->second.end());
    if (!whole_node) {
      for (int64_t i = 0; i < num_dirty; ++i) {
        neighborhood.AppendNeighborKeys(mask, reeval[i], &reeval);
      }
    }
    std::sort(reeval.begin(), reeval.end());
    reeval.erase(std::unique(reeval.begin(), reeval.end()), reeval.end());
    if (!whole_node) {
      stats_.expanded_regions +=
          static_cast<int64_t>(reeval.size()) - num_dirty;
    }
    node_work.gathered = GatherEntries(node, reeval);
    if (node_work.gathered.size() == node.size()) {
      // Covers the node: score the table itself, holding no copy of it.
      node_work.gathered = {};
      node_work.kind = NodeWork::Kind::kWhole;
    } else {
      node_work.kind = NodeWork::Kind::kKeys;
    }
  }

  // Phase 2: score each node's re-evaluation set with key arithmetic,
  // merged with its cached verdicts in one ascending-key walk — the
  // NodeTable iteration order of the full sweep.
  int64_t reuse = 0;
  int64_t naive = 0;
  size_t out_size = 0;
  for (const NodeWork& node_work : work) {
    const uint32_t mask = node_work.mask;
    NodeCache& cached = cache_[mask];
    if (node_work.kind == NodeWork::Kind::kClean) {
      stats_.cached_regions += static_cast<int64_t>(cached.biased.size());
      out_size += cached.biased.size();
      continue;
    }
    const bool use_optimized = params.algorithm == IbsAlgorithm::kOptimized &&
                               neighborhood.SupportsOptimized(mask);
    std::vector<std::pair<uint64_t, BiasedRegion>> fresh;
    auto score = [&](uint64_t key, const RegionCounts& counts,
                     auto& parents) {
      BiasedRegion region;
      const RegionVerdict verdict =
          ScoreRegion(hierarchy, neighborhood, use_optimized, mask, key,
                      counts, params, parents, &region);
      if (verdict == RegionVerdict::kSkipped) return;
      ++stats_.rescored_regions;
      use_optimized ? ++reuse : ++naive;
      if (verdict == RegionVerdict::kBiased) {
        fresh.emplace_back(key, std::move(region));
      }
    };
    if (node_work.kind == NodeWork::Kind::kWhole) {
      // The full sweep of this node: a parent's gathered set would miss
      // for most of its keys, so the sweep walks the parents' tables.
      stats_.rescored_regions += sweep.Sweep(mask, &fresh);
    } else {
      GatheredParents parents(hierarchy, mask, work_by_mask);
      fresh.reserve(cached.biased.size());
      size_t ci = 0;
      for (const auto& [key, counts] : node_work.gathered) {
        for (; ci < cached.biased.size() && cached.biased[ci].first < key;
             ++ci) {
          fresh.push_back(std::move(cached.biased[ci]));
          ++stats_.cached_regions;
        }
        if (ci < cached.biased.size() && cached.biased[ci].first == key) {
          ++ci;  // superseded by the re-score below
        }
        score(key, counts, parents);
      }
      for (; ci < cached.biased.size(); ++ci) {
        fresh.push_back(std::move(cached.biased[ci]));
        ++stats_.cached_regions;
      }
    }
    cached.biased = std::move(fresh);
    out_size += cached.biased.size();
  }
  // The pass's one copy of the verdicts: the caller owns its output.
  std::vector<BiasedRegion> out;
  out.reserve(out_size);
  for (uint32_t mask : masks) {
    for (const auto& [key, region] : cache_[mask].biased) {
      out.push_back(region);
    }
  }
  hierarchy.ClearDirtySet();
  cached_generation_ = hierarchy.mutation_generation();

  const PipelineMetrics& metrics = PipelineMetrics::Get();
  metrics.ibs_incr_dirty_leaves->Increment(stats_.dirty_leaves);
  metrics.ibs_incr_rescored_regions->Increment(stats_.rescored_regions);
  metrics.ibs_incr_neighborhood_expansions->Increment(
      stats_.expanded_regions);
  metrics.ibs_incr_cache_hits->Increment(stats_.cached_regions);
  metrics.ibs_incr_wide_node_rescores->Increment(stats_.wide_node_rescores);
  if (reuse > 0) metrics.ibs_neighbor_reuse->Increment(reuse);
  if (naive > 0) metrics.ibs_neighbor_naive->Increment(naive);
  metrics.ibs_incr_identify_ns->Observe(MonotonicNanos() - start_ns);
  return out;
}

void IncrementalIbsState::Invalidate(const std::string& reason) {
  pending_reason_ = reason.empty() ? "invalidated" : reason;
  have_cache_ = false;
  cache_.clear();
}

uint64_t IbsSetDigest(const std::vector<BiasedRegion>& ibs) {
  uint64_t digest = 14695981039346656037ull;
  auto mix = [&digest](uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      digest ^= (value >> (8 * i)) & 0xff;
      digest *= 1099511628211ull;
    }
  };
  auto mix_double = [&mix](double value) {
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    mix(bits);
  };
  mix(static_cast<uint64_t>(ibs.size()));
  for (const BiasedRegion& region : ibs) {
    mix(region.pattern.DeterministicMask());
    mix(static_cast<uint64_t>(region.pattern.Arity()));
    for (int i = 0; i < region.pattern.Arity(); ++i) {
      mix(static_cast<uint64_t>(
          static_cast<int64_t>(region.pattern.Value(i))));
    }
    mix(static_cast<uint64_t>(region.counts.positives));
    mix(static_cast<uint64_t>(region.counts.negatives));
    mix(static_cast<uint64_t>(region.neighbor_counts.positives));
    mix(static_cast<uint64_t>(region.neighbor_counts.negatives));
    mix_double(region.ratio);
    mix_double(region.neighbor_ratio);
  }
  return digest;
}

}  // namespace remedy
