#include "core/ibs_incremental.h"

#include <algorithm>
#include <cstring>
#include <span>

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
  // kKeys: whether the re-evaluation set holds the dirty keys' distance-T
  // frontier too (the node's neighborhoods are proper subsets of it).
  bool frontier = false;
  // kKeys: the re-evaluation keys, ascending.
  std::vector<uint64_t> keys;
  // kKeys: the entries at `keys` with more than min_region_size instances,
  // ascending — the regions the re-score judges. A region at or under the
  // floor is never judged, and every parent of a judged one is above it
  // (a parent contains its child), so a parent's run loses no projection
  // a child's run needs.
  std::vector<NodeTable::Entry> gathered;
};

// The entries of `node` at `keys` (ascending, unique); keys without an
// entry are regions the full sweep never visits, so they are dropped.
std::vector<NodeTable::Entry> GatherEntries(const NodeTable& node,
                                            const std::vector<uint64_t>& keys) {
  const std::vector<NodeTable::Entry>& entries = node.entries();
  std::vector<NodeTable::Entry> gathered;
  gathered.reserve(keys.size());
  size_t at = 0;
  for (uint64_t key : keys) {
    // Keys ascend, so each search gallops on from the previous match.
    at = GallopTo(entries, at, key);
    if (at == entries.size()) break;
    if (entries[at].first == key) gathered.push_back(entries[at]);
  }
  return gathered;
}

// A gathered node's verdicts after its re-score: the verdicts `rescored`
// for the re-evaluation `keys` merged, ascending by key, with the cached
// verdicts of every key outside them, copied run by run. Adds the cached
// verdicts kept to `*kept`.
std::vector<BiasedRegion> MergeVerdicts(
    const std::vector<BiasedRegion>& cached,
    const std::vector<uint64_t>& keys,
    const std::vector<BiasedRegion>& rescored, int64_t* kept) {
  std::vector<BiasedRegion> merged;
  merged.reserve(cached.size() + rescored.size());
  size_t c = 0;  // the first cached verdict not yet placed
  size_t r = 0;
  for (uint64_t key : keys) {
    size_t end = c;
    while (end < cached.size() && cached[end].key < key) ++end;
    merged.insert(merged.end(), cached.begin() + c, cached.begin() + end);
    *kept += static_cast<int64_t>(end - c);
    c = end;
    if (c < cached.size() && cached[c].key == key) ++c;  // re-scored
    if (r < rescored.size() && rescored[r].key == key) {
      merged.push_back(rescored[r++]);
    }
  }
  merged.insert(merged.end(), cached.begin() + c, cached.end());
  *kept += static_cast<int64_t>(cached.size() - c);
  return merged;
}

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
    out.insert(out.end(), cached.biased.begin(), cached.biased.end());
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
      node_work.frontier = !whole_node;
      std::erase_if(node_work.gathered, [&](const NodeTable::Entry& entry) {
        return entry.second.Total() <= params.min_region_size;
      });
      node_work.keys = std::move(reeval);
    }
  }

  // Phase 2: score each node's re-evaluation set the way the full sweep
  // scores a table — over the gathered run instead of the whole table —
  // and merge it with the node's cached verdicts in ascending key order,
  // the NodeTable iteration order of the full sweep.
  int64_t reuse = 0;
  int64_t naive = 0;
  size_t out_size = 0;
  std::vector<BiasedRegion> rescored;
  for (const NodeWork& node_work : work) {
    const uint32_t mask = node_work.mask;
    NodeCache& cached = cache_[mask];
    if (node_work.kind == NodeWork::Kind::kClean) {
      stats_.cached_regions += static_cast<int64_t>(cached.biased.size());
      out_size += cached.biased.size();
      continue;
    }
    int64_t scored = 0;
    if (node_work.kind == NodeWork::Kind::kWhole) {
      cached.biased.clear();
      scored = sweep.Sweep(mask, &cached.biased);
    } else {
      // A parent's gathered run holds the projection of every gathered key
      // here only when its own set took the frontier in: under T = 1 on
      // nominal attributes a key's projection is then dirty or on the
      // parent's frontier. Every other parent — one with a whole-node
      // neighborhood (its set holds only its dirty keys under steady
      // totals), one re-scored whole, one outside the scope — is read
      // from its table.
      const NodeSweep::ParentRun parent_run =
          [&](uint32_t parent_mask) -> std::span<const NodeTable::Entry> {
        auto it = work_by_mask.find(parent_mask);
        if (it != work_by_mask.end() &&
            it->second->kind == NodeWork::Kind::kKeys &&
            it->second->frontier) {
          return it->second->gathered;
        }
        return hierarchy.NodeCounts(parent_mask).entries();
      };
      rescored.clear();
      scored = sweep.SweepRun(mask, node_work.gathered, parent_run, &rescored);
      (sweep.UsesOptimized(mask) ? reuse : naive) += scored;
      cached.biased = MergeVerdicts(cached.biased, node_work.keys, rescored,
                                    &stats_.cached_regions);
    }
    stats_.rescored_regions += scored;
    out_size += cached.biased.size();
  }
  // The pass's one copy of the verdicts: the caller owns its output.
  std::vector<BiasedRegion> out;
  out.reserve(out_size);
  for (uint32_t mask : masks) {
    const std::vector<BiasedRegion>& biased = cache_[mask].biased;
    out.insert(out.end(), biased.begin(), biased.end());
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
