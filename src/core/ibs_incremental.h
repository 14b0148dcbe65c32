#ifndef REMEDY_CORE_IBS_INCREMENTAL_H_
#define REMEDY_CORE_IBS_INCREMENTAL_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/hierarchy.h"
#include "core/ibs_identify.h"

namespace remedy {

// Per-pass accounting of one IncrementalIbsState::Identify call.
struct IncrementalIdentifyStats {
  bool incremental = false;      // false: the pass fell back to a full sweep
  int64_t dirty_leaves = 0;      // leaf region keys the epoch's deltas touched
  int64_t dirty_regions = 0;     // touched keys summed over every node
  int64_t rescored_regions = 0;  // regions re-scored this pass
  int64_t expanded_regions = 0;  // neighborhood-frontier keys added to dirty
  int64_t cached_regions = 0;    // biased verdicts reused from the cache
  int64_t full_node_rescores = 0;  // whole nodes re-swept (T >= diameter)
  // Whole nodes re-scored because dirty keys x frontier bound reached the
  // node's entry count (wide batches, the seed batch).
  int64_t wide_node_rescores = 0;
};

// Dirty-region incremental IBS maintenance: caches the previous identify
// pass's per-node biased verdicts and, on the next pass, re-scores only the
// regions the interim ApplyDeltas batches touched (Hierarchy::dirty_set())
// plus their comparison neighborhoods, merging with the cached verdicts
// elsewhere. A pass runs in two phases:
//
//  1. Gather: for every scoped node, the sorted re-evaluation keys — dirty
//     keys plus their distance-T frontier, enumerated on key digits — with
//     their counts, each galloping on from the previous match in the
//     node's table. A node whose set could cover it — dirty keys x
//     NeighborhoodCalculator::FrontierBound (1 + sum (c_i - 1) at T = 1
//     on nominal attributes) reaches its entry count, as on a wide batch
//     or the seed batch — is not expanded, sorted or gathered at all:
//     phase 2 sweeps its NodeTable directly with the full identify's
//     NodeSweep (a "wide node re-score"), so a pass never costs more than
//     a full sweep plus the narrow nodes' sets, and no lattice-sized
//     transient is ever held.
//  2. Score: each gathered set runs the full identify's sweep
//     (NodeSweep::SweepRun) over its run of entries instead of the whole
//     table: under T = 1 on nominal attributes one galloping merge-walk per
//     parent node (RegionCounter::AddParentCounts) sums the dominating
//     regions of every gathered region into a per-entry array, and each
//     region is judged as the full sweep judges it. A parent is walked
//     over its own gathered run when that set took the distance-T frontier
//     in — every parent of a re-scored region is then dirty or on the
//     parent's frontier — and over its NodeTable otherwise (whole-node
//     parents under steady totals, parents re-scored whole, parents
//     outside the Leaf/Top scopes). A node swept whole runs NodeSweep::
//     Sweep. A Pattern is decoded only for a biased verdict, and each
//     node's re-scored verdicts are merged with its cached ones in one
//     ascending-key walk.
//
// So a pass costs O(re-evaluated regions x (|X| galloping steps)), with
// each node's share capped at one sweep of its table, plus one copy of the
// verdicts into the output — a block copy, BiasedRegion being trivially
// copyable; the caller owns it (the daemon moves it into its epoch
// snapshot). The output is bit-identical to a from-scratch sweep of
// IdentifyIbsInNode over ScopeMasks — same regions, same floats, same
// order — because:
//
//  * every re-scored region gets the neighbor counts the full sweep
//    computes — exact integer sums of the same dominating regions (or the
//    same naive enumeration), from the same counts (a gathered set holds
//    copies of table entries) — and is judged by the same JudgeRegion;
//  * a region is re-scored iff its verdict's inputs could have changed: its
//    own counts changed (it is dirty), or a region within distance T of it
//    changed (the dirty frontier expanded one neighborhood hop — the metric
//    is symmetric, so "neighbors of dirty" is exactly "regions whose
//    neighborhood contains a dirty region"); in the T >= node-diameter
//    regime, where r_n = totals - r, the whole node is re-swept when the
//    totals drifted and only the dirty regions when they did not;
//  * the merged per-node output walks cached and re-scored entries in
//    ascending key order — the NodeTable iteration order of the full sweep.
//
// Falls back to a full sweep (recording why) on: a cold cache, an
// Invalidate() call (the daemon does this on recovery), a rebuilt or
// swapped hierarchy, a params change, or dirty tracking having been off
// while deltas applied (Hierarchy::mutation_generation() moves).
//
// Not thread-safe; the daemon drives it from its single apply thread.
class IncrementalIbsState {
 public:
  // The identify pass: incremental when the cache is valid, else a full
  // sweep that (re)fills it. Consumes and clears the hierarchy's dirty set
  // and enables dirty tracking for the next inter-pass window.
  std::vector<BiasedRegion> Identify(Hierarchy& hierarchy,
                                     const IbsParams& params);

  // Forces the next Identify to run a full sweep, recording `reason` as
  // the fallback reason (e.g. "recovery").
  void Invalidate(const std::string& reason);

  // Accounting of the most recent Identify call.
  const IncrementalIdentifyStats& last_stats() const { return stats_; }

  // Why the most recent full sweep ran ("" until one has). Sticky: later
  // incremental passes do not clear it, so a health report can always say
  // what last forced a fallback.
  const std::string& last_fallback_reason() const {
    return last_fallback_reason_;
  }

  bool has_cache() const { return have_cache_; }

 private:
  struct NodeCache {
    // Biased verdicts of one node, ascending by region key.
    std::vector<BiasedRegion> biased;
  };

  // Non-empty reason iff the cache cannot serve `hierarchy` + `params`.
  std::string FullPassReason(const Hierarchy& hierarchy,
                             const IbsParams& params) const;

  std::vector<BiasedRegion> FullPass(Hierarchy& hierarchy,
                                     const IbsParams& params,
                                     const std::string& reason);

  std::unordered_map<uint32_t, NodeCache> cache_;
  bool have_cache_ = false;
  std::string pending_reason_ = "cold_cache";  // non-empty: full pass forced
  const Hierarchy* cached_hierarchy_ = nullptr;
  uint64_t cached_generation_ = 0;
  IbsParams cached_params_;
  IncrementalIdentifyStats stats_;
  std::string last_fallback_reason_;
};

// Order-sensitive FNV-1a digest over an identified subgroup set: pattern
// values, counts, neighbor counts, and the raw ratio bits of every region.
// Two IBS vectors digest equal iff they are byte-identical region for
// region — the parity check of the incremental identify tests and the
// serve_steady bench.
uint64_t IbsSetDigest(const std::vector<BiasedRegion>& ibs);

}  // namespace remedy

#endif  // REMEDY_CORE_IBS_INCREMENTAL_H_
