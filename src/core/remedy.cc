#include "core/remedy.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <unordered_map>
#include <utility>

#include "common/check.h"
#include "common/fault_injection.h"
#include "common/pipeline_metrics.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "core/ranker.h"

namespace remedy {
namespace {

constexpr double kZeroRatioEpsilon = 1e-12;

int64_t ClampCount(double value, int64_t lo, int64_t hi) {
  int64_t rounded = std::llround(value);
  return std::clamp(rounded, lo, hi);
}

// Ranks `rows` (instances of class `label`) most-borderline-first; the two
// engines bind this to a fresh model evaluation or to the score cache.
using RankFn = std::function<std::vector<int>(const std::vector<int>& rows,
                                              int label)>;

// The concrete rows one region's remedy wants to touch. Planning is a pure
// read of the working set, so the plans of one node's (disjoint) regions can
// be computed in parallel; stats and the oversampling budget are settled in
// a deterministic merge pass afterwards.
struct RegionPlan {
  std::vector<int> to_flip;
  std::vector<int> to_remove;
  std::vector<int> duplicates;
  int64_t requested_adds = 0;  // oversampling demand before any budget cap
  bool skipped = false;        // unreachable target or empty source
  bool planned = false;        // the region had a non-trivial update
};

RegionPlan PlanRegion(RemedyTechnique technique, const RegionUpdate& update,
                      const std::vector<int>& positive_rows,
                      const std::vector<int>& negative_rows,
                      const RankFn& rank, Rng& rng, int64_t add_cap) {
  RegionPlan plan;
  plan.planned = true;

  // Pulls the concrete rows for one class-side delta.
  auto pick_random = [&rng](const std::vector<int>& source, int64_t count,
                            bool with_replacement) {
    std::vector<int> picked;
    if (source.empty() || count <= 0) return picked;
    if (with_replacement) {
      picked.reserve(count);
      for (int64_t i = 0; i < count; ++i) {
        picked.push_back(
            source[rng.UniformInt(static_cast<int>(source.size()))]);
      }
    } else {
      std::vector<int> indices = rng.SampleWithoutReplacement(
          static_cast<int>(source.size()),
          static_cast<int>(std::min<int64_t>(count, source.size())));
      for (int index : indices) picked.push_back(source[index]);
    }
    return picked;
  };

  auto pick_borderline = [&rank](const std::vector<int>& source, int label,
                                 int64_t count, bool allow_repeat) {
    std::vector<int> picked;
    if (source.empty() || count <= 0) return picked;
    std::vector<int> ranked = rank(source, label);
    picked.reserve(count);
    for (int64_t i = 0; i < count; ++i) {
      if (!allow_repeat && i >= static_cast<int64_t>(ranked.size())) break;
      picked.push_back(ranked[i % ranked.size()]);
    }
    return picked;
  };

  switch (technique) {
    case RemedyTechnique::kOversample: {
      const std::vector<int>& source =
          update.delta_negatives > 0 ? negative_rows : positive_rows;
      int64_t want =
          std::max(update.delta_negatives, update.delta_positives);
      plan.requested_adds = want;
      if (source.empty()) {
        plan.skipped = true;  // nothing to duplicate from
        break;
      }
      // The merge pass cuts the plan to the exact sequential budget; the
      // cap only bounds the work of planning far past an exhausted budget.
      if (add_cap >= 0) want = std::min(want, add_cap);
      plan.duplicates = pick_random(source, want, /*with_replacement=*/true);
      break;
    }
    case RemedyTechnique::kUndersample: {
      int64_t remove_positives =
          -std::min<int64_t>(update.delta_positives, 0);
      int64_t remove_negatives =
          -std::min<int64_t>(update.delta_negatives, 0);
      plan.to_remove = pick_random(positive_rows, remove_positives, false);
      std::vector<int> picked_neg =
          pick_random(negative_rows, remove_negatives, false);
      plan.to_remove.insert(plan.to_remove.end(), picked_neg.begin(),
                            picked_neg.end());
      break;
    }
    case RemedyTechnique::kPreferentialSampling: {
      // Duplication draws from the other class; with no instance to
      // duplicate the exchange cannot move the ratio toward the target.
      const std::vector<int>& duplication_source =
          update.delta_positives < 0 ? negative_rows : positive_rows;
      if (duplication_source.empty()) {
        plan.skipped = true;
        break;
      }
      if (update.delta_positives < 0) {
        // Drop borderline positives, duplicate borderline negatives.
        plan.to_remove = pick_borderline(positive_rows, 1,
                                         -update.delta_positives, false);
        plan.duplicates = pick_borderline(negative_rows, 0,
                                          update.delta_negatives, true);
      } else {
        plan.to_remove = pick_borderline(negative_rows, 0,
                                         -update.delta_negatives, false);
        plan.duplicates = pick_borderline(positive_rows, 1,
                                          update.delta_positives, true);
      }
      break;
    }
    case RemedyTechnique::kMassaging: {
      const bool flip_positives = update.delta_positives < 0;
      plan.to_flip = pick_borderline(
          flip_positives ? positive_rows : negative_rows,
          flip_positives ? 1 : 0, update.flips, false);
      break;
    }
  }
  return plan;
}

// The row lists one node visit commits to the working set.
struct NodeActions {
  std::vector<int> to_flip;
  std::vector<int> to_remove;
  std::vector<int> duplicates;
};

// Settles one node's plans in region order: budget truncation for
// oversampling, skip/processed accounting. Deterministic regardless of how
// the plans were computed, which is what makes parallel planning safe.
NodeActions MergeNodePlans(std::vector<RegionPlan>& plans,
                           const RemedyParams& params, RemedyStats& stats) {
  NodeActions actions;
  for (RegionPlan& plan : plans) {
    if (plan.skipped) {
      ++stats.regions_skipped;
      continue;
    }
    if (!plan.planned) continue;
    if (params.technique == RemedyTechnique::kOversample &&
        params.max_added_total >= 0) {
      const int64_t budget =
          params.max_added_total - stats.instances_added -
          static_cast<int64_t>(actions.duplicates.size());
      if (plan.requested_adds > budget) {
        stats.add_budget_exhausted = true;
        const int64_t keep =
            std::clamp<int64_t>(budget, 0,
                                static_cast<int64_t>(plan.duplicates.size()));
        plan.duplicates.resize(keep);
      }
    }
    const bool acted = !plan.to_flip.empty() || !plan.to_remove.empty() ||
                       !plan.duplicates.empty();
    actions.to_flip.insert(actions.to_flip.end(), plan.to_flip.begin(),
                           plan.to_flip.end());
    actions.to_remove.insert(actions.to_remove.end(), plan.to_remove.begin(),
                             plan.to_remove.end());
    actions.duplicates.insert(actions.duplicates.end(),
                              plan.duplicates.begin(), plan.duplicates.end());
    if (acted) ++stats.regions_processed;
  }
  return actions;
}

bool NeedsRanker(RemedyTechnique technique) {
  return technique == RemedyTechnique::kPreferentialSampling ||
         technique == RemedyTechnique::kMassaging;
}

// ---------------------------------------------------------------------------
// Rebuild-from-scratch reference engine: the lattice is invalidated and the
// dataset copied after every node that changed. Kept as the equivalence
// oracle for the incremental engine (and for measuring its speedup).
// ---------------------------------------------------------------------------

Dataset RemedyRebuild(const Dataset& train, const RemedyParams& params,
                      RemedyStats* stats_out) {
  Dataset working = train;
  RemedyStats stats;

  // The ranker is trained once on the original data, as in the paper's
  // "train the ranker" step; it scores rows of the evolving working set.
  std::unique_ptr<BorderlineRanker> ranker;
  if (NeedsRanker(params.technique)) {
    ranker = std::make_unique<BorderlineRanker>(train);
  }

  Hierarchy hierarchy(working);
  NodeSweep sweep(hierarchy, params.ibs);
  std::vector<BiasedRegion> biased;
  for (uint32_t mask : ScopeMasks(hierarchy, params.ibs.scope)) {
    REMEDY_TRACE_SPAN_ARG("remedy/node", mask);
    biased.clear();
    sweep.Sweep(mask, &biased);
    if (biased.empty()) continue;

    auto rows_by_key = hierarchy.counter().CollectRows(working, mask);
    std::vector<RegionPlan> plans(biased.size());
    for (size_t i = 0; i < biased.size(); ++i) {
      REMEDY_TRACE_SPAN("remedy/plan_region");
      const BiasedRegion& region = biased[i];
      RegionUpdate update =
          ComputeUpdate(params.technique, region.counts.positives,
                        region.counts.negatives, region.neighbor_ratio);
      if (!update.reachable) {
        plans[i].skipped = true;
        continue;
      }
      if (update.delta_positives == 0 && update.delta_negatives == 0) {
        continue;  // rounding left nothing to do
      }
      const std::vector<int>& region_rows = rows_by_key.at(region.key);
      std::vector<int> positive_rows, negative_rows;
      for (int row : region_rows) {
        (working.Label(row) == 1 ? positive_rows : negative_rows)
            .push_back(row);
      }
      Rng rng(RemedyRegionSeed(params.seed, mask, region.key));
      RankFn rank = [&working, &ranker](const std::vector<int>& rows,
                                        int label) {
        return ranker->RankBorderline(working, rows, label);
      };
      plans[i] = PlanRegion(params.technique, update, positive_rows,
                            negative_rows, rank, rng, params.max_added_total);
    }

    NodeActions actions = MergeNodePlans(plans, params, stats);
    if (actions.to_flip.empty() && actions.duplicates.empty() &&
        actions.to_remove.empty()) {
      continue;
    }

    for (int row : actions.to_flip) {
      working.SetLabel(row, 1 - working.Label(row));
    }
    for (int row : actions.duplicates) working.AppendRowFrom(working, row);
    if (!actions.to_remove.empty()) working = working.Remove(actions.to_remove);

    stats.labels_flipped += static_cast<int64_t>(actions.to_flip.size());
    stats.instances_added += static_cast<int64_t>(actions.duplicates.size());
    stats.instances_removed +=
        static_cast<int64_t>(actions.to_remove.size());
    hierarchy.Invalidate();
  }

  if (stats_out != nullptr) *stats_out = stats;
  return working;
}

// ---------------------------------------------------------------------------
// Incremental engine.
// ---------------------------------------------------------------------------

// Mutable view of the training copy the incremental engine remedies:
// removals tombstone the alive mask (compacted once at the end), appends go
// at the tail, and every row carries its leaf region key and — when a ranker
// is in play — its cached borderline score. `leaf_rows` buckets row indices
// by leaf key; buckets keep tombstoned rows (readers filter on `alive`), so
// maintenance is append-only.
struct WorkingSet {
  Dataset data;
  std::vector<char> alive;
  std::vector<uint64_t> leaf_keys;
  std::unordered_map<uint64_t, std::vector<int>> leaf_rows;
  std::vector<double> scores;  // empty unless the technique ranks rows
};

// Rows of each biased region of node `mask`, alive only, ascending by row
// index (the order CollectRows-based planning sees). Two gather strategies,
// chosen by cost: enumerate the leaf keys projecting into each region (cheap
// near the leaves, where few attributes are free), or sweep every leaf
// bucket once and route it to the region its projection hits (cheap near the
// root, where a region's leaf support approaches the whole table).
std::vector<std::vector<int>> GatherRegionRows(
    const WorkingSet& ws, const Hierarchy& hierarchy, uint32_t mask,
    const std::vector<BiasedRegion>& biased) {
  const RegionCounter& counter = hierarchy.counter();
  const uint32_t leaf = hierarchy.LeafMask();
  const int num_protected = counter.NumProtected();
  std::vector<std::vector<int>> region_rows(biased.size());

  auto append_alive = [&ws](const std::vector<int>& bucket,
                            std::vector<int>* out) {
    for (int row : bucket) {
      if (ws.alive[row]) out->push_back(row);
    }
  };

  const uint64_t missing_space = counter.KeySpace(leaf & ~mask);
  const uint64_t enumerate_cost =
      missing_space * static_cast<uint64_t>(biased.size());
  if (enumerate_cost <= ws.leaf_rows.size()) {
    for (size_t i = 0; i < biased.size(); ++i) {
      // Odometer over the free (non-deterministic) positions: every value
      // combination completes the region pattern to one leaf key.
      std::vector<int> values(num_protected, 0);
      std::vector<int> free_positions;
      for (int p = 0; p < num_protected; ++p) {
        if (mask & (1u << p)) {
          values[p] = biased[i].pattern.Value(p);
        } else {
          free_positions.push_back(p);
        }
      }
      for (;;) {
        uint64_t key = 0;
        for (int p = 0; p < num_protected; ++p) {
          key = key * counter.Cardinality(p) +
                static_cast<uint64_t>(values[p]);
        }
        auto it = ws.leaf_rows.find(key);
        if (it != ws.leaf_rows.end()) {
          append_alive(it->second, &region_rows[i]);
        }
        int d = static_cast<int>(free_positions.size()) - 1;
        for (; d >= 0; --d) {
          const int p = free_positions[d];
          if (++values[p] < counter.Cardinality(p)) break;
          values[p] = 0;
        }
        if (d < 0) break;
      }
    }
  } else {
    std::unordered_map<uint64_t, size_t> wanted;
    wanted.reserve(biased.size() * 2);
    for (size_t i = 0; i < biased.size(); ++i) {
      wanted.emplace(biased[i].key, i);
    }
    for (const auto& [leaf_key, bucket] : ws.leaf_rows) {
      auto it = wanted.find(counter.ProjectKey(leaf_key, leaf, mask));
      if (it == wanted.end()) continue;
      append_alive(bucket, &region_rows[it->second]);
    }
  }
  for (std::vector<int>& rows : region_rows) {
    std::sort(rows.begin(), rows.end());
  }
  return region_rows;
}

StatusOr<Dataset> RemedyIncremental(const Dataset& train,
                                    const RemedyParams& params,
                                    RemedyStats* stats_out) {
  RemedyStats stats;
  const int threads = params.planning_threads > 0
                          ? params.planning_threads
                          : ThreadPool::DefaultThreads();

  WorkingSet ws;
  ws.data = train;
  ws.alive.assign(train.NumRows(), 1);

  std::unique_ptr<BorderlineRanker> ranker;
  if (NeedsRanker(params.technique)) {
    ranker = std::make_unique<BorderlineRanker>(train);
    ws.scores = ranker->ScoreAll(ws.data);
  }

  // One full lattice build; from here on every count moves by deltas only,
  // so the (append-only, tombstoned) dataset is never rescanned.
  Hierarchy hierarchy(ws.data);
  RETURN_IF_ERROR(hierarchy.EagerBuild(threads));
  const uint32_t leaf = hierarchy.LeafMask();
  const RegionCounter& counter = hierarchy.counter();
  ws.leaf_keys.resize(train.NumRows());
  for (int r = 0; r < train.NumRows(); ++r) {
    ws.leaf_keys[r] = counter.RowKey(ws.data, r, leaf);
    ws.leaf_rows[ws.leaf_keys[r]].push_back(r);
  }

  std::unique_ptr<ThreadPool> pool;
  NodeSweep sweep(hierarchy, params.ibs);
  std::vector<BiasedRegion> biased;
  for (uint32_t mask : ScopeMasks(hierarchy, params.ibs.scope)) {
    REMEDY_TRACE_SPAN_ARG("remedy/node", mask);
    biased.clear();
    sweep.Sweep(mask, &biased);
    if (biased.empty()) continue;

    std::vector<std::vector<int>> region_rows =
        GatherRegionRows(ws, hierarchy, mask, biased);

    // Regions of one node are disjoint and planning only reads the working
    // set, so the per-region work fans out; the merge below is ordered.
    std::vector<RegionPlan> plans(biased.size());
    // Regions past this visit's budget headroom cannot add rows anyway.
    const int64_t add_cap =
        params.max_added_total >= 0
            ? std::max<int64_t>(params.max_added_total - stats.instances_added,
                                0)
            : -1;
    auto plan_one = [&](int64_t i) {
      REMEDY_TRACE_SPAN("remedy/plan_region");
      const BiasedRegion& region = biased[i];
      RegionUpdate update =
          ComputeUpdate(params.technique, region.counts.positives,
                        region.counts.negatives, region.neighbor_ratio);
      if (!update.reachable) {
        plans[i].skipped = true;
        return;
      }
      if (update.delta_positives == 0 && update.delta_negatives == 0) {
        return;  // rounding left nothing to do
      }
      std::vector<int> positive_rows, negative_rows;
      for (int row : region_rows[i]) {
        (ws.data.Label(row) == 1 ? positive_rows : negative_rows)
            .push_back(row);
      }
      REMEDY_DCHECK(static_cast<int64_t>(positive_rows.size()) ==
                        region.counts.positives &&
                    static_cast<int64_t>(negative_rows.size()) ==
                        region.counts.negatives)
          << "delta-maintained counts diverged from the row index";
      Rng rng(RemedyRegionSeed(params.seed, mask, region.key));
      RankFn rank = [&ws](const std::vector<int>& rows, int label) {
        return BorderlineRanker::RankWithScores(ws.scores, rows, label);
      };
      plans[i] = PlanRegion(params.technique, update, positive_rows,
                            negative_rows, rank, rng, add_cap);
    };
    if (threads > 1 && biased.size() > 1) {
      if (pool == nullptr) pool = std::make_unique<ThreadPool>(threads);
      RETURN_IF_ERROR(
          pool->ParallelFor(static_cast<int64_t>(biased.size()), plan_one));
    } else {
      for (size_t i = 0; i < biased.size(); ++i) plan_one(i);
    }

    NodeActions actions = MergeNodePlans(plans, params, stats);
    if (actions.to_flip.empty() && actions.duplicates.empty() &&
        actions.to_remove.empty()) {
      continue;
    }

    // Commit the visit and fold its net effect into one delta per touched
    // leaf region. Flips first, then appends, then tombstones — the order
    // the rebuild engine mutates in.
    std::unordered_map<uint64_t, std::pair<int64_t, int64_t>> net;
    for (int row : actions.to_flip) {
      const int old_label = ws.data.Label(row);
      ws.data.SetLabel(row, 1 - old_label);
      auto& d = net[ws.leaf_keys[row]];
      d.first += old_label == 1 ? -1 : 1;
      d.second += old_label == 1 ? 1 : -1;
    }
    for (int row : actions.duplicates) {
      const int new_row = ws.data.NumRows();
      ws.data.AppendRowFrom(ws.data, row);
      ws.alive.push_back(1);
      const uint64_t leaf_key = ws.leaf_keys[row];
      ws.leaf_keys.push_back(leaf_key);
      ws.leaf_rows[leaf_key].push_back(new_row);
      if (!ws.scores.empty()) ws.scores.push_back(ws.scores[row]);
      auto& d = net[leaf_key];
      (ws.data.Label(new_row) == 1 ? d.first : d.second) += 1;
    }
    for (int row : actions.to_remove) {
      REMEDY_DCHECK(ws.alive[row]);
      ws.alive[row] = 0;
      auto& d = net[ws.leaf_keys[row]];
      (ws.data.Label(row) == 1 ? d.first : d.second) -= 1;
    }

    std::vector<Hierarchy::LeafDelta> deltas;
    deltas.reserve(net.size());
    for (const auto& [leaf_key, d] : net) {
      if (d.first == 0 && d.second == 0) continue;
      deltas.push_back({leaf_key, d.first, d.second});
    }
    hierarchy.ApplyDeltas(deltas);

    stats.labels_flipped += static_cast<int64_t>(actions.to_flip.size());
    stats.instances_added += static_cast<int64_t>(actions.duplicates.size());
    stats.instances_removed +=
        static_cast<int64_t>(actions.to_remove.size());
  }

  if (stats_out != nullptr) *stats_out = stats;
  if (stats.instances_removed == 0) return std::move(ws.data);
  return ws.data.Compact(ws.alive);
}

}  // namespace

std::string TechniqueName(RemedyTechnique technique) {
  switch (technique) {
    case RemedyTechnique::kOversample:
      return "Oversample";
    case RemedyTechnique::kUndersample:
      return "Undersample";
    case RemedyTechnique::kPreferentialSampling:
      return "PreferentialSampling";
    case RemedyTechnique::kMassaging:
      return "Massaging";
  }
  REMEDY_CHECK(false) << "unknown technique";
  return "";
}

uint64_t RemedyRegionSeed(uint64_t seed, uint32_t mask, uint64_t key) {
  return SplitMix64(SplitMix64(seed ^ (uint64_t{mask} << 32)) ^ key);
}

void RecordRemedyPass(RemedyTechnique technique, const RemedyStats& stats) {
  const PipelineMetrics& metrics = PipelineMetrics::Get();
  metrics.remedy_regions_planned->Increment(stats.regions_processed +
                                            stats.regions_skipped);
  switch (technique) {
    case RemedyTechnique::kOversample:
      metrics.remedy_oversample_rows_added->Increment(stats.instances_added);
      break;
    case RemedyTechnique::kUndersample:
      metrics.remedy_undersample_rows_removed->Increment(
          stats.instances_removed);
      break;
    case RemedyTechnique::kPreferentialSampling:
      metrics.remedy_preferential_rows_added->Increment(stats.instances_added);
      metrics.remedy_preferential_rows_removed->Increment(
          stats.instances_removed);
      break;
    case RemedyTechnique::kMassaging:
      metrics.remedy_massaging_labels_flipped->Increment(stats.labels_flipped);
      break;
  }
}

RegionUpdate ComputeUpdate(RemedyTechnique technique, int64_t positives,
                           int64_t negatives, double target_ratio) {
  RegionUpdate update;
  const double P = static_cast<double>(positives);
  const double N = static_cast<double>(negatives);

  // Neighborhood is all-positive: the target is "no negatives".
  if (target_ratio == kAllPositiveRatio) {
    if (negatives == 0) return update;  // already matching
    switch (technique) {
      case RemedyTechnique::kOversample:
        // Adding instances can never empty the negative side.
        update.reachable = false;
        return update;
      case RemedyTechnique::kUndersample:
        update.delta_negatives = -negatives;
        return update;
      case RemedyTechnique::kPreferentialSampling:
        update.delta_negatives = -negatives;
        update.delta_positives = negatives;
        return update;
      case RemedyTechnique::kMassaging:
        update.delta_negatives = -negatives;
        update.delta_positives = negatives;
        update.flips = negatives;
        return update;
    }
  }

  const double t = target_ratio;
  const double current = ImbalanceScore(positives, negatives);
  // A region with no negatives has conceptually infinite imbalance, so it
  // sits on the "too positive" side of any finite target.
  const bool too_positive =
      (current == kAllPositiveRatio) || (current > t);
  if (!too_positive && current == t) return update;  // already matching

  switch (technique) {
    case RemedyTechnique::kOversample:
      if (too_positive) {
        if (t <= kZeroRatioEpsilon) {
          update.reachable = false;  // cannot reach ratio 0 by adding rows
          return update;
        }
        update.delta_negatives =
            ClampCount(P / t - N, 0, std::numeric_limits<int64_t>::max());
      } else {
        update.delta_positives =
            ClampCount(t * N - P, 0, std::numeric_limits<int64_t>::max());
      }
      return update;

    case RemedyTechnique::kUndersample:
      if (too_positive) {
        update.delta_positives = -ClampCount(P - t * N, 0, positives);
      } else {
        REMEDY_DCHECK(t > kZeroRatioEpsilon);  // t > current >= 0
        update.delta_negatives = -ClampCount(N - P / t, 0, negatives);
      }
      return update;

    case RemedyTechnique::kPreferentialSampling: {
      // (P -+ k) / (N +- k) = t  =>  k = |P - t N| / (1 + t).
      // Only the removal side is bounded by the class population; the
      // duplicated borderline instances may repeat.
      if (too_positive) {
        int64_t k = ClampCount((P - t * N) / (1.0 + t), 0, positives);
        update.delta_positives = -k;
        update.delta_negatives = k;
      } else {
        int64_t k = ClampCount((t * N - P) / (1.0 + t), 0, negatives);
        update.delta_negatives = -k;
        update.delta_positives = k;
      }
      return update;
    }

    case RemedyTechnique::kMassaging: {
      if (too_positive) {
        int64_t k = ClampCount((P - t * N) / (1.0 + t), 0, positives);
        update.delta_positives = -k;
        update.delta_negatives = k;
        update.flips = k;
      } else {
        int64_t k = ClampCount((t * N - P) / (1.0 + t), 0, negatives);
        update.delta_negatives = -k;
        update.delta_positives = k;
        update.flips = k;
      }
      return update;
    }
  }
  REMEDY_CHECK(false) << "unknown technique";
  return update;
}

StatusOr<Dataset> RemedyDataset(const Dataset& train,
                                const RemedyParams& params,
                                RemedyStats* stats_out) {
  if (train.NumRows() <= 0) {
    return InvalidArgumentError("cannot remedy an empty dataset");
  }
  if (train.schema().NumProtected() == 0) {
    return InvalidArgumentError("remedy needs protected attributes");
  }
  REMEDY_FAULT_POINT("remedy/apply");
  REMEDY_TRACE_SPAN("remedy/dataset");
  const PipelineMetrics& metrics = PipelineMetrics::Get();
  // Run through a local stats block even when the caller passed none, so
  // the pipeline counters see the pass regardless.
  RemedyStats stats;
  StatusOr<Dataset> remedied = [&]() -> StatusOr<Dataset> {
    switch (params.engine) {
      case RemedyEngine::kIncremental:
        metrics.remedy_incremental_passes->Increment();
        return RemedyIncremental(train, params, &stats);
      case RemedyEngine::kRebuild:
        metrics.remedy_rebuild_passes->Increment();
        return RemedyRebuild(train, params, &stats);
    }
    REMEDY_CHECK(false) << "unknown engine";
    return train;
  }();
  if (remedied.ok()) RecordRemedyPass(params.technique, stats);
  if (stats_out != nullptr) *stats_out = stats;
  return remedied;
}

StatusOr<std::vector<PlannedAction>> PlanRemedy(const Dataset& train,
                                                const RemedyParams& params) {
  ASSIGN_OR_RETURN(std::vector<BiasedRegion> ibs,
                   IdentifyIbs(train, params.ibs));
  std::vector<PlannedAction> plan;
  for (const BiasedRegion& region : ibs) {
    RegionUpdate update =
        ComputeUpdate(params.technique, region.counts.positives,
                      region.counts.negatives, region.neighbor_ratio);
    plan.push_back({region, update});
  }
  return plan;
}

StatusOr<IterativeRemedyResult> RemedyUntilConverged(
    const Dataset& train, const RemedyParams& params, int max_rounds) {
  if (max_rounds < 1) {
    return InvalidArgumentError("max_rounds must be at least 1, got " +
                                std::to_string(max_rounds));
  }
  IterativeRemedyResult result;
  result.dataset = train;
  RemedyParams round_params = params;
  // The residual identified after each pass doubles as the next round's
  // convergence check, so each round costs one IdentifyIbs, not two.
  ASSIGN_OR_RETURN(std::vector<BiasedRegion> residual,
                   IdentifyIbs(result.dataset, params.ibs));
  for (int round = 0; round < max_rounds; ++round) {
    if (residual.empty()) {
      result.converged = true;
      break;
    }
    RemedyStats stats;
    // Vary the seed per round so repeated sampling decisions differ.
    round_params.seed = params.seed + static_cast<uint64_t>(round);
    ASSIGN_OR_RETURN(Dataset next,
                     RemedyDataset(result.dataset, round_params, &stats));
    ++result.rounds;
    result.total_stats.regions_processed += stats.regions_processed;
    result.total_stats.regions_skipped += stats.regions_skipped;
    result.total_stats.instances_added += stats.instances_added;
    result.total_stats.instances_removed += stats.instances_removed;
    result.total_stats.labels_flipped += stats.labels_flipped;
    result.total_stats.add_budget_exhausted |= stats.add_budget_exhausted;
    result.dataset = std::move(next);
    ASSIGN_OR_RETURN(residual, IdentifyIbs(result.dataset, round_params.ibs));
    result.ibs_sizes.push_back(residual.size());
    if (stats.regions_processed == 0) break;  // nothing actionable remains
  }
  if (!result.ibs_sizes.empty() && result.ibs_sizes.back() == 0) {
    result.converged = true;
  }
  return result;
}

}  // namespace remedy
