#include "core/remedy_backend.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <map>
#include <span>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "common/check.h"
#include "common/fault_injection.h"
#include "common/pipeline_metrics.h"
#include "common/rng.h"
#include "common/trace.h"
#include "core/ibs_identify.h"
#include "data/shard_file.h"
#include "ml/naive_bayes.h"

namespace remedy {
namespace {

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Status ValidateSource(const RemedySource& source) {
  if ((source.dataset == nullptr) == (source.leaf_counts == nullptr)) {
    return InvalidArgumentError(
        "RemedySource wants exactly one of dataset / leaf_counts");
  }
  if (source.leaf_counts != nullptr && source.schema == nullptr) {
    return InvalidArgumentError(
        "RemedySource::leaf_counts requires RemedySource::schema");
  }
  return OkStatus();
}

const DataSchema& SourceSchema(const RemedySource& source) {
  return source.dataset != nullptr ? source.dataset->schema()
                                   : *source.schema;
}

// The source's leaf census, whichever form it arrived in.
NodeTable SourceLeafCounts(const RemedySource& source) {
  return source.dataset != nullptr ? LeafCountsOf(*source.dataset)
                                   : *source.leaf_counts;
}

int64_t TotalInstances(const NodeTable& counts) {
  int64_t total = 0;
  for (const auto& [key, region] : counts) total += region.Total();
  return total;
}

// rebuild / incremental: the two batch engines of RemedyDataset behind the
// backend API. Row-faithful on a dataset source; a count source is
// materialized first.
class BatchRemedyBackend : public RemedyBackend {
 public:
  explicit BatchRemedyBackend(RemedyBackendKind kind) : kind_(kind) {}

  RemedyBackendKind kind() const override { return kind_; }

  StatusOr<Dataset> Remedy(const RemedySource& source,
                           const RemedyParams& params,
                           RemedyStats* stats) const override {
    RETURN_IF_ERROR(ValidateSource(source));
    RemedyParams engine_params = params;
    engine_params.engine = kind_ == RemedyBackendKind::kRebuild
                               ? RemedyEngine::kRebuild
                               : RemedyEngine::kIncremental;
    if (source.dataset != nullptr) {
      return RemedyDataset(*source.dataset, engine_params, stats);
    }
    ASSIGN_OR_RETURN(
        Dataset materialized,
        MaterializeLeafCounts(*source.schema, *source.leaf_counts));
    return RemedyDataset(materialized, engine_params, stats);
  }

 private:
  const RemedyBackendKind kind_;
};

// ---------------------------------------------------------------------------
// The streaming backend's count-native planner.
//
// It computes what the row engine computes on MaterializeLeafCounts(census)
// without making a row. Rows keep their canonical indices: the
// materialization's row numbers, then one fresh index per duplicate, in the
// order the row engine appends them. Removals never renumber, because only
// the relative order of rows is observable. Within one leaf every row has
// the same features and so the same ranker score. The planner therefore
// keeps each (leaf, label) class as ascending index runs, and orders and
// picks rows by run.
// ---------------------------------------------------------------------------

uint32_t LeafMaskOf(const DataSchema& schema) {
  return (uint32_t{1} << static_cast<uint32_t>(schema.NumProtected())) - 1;
}

// Canonical row indices [first, first + count).
struct Run {
  int64_t first = 0;
  int64_t count = 0;
};

// Rows of class `label` of leaf `leaf` (a position in the planner's
// ascending leaf-key order).
struct Slice {
  int leaf = 0;
  int label = 0;
  Run rows;
};

// `count` duplicates appended to class `label` of leaf `leaf`. A duplicate
// is fully described by its leaf, label and fresh index, so which source
// row it copies does not matter.
struct Append {
  int leaf = 0;
  int label = 0;
  int64_t count = 0;
};

// Appends `run` to ascending `runs`, merging it into an adjacent tail.
void PushRun(std::vector<Run>* runs, Run run) {
  if (run.count <= 0) return;
  if (!runs->empty() && runs->back().first + runs->back().count == run.first) {
    runs->back().count += run.count;
  } else {
    runs->push_back(run);
  }
}

void PushAppend(std::vector<Append>* appends, int leaf, int label,
                int64_t count) {
  if (count <= 0) return;
  if (!appends->empty() && appends->back().leaf == leaf &&
      appends->back().label == label) {
    appends->back().count += count;
  } else {
    appends->push_back({leaf, label, count});
  }
}

int64_t RowsOf(const std::vector<Slice>& slices) {
  int64_t rows = 0;
  for (const Slice& slice : slices) rows += slice.rows.count;
  return rows;
}

int64_t RowsOf(const std::vector<Append>& appends) {
  int64_t rows = 0;
  for (const Append& append : appends) rows += append.count;
  return rows;
}

// The rows of one class of one region — the `positive_rows` /
// `negative_rows` list the row engine plans on, as slices in no particular
// order until a pick sorts them.
struct ClassRows {
  int label = 0;
  std::vector<Slice> slices;
  std::vector<int64_t> ends;  // after IndexOrder: rows in slices[0..i]
  int64_t total = 0;

  // Sorts the slices into the row engine's ascending index order.
  void IndexOrder() {
    std::sort(slices.begin(), slices.end(),
              [](const Slice& a, const Slice& b) {
                return a.rows.first < b.rows.first;
              });
    ends.clear();
    int64_t rows = 0;
    for (const Slice& slice : slices) {
      rows += slice.rows.count;
      ends.push_back(rows);
    }
  }

  // After IndexOrder: the slice holding index-order position `pos`.
  const Slice& At(int64_t pos, int64_t* offset) const {
    const size_t i = static_cast<size_t>(
        std::upper_bound(ends.begin(), ends.end(), pos) - ends.begin());
    *offset = pos - (ends[i] - slices[i].rows.count);
    return slices[i];
  }
};

// Rng::UniformInt and Rng::SampleWithoutReplacement take an int population.
Status CheckDrawable(const ClassRows& source) {
  if (source.total <= std::numeric_limits<int>::max()) return OkStatus();
  return OutOfRangeError(
      "a region class of " + std::to_string(source.total) +
      " instances exceeds the random sampler's int range");
}

// pick_random with replacement: `count` draws of
// source[rng.UniformInt(|source|)].
StatusOr<std::vector<Append>> DrawWithReplacement(ClassRows& source,
                                                  int64_t count, Rng& rng) {
  std::vector<Append> picked;
  if (source.total == 0 || count <= 0) return picked;
  RETURN_IF_ERROR(CheckDrawable(source));
  source.IndexOrder();
  const int n = static_cast<int>(source.total);
  int64_t offset = 0;
  for (int64_t i = 0; i < count; ++i) {
    const Slice& slice = source.At(rng.UniformInt(n), &offset);
    PushAppend(&picked, slice.leaf, slice.label, 1);
  }
  return picked;
}

// pick_random without replacement: Rng::SampleWithoutReplacement's partial
// Fisher-Yates, with the permuted prefix kept sparse. Draw i consumes
// UniformRange(i, n - 1) and fixes position i for good.
StatusOr<std::vector<Slice>> DrawWithoutReplacement(ClassRows& source,
                                                    int64_t count, Rng& rng) {
  std::vector<Slice> picked;
  if (source.total == 0 || count <= 0) return picked;
  RETURN_IF_ERROR(CheckDrawable(source));
  source.IndexOrder();
  const int n = static_cast<int>(source.total);
  const int k = static_cast<int>(std::min<int64_t>(count, n));
  std::unordered_map<int, int> moved;
  auto value_at = [&moved](int i) {
    auto it = moved.find(i);
    return it == moved.end() ? i : it->second;
  };
  picked.reserve(static_cast<size_t>(k));
  int64_t offset = 0;
  for (int i = 0; i < k; ++i) {
    const int j = rng.UniformRange(i, n - 1);
    const int chosen = value_at(j);
    moved[j] = value_at(i);
    const Slice& slice = source.At(chosen, &offset);
    picked.push_back({slice.leaf, slice.label, {slice.rows.first + offset, 1}});
  }
  return picked;
}

// pick_borderline with repeats: `count` duplicates cycling through
// `ranked`, the borderline order of the first min(count, |class|) rows.
// A cycle over several leaves costs one append per leaf per cycle: Commit
// gives the leaves interleaved fresh indices, which no run can merge.
std::vector<Append> RepeatBorderline(const std::vector<Slice>& ranked,
                                     int64_t count) {
  std::vector<Append> cycle;
  for (const Slice& slice : ranked) {
    PushAppend(&cycle, slice.leaf, slice.label, slice.rows.count);
  }
  const int64_t total = RowsOf(cycle);
  std::vector<Append> picked;
  if (total == 0 || count <= 0) return picked;
  if (cycle.size() == 1) {
    // One class of one leaf: every cycle lands in one run.
    picked.push_back({cycle[0].leaf, cycle[0].label, count});
    return picked;
  }
  for (int64_t c = count / total; c > 0; --c) {
    for (const Append& a : cycle) PushAppend(&picked, a.leaf, a.label, a.count);
  }
  int64_t rest = count % total;
  for (const Append& a : cycle) {
    if (rest <= 0) break;
    const int64_t take = std::min(rest, a.count);
    PushAppend(&picked, a.leaf, a.label, take);
    rest -= take;
  }
  return picked;
}

// remedy.cc's RegionPlan, in slices.
struct SlicePlan {
  std::vector<Slice> to_flip;
  std::vector<Slice> to_remove;
  std::vector<Append> duplicates;
  int64_t requested_adds = 0;
  bool skipped = false;
  bool planned = false;
};

// remedy.cc's NodeActions, in slices.
struct SliceActions {
  std::vector<Slice> to_flip;
  std::vector<Slice> to_remove;
  std::vector<Append> duplicates;

  bool empty() const {
    return to_flip.empty() && to_remove.empty() && duplicates.empty();
  }
};

class CountPlanner {
 public:
  CountPlanner(const DataSchema& schema, const RemedyParams& params)
      : schema_(schema), params_(params), counter_(schema) {}

  StatusOr<RemedyDeltaPlan> Plan(const NodeTable& census);

 private:
  Status Init(const NodeTable& census);
  void ScoreLeaves();
  ClassRows Gather(const std::vector<int>& leaves, int label) const;
  std::vector<Slice> Borderline(ClassRows& rows, int64_t count) const;
  StatusOr<SlicePlan> PlanRegion(const RegionUpdate& update,
                                 ClassRows& positives, ClassRows& negatives,
                                 Rng& rng, int64_t add_cap) const;
  SliceActions Merge(std::vector<SlicePlan>& plans);
  std::vector<Hierarchy::LeafDelta> Commit(const SliceActions& actions);

  const DataSchema& schema_;
  const RemedyParams& params_;
  const RegionCounter counter_;
  std::vector<uint64_t> keys_;        // populated leaf keys, ascending
  std::vector<int> digits_;  // per leaf, KeyDigits of its key (NumProtected)
  std::vector<RegionCounts> census_;  // per leaf, as handed in
  std::vector<RegionCounts> counts_;  // per leaf, as remedied so far
  std::vector<std::vector<Run>> runs_[2];  // runs_[label][leaf]
  std::vector<double> scores_;  // per leaf, P(y = 1 | x); ranking only
  int64_t next_row_ = 0;        // the next duplicate's fresh index
  RemedyStats stats_;
};

Status CountPlanner::Init(const NodeTable& census) {
  if (schema_.NumProtected() == 0) {
    return InvalidArgumentError("remedy needs protected attributes");
  }
  for (const auto& [key, counts] : census) {
    if (counts.positives < 0 || counts.negatives < 0) {
      return InvalidArgumentError("cannot remedy negative counts at leaf key " +
                                  std::to_string(key));
    }
    if (counts.Total() == 0) continue;  // materializes no rows
    // MaterializeLeafCounts' row order: keys ascending, positives first.
    runs_[1].emplace_back();
    runs_[0].emplace_back();
    PushRun(&runs_[1].back(), {next_row_, counts.positives});
    PushRun(&runs_[0].back(), {next_row_ + counts.positives, counts.negatives});
    next_row_ += counts.Total();
    keys_.push_back(key);
    census_.push_back(counts);
    digits_.resize(digits_.size() + schema_.NumProtected());
    counter_.KeyDigits(key, LeafMaskOf(schema_),
                       &digits_[digits_.size() - schema_.NumProtected()]);
  }
  if (next_row_ == 0) {
    return InvalidArgumentError("cannot remedy an empty dataset");
  }
  counts_ = census_;
  return OkStatus();
}

// The borderline ranker, trained once on the materialization: its naive
// Bayes sees every non-protected attribute at code 0, so a count fit is
// exact (NaiveBayes::FitCounts) and each leaf has a single score.
void CountPlanner::ScoreLeaves() {
  const int num_protected = schema_.NumProtected();
  const int num_columns = schema_.NumAttributes();
  int64_t class_counts[2] = {0, 0};
  std::vector<std::vector<std::vector<int64_t>>> value_counts(2);
  for (int y = 0; y < 2; ++y) {
    value_counts[y].resize(num_columns);
    for (int c = 0; c < num_columns; ++c) {
      value_counts[y][c].assign(schema_.attribute(c).Cardinality(), 0);
    }
  }
  std::vector<std::vector<int>> codes(keys_.size(),
                                      std::vector<int>(num_columns, 0));
  for (size_t l = 0; l < keys_.size(); ++l) {
    for (int p = 0; p < num_protected; ++p) {
      codes[l][schema_.protected_indices()[p]] = digits_[l * num_protected + p];
    }
    const int64_t per_class[2] = {census_[l].negatives, census_[l].positives};
    for (int y = 0; y < 2; ++y) {
      class_counts[y] += per_class[y];
      for (int c = 0; c < num_columns; ++c) {
        value_counts[y][c][codes[l][c]] += per_class[y];
      }
    }
  }
  NaiveBayes model;
  model.FitCounts(schema_, class_counts, value_counts);
  scores_.resize(keys_.size());
  for (size_t l = 0; l < keys_.size(); ++l) {
    scores_[l] = model.PredictProbaCodes(codes[l]);
  }
}

ClassRows CountPlanner::Gather(const std::vector<int>& leaves,
                               int label) const {
  ClassRows rows;
  rows.label = label;
  for (int leaf : leaves) {
    for (const Run& run : runs_[label][leaf]) {
      rows.slices.push_back({leaf, label, run});
      rows.total += run.count;
    }
  }
  return rows;
}

// pick_borderline without repeats: the slices of the first `count` rows
// (all, if fewer) in SortBorderline's order — (score, row index), ascending
// score for positives (low P(y = 1) looks negative) and descending for
// negatives. Slices are disjoint index ranges, so ordering them by first
// index orders their rows, and a partial slice contributes its low end. A
// heap selects the prefix, so the cost follows the slices taken more than
// the region's size. Reorders `rows.slices`.
std::vector<Slice> CountPlanner::Borderline(ClassRows& rows,
                                            int64_t count) const {
  const int label = rows.label;
  auto ranks_after = [this, label](const Slice& a, const Slice& b) {
    const double sa = scores_[a.leaf];
    const double sb = scores_[b.leaf];
    if (sa != sb) return label == 1 ? sa > sb : sa < sb;
    return a.rows.first > b.rows.first;
  };
  std::vector<Slice> picked;
  auto end = rows.slices.end();
  std::make_heap(rows.slices.begin(), end, ranks_after);
  while (count > 0 && end != rows.slices.begin()) {
    std::pop_heap(rows.slices.begin(), end, ranks_after);
    --end;
    const int64_t take = std::min(count, end->rows.count);
    picked.push_back({end->leaf, end->label, {end->rows.first, take}});
    count -= take;
  }
  return picked;
}

// remedy.cc's PlanRegion, case for case.
StatusOr<SlicePlan> CountPlanner::PlanRegion(const RegionUpdate& update,
                                             ClassRows& positives,
                                             ClassRows& negatives, Rng& rng,
                                             int64_t add_cap) const {
  SlicePlan plan;
  plan.planned = true;
  switch (params_.technique) {
    case RemedyTechnique::kOversample: {
      ClassRows& source = update.delta_negatives > 0 ? negatives : positives;
      int64_t want = std::max(update.delta_negatives, update.delta_positives);
      plan.requested_adds = want;
      if (source.total == 0) {
        plan.skipped = true;
        break;
      }
      if (add_cap >= 0) want = std::min(want, add_cap);
      ASSIGN_OR_RETURN(plan.duplicates,
                       DrawWithReplacement(source, want, rng));
      break;
    }
    case RemedyTechnique::kUndersample: {
      ASSIGN_OR_RETURN(
          plan.to_remove,
          DrawWithoutReplacement(
              positives, -std::min<int64_t>(update.delta_positives, 0), rng));
      ASSIGN_OR_RETURN(
          std::vector<Slice> negative_picks,
          DrawWithoutReplacement(
              negatives, -std::min<int64_t>(update.delta_negatives, 0), rng));
      plan.to_remove.insert(plan.to_remove.end(), negative_picks.begin(),
                            negative_picks.end());
      break;
    }
    case RemedyTechnique::kPreferentialSampling: {
      // Drop borderline rows of one class, duplicate borderline rows of
      // the other; with nothing to duplicate the exchange cannot move.
      const bool drop_positives = update.delta_positives < 0;
      ClassRows& drop = drop_positives ? positives : negatives;
      ClassRows& copy = drop_positives ? negatives : positives;
      if (copy.total == 0) {
        plan.skipped = true;
        break;
      }
      const int64_t drops = drop_positives ? -update.delta_positives
                                           : -update.delta_negatives;
      const int64_t copies = drop_positives ? update.delta_negatives
                                            : update.delta_positives;
      plan.to_remove = Borderline(drop, drops);
      plan.duplicates = RepeatBorderline(Borderline(copy, copies), copies);
      break;
    }
    case RemedyTechnique::kMassaging: {
      const bool flip_positives = update.delta_positives < 0;
      plan.to_flip = Borderline(flip_positives ? positives : negatives,
                                update.flips);
      break;
    }
  }
  return plan;
}

// remedy.cc's MergeNodePlans: region order, oversampling budget, stats.
SliceActions CountPlanner::Merge(std::vector<SlicePlan>& plans) {
  SliceActions actions;
  int64_t node_adds = 0;
  for (SlicePlan& plan : plans) {
    if (plan.skipped) {
      ++stats_.regions_skipped;
      continue;
    }
    if (!plan.planned) continue;
    if (params_.technique == RemedyTechnique::kOversample &&
        params_.max_added_total >= 0) {
      const int64_t budget =
          params_.max_added_total - stats_.instances_added - node_adds;
      if (plan.requested_adds > budget) {
        stats_.add_budget_exhausted = true;
        int64_t keep = std::clamp<int64_t>(budget, 0, RowsOf(plan.duplicates));
        std::vector<Append> kept;
        for (const Append& a : plan.duplicates) {
          const int64_t take = std::min(keep, a.count);
          PushAppend(&kept, a.leaf, a.label, take);
          keep -= take;
        }
        plan.duplicates = std::move(kept);
      }
    }
    const bool acted = !plan.to_flip.empty() || !plan.to_remove.empty() ||
                       !plan.duplicates.empty();
    actions.to_flip.insert(actions.to_flip.end(), plan.to_flip.begin(),
                           plan.to_flip.end());
    actions.to_remove.insert(actions.to_remove.end(), plan.to_remove.begin(),
                             plan.to_remove.end());
    for (const Append& a : plan.duplicates) {
      PushAppend(&actions.duplicates, a.leaf, a.label, a.count);
    }
    node_adds += RowsOf(plan.duplicates);
    if (acted) ++stats_.regions_processed;
  }
  return actions;
}

// `runs` without the rows of `cuts`, which are ascending and each inside
// one run.
std::vector<Run> CutRuns(const std::vector<Run>& runs,
                         std::span<const Slice> cuts) {
  std::vector<Run> kept;
  auto cut = cuts.begin();
  for (const Run& run : runs) {
    int64_t at = run.first;
    const int64_t end = run.first + run.count;
    for (; cut != cuts.end() && cut->rows.first < end; ++cut) {
      REMEDY_DCHECK(cut->rows.first >= at &&
                    cut->rows.first + cut->rows.count <= end)
          << "a cut straddles runs";
      PushRun(&kept, {at, cut->rows.first - at});
      at = cut->rows.first + cut->rows.count;
    }
    PushRun(&kept, {at, end - at});
  }
  REMEDY_DCHECK(cut == cuts.end()) << "a cut outside its class's runs";
  return kept;
}

// `runs` merged with the rows of `adds`, which are ascending and disjoint
// from them.
std::vector<Run> AddRuns(const std::vector<Run>& runs,
                         std::span<const Slice> adds) {
  std::vector<Run> merged;
  merged.reserve(runs.size() + adds.size());
  auto run = runs.begin();
  for (const Slice& add : adds) {
    for (; run != runs.end() && run->first < add.rows.first; ++run) {
      PushRun(&merged, *run);
    }
    PushRun(&merged, add.rows);
  }
  for (; run != runs.end(); ++run) PushRun(&merged, *run);
  return merged;
}

// Commits one node visit to the runs and returns its net leaf deltas.
// Flipped rows move to the other class of their leaf, removed rows leave,
// and duplicates take fresh indices in action order.
std::vector<Hierarchy::LeafDelta> CountPlanner::Commit(
    const SliceActions& actions) {
  std::map<int, std::pair<int64_t, int64_t>> net;  // leaf -> (d+, d-)
  auto add_net = [&net](int leaf, int label, int64_t count) {
    auto& d = net[leaf];
    (label == 1 ? d.first : d.second) += count;
  };
  std::vector<Slice> cuts = actions.to_remove;
  cuts.insert(cuts.end(), actions.to_flip.begin(), actions.to_flip.end());
  std::vector<Slice> adds;
  for (const Slice& flip : actions.to_flip) {
    adds.push_back({flip.leaf, 1 - flip.label, flip.rows});
  }
  // Edits every touched class once, with its slices in index order.
  auto edit_classes = [this, &add_net](std::vector<Slice>& slices, int sign,
                                       auto edit) {
    std::sort(slices.begin(), slices.end(),
              [](const Slice& a, const Slice& b) {
                return std::tie(a.label, a.leaf, a.rows.first) <
                       std::tie(b.label, b.leaf, b.rows.first);
              });
    for (size_t begin = 0, end = 0; begin < slices.size(); begin = end) {
      const Slice& head = slices[begin];
      while (end < slices.size() && slices[end].leaf == head.leaf &&
             slices[end].label == head.label) {
        add_net(head.leaf, head.label, sign * slices[end].rows.count);
        ++end;
      }
      std::vector<Run>& runs = runs_[head.label][head.leaf];
      runs = edit(runs, std::span<const Slice>(&slices[begin], end - begin));
    }
  };
  edit_classes(cuts, -1, CutRuns);
  edit_classes(adds, 1, AddRuns);
  for (const Append& append : actions.duplicates) {
    PushRun(&runs_[append.label][append.leaf], {next_row_, append.count});
    next_row_ += append.count;
    add_net(append.leaf, append.label, append.count);
  }

  std::vector<Hierarchy::LeafDelta> deltas;
  deltas.reserve(net.size());
  for (const auto& [leaf, d] : net) {
    if (d.first == 0 && d.second == 0) continue;
    counts_[leaf].positives += d.first;
    counts_[leaf].negatives += d.second;
    deltas.push_back({keys_[leaf], d.first, d.second});
  }
  stats_.labels_flipped += RowsOf(actions.to_flip);
  stats_.instances_added += RowsOf(actions.duplicates);
  stats_.instances_removed += RowsOf(actions.to_remove);
  return deltas;
}

// Algorithm 2 over the census, as the row engine runs it: one lattice from
// the counts, nodes in ScopeMasks order, identify then plan then commit per
// node, with every count moved by Hierarchy::ApplyDeltas.
StatusOr<RemedyDeltaPlan> CountPlanner::Plan(const NodeTable& census) {
  REMEDY_FAULT_POINT("remedy/apply");
  REMEDY_TRACE_SPAN("remedy/plan_counts");
  RETURN_IF_ERROR(Init(census));
  if (params_.technique == RemedyTechnique::kPreferentialSampling ||
      params_.technique == RemedyTechnique::kMassaging) {
    ScoreLeaves();
  }

  std::vector<NodeTable::Entry> leaf_entries;
  RegionCounts totals;
  for (size_t l = 0; l < keys_.size(); ++l) {
    leaf_entries.emplace_back(keys_[l], census_[l]);
    totals.positives += census_[l].positives;
    totals.negatives += census_[l].negatives;
  }
  Hierarchy hierarchy(schema_, NodeTable(std::move(leaf_entries)), totals);
  RETURN_IF_ERROR(hierarchy.EagerBuild(1));
  const int num_protected = schema_.NumProtected();

  NodeSweep sweep(hierarchy, params_.ibs);
  std::vector<std::pair<uint64_t, BiasedRegion>> biased;
  for (uint32_t mask : ScopeMasks(hierarchy, params_.ibs.scope)) {
    REMEDY_TRACE_SPAN_ARG("remedy/node", mask);
    biased.clear();
    sweep.Sweep(mask, &biased);
    if (biased.empty()) continue;

    // Route every leaf to the biased region it projects into; the sweep
    // emits a node's regions ascending by key.
    std::vector<std::vector<int>> region_leaves(biased.size());
    for (size_t l = 0; l < keys_.size(); ++l) {
      const uint64_t key =
          counter_.PackDigits(&digits_[l * num_protected], mask);
      auto it = std::lower_bound(
          biased.begin(), biased.end(), key,
          [](const auto& entry, uint64_t k) { return entry.first < k; });
      if (it != biased.end() && it->first == key) {
        region_leaves[it - biased.begin()].push_back(static_cast<int>(l));
      }
    }

    const int64_t add_cap =
        params_.max_added_total >= 0
            ? std::max<int64_t>(
                  params_.max_added_total - stats_.instances_added, 0)
            : -1;
    std::vector<SlicePlan> plans(biased.size());
    for (size_t i = 0; i < biased.size(); ++i) {
      const auto& [region_key, region] = biased[i];
      const RegionUpdate update =
          ComputeUpdate(params_.technique, region.counts.positives,
                        region.counts.negatives, region.neighbor_ratio);
      if (!update.reachable) {
        plans[i].skipped = true;
        continue;
      }
      if (update.delta_positives == 0 && update.delta_negatives == 0) {
        continue;  // rounding left nothing to do
      }
      ClassRows positives = Gather(region_leaves[i], 1);
      ClassRows negatives = Gather(region_leaves[i], 0);
      REMEDY_DCHECK(positives.total == region.counts.positives &&
                    negatives.total == region.counts.negatives)
          << "runs diverged from the lattice counts";
      Rng rng(RemedyRegionSeed(params_.seed, mask, region_key));
      ASSIGN_OR_RETURN(plans[i], PlanRegion(update, positives, negatives, rng,
                                            add_cap));
    }

    const SliceActions actions = Merge(plans);
    if (actions.empty()) continue;
    hierarchy.ApplyDeltas(Commit(actions));
  }

  RemedyDeltaPlan plan;
  for (size_t l = 0; l < keys_.size(); ++l) {
    const int64_t dp = counts_[l].positives - census_[l].positives;
    const int64_t dn = counts_[l].negatives - census_[l].negatives;
    if (dp != 0 || dn != 0) plan.deltas.push_back({keys_[l], dp, dn});
  }
  plan.stats = stats_;
  RecordRemedyPass(params_.technique, stats_);
  return plan;
}

// streaming: the daemon's form. Plans on the leaf census alone with the
// count-native planner above; its output equals the row engine's on the
// canonical materialization of that census (MaterializeLeafCounts), which
// the parity suite in tests/remedy_backend_test.cc proves through the
// rebuild backend.
class StreamingRemedyBackend : public RemedyBackend {
 public:
  RemedyBackendKind kind() const override {
    return RemedyBackendKind::kStreaming;
  }

  // Plan, apply to the census, materialize once.
  StatusOr<Dataset> Remedy(const RemedySource& source,
                           const RemedyParams& params,
                           RemedyStats* stats) const override {
    RETURN_IF_ERROR(ValidateSource(source));
    const DataSchema& schema = SourceSchema(source);
    NodeTable counts = SourceLeafCounts(source);
    ASSIGN_OR_RETURN(RemedyDeltaPlan plan,
                     CountPlanner(schema, params).Plan(counts));
    for (const Hierarchy::LeafDelta& delta : plan.deltas) {
      counts.ApplyDelta(delta.leaf_key, delta.delta_positives,
                        delta.delta_negatives);
    }
    if (stats != nullptr) *stats = plan.stats;
    return MaterializeLeafCounts(schema, counts);
  }

 protected:
  StatusOr<RemedyDeltaPlan> PlanCensus(
      const RemedySource& source, const NodeTable& census,
      const RemedyParams& params) const override {
    return CountPlanner(SourceSchema(source), params).Plan(census);
  }
};

}  // namespace

const char* RemedyBackendName(RemedyBackendKind kind) {
  switch (kind) {
    case RemedyBackendKind::kRebuild:
      return "rebuild";
    case RemedyBackendKind::kIncremental:
      return "incremental";
    case RemedyBackendKind::kStreaming:
      return "streaming";
  }
  return "unknown";
}

StatusOr<RemedyBackendKind> ParseRemedyBackend(const std::string& name) {
  if (name == "rebuild") return RemedyBackendKind::kRebuild;
  if (name == "incremental") return RemedyBackendKind::kIncremental;
  if (name == "streaming") return RemedyBackendKind::kStreaming;
  return InvalidArgumentError("unknown remedy backend '" + name +
                              "' (want rebuild|incremental|streaming)");
}

std::unique_ptr<RemedyBackend> RemedyBackend::Create(RemedyBackendKind kind) {
  switch (kind) {
    case RemedyBackendKind::kRebuild:
    case RemedyBackendKind::kIncremental:
      return std::make_unique<BatchRemedyBackend>(kind);
    case RemedyBackendKind::kStreaming:
      return std::make_unique<StreamingRemedyBackend>();
  }
  REMEDY_CHECK(false) << "unhandled RemedyBackendKind";
  return nullptr;
}

StatusOr<RemedyDeltaPlan> RemedyBackend::PlanDeltas(
    const RemedySource& source, const RemedyParams& params) const {
  RETURN_IF_ERROR(ValidateSource(source));
  const PipelineMetrics& metrics = PipelineMetrics::Get();
  const int64_t start_ns = NowNanos();
  const NodeTable before = SourceLeafCounts(source);
  if (TotalInstances(before) == 0) return RemedyDeltaPlan();  // no data yet
  ASSIGN_OR_RETURN(RemedyDeltaPlan plan, PlanCensus(source, before, params));
  metrics.remedy_backend_plans->Increment();
  metrics.remedy_backend_deltas_planned->Increment(
      static_cast<int64_t>(plan.deltas.size()));
  metrics.remedy_backend_plan_ns->Observe(NowNanos() - start_ns);
  return plan;
}

StatusOr<RemedyDeltaPlan> RemedyBackend::PlanCensus(
    const RemedySource& source, const NodeTable& census,
    const RemedyParams& params) const {
  RemedyDeltaPlan plan;
  ASSIGN_OR_RETURN(Dataset remedied, Remedy(source, params, &plan.stats));
  plan.deltas = DiffLeafCounts(census, LeafCountsOf(remedied));
  return plan;
}

StatusOr<Dataset> MaterializeLeafCounts(const DataSchema& schema,
                                        const NodeTable& leaf_counts) {
  if (schema.NumProtected() == 0) {
    return InvalidArgumentError(
        "cannot materialize counts without protected attributes");
  }
  const RegionCounter counter(schema);
  const uint32_t leaf_mask = LeafMaskOf(schema);
  Dataset data(schema);
  std::vector<int> values(static_cast<size_t>(schema.NumAttributes()), 0);
  for (const auto& [key, counts] : leaf_counts) {
    if (counts.positives < 0 || counts.negatives < 0) {
      return InvalidArgumentError(
          "cannot materialize negative counts at leaf key " +
          std::to_string(key));
    }
    if (counts.Total() == 0) continue;
    const Pattern pattern = counter.PatternFor(key, leaf_mask);
    std::fill(values.begin(), values.end(), 0);
    for (int p = 0; p < schema.NumProtected(); ++p) {
      values[schema.protected_indices()[p]] = pattern.Value(p);
    }
    for (int64_t i = 0; i < counts.positives; ++i) data.AddRow(values, 1);
    for (int64_t i = 0; i < counts.negatives; ++i) data.AddRow(values, 0);
  }
  return data;
}

NodeTable LeafCountsOf(const Dataset& data) {
  const RegionCounter counter(data.schema());
  return counter.CountNode(data, LeafMaskOf(data.schema()));
}

std::vector<Hierarchy::LeafDelta> DiffLeafCounts(const NodeTable& before,
                                                 const NodeTable& after) {
  std::vector<Hierarchy::LeafDelta> deltas;
  auto a = before.begin();
  auto b = after.begin();
  auto emit = [&deltas](uint64_t key, int64_t delta_positives,
                        int64_t delta_negatives) {
    if (delta_positives != 0 || delta_negatives != 0) {
      deltas.push_back({key, delta_positives, delta_negatives});
    }
  };
  while (a != before.end() || b != after.end()) {
    if (b == after.end() || (a != before.end() && a->first < b->first)) {
      emit(a->first, -a->second.positives, -a->second.negatives);
      ++a;
    } else if (a == before.end() || b->first < a->first) {
      emit(b->first, b->second.positives, b->second.negatives);
      ++b;
    } else {
      emit(a->first, b->second.positives - a->second.positives,
           b->second.negatives - a->second.negatives);
      ++a;
      ++b;
    }
  }
  return deltas;
}

uint64_t LeafCountsDigest(const NodeTable& counts) {
  uint64_t digest = 0xcbf29ce484222325ull;
  for (const auto& [key, region] : counts) {
    // Digest the non-empty support only: a leaf drained to zero by deltas
    // stays in the table as an explicit {0,0} entry, but is unobservable —
    // it materializes no rows and a census never emits it — so it must
    // digest identically to its absence.
    if (region.Total() == 0) continue;
    uint8_t bytes[24];
    const uint64_t words[3] = {key,
                               static_cast<uint64_t>(region.positives),
                               static_cast<uint64_t>(region.negatives)};
    for (int w = 0; w < 3; ++w) {
      for (int i = 0; i < 8; ++i) {
        bytes[8 * w + i] = static_cast<uint8_t>(words[w] >> (8 * i));
      }
    }
    digest = Fnv1a64(bytes, sizeof(bytes), digest);
  }
  return digest;
}

}  // namespace remedy
