#ifndef REMEDY_CORE_REMEDY_H_
#define REMEDY_CORE_REMEDY_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "core/ibs_identify.h"
#include "data/dataset.h"

namespace remedy {

// The four pre-processing techniques of Sec. IV-A.
enum class RemedyTechnique {
  kOversample,            // duplicate minority-class instances (DP)
  kUndersample,           // drop majority-class instances (US)
  kPreferentialSampling,  // duplicate + drop borderline instances (PS)
  kMassaging,             // relabel borderline majority instances
};

std::string TechniqueName(RemedyTechnique technique);

// Counting strategy of the remedy sweep. Both engines run the same planning
// code with the same per-region RNG streams, so for any input they produce
// a row-multiset-identical remedied dataset and identical RemedyStats; they
// differ only in how the region counts and the working set are maintained.
enum class RemedyEngine {
  // Delta-maintained counts: the lattice is built once (EagerBuild), every
  // node-visit's label flips / duplications / removals are applied to the
  // affected NodeTable entries via Hierarchy::ApplyDeltas, removals are
  // tombstoned and compacted once at the end, ranker scores are cached per
  // row, and the read-only per-region planning of a node runs on a thread
  // pool with a deterministic merge order.
  kIncremental,
  // Rebuild-from-scratch reference: invalidate the lattice and copy the
  // dataset after every node that changed, re-rank borderline rows per
  // region. The oracle the incremental engine is equivalence-tested against.
  kRebuild,
};

struct RemedyParams {
  IbsParams ibs;
  RemedyTechnique technique = RemedyTechnique::kPreferentialSampling;
  uint64_t seed = 23;
  // Safety valve for oversampling: stop adding rows past this budget (the
  // paper reports oversampling exhausting memory at scale; we reproduce the
  // growth but keep the process alive). Negative disables the cap.
  int64_t max_added_total = 2'000'000;
  RemedyEngine engine = RemedyEngine::kIncremental;
  // Worker threads for the incremental engine's per-region planning (and
  // its one-off EagerBuild); 0 means ThreadPool::DefaultThreads(). The
  // merge order is fixed, so the output is identical at any thread count.
  int planning_threads = 0;
};

struct RemedyStats {
  int regions_processed = 0;  // biased regions acted on
  int regions_skipped = 0;    // unreachable targets (see remedy.cc)
  int64_t instances_added = 0;
  int64_t instances_removed = 0;
  int64_t labels_flipped = 0;
  bool add_budget_exhausted = false;
};

// Algorithm 2 (Dataset Remedy): traverses the hierarchy bottom-up,
// re-identifies the biased regions of each node against the *current*
// dataset (updates to one region shift the scores of regions that dominate
// or are dominated by it), and adjusts each biased region's class
// distribution to its neighboring region's imbalance score via Eq. (1).
//
// Returns the remedied copy of `train`; `train` itself is untouched. The
// test set must never be passed here (the paper applies no remedy to it).
// Fails with kInvalidArgument on an empty dataset or one without protected
// attributes; pool failures inside the incremental engine surface as the
// pool's Status.
StatusOr<Dataset> RemedyDataset(const Dataset& train,
                                const RemedyParams& params,
                                RemedyStats* stats = nullptr);

// Update counts of Def. 6 for one region, exposed for testing and for the
// per-region reporting in the examples: positive delta = instances added
// (negative = removed / relabeled away), by class.
struct RegionUpdate {
  int64_t delta_positives = 0;
  int64_t delta_negatives = 0;
  int64_t flips = 0;  // massaging only
  bool reachable = true;
};

// Solves Eq. (1) for the given technique. `positives`/`negatives` are the
// region's current counts, `target_ratio` is ratio_rn (kAllPositiveRatio for
// an all-positive neighborhood).
RegionUpdate ComputeUpdate(RemedyTechnique technique, int64_t positives,
                           int64_t negatives, double target_ratio);

// Seed of the RNG stream of region `key` of node `mask` in a remedy pass
// seeded with `seed`. Independent of row numbering and processing order, so
// every engine (and the streaming backend's count planner) draws the same
// sequence for the same region.
uint64_t RemedyRegionSeed(uint64_t seed, uint32_t mask, uint64_t key);

// Publishes a finished remedy pass to the remedy/* pipeline counters
// (regions planned, rows added / removed / relabeled per technique).
void RecordRemedyPass(RemedyTechnique technique, const RemedyStats& stats);

// The paper notes (Sec. VI, Limitations) that one remedy pass does not
// guarantee |ratio_r - ratio_rn| <= tau_c everywhere: adjusting one region
// shifts the scores of regions that dominate or are dominated by it.
// RemedyUntilConverged repeats Algorithm 2 until the IBS is empty or
// `max_rounds` passes ran, recording the residual IBS size after each pass.
struct IterativeRemedyResult {
  Dataset dataset;
  int rounds = 0;
  bool converged = false;          // IBS empty at the end
  std::vector<size_t> ibs_sizes;   // residual |IBS| after each pass
  RemedyStats total_stats;         // accumulated over all passes
};

// Fails with kInvalidArgument when `max_rounds` < 1 or the dataset is not
// remediable (see RemedyDataset).
StatusOr<IterativeRemedyResult> RemedyUntilConverged(
    const Dataset& train, const RemedyParams& params, int max_rounds = 5);

// Dry run of the remedy's *first* lattice pass: for every currently biased
// region, the update Algorithm 2 would apply (Def. 6), without touching the
// dataset. Because later node updates shift earlier scores, the plan is a
// preview of intent, not a transcript of the full run — use it to review or
// gate a remedy before committing to it (see the remedy_cli `plan` output).
struct PlannedAction {
  BiasedRegion region;
  RegionUpdate update;
};

StatusOr<std::vector<PlannedAction>> PlanRemedy(const Dataset& train,
                                                const RemedyParams& params);

}  // namespace remedy

#endif  // REMEDY_CORE_REMEDY_H_
