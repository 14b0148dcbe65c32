#ifndef REMEDY_CORE_REMEDY_BACKEND_H_
#define REMEDY_CORE_REMEDY_BACKEND_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/hierarchy.h"
#include "core/region_counter.h"
#include "core/remedy.h"
#include "data/dataset.h"
#include "data/schema.h"

namespace remedy {

// The remedy of a leaf census (see docs/REMEDY.md). A dataset is remedied by
// RemedyDataset; leaf counts — the daemon's state — by PlanRemedyDeltas,
// which ServeDaemon::SubmitRemedy commits through the WAL-backed
// group-commit path.
//
// The planner is count-faithful, not row-faithful: the daemon holds leaf
// counts, not rows, so its remedy is defined as the row engine's remedy of
// the canonical materialization of those counts (MaterializeLeafCounts
// below). The planner computes it without materializing: each (leaf, label)
// class is a list of canonical row-index runs, borderline picks order runs
// by (ranker score, canonical row index), and random picks replay the row
// engine's per-region draws on index-ordered positions. Its deltas and
// RemedyStats equal the rebuild engine's on the materialized dataset, for
// any thread count; the randomized parity suite in
// tests/remedy_backend_test.cc pins this contract.

// The daemon's only planner. Kept because perfbench/loadgen.cc assigns it
// (and ServeOptions::remedy_backend); ROADMAP.md item 1 removes both.
enum class RemedyBackendKind {
  kStreaming,
};

// A remedy expressed as net signed leaf-count deltas: applying `deltas` to
// the planned census yields exactly the leaf counts of the remedied
// dataset. Sorted ascending by key; zero-net entries omitted.
struct RemedyDeltaPlan {
  std::vector<Hierarchy::LeafDelta> deltas;
  RemedyStats stats;
};

// Algorithm 2 over the leaf census `leaf_counts` of `schema`: the net signed
// leaf deltas that take it to the remedied census, timed into
// remedy_backend/plan_ns. An empty census yields an empty plan (a no-op, not
// an error) — the daemon may ask for a remedy before any data arrived. Fails
// kInvalidArgument on a schema without protected attributes or a negative
// count, and kOutOfRange when an undersampling or oversampling region's
// class exceeds the int range of Rng's samplers.
StatusOr<RemedyDeltaPlan> PlanRemedyDeltas(const DataSchema& schema,
                                           const NodeTable& leaf_counts,
                                           const RemedyParams& params);

// The canonical count→row materialization that defines the planner's
// remedy (hence its parity oracle): leaf keys ascending; per key,
// `positives` rows of label 1 then `negatives` rows of label 0; protected
// values decoded from the key; every non-protected attribute pinned to code
// 0. Deterministic in the counts alone — independent of how the counts were
// produced.
// kInvalidArgument when the schema has no protected attributes or a count
// is negative.
StatusOr<Dataset> MaterializeLeafCounts(const DataSchema& schema,
                                        const NodeTable& leaf_counts);

// The leaf census of a dataset (one CountNode scan of the finest node).
NodeTable LeafCountsOf(const Dataset& data);

// FNV-1a digest over (key, positives, negatives) little-endian triples —
// the byte-identity witness of the parity suite and the smoke tooling.
uint64_t LeafCountsDigest(const NodeTable& counts);

}  // namespace remedy

#endif  // REMEDY_CORE_REMEDY_BACKEND_H_
