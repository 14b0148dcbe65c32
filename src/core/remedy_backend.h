#ifndef REMEDY_CORE_REMEDY_BACKEND_H_
#define REMEDY_CORE_REMEDY_BACKEND_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/hierarchy.h"
#include "core/region_counter.h"
#include "core/remedy.h"
#include "data/dataset.h"
#include "data/schema.h"

namespace remedy {

// Runtime-selectable implementations of the remedy write path
// (see docs/REMEDY.md). One API, three backends:
//
//   rebuild      the full-replan reference engine: invalidate the lattice
//                and copy the dataset after every node that changed. The
//                oracle the others are equivalence-tested against.
//   incremental  the delta-maintained engine (PR 2): one EagerBuild, leaf
//                deltas per node visit, tombstoned removals compacted at
//                the end. Byte-identical output to rebuild, proven by the
//                randomized suite in tests/remedy_test.cc.
//   streaming    the daemon's online form: plans against a pinned epoch's
//                leaf counts (no rows required) and emits the plan as
//                signed leaf-count deltas, which ServeDaemon::SubmitRemedy
//                commits through the WAL-backed group-commit path.
//
// The streaming backend is count-faithful, not row-faithful: the daemon
// holds leaf counts, not rows, so its remedy is defined as the row engine's
// remedy of the canonical materialization of those counts
// (MaterializeLeafCounts below). A count-native planner computes it without
// materializing: each (leaf, label) class is a list of canonical row-index
// runs, borderline picks order runs by (ranker score, canonical row index),
// and random picks replay the row engine's per-region draws on index-ordered
// positions. Its deltas and RemedyStats equal the batch rebuild engine's on
// the materialized dataset, for any thread count; the randomized parity
// suite in tests/remedy_backend_test.cc pins this contract.
enum class RemedyBackendKind {
  kRebuild,
  kIncremental,
  kStreaming,
};

// Canonical lowercase name ("rebuild" / "incremental" / "streaming").
const char* RemedyBackendName(RemedyBackendKind kind);

// Parses a --remedy-backend= value; kInvalidArgument on anything unknown,
// with the valid names listed in the message.
StatusOr<RemedyBackendKind> ParseRemedyBackend(const std::string& name);

// What a backend remedies. Exactly one of `dataset` / `leaf_counts` may be
// set; `leaf_counts` (the count form the daemon uses) requires `schema`.
// With a dataset, `schema` is ignored in favor of dataset->schema().
struct RemedySource {
  const Dataset* dataset = nullptr;
  const DataSchema* schema = nullptr;
  const NodeTable* leaf_counts = nullptr;
};

// A remedy expressed as net signed leaf-count deltas: applying `deltas` to
// the source's leaf counts yields exactly the leaf counts of the remedied
// dataset. Sorted ascending by key; zero-net entries omitted.
struct RemedyDeltaPlan {
  std::vector<Hierarchy::LeafDelta> deltas;
  RemedyStats stats;
};

class RemedyBackend {
 public:
  virtual ~RemedyBackend() = default;

  virtual RemedyBackendKind kind() const = 0;
  const char* name() const { return RemedyBackendName(kind()); }

  // Row form: the remedied dataset. The batch backends are row-faithful
  // when given a dataset; the streaming backend plans, applies the plan to
  // the census and returns its canonical materialization. Fails like
  // RemedyDataset (kInvalidArgument on an empty source, etc.); the
  // streaming backend also fails kOutOfRange when an undersampling or
  // oversampling region's class exceeds the int range of Rng's samplers.
  virtual StatusOr<Dataset> Remedy(const RemedySource& source,
                                   const RemedyParams& params,
                                   RemedyStats* stats = nullptr) const = 0;

  // Delta form: the net signed leaf deltas that take the source's leaf
  // census to the remedied one, timed into remedy_backend/plan_ns. An empty
  // source yields an empty plan (a no-op, not an error) — the daemon may ask
  // for a remedy before any data arrived.
  StatusOr<RemedyDeltaPlan> PlanDeltas(const RemedySource& source,
                                       const RemedyParams& params) const;

  static std::unique_ptr<RemedyBackend> Create(RemedyBackendKind kind);

 protected:
  // PlanDeltas over a validated source whose leaf census `census` is
  // non-empty. The default runs Remedy and diffs the census of its rows
  // against `census`; the streaming backend plans on the counts directly.
  virtual StatusOr<RemedyDeltaPlan> PlanCensus(
      const RemedySource& source, const NodeTable& census,
      const RemedyParams& params) const;
};

// The canonical count→row materialization that defines the streaming
// backend's remedy, and the count source of the batch backends (hence the
// streaming planner's parity oracle): leaf keys ascending; per key,
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

// Net signed deltas such that `before` + deltas = `after`, ascending by
// key, zero-net entries omitted.
std::vector<Hierarchy::LeafDelta> DiffLeafCounts(const NodeTable& before,
                                                 const NodeTable& after);

// FNV-1a digest over (key, positives, negatives) little-endian triples —
// the byte-identity witness of the parity suite and the smoke tooling.
uint64_t LeafCountsDigest(const NodeTable& counts);

}  // namespace remedy

#endif  // REMEDY_CORE_REMEDY_BACKEND_H_
