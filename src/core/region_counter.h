#ifndef REMEDY_CORE_REGION_COUNTER_H_
#define REMEDY_CORE_REGION_COUNTER_H_

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/pattern.h"
#include "data/dataset.h"

namespace remedy {

class ColumnarShardStore;

// Positive / negative instance counts of one region.
struct RegionCounts {
  int64_t positives = 0;
  int64_t negatives = 0;

  int64_t Total() const { return positives + negatives; }

  friend bool operator==(const RegionCounts& a, const RegionCounts& b) {
    return a.positives == b.positives && a.negatives == b.negatives;
  }
};

// Region counts of one hierarchy node, stored as a flat vector of
// (region key, counts) entries sorted ascending by key.
//
// The flat layout replaces the per-node unordered_map of the original
// counting engine: iteration is cache-friendly and already in the
// deterministic key order the identification sweep needs, and lookups are
// binary searches. The read API mirrors std::unordered_map (find / at /
// count / range-for over pair entries) so node consumers stay idiomatic.
class NodeTable {
 public:
  using Entry = std::pair<uint64_t, RegionCounts>;
  using const_iterator = std::vector<Entry>::const_iterator;

  NodeTable() = default;

  // Takes entries in any order; duplicate keys are merged by summing their
  // counts (the rollup projection produces such duplicates).
  explicit NodeTable(std::vector<Entry> entries);

  const_iterator begin() const { return entries_.begin(); }
  const_iterator end() const { return entries_.end(); }
  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  // Binary search; end() when the key is absent.
  const_iterator find(uint64_t key) const;
  size_t count(uint64_t key) const { return find(key) == end() ? 0 : 1; }
  // Dies when the key is absent.
  const RegionCounts& at(uint64_t key) const;

  // Adds (delta_positives, delta_negatives) to the entry at `key`, which
  // must already exist (the remedy deltas only ever touch populated
  // regions), and returns the entry's new counts. A count may reach zero
  // but never goes negative; the entry is kept, so consumers must treat
  // Total() == 0 entries as empty regions.
  RegionCounts ApplyDelta(uint64_t key, int64_t delta_positives,
                          int64_t delta_negatives);

  // ApplyDelta on the entry at position `index` (< size()), skipping the
  // key search — the slot-mapped form Hierarchy::ApplyDeltas uses. Returns
  // the entry (its key and new counts). Every delta form CHECKs (in every
  // build type) that no count goes negative.
  const Entry& ApplyDeltaAt(size_t index, int64_t delta_positives,
                            int64_t delta_negatives);

  // ApplyDelta that inserts the entry (in key order) when `key` is absent —
  // the streaming-ingest form, where a delta may describe a region no
  // batch-counted row ever populated. Sets `*inserted` (when non-null) to
  // whether the entry was created, so a caller keeping a sum over entries
  // knows there was no old term. O(n) on insert; amortized fine for the
  // daemon's batched deltas, which mostly touch existing regions.
  RegionCounts UpsertDelta(uint64_t key, int64_t delta_positives,
                           int64_t delta_negatives, bool* inserted = nullptr);

  const std::vector<Entry>& entries() const { return entries_; }

  friend bool operator==(const NodeTable& a, const NodeTable& b) {
    return a.entries_ == b.entries_;
  }

 private:
  std::vector<Entry> entries_;
};

// Group-by engine over subsets of the protected attributes.
//
// A hierarchy node is identified by a bitmask over the protected-attribute
// positions; within a node, each region is keyed by the packed (mixed-radix)
// combination of its deterministic values. The finest node is materialized
// with one linear pass over the dataset; every coarser node is derived from
// a node one level below with RollUp (project out one attribute from each
// region key and merge — a data-cube rollup), so a whole-lattice build costs
// one O(rows) scan plus O(#non-empty regions) merges instead of 2^|X| - 1
// scans.
class RegionCounter {
 public:
  explicit RegionCounter(const DataSchema& schema);

  int NumProtected() const {
    return static_cast<int>(cardinalities_.size());
  }
  int Cardinality(int position) const { return cardinalities_[position]; }

  // Number of distinct region keys of node `mask` (the product of the
  // deterministic attributes' cardinalities).
  uint64_t KeySpace(uint32_t mask) const;

  // Packs the deterministic values of `pattern` (whose DeterministicMask()
  // must equal `mask`) into a region key.
  uint64_t KeyFor(const Pattern& pattern, uint32_t mask) const;

  // Inverse of KeyFor: reconstructs the pattern of a region key.
  Pattern PatternFor(uint64_t key, uint32_t mask) const;

  // Counts every region of node `mask` in one pass over `data`, a row at
  // a time.
  NodeTable CountNode(const Dataset& data, uint32_t mask) const;

  // Same count over a columnar store, serially shard by shard: the key
  // kernel (AVX2 when the CPU has it, else its bit-identical portable twin;
  // see core/counting_kernels.h) packs each block of rows, and a per-lane,
  // dense or hash-map tally takes them by key-space size. Key spaces past
  // 32 bits, which the u32 kernel cannot pack, fall back to a row-at-a-time
  // walk. Equals CountNode(Dataset) on the same rows. `store` must share
  // this counter's protected attributes.
  NodeTable CountNode(const ColumnarShardStore& store, uint32_t mask) const;

  // Derives the counts of node `parent_mask` from those of `child_mask`,
  // which must have exactly one extra deterministic attribute. Exact: the
  // projection marginalizes integer counts, so the result equals a direct
  // CountNode scan.
  NodeTable RollUp(const NodeTable& child, uint32_t child_mask,
                   uint32_t parent_mask) const;

  // The slot map of that rollup: for each entry of `child` (in order), the
  // index of the `parent` entry its key projects to. `parent` must hold
  // every projection (as the RollUp of `child` does). One O(entries) pass
  // on RollUp's digit arithmetic: the child's keys ascend within each run
  // of one dropped-digit value, so each lookup gallops forward from the
  // previous one instead of searching the whole parent.
  std::vector<uint32_t> RollUpSlots(const NodeTable& child,
                                    uint32_t child_mask,
                                    const NodeTable& parent,
                                    uint32_t parent_mask) const;

  // The same walk, adding instead of recording: sums[i] (one per entry of
  // `child`) += the counts of the `parent` entry that child entry i
  // projects to. One call per parent node gives the optimized identify's
  // dominating-region sums for a whole node (see core/ibs_identify.h).
  // Dies, in every build type, when `parent` lacks a projection.
  void AddParentCounts(const NodeTable& child, uint32_t child_mask,
                       const NodeTable& parent, uint32_t parent_mask,
                       RegionCounts* sums) const;

  // Projects a node-`from_mask` region key onto node `to_mask` (a subset of
  // `from_mask`) by dropping the digits of the removed attributes — the
  // multi-digit generalization of the RollUp projection, used to route a
  // leaf-level count delta to every ancestor node.
  uint64_t ProjectKey(uint64_t key, uint32_t from_mask,
                      uint32_t to_mask) const;

  // ProjectKey in two halves, for projecting one key onto many nodes:
  // KeyDigits writes the value of each position of `mask` into
  // digits[position] (leaving the others alone); PackDigits packs the
  // digits of the positions in `mask` into a node-`mask` key.
  void KeyDigits(uint64_t key, uint32_t mask, int* digits) const;
  uint64_t PackDigits(const int* digits, uint32_t mask) const;

  // Row indices of every region of node `mask` (used by the remedy step to
  // pick the concrete instances to duplicate / remove / relabel).
  std::unordered_map<uint64_t, std::vector<int>> CollectRows(
      const Dataset& data, uint32_t mask) const;

  // Counts over the whole dataset (the level-0 node).
  RegionCounts DatasetCounts(const Dataset& data) const;

  // Packs the protected values of one dataset row under `mask` — the key of
  // the node-`mask` region the row belongs to.
  uint64_t RowKey(const Dataset& data, int row, uint32_t mask) const;

 private:
  // RollUp's mixed-radix split of a child key around the one dropped
  // position: {low_radix, cardinality of the dropped position}.
  std::pair<uint64_t, uint64_t> RollUpRadix(uint32_t child_mask,
                                            uint32_t parent_mask) const;

  std::vector<int> protected_cols_;
  std::vector<int> cardinalities_;
};

}  // namespace remedy

#endif  // REMEDY_CORE_REGION_COUNTER_H_
