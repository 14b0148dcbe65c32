#ifndef REMEDY_CORE_HIERARCHY_H_
#define REMEDY_CORE_HIERARCHY_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/region_counter.h"
#include "data/columnar.h"
#include "data/dataset.h"

namespace remedy {

// The region hierarchy of Sec. III (Fig. 1): nodes group the patterns that
// share the same deterministic attribute set; a node is identified by a
// bitmask over the |X| protected-attribute positions and its level is the
// popcount of that mask. Level 0 is the entire dataset, the leaf level has
// all attributes deterministic.
//
// Counting engine: only the leaf node is ever counted with a scan of the
// row source (RegionCounter::CountNode over the Dataset or the store,
// whichever the hierarchy holds); every coarser node is derived from an
// already-built node one level below via RegionCounter::RollUp, so
// materializing any slice of the lattice costs at most one O(rows) pass
// plus per-node merges over the non-empty regions.
// Nodes are memoized lazily on first access; EagerBuild() precomputes the
// whole lattice level by level, optionally fanning the independent nodes of
// a level out over a thread pool. `Invalidate()` drops the memo after the
// underlying dataset changes.
// The regions ApplyDeltas changed since the set was last cleared — the seed
// of the incremental identify path (see core/ibs_incremental.h). Every leaf
// delta projects into exactly one region of every node, and the keyed and
// slot paths compute those projections anyway, so recording them here is
// free of extra key arithmetic; the rollup path rebuilds whole nodes and
// marks them so instead. The set accumulates across epochs until a consumer
// clears it, so an identify that runs every N epochs still sees every
// change.
struct DirtySet {
  struct Node {
    // Every region of the node may have changed (a rollup rebuilt it).
    bool whole = false;
    // Region keys some applied delta projected into, in apply order; a
    // key is not listed twice in a row, but may repeat. A consumer sorts
    // and dedups them. The leaf node lists its keys even when whole, so
    // the distinct dirty leaves stay countable. ApplyDeltas sorts and
    // dedups a list once it outnumbers twice the node's entries, which
    // bounds the set by the lattice.
    std::vector<uint64_t> keys;
  };
  // Per node mask: that node's marks.
  std::unordered_map<uint32_t, Node> nodes;
  // Net drift of the level-0 totals since the set was last cleared.
  int64_t delta_positives = 0;
  int64_t delta_negatives = 0;

  // True iff no delta was applied since the last Clear (a delta marks
  // every node, so `nodes` is empty exactly when nothing changed).
  bool empty() const {
    return nodes.empty() && delta_positives == 0 && delta_negatives == 0;
  }
  void Clear() {
    nodes.clear();
    delta_positives = 0;
    delta_negatives = 0;
  }
};

class Hierarchy {
 public:
  // `data` must outlive the hierarchy.
  explicit Hierarchy(const Dataset& data);

  // Store-backed hierarchy: counts come from the columnar shards alone, so
  // arbitrarily large inputs never need a row-oriented Dataset (the remedy
  // write path, which mutates rows, still requires the Dataset form).
  // `store` must outlive the hierarchy.
  explicit Hierarchy(const ColumnarShardStore& store);

  // Count-seeded hierarchy: no row source at all — the leaf node's counts
  // (and the level-0 totals they imply) are handed in directly, and every
  // coarser node derives from them by the usual exact rollups. This is the
  // recovery path of the streaming service: a checkpoint stores the leaf
  // table, and replaying it here rebuilds the identical lattice without
  // any dataset or shard store on hand. The schema is copied and owned.
  // Invalidate() on a count-seeded hierarchy discards the only count
  // source, so any later (re)build dies — don't mutate what you can't
  // recount.
  Hierarchy(const DataSchema& schema, NodeTable leaf_counts,
            const RegionCounts& totals);

  int NumProtected() const { return counter_.NumProtected(); }
  uint32_t LeafMask() const {
    return (NumProtected() == 32) ? 0xffffffffu
                                  : ((1u << NumProtected()) - 1u);
  }

  const RegionCounter& counter() const { return counter_; }
  // Schema of whichever backing this hierarchy counts from.
  const DataSchema& schema() const {
    if (data_ != nullptr) return data_->schema();
    if (store_ != nullptr) return store_->schema();
    return *owned_schema_;
  }
  // Dies on a store-backed hierarchy (no row-oriented view exists).
  const Dataset& data() const;
  bool has_dataset() const { return data_ != nullptr; }

  // Readies the counting source before any node is built: for a spilled
  // (mmap-backed) store this maps the shard files, which is the one
  // fallible step of out-of-core counting. EagerBuild and IdentifyIbs call
  // it so a missing or truncated shard file surfaces as a clean Status;
  // lazy NodeCounts on an unprepared store still works but dies on a map
  // failure. No-op for in-memory sources.
  Status PrepareCounting();

  // Region counts of node `mask` (memoized; built by rollup, see above).
  const NodeTable& NodeCounts(uint32_t mask);

  // Materializes every lattice node (leaf scan + bottom-up rollups) plus the
  // level-0 totals. `threads` > 1 evaluates the nodes of each level in
  // parallel; 0 means ThreadPool::DefaultThreads(). Levels are barriers: the
  // workers of level L only read the already-built level L + 1, never nodes
  // of their own level, so the build is race-free and its result is
  // identical for every thread count. Levels with fewer nodes than the fan
  // out is worth (and single-threaded builds) run inline without touching a
  // pool, so the parallel entry point never loses to the serial one.
  // On a pool failure the partially-built memo is dropped (Invalidate) so a
  // later lazy NodeCounts never reads a half-filled level.
  Status EagerBuild(int threads = 0);

  // True once EagerBuild has materialized every node (reset by Invalidate).
  bool fully_built() const { return fully_built_; }

  // One leaf-region count adjustment: the net (positive, negative) change of
  // the leaf region at `leaf_key`, e.g. (-1, +1) for one positive-to-negative
  // label flip or (0, -3) for removing three negative rows.
  struct LeafDelta {
    uint64_t leaf_key = 0;
    int64_t delta_positives = 0;
    int64_t delta_negatives = 0;
  };

  // Applies leaf-level count deltas to every materialized node and to the
  // level-0 totals: each delta lands at the leaf entry and at the ancestor
  // entry its key projects to (digit projection), exactly as a full rebuild
  // of the mutated dataset would count — without rescanning any rows.
  // Requires a fully built hierarchy (EagerBuild) so no node is left behind
  // to be lazily rebuilt from a dataset the deltas already describe.
  // Deltas must be pre-aggregated per leaf key and must never drive a
  // region's counts negative. Entries whose counts reach zero are kept.
  // With `insert_missing` (the streaming-ingest form) a delta whose key no
  // node has seen yet inserts the entry instead of dying — new subgroups
  // can appear mid-stream, which a batch-counted lattice never allows.
  // Also keeps the maintained counts digest current (see below). A delta
  // that takes a count below zero dies (a CHECK in every build type).
  //
  // Three paths, one result: every node equals a rebuild from the leaf
  // table the batch leaves behind, and the maintained digest its fold.
  //  * Keyed: re-packs each delta's key for every node and binary-searches
  //    it there (inserting with `insert_missing`).
  //  * Slot: searches only the leaf table. Each non-leaf node keeps an up
  //    map (4 B per entry of its fixed EagerBuild child, the
  //    lowest-missing-position one) from the child's entry index to its
  //    own, so a delta then costs one array read and one add per node. The
  //    maps are built lazily, in one O(entries) pass
  //    (RegionCounter::RollUpSlots) — never by EagerBuild, so callers that
  //    never apply deltas never pay — once the keyed work since they were
  //    last valid (deltas x nodes, this batch's included) reaches the
  //    lattice's entry count: the digest's amortization rule, so a wide
  //    batch builds them at once and narrow streams after a while.
  //  * Rollup: a batch with a leaf key the lattice lacks (insert_missing)
  //    shifts indices, so it cannot take the slot path. When its own keyed
  //    work also reaches the entry count (always, on an empty lattice: the
  //    daemon's seed batch), it merges its deltas, by ascending leaf key,
  //    into the leaf table in one pass and rebuilds every coarser node with
  //    EagerBuild's rollups. It marks the digest stale, drops the maps and
  //    marks every node whole-dirty. Its cost is about flat in the batch
  //    width: on serve_narrow's 383k-entry lattice (BM_WideInsertingApply
  //    in BENCH_micro.json) it took 24-26 ms at and past the threshold,
  //    where the keyed path took 30 ms just below it, so the threshold
  //    needs no extra factor.
  // A narrower inserting batch takes the keyed path and drops the maps;
  // Invalidate drops them too.
  void ApplyDeltas(const std::vector<LeafDelta>& deltas,
                   bool insert_missing = false);
  void ApplyDelta(const LeafDelta& delta);

  // The counts digest: a wrapping 64-bit sum, over every entry of every
  // lattice node, of a full-avalanche hash of (node mask, region key,
  // positives, negatives), finalized with the level-0 totals. Two fully
  // built hierarchies digest equal iff they hold the same entries node for
  // node — the recovery acceptance check of the streaming service (a WAL
  // replay must land on the digest of the uninterrupted run). A zero-count
  // entry still hashes, so a kept zero entry and an absent one differ.
  //
  // Being a sum, the digest has two readings of one definition:
  //  * CountsDigest() folds it from scratch over every entry — O(lattice),
  //    the independent oracle for lattices a caller built itself;
  //  * MaintainedCountsDigest() returns the sum ApplyDeltas keeps current:
  //    per touched entry it subtracts the old hash and adds the new one
  //    (an inserted entry has no old term). A batch whose deltas x nodes
  //    exceeds the lattice's entry count, EagerBuild and Invalidate mark
  //    the sum stale instead, and the next read refolds it once. Steady
  //    narrow batches thus cost O(deltas x nodes) per read, not O(lattice).
  // Both require a fully built hierarchy.
  uint64_t CountsDigest();
  uint64_t MaintainedCountsDigest();

  // Counts of the whole dataset (level-0 node).
  const RegionCounts& TotalCounts();

  // Masks of the parent nodes of `mask` (one deterministic element removed).
  // The empty mask (level 0) has no parents here; its counts come from
  // TotalCounts().
  static std::vector<uint32_t> ParentMasks(uint32_t mask);

  // All node masks at `level` deterministic elements, ascending.
  std::vector<uint32_t> MasksAtLevel(int level) const;

  // All non-empty-node masks from the leaf level down to level 1, in the
  // bottom-up traversal order of Algorithm 1.
  std::vector<uint32_t> BottomUpMasks() const;

  // Drops memoized counts (call after mutating the dataset).
  void Invalidate();

  // --- dirty-region tracking (the incremental identify seed) ----------

  // Starts recording the region keys ApplyDeltas touches into dirty_set().
  // Cheap when off (one branch per node per batch); callers that never
  // consume the set never pay for it.
  void EnableDirtyTracking() { dirty_tracking_ = true; }
  bool dirty_tracking() const { return dirty_tracking_; }
  const DirtySet& dirty_set() const { return dirty_; }
  void ClearDirtySet() { dirty_.Clear(); }

  // Monotonic stamp of "the counts changed in a way dirty_set() does not
  // describe": bumped by Invalidate() (the lattice is rebuilt from its row
  // source) and by any ApplyDeltas that ran while tracking was off. A
  // cached incremental-identify state compares stamps and falls back to a
  // full pass on mismatch.
  uint64_t mutation_generation() const { return generation_; }

 private:
  // Computes node `mask` from the cheapest available source: a leaf scan,
  // or a rollup of a (possibly recursively built) child one level below.
  NodeTable BuildNode(uint32_t mask);

  // EagerBuild's level loop: every node of levels |X| - 1 .. 1 rolled up
  // from its fixed child one level below (`rebuild`: the memoized ones
  // too). Levels are barriers; see EagerBuild.
  Status RollUpLevels(int threads, bool rebuild);

  // The unfinalized counts digest: the hash sum over every entry.
  uint64_t FoldEntryHashes() const;

  // The three ApplyDeltas paths (see there). RecordEntry keeps the fresh
  // digest sum current for one updated entry.
  void ApplyKeyed(const std::vector<LeafDelta>& deltas, bool insert_missing);
  void ApplySlotted(const std::vector<LeafDelta>& deltas,
                    const std::vector<uint32_t>& leaf_slots);
  void ApplyRolledUp(const std::vector<LeafDelta>& deltas);
  // Node `mask`'s dirty key list, or null while tracking is off.
  std::vector<uint64_t>* DirtyKeys(uint32_t mask) {
    return dirty_tracking_ ? &dirty_.nodes[mask].keys : nullptr;
  }
  void RecordEntry(uint32_t mask, uint64_t key, const RegionCounts& after,
                   const LeafDelta& delta, bool inserted);
  // Each delta's leaf-table index into `slots`; false when some leaf key is
  // absent (dies on that unless `insert_missing`).
  bool LeafSlots(const std::vector<LeafDelta>& deltas, bool insert_missing,
                 std::vector<uint32_t>* slots) const;
  void BuildSlotMaps();

  // One node's up map: `up[i]` is the index in this node's table of the
  // entry that entry i of its fixed EagerBuild child projects to.
  struct SlotMap {
    uint32_t mask = 0;
    uint32_t child = 0;  // index of the child's SlotMap in slot_maps_
    std::vector<uint32_t> up;
  };

  const Dataset* data_ = nullptr;
  const ColumnarShardStore* store_ = nullptr;
  std::unique_ptr<DataSchema> owned_schema_;  // count-seeded form only
  RegionCounter counter_;
  std::unordered_map<uint32_t, NodeTable> node_cache_;
  RegionCounts total_counts_;
  bool total_valid_ = false;
  bool fully_built_ = false;
  bool dirty_tracking_ = false;
  DirtySet dirty_;
  uint64_t generation_ = 0;
  uint64_t digest_sum_ = 0;     // FoldEntryHashes(), kept by ApplyDeltas
  bool digest_fresh_ = false;   // false: digest_sum_ must be refolded
  // Leaf first, then by level descending; empty while not valid.
  std::vector<SlotMap> slot_maps_;
  size_t keyed_work_ = 0;  // deltas x nodes keyed since the maps were valid
};

}  // namespace remedy

#endif  // REMEDY_CORE_HIERARCHY_H_
