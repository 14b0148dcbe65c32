#include "core/hierarchy.h"

#include <algorithm>
#include <bit>
#include <memory>

#include "common/check.h"
#include "common/pipeline_metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"

namespace remedy {
namespace {

// splitmix64's finalizer: a bijection in which every input bit flips each
// output bit with probability ~1/2.
uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

constexpr uint64_t kGolden = 0x9e3779b97f4a7c15ull;

// One lattice entry's term of the counts digest. Chaining the fields
// through Mix64 makes the term depend on which key holds which counts, so
// swapping two keys' counts changes the sum; the constant offsets keep a
// zero-count entry's term non-zero.
uint64_t EntryHash(uint32_t mask, uint64_t key, const RegionCounts& counts) {
  uint64_t h = Mix64(uint64_t{mask} + kGolden);
  h = Mix64((h ^ key) + kGolden);
  h = Mix64((h ^ static_cast<uint64_t>(counts.positives)) + kGolden);
  return Mix64((h ^ static_cast<uint64_t>(counts.negatives)) + kGolden);
}

uint64_t FinalizeDigest(uint64_t sum, const RegionCounts& totals) {
  uint64_t h = Mix64(sum + kGolden);
  h = Mix64((h ^ static_cast<uint64_t>(totals.positives)) + kGolden);
  return Mix64((h ^ static_cast<uint64_t>(totals.negatives)) + kGolden);
}

// Lists `key` in a node's dirty key list (null while tracking is off),
// skipping a repeat of the last key: sorted deltas project in runs onto
// the nodes that keep their leading positions.
void MarkKey(std::vector<uint64_t>* keys, uint64_t key) {
  if (keys != nullptr && (keys->empty() || keys->back() != key)) {
    keys->push_back(key);
  }
}

// Sorts and dedups a node's dirty key list once it outnumbers twice the
// node's `entries`. Every listed key names an entry, so each compaction at
// least halves the list: amortized O(log) per key, and a list no identify
// clears never outgrows twice its node.
void CompactDirtyKeys(std::vector<uint64_t>* keys, size_t entries) {
  if (keys == nullptr || keys->size() <= 2 * entries) return;
  std::sort(keys->begin(), keys->end());
  keys->erase(std::unique(keys->begin(), keys->end()), keys->end());
}

}  // namespace

Hierarchy::Hierarchy(const Dataset& data)
    : data_(&data), counter_(data.schema()) {}

Hierarchy::Hierarchy(const ColumnarShardStore& store)
    : store_(&store), counter_(store.schema()) {}

Hierarchy::Hierarchy(const DataSchema& schema, NodeTable leaf_counts,
                     const RegionCounts& totals)
    : owned_schema_(std::make_unique<DataSchema>(schema)),
      counter_(*owned_schema_) {
  node_cache_.emplace(LeafMask(), std::move(leaf_counts));
  total_counts_ = totals;
  total_valid_ = true;
}

const Dataset& Hierarchy::data() const {
  REMEDY_CHECK(data_ != nullptr)
      << "store-backed hierarchy has no row-oriented Dataset view";
  return *data_;
}

Status Hierarchy::PrepareCounting() {
  return store_ != nullptr ? store_->EnsureMapped() : OkStatus();
}

const NodeTable& Hierarchy::NodeCounts(uint32_t mask) {
  REMEDY_CHECK(mask != 0 && (mask & ~LeafMask()) == 0)
      << "invalid node mask " << mask;
  auto it = node_cache_.find(mask);
  if (it == node_cache_.end()) {
    NodeTable table = BuildNode(mask);
    it = node_cache_.emplace(mask, std::move(table)).first;
  }
  return it->second;
}

NodeTable Hierarchy::BuildNode(uint32_t mask) {
  const PipelineMetrics& metrics = PipelineMetrics::Get();
  metrics.lattice_nodes_built->Increment();
  if (mask == LeafMask()) {
    REMEDY_CHECK(data_ != nullptr || store_ != nullptr)
        << "count-seeded hierarchy lost its leaf table (Invalidate?) and "
           "has no row source to rescan";
    metrics.lattice_leaf_scans->Increment();
    return data_ != nullptr ? counter_.CountNode(*data_, mask)
                            : counter_.CountNode(*store_, mask);
  }
  // Prefer any already-built child (one extra deterministic attribute);
  // otherwise recurse through the lowest missing position, terminating at
  // the leaf scan. Any child yields the same counts: rolling up a marginal
  // is exact whichever attribute order the projection takes.
  const uint32_t missing = LeafMask() & ~mask;
  for (uint32_t bits = missing; bits != 0; bits &= bits - 1) {
    const uint32_t child = mask | (bits & (~bits + 1));
    auto it = node_cache_.find(child);
    if (it != node_cache_.end()) {
      metrics.lattice_rollups->Increment();
      return counter_.RollUp(it->second, child, mask);
    }
  }
  metrics.lattice_rollups->Increment();
  const uint32_t child = mask | (missing & (~missing + 1));
  return counter_.RollUp(NodeCounts(child), child, mask);
}

namespace {

// Below this many nodes a level's rollups are cheaper than the pool
// round-trip that would fan them out.
constexpr size_t kMinNodesForParallelLevel = 8;

}  // namespace

Status Hierarchy::EagerBuild(int threads) {
  REMEDY_TRACE_SPAN("hierarchy/eager_build");
  digest_fresh_ = false;
  RETURN_IF_ERROR(PrepareCounting());
  if (threads <= 0) threads = ThreadPool::DefaultThreads();
  {
    REMEDY_TRACE_SPAN_ARG("hierarchy/leaf_scan", NumProtected());
    NodeCounts(LeafMask());  // the one dataset scan
    TotalCounts();
  }
  RETURN_IF_ERROR(RollUpLevels(threads, /*rebuild=*/false));
  fully_built_ = true;
  return OkStatus();
}

Status Hierarchy::RollUpLevels(int threads, bool rebuild) {
  // The pool is spun up only for the first level wide enough to feed it, so
  // a single-core host (or a narrow lattice) never pays thread start-up and
  // scheduling costs just to run the rollups inline anyway.
  std::unique_ptr<ThreadPool> pool;
  const PipelineMetrics& metrics = PipelineMetrics::Get();
  for (int level = NumProtected() - 1; level >= 1; --level) {
    REMEDY_TRACE_SPAN_ARG("hierarchy/build_level", level);
    // Pre-insert this level's slots single-threaded so the parallel phase
    // never mutates the cache map — workers fill distinct, already-inserted
    // values and only read the fully-built level below.
    std::vector<std::pair<uint32_t, NodeTable*>> work;
    for (uint32_t mask : MasksAtLevel(level)) {
      auto [it, inserted] = node_cache_.try_emplace(mask);
      if (inserted || rebuild) work.emplace_back(mask, &it->second);
    }
    metrics.lattice_nodes_built->Increment(static_cast<int64_t>(work.size()));
    metrics.lattice_rollups->Increment(static_cast<int64_t>(work.size()));
    auto build_one = [this, &work](int64_t i) {
      const uint32_t mask = work[i].first;
      // Fixed child choice (lowest missing position) keeps the build
      // independent of scheduling; every level-(L+1) superset exists.
      const uint32_t missing = LeafMask() & ~mask;
      const uint32_t child = mask | (missing & (~missing + 1));
      auto child_it = node_cache_.find(child);
      REMEDY_CHECK(child_it != node_cache_.end());
      *work[i].second = counter_.RollUp(child_it->second, child, mask);
    };
    if (threads == 1 || work.size() < kMinNodesForParallelLevel) {
      for (size_t i = 0; i < work.size(); ++i) build_one(i);
    } else {
      if (pool == nullptr) pool = std::make_unique<ThreadPool>(threads);
      Status built =
          pool->ParallelFor(static_cast<int64_t>(work.size()), build_one);
      if (!built.ok()) {
        // The level's pre-inserted slots may hold empty tables; drop the
        // memo so nothing downstream reads a half-built lattice.
        Invalidate();
        return built.WithContext("EagerBuild level " + std::to_string(level));
      }
    }
  }
  return OkStatus();
}

void Hierarchy::ApplyDeltas(const std::vector<LeafDelta>& deltas,
                            bool insert_missing) {
  REMEDY_CHECK(fully_built_ && total_valid_)
      << "ApplyDeltas requires a fully built hierarchy (call EagerBuild)";
  if (deltas.empty()) return;
  PipelineMetrics::Get().lattice_delta_rows->Increment(
      static_cast<int64_t>(deltas.size()));
  size_t entries = 0;
  for (const auto& [mask, table] : node_cache_) entries += table.size();
  const size_t work = deltas.size() * node_cache_.size();
  // Keep the digest sum current only while that is cheaper than the one
  // refold a stale sum costs at its next read.
  if (digest_fresh_) digest_fresh_ = work <= entries;
  // The slot path once the keyed work it would save has paid for building
  // the maps. A batch that inserts a leaf shifts indices: a wide one takes
  // the rollup, a narrower one the keyed path, and both drop the maps.
  bool keyed = true;
  if (!slot_maps_.empty() || keyed_work_ + work >= entries) {
    std::vector<uint32_t> leaf_slots;
    if (LeafSlots(deltas, insert_missing, &leaf_slots)) {
      if (slot_maps_.empty()) BuildSlotMaps();
      ApplySlotted(deltas, leaf_slots);
      keyed = false;
    } else if (work >= entries) {
      ApplyRolledUp(deltas);
      keyed = false;
    } else {
      slot_maps_.clear();
    }
  }
  if (keyed) {
    ApplyKeyed(deltas, insert_missing);
    keyed_work_ += work;
  }
  for (const LeafDelta& delta : deltas) {
    total_counts_.positives += delta.delta_positives;
    total_counts_.negatives += delta.delta_negatives;
  }
  if (dirty_tracking_) {
    for (const LeafDelta& delta : deltas) {
      dirty_.delta_positives += delta.delta_positives;
      dirty_.delta_negatives += delta.delta_negatives;
    }
  } else {
    // Untracked mutation: a dirty-set consumer can no longer trust its
    // cache against these counts.
    ++generation_;
  }
  REMEDY_CHECK(total_counts_.positives >= 0 && total_counts_.negatives >= 0)
      << "deltas drove the dataset totals negative";
}

void Hierarchy::RecordEntry(uint32_t mask, uint64_t key,
                            const RegionCounts& after, const LeafDelta& delta,
                            bool inserted) {
  if (!inserted) {
    digest_sum_ -= EntryHash(mask, key,
                             {after.positives - delta.delta_positives,
                              after.negatives - delta.delta_negatives});
  }
  digest_sum_ += EntryHash(mask, key, after);
}

void Hierarchy::ApplyKeyed(const std::vector<LeafDelta>& deltas,
                           bool insert_missing) {
  // Decode each leaf key once; every node then re-packs its digits.
  const size_t stride = static_cast<size_t>(NumProtected());
  std::vector<int> digits(deltas.size() * stride);
  for (size_t i = 0; i < deltas.size(); ++i) {
    counter_.KeyDigits(deltas[i].leaf_key, LeafMask(),
                       digits.data() + i * stride);
  }
  for (auto& [mask, table] : node_cache_) {
    std::vector<uint64_t>* touched = DirtyKeys(mask);
    for (size_t i = 0; i < deltas.size(); ++i) {
      const LeafDelta& delta = deltas[i];
      const uint64_t key =
          counter_.PackDigits(digits.data() + i * stride, mask);
      MarkKey(touched, key);
      bool inserted = false;
      const RegionCounts after =
          insert_missing
              ? table.UpsertDelta(key, delta.delta_positives,
                                  delta.delta_negatives, &inserted)
              : table.ApplyDelta(key, delta.delta_positives,
                                 delta.delta_negatives);
      if (digest_fresh_) RecordEntry(mask, key, after, delta, inserted);
    }
    CompactDirtyKeys(touched, table.size());
  }
}

bool Hierarchy::LeafSlots(const std::vector<LeafDelta>& deltas,
                          bool insert_missing,
                          std::vector<uint32_t>* slots) const {
  const NodeTable& leaf = node_cache_.at(LeafMask());
  slots->reserve(deltas.size());
  for (const LeafDelta& delta : deltas) {
    const auto it = leaf.find(delta.leaf_key);
    if (it == leaf.end()) {
      REMEDY_CHECK(insert_missing)
          << "delta for region key " << delta.leaf_key << " not in node";
      return false;
    }
    slots->push_back(static_cast<uint32_t>(it - leaf.begin()));
  }
  return true;
}

void Hierarchy::BuildSlotMaps() {
  PipelineMetrics::Get().lattice_slot_map_builds->Increment();
  keyed_work_ = 0;
  // Leaf first, then level by level downwards, so a node's child always
  // precedes it.
  std::unordered_map<uint32_t, uint32_t> position;
  slot_maps_.push_back({LeafMask(), 0, {}});
  position.emplace(LeafMask(), 0);
  for (int level = NumProtected() - 1; level >= 1; --level) {
    for (uint32_t mask : MasksAtLevel(level)) {
      // EagerBuild's fixed child: the lowest missing position added.
      const uint32_t missing = LeafMask() & ~mask;
      const uint32_t child = mask | (missing & (~missing + 1));
      slot_maps_.push_back(
          {mask, position.at(child),
           counter_.RollUpSlots(node_cache_.at(child), child,
                                node_cache_.at(mask), mask)});
      position.emplace(mask, static_cast<uint32_t>(slot_maps_.size() - 1));
    }
  }
}

void Hierarchy::ApplySlotted(const std::vector<LeafDelta>& deltas,
                             const std::vector<uint32_t>& leaf_slots) {
  const size_t num_nodes = slot_maps_.size();
  std::vector<NodeTable*> tables(num_nodes);
  std::vector<std::vector<uint64_t>*> touched(num_nodes);
  for (size_t n = 0; n < num_nodes; ++n) {
    tables[n] = &node_cache_.at(slot_maps_[n].mask);
    touched[n] = DirtyKeys(slot_maps_[n].mask);
  }
  std::vector<uint32_t> slots(num_nodes);
  for (size_t i = 0; i < deltas.size(); ++i) {
    const LeafDelta& delta = deltas[i];
    for (size_t n = 0; n < num_nodes; ++n) {
      slots[n] = n == 0 ? leaf_slots[i]
                        : slot_maps_[n].up[slots[slot_maps_[n].child]];
      const auto& [key, after] = tables[n]->ApplyDeltaAt(
          slots[n], delta.delta_positives, delta.delta_negatives);
      MarkKey(touched[n], key);
      if (digest_fresh_) {
        RecordEntry(slot_maps_[n].mask, key, after, delta, /*inserted=*/false);
      }
    }
  }
  for (size_t n = 0; n < num_nodes; ++n) {
    CompactDirtyKeys(touched[n], tables[n]->size());
  }
}

void Hierarchy::ApplyRolledUp(const std::vector<LeafDelta>& deltas) {
  PipelineMetrics::Get().lattice_rollup_applies->Increment();
  const auto by_key = [](const LeafDelta& a, const LeafDelta& b) {
    return a.leaf_key < b.leaf_key;
  };
  std::vector<LeafDelta> sorted;
  if (!std::is_sorted(deltas.begin(), deltas.end(), by_key)) {
    sorted = deltas;
    // Stable: repeats of one key apply in the caller's order, so a count
    // dips below zero here exactly when it does on the keyed path.
    std::stable_sort(sorted.begin(), sorted.end(), by_key);
  }
  // One merge of the ascending leaf entries with the ascending deltas: a
  // missing key is inserted (a (0,0) delta too, as UpsertDelta does).
  const std::vector<NodeTable::Entry>& leaf =
      node_cache_.at(LeafMask()).entries();
  std::vector<uint64_t>* dirty_leaves = DirtyKeys(LeafMask());
  std::vector<NodeTable::Entry> merged;
  merged.reserve(leaf.size() + deltas.size());
  size_t next = 0;  // the first leaf entry not yet merged
  for (const LeafDelta& delta : sorted.empty() ? deltas : sorted) {
    if (merged.empty() || merged.back().first != delta.leaf_key) {
      const size_t at = GallopTo(leaf, next, delta.leaf_key);
      merged.insert(merged.end(), leaf.begin() + next, leaf.begin() + at);
      next = at;
      if (next < leaf.size() && leaf[next].first == delta.leaf_key) {
        merged.push_back(leaf[next++]);
      } else {
        merged.push_back({delta.leaf_key, RegionCounts{}});
      }
      MarkKey(dirty_leaves, delta.leaf_key);
    }
    RegionCounts& counts = merged.back().second;
    counts.positives += delta.delta_positives;
    counts.negatives += delta.delta_negatives;
    REMEDY_CHECK(counts.positives >= 0 && counts.negatives >= 0)
        << "delta drove region key " << delta.leaf_key << " negative";
  }
  merged.insert(merged.end(), leaf.begin() + next, leaf.end());
  CompactDirtyKeys(dirty_leaves, merged.size());
  node_cache_[LeafMask()] = NodeTable(std::move(merged));
  // Serial, on the caller's thread: four threads roughly halve this on an
  // idle host, but ApplyDeltas starts no pool, as the daemon's own lattice
  // build (build_threads = 1) does not.
  REMEDY_CHECK(RollUpLevels(/*threads=*/1, /*rebuild=*/true).ok());
  digest_fresh_ = false;
  slot_maps_.clear();
  keyed_work_ = 0;
  if (dirty_tracking_) {
    for (const auto& [mask, table] : node_cache_) {
      dirty_.nodes[mask].whole = true;
    }
  }
}

void Hierarchy::ApplyDelta(const LeafDelta& delta) {
  ApplyDeltas(std::vector<LeafDelta>{delta});
}

uint64_t Hierarchy::FoldEntryHashes() const {
  // A wrapping sum is order-free, so the hash-ordered node map is fine.
  uint64_t sum = 0;
  for (const auto& [mask, table] : node_cache_) {
    for (const auto& [key, counts] : table) sum += EntryHash(mask, key, counts);
  }
  return sum;
}

uint64_t Hierarchy::CountsDigest() {
  REMEDY_CHECK(fully_built_ && total_valid_)
      << "CountsDigest requires a fully built hierarchy (call EagerBuild)";
  return FinalizeDigest(FoldEntryHashes(), total_counts_);
}

uint64_t Hierarchy::MaintainedCountsDigest() {
  REMEDY_CHECK(fully_built_ && total_valid_)
      << "MaintainedCountsDigest requires a fully built hierarchy (call "
         "EagerBuild)";
  if (!digest_fresh_) {
    digest_sum_ = FoldEntryHashes();
    digest_fresh_ = true;
  }
  return FinalizeDigest(digest_sum_, total_counts_);
}

const RegionCounts& Hierarchy::TotalCounts() {
  if (!total_valid_) {
    if (data_ != nullptr) {
      total_counts_ = counter_.DatasetCounts(*data_);
    } else {
      total_counts_.positives = store_->PositiveCount();
      total_counts_.negatives = store_->NegativeCount();
    }
    total_valid_ = true;
  }
  return total_counts_;
}

std::vector<uint32_t> Hierarchy::ParentMasks(uint32_t mask) {
  std::vector<uint32_t> parents;
  for (uint32_t bits = mask; bits != 0;) {
    uint32_t low_bit = bits & (~bits + 1);
    uint32_t parent = mask & ~low_bit;
    if (parent != 0) parents.push_back(parent);
    bits &= ~low_bit;
  }
  return parents;
}

std::vector<uint32_t> Hierarchy::MasksAtLevel(int level) const {
  const int n = NumProtected();
  REMEDY_CHECK(level >= 1 && level <= n);
  if (level == n) return {LeafMask()};
  // Enumerate the C(n, level) masks directly with Gosper's hack: from each
  // combination, the next one in ascending numeric order is formed from its
  // lowest set bit `low` and the carry `ripple`. No scan over all 2^n masks.
  std::vector<uint32_t> masks;
  uint64_t mask = (uint64_t{1} << level) - 1;
  const uint64_t limit = LeafMask();
  while (mask <= limit) {
    masks.push_back(static_cast<uint32_t>(mask));
    const uint64_t low = mask & (~mask + 1);
    const uint64_t ripple = mask + low;
    mask = (((mask ^ ripple) >> 2) / low) | ripple;
  }
  return masks;
}

std::vector<uint32_t> Hierarchy::BottomUpMasks() const {
  std::vector<uint32_t> masks;
  for (int level = NumProtected(); level >= 1; --level) {
    std::vector<uint32_t> at_level = MasksAtLevel(level);
    masks.insert(masks.end(), at_level.begin(), at_level.end());
  }
  return masks;
}

void Hierarchy::Invalidate() {
  node_cache_.clear();
  total_valid_ = false;
  fully_built_ = false;
  digest_fresh_ = false;
  slot_maps_.clear();
  keyed_work_ = 0;
  // The rebuilt counts will not be described by the dirty set.
  dirty_.Clear();
  ++generation_;
}

}  // namespace remedy
