#include "core/region_counter.h"

#include <algorithm>
#include <bit>

#include "common/check.h"
#include "common/pipeline_metrics.h"
#include "core/counting_kernels.h"
#include "core/radix_sort.h"
#include "data/columnar.h"

namespace remedy {
namespace {

// Below this key-space size CountNode accumulates into a dense array indexed
// by key instead of a hash map: one predictable store per row, no hashing,
// and the collection pass emits keys already sorted.
constexpr uint64_t kDenseKeySpaceLimit = uint64_t{1} << 21;

// Rows keyed per kernel invocation of the store scan: one block of u32 keys
// (32 KiB) stays L1-resident between the key pass and the tally pass.
constexpr int64_t kKeyBlockRows = 8192;

void AddLabel(RegionCounts& entry, int label) {
  if (label == 1) {
    ++entry.positives;
  } else {
    ++entry.negatives;
  }
}

// Row-at-a-time mixed-radix key of one store row — the store twin of
// RegionCounter::RowKey (same Horner packing over the same positions).
uint64_t StoreRowKey(const ColumnarShardStore::ShardView& shard,
                     const std::vector<int>& cardinalities, uint32_t mask,
                     int64_t row) {
  uint64_t key = 0;
  for (size_t i = 0; i < cardinalities.size(); ++i) {
    if (mask & (1u << i)) {
      const ColumnarShardStore::ShardView::Column& column = shard.columns[i];
      const uint64_t code = column.wide == nullptr ? column.narrow[row]
                                                   : column.wide[row];
      key = key * static_cast<uint64_t>(cardinalities[i]) + code;
    }
  }
  return key;
}

// The store walk for key spaces past 32 bits, the one input the u32 key
// kernel cannot pack. Such spaces are far beyond the dense limit, so the
// tally is a hash map.
std::vector<NodeTable::Entry> ScalarCountStore(
    const ColumnarShardStore& store, const std::vector<int>& cardinalities,
    uint32_t mask) {
  std::unordered_map<uint64_t, RegionCounts> counts;
  for (int s = 0; s < store.NumShards(); ++s) {
    const ColumnarShardStore::ShardView shard = store.View(s);
    store.BeginShardPass(s);
    for (int64_t r = 0; r < shard.num_rows; ++r) {
      AddLabel(counts[StoreRowKey(shard, cardinalities, mask, r)],
               shard.labels[r]);
    }
    store.EndShardPass(s);
  }
  return {counts.begin(), counts.end()};
}

}  // namespace

NodeTable::NodeTable(std::vector<Entry> entries)
    : entries_(std::move(entries)) {
  // Dense-array counting emits keys already ascending; skip the sort
  // entirely for it.
  const auto key_less = [](const Entry& a, const Entry& b) {
    return a.first < b.first;
  };
  if (!std::is_sorted(entries_.begin(), entries_.end(), key_less)) {
    if (entries_.size() >= kRadixSortMinEntries) {
      RadixSortByKey(entries_);
    } else {
      std::sort(entries_.begin(), entries_.end(), key_less);
    }
  }
  // Merge duplicate keys in place (rollup projections collapse sibling
  // regions onto the same parent key).
  size_t out = 0;
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (out > 0 && entries_[out - 1].first == entries_[i].first) {
      entries_[out - 1].second.positives += entries_[i].second.positives;
      entries_[out - 1].second.negatives += entries_[i].second.negatives;
    } else {
      entries_[out++] = entries_[i];
    }
  }
  entries_.resize(out);
  // A rollup reserves one entry per child entry and merges most of them
  // away; a lattice rebuilt by rollups would otherwise hold its child's
  // capacity at every node (about 20 MB on serve_narrow's lattice).
  entries_.shrink_to_fit();
}

NodeTable::const_iterator NodeTable::find(uint64_t key) const {
  const_iterator it = std::lower_bound(
      entries_.begin(), entries_.end(), key,
      [](const Entry& entry, uint64_t k) { return entry.first < k; });
  if (it == entries_.end() || it->first != key) return entries_.end();
  return it;
}

const RegionCounts& NodeTable::at(uint64_t key) const {
  const_iterator it = find(key);
  REMEDY_CHECK(it != end()) << "region key " << key << " not in node";
  return it->second;
}

RegionCounts NodeTable::ApplyDelta(uint64_t key, int64_t delta_positives,
                                   int64_t delta_negatives) {
  const_iterator it = find(key);
  REMEDY_CHECK(it != end()) << "delta for region key " << key
                            << " not in node";
  return ApplyDeltaAt(it - begin(), delta_positives, delta_negatives).second;
}

const NodeTable::Entry& NodeTable::ApplyDeltaAt(size_t index,
                                                int64_t delta_positives,
                                                int64_t delta_negatives) {
  REMEDY_DCHECK(index < entries_.size());
  Entry& entry = entries_[index];
  entry.second.positives += delta_positives;
  entry.second.negatives += delta_negatives;
  // A full CHECK, not a DCHECK: this is the daemon's and the planner's
  // apply path, and a negative count means durable state has diverged —
  // release builds must not silently accept it.
  REMEDY_CHECK(entry.second.positives >= 0 && entry.second.negatives >= 0)
      << "delta drove region key " << entry.first << " negative";
  return entry;
}

RegionCounts NodeTable::UpsertDelta(uint64_t key, int64_t delta_positives,
                                    int64_t delta_negatives, bool* inserted) {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), key,
      [](const Entry& entry, uint64_t k) { return entry.first < k; });
  const bool absent = it == entries_.end() || it->first != key;
  if (absent) it = entries_.insert(it, {key, RegionCounts{}});
  if (inserted != nullptr) *inserted = absent;
  return ApplyDeltaAt(it - entries_.begin(), delta_positives,
                      delta_negatives)
      .second;
}

RegionCounter::RegionCounter(const DataSchema& schema)
    : protected_cols_(schema.protected_indices()) {
  REMEDY_CHECK(!protected_cols_.empty())
      << "RegionCounter needs at least one protected attribute";
  REMEDY_CHECK(protected_cols_.size() <= Pattern::kMaxArity);
  cardinalities_.reserve(protected_cols_.size());
  uint64_t capacity = 1;
  for (int col : protected_cols_) {
    const AttributeSchema& attribute = schema.attribute(col);
    int cardinality = attribute.Cardinality();
    // Every value of a protected attribute must fit a Pattern position.
    REMEDY_CHECK(cardinality <= Pattern::kMaxValue)
        << "protected attribute " << attribute.name() << " has "
        << cardinality << " values; a pattern holds at most "
        << Pattern::kMaxValue;
    cardinalities_.push_back(cardinality);
    // Guard the mixed-radix packing against overflow; fairness workloads are
    // far below this bound (the paper uses at most 8 protected attributes).
    REMEDY_CHECK(capacity < (UINT64_MAX / (cardinality + 1)))
        << "protected-attribute domain too large to pack into 64-bit keys";
    capacity *= static_cast<uint64_t>(cardinality);
  }
}

uint64_t RegionCounter::KeySpace(uint32_t mask) const {
  uint64_t space = 1;
  for (int i = 0; i < NumProtected(); ++i) {
    if (mask & (1u << i)) space *= static_cast<uint64_t>(cardinalities_[i]);
  }
  return space;
}

uint64_t RegionCounter::KeyFor(const Pattern& pattern, uint32_t mask) const {
  REMEDY_DCHECK(pattern.DeterministicMask() == mask);
  uint64_t key = 0;
  for (int i = 0; i < NumProtected(); ++i) {
    if (mask & (1u << i)) {
      key = key * cardinalities_[i] + static_cast<uint64_t>(pattern.Value(i));
    }
  }
  return key;
}

Pattern RegionCounter::PatternFor(uint64_t key, uint32_t mask) const {
  Pattern pattern(NumProtected());
  // Unpack in reverse position order to mirror KeyFor.
  for (int i = NumProtected() - 1; i >= 0; --i) {
    if (mask & (1u << i)) {
      pattern.SetValue(i, static_cast<int>(key % cardinalities_[i]));
      key /= cardinalities_[i];
    }
  }
  REMEDY_DCHECK(key == 0);
  return pattern;
}

uint64_t RegionCounter::RowKey(const Dataset& data, int row,
                               uint32_t mask) const {
  uint64_t key = 0;
  for (int i = 0; i < NumProtected(); ++i) {
    if (mask & (1u << i)) {
      key = key * cardinalities_[i] +
            static_cast<uint64_t>(data.Value(row, protected_cols_[i]));
    }
  }
  return key;
}

NodeTable RegionCounter::CountNode(const Dataset& data, uint32_t mask) const {
  std::vector<NodeTable::Entry> entries;
  const uint64_t key_space = KeySpace(mask);
  if (key_space <= kDenseKeySpaceLimit) {
    std::vector<RegionCounts> dense(key_space);
    for (int r = 0; r < data.NumRows(); ++r) {
      AddLabel(dense[RowKey(data, r, mask)], data.Label(r));
    }
    for (uint64_t key = 0; key < key_space; ++key) {
      if (dense[key].Total() > 0) entries.emplace_back(key, dense[key]);
    }
  } else {
    std::unordered_map<uint64_t, RegionCounts> counts;
    for (int r = 0; r < data.NumRows(); ++r) {
      AddLabel(counts[RowKey(data, r, mask)], data.Label(r));
    }
    entries.assign(counts.begin(), counts.end());
  }
  return NodeTable(std::move(entries));
}

NodeTable RegionCounter::CountNode(const ColumnarShardStore& store,
                                   uint32_t mask) const {
  REMEDY_CHECK(store.NumProtected() == NumProtected())
      << "store has " << store.NumProtected() << " protected attributes, "
      << "the counter " << NumProtected();
  const LeafKeyPlan plan = MakeLeafKeyPlan(cardinalities_, mask);
  if (!plan.FitsU32()) {
    return NodeTable(ScalarCountStore(store, cardinalities_, mask));
  }
  PipelineMetrics::Get().lattice_shard_rows->Increment(store.NumRows());
  // Three tallies by key-space size: per-lane dense tables (small spaces,
  // where consecutive rows often hit the same region), one dense table, or
  // a hash map past the dense limit.
  const bool dense = plan.key_space <= kDenseKeySpaceLimit;
  const bool lane_tally = dense && UseLaneTally(plan.key_space);
  std::vector<int64_t> tally(dense ? 2 * plan.key_space : 0, 0);
  std::vector<int64_t> lanes(
      lane_tally ? kTallyLanes * 2 * plan.key_space : 0, 0);
  std::unordered_map<uint64_t, RegionCounts> counts;
  std::vector<uint32_t> keys(kKeyBlockRows);
  for (int s = 0; s < store.NumShards(); ++s) {
    const ColumnarShardStore::ShardView shard = store.View(s);
    store.BeginShardPass(s);
    for (int64_t begin = 0; begin < shard.num_rows; begin += kKeyBlockRows) {
      const int64_t count = std::min(kKeyBlockRows, shard.num_rows - begin);
      ComputeShardKeys(shard, plan, begin, count, keys.data());
      const uint8_t* labels = shard.labels + begin;
      if (lane_tally) {
        TallyKeysLanes(keys.data(), labels, count, plan.key_space,
                       lanes.data());
      } else if (dense) {
        TallyKeysSingle(keys.data(), labels, count, tally.data());
      } else {
        for (int64_t i = 0; i < count; ++i) {
          AddLabel(counts[keys[i]], labels[i]);
        }
      }
    }
    store.EndShardPass(s);
  }
  if (!dense) {
    return NodeTable(std::vector<NodeTable::Entry>(counts.begin(),
                                                   counts.end()));
  }
  if (lane_tally) MergeTallyLanes(lanes.data(), plan.key_space, tally.data());
  std::vector<NodeTable::Entry> entries;
  for (uint64_t key = 0; key < plan.key_space; ++key) {
    const RegionCounts region{tally[2 * key + 1], tally[2 * key]};
    if (region.Total() > 0) entries.emplace_back(key, region);
  }
  return NodeTable(std::move(entries));
}

std::pair<uint64_t, uint64_t> RegionCounter::RollUpRadix(
    uint32_t child_mask, uint32_t parent_mask) const {
  REMEDY_CHECK((parent_mask & ~child_mask) == 0)
      << "parent node must drop attributes of the child node";
  const uint32_t removed = child_mask ^ parent_mask;
  REMEDY_CHECK(removed != 0 && (removed & (removed - 1)) == 0)
      << "RollUp projects out exactly one attribute per step";
  const int position = std::countr_zero(removed);
  uint64_t low_radix = 1;
  for (int i = position + 1; i < NumProtected(); ++i) {
    if (child_mask & (1u << i)) {
      low_radix *= static_cast<uint64_t>(cardinalities_[i]);
    }
  }
  return {low_radix, static_cast<uint64_t>(cardinalities_[position])};
}

NodeTable RegionCounter::RollUp(const NodeTable& child, uint32_t child_mask,
                                uint32_t parent_mask) const {
  // Mixed-radix layout of a child key (position 0 most significant):
  //   key = (high * card_p + v_p) * low_radix + low
  // where v_p is the dropped position's digit and low spans the
  // deterministic positions after it. Dropping v_p yields exactly the
  // parent node's packing.
  const auto [low_radix, card_p] = RollUpRadix(child_mask, parent_mask);
  std::vector<NodeTable::Entry> entries;
  entries.reserve(child.size());
  for (const NodeTable::Entry& entry : child) {
    const uint64_t low = entry.first % low_radix;
    const uint64_t high = entry.first / low_radix / card_p;
    entries.emplace_back(high * low_radix + low, entry.second);
  }
  return NodeTable(std::move(entries));
}

size_t GallopTo(std::span<const NodeTable::Entry> entries, size_t from,
                uint64_t key) {
  size_t probe = from;
  for (size_t step = 1; probe < entries.size() && entries[probe].first < key;
       step *= 2) {
    from = probe + 1;
    probe += step;
  }
  const auto last = entries.begin() + std::min(probe, entries.size());
  return std::lower_bound(entries.begin() + from, last, key,
                          [](const NodeTable::Entry& entry, uint64_t k) {
                            return entry.first < k;
                          }) -
         entries.begin();
}

namespace {

// The rollup walk from each entry of `down` (ascending child entries, in
// order) to the entry of `up` (ascending parent entries) its key projects
// to, calling visit(child index, parent index). Child keys ascend by (high,
// v_p, low) and project to high * low_radix + low, so the projections of
// one `high` block fill one contiguous range of `up` and ascend within each
// v_p run: restart at the block's first parent entry when a run ends, else
// gallop on from the last match. Either run may be a sparse subset of its
// node; the walk only needs `up` to hold every projection, and dies when it
// lacks one.
template <typename Visit>
void WalkRollUp(std::span<const NodeTable::Entry> down,
                std::span<const NodeTable::Entry> up, uint64_t low_radix,
                uint64_t card_p, Visit&& visit) {
  uint64_t block_high = UINT64_MAX;
  size_t block = 0;
  size_t cursor = 0;
  uint64_t previous = 0;
  for (size_t i = 0; i < down.size(); ++i) {
    const uint64_t low = down[i].first % low_radix;
    const uint64_t high = down[i].first / low_radix / card_p;
    const uint64_t key = high * low_radix + low;
    if (high != block_high) {
      block = cursor = GallopTo(up, cursor, high * low_radix);
      block_high = high;
    } else if (key < previous) {
      cursor = block;
    }
    cursor = GallopTo(up, cursor, key);
    REMEDY_CHECK(cursor < up.size() && up[cursor].first == key)
        << "parent node lacks the projection of child key " << down[i].first;
    visit(i, cursor);
    previous = key;
  }
}

}  // namespace

std::vector<uint32_t> RegionCounter::RollUpSlots(const NodeTable& child,
                                                 uint32_t child_mask,
                                                 const NodeTable& parent,
                                                 uint32_t parent_mask) const {
  REMEDY_CHECK(parent.size() <= UINT32_MAX) << "node too large to slot-map";
  const auto [low_radix, card_p] = RollUpRadix(child_mask, parent_mask);
  std::vector<uint32_t> slots;
  slots.reserve(child.size());
  WalkRollUp(child.entries(), parent.entries(), low_radix, card_p,
             [&](size_t, size_t slot) {
               slots.push_back(static_cast<uint32_t>(slot));
             });
  return slots;
}

void RegionCounter::AddParentCounts(std::span<const NodeTable::Entry> child,
                                    uint32_t child_mask,
                                    std::span<const NodeTable::Entry> parent,
                                    uint32_t parent_mask,
                                    RegionCounts* sums) const {
  const auto [low_radix, card_p] = RollUpRadix(child_mask, parent_mask);
  WalkRollUp(child, parent, low_radix, card_p, [&](size_t i, size_t slot) {
    sums[i].positives += parent[slot].second.positives;
    sums[i].negatives += parent[slot].second.negatives;
  });
}

uint64_t RegionCounter::ProjectKey(uint64_t key, uint32_t from_mask,
                                   uint32_t to_mask) const {
  REMEDY_DCHECK((to_mask & ~from_mask) == 0)
      << "projection target must drop attributes of the source node";
  if (from_mask == to_mask) return key;
  int digits[32] = {0};
  KeyDigits(key, from_mask, digits);
  return PackDigits(digits, to_mask);
}

void RegionCounter::KeyDigits(uint64_t key, uint32_t mask,
                              int* digits) const {
  // Peel the mixed-radix digits least-significant-first (mirroring
  // PatternFor).
  for (int i = NumProtected() - 1; i >= 0; --i) {
    if (mask & (1u << i)) {
      digits[i] = static_cast<int>(key % cardinalities_[i]);
      key /= cardinalities_[i];
    }
  }
  REMEDY_DCHECK(key == 0);
}

uint64_t RegionCounter::PackDigits(const int* digits, uint32_t mask) const {
  uint64_t key = 0;
  for (int i = 0; i < NumProtected(); ++i) {
    if (mask & (1u << i)) {
      key = key * cardinalities_[i] + static_cast<uint64_t>(digits[i]);
    }
  }
  return key;
}

std::unordered_map<uint64_t, std::vector<int>> RegionCounter::CollectRows(
    const Dataset& data, uint32_t mask) const {
  std::unordered_map<uint64_t, std::vector<int>> rows;
  for (int r = 0; r < data.NumRows(); ++r) {
    rows[RowKey(data, r, mask)].push_back(r);
  }
  return rows;
}

RegionCounts RegionCounter::DatasetCounts(const Dataset& data) const {
  RegionCounts counts;
  counts.positives = data.PositiveCount();
  counts.negatives = data.NegativeCount();
  return counts;
}

}  // namespace remedy
