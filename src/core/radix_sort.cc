#include "core/radix_sort.h"

#include <algorithm>
#include <array>
#include <utility>

#include "common/pipeline_metrics.h"

namespace remedy {
namespace {

// LSD passes over the key bytes up to `max_key`'s highest: counting passes
// ping-pong `count` entries between `home` (the input) and `scratch`, and
// the sorted result is moved back into `home` when the pass parity ends on
// the scratch side. Returns the passes run.
int64_t LsdSortRange(NodeTable::Entry* home, NodeTable::Entry* scratch,
                     size_t count, uint64_t max_key) {
  NodeTable::Entry* src = home;
  NodeTable::Entry* dst = scratch;
  int64_t passes = 0;
  for (int shift = 0; shift < 64 && (max_key >> shift) != 0;
       shift += 8) {
    std::array<size_t, 256> counts{};
    for (size_t i = 0; i < count; ++i) {
      ++counts[(src[i].first >> shift) & 0xff];
    }
    size_t offset = 0;
    for (size_t bucket = 0; bucket < 256; ++bucket) {
      const size_t bucket_count = counts[bucket];
      counts[bucket] = offset;
      offset += bucket_count;
    }
    for (size_t i = 0; i < count; ++i) {
      dst[counts[(src[i].first >> shift) & 0xff]++] = std::move(src[i]);
    }
    std::swap(src, dst);
    ++passes;
  }
  if (src != home) {
    std::move(src, src + count, home);
  }
  return passes;
}

}  // namespace

void RadixSortByKey(std::vector<NodeTable::Entry>& entries) {
  if (entries.size() < 2) return;
  uint64_t max_key = 0;
  for (const NodeTable::Entry& entry : entries) {
    if (entry.first > max_key) max_key = entry.first;
  }

  std::vector<NodeTable::Entry> scratch(entries.size());
  const int64_t passes =
      LsdSortRange(entries.data(), scratch.data(), entries.size(), max_key);

  const PipelineMetrics& metrics = PipelineMetrics::Get();
  metrics.lattice_radix_sort_keys->Increment(
      static_cast<int64_t>(entries.size()));
  metrics.lattice_radix_sort_passes->Increment(passes);
}

}  // namespace remedy
