#ifndef REMEDY_CORE_RADIX_SORT_H_
#define REMEDY_CORE_RADIX_SORT_H_

#include <cstdint>
#include <vector>

#include "core/region_counter.h"

namespace remedy {

// LSD radix sort of NodeTable entries by region key, byte digits, stable.
//
// Region keys are dense mixed-radix packings, so their significant bytes
// are the low ones: the sort first finds the maximum key and only runs the
// counting passes that cover it (Adult's 135k-key leaf space sorts in 3
// passes; a comparison sort pays ~17 branchy compares per entry instead).
// Stability makes the result identical to std::stable_sort by key, which
// the equivalence property test pins.
void RadixSortByKey(std::vector<NodeTable::Entry>& entries);

// Entry count at which NodeTable switches from std::sort to the radix
// sort (below it, the counting-pass setup dominates).
inline constexpr size_t kRadixSortMinEntries = 512;

}  // namespace remedy

#endif  // REMEDY_CORE_RADIX_SORT_H_
