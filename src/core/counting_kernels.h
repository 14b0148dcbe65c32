#ifndef REMEDY_CORE_COUNTING_KERNELS_H_
#define REMEDY_CORE_COUNTING_KERNELS_H_

#include <cstdint>
#include <vector>

#include "data/columnar.h"

namespace remedy {

// Vectorizable primitives of the columnar store scan: the
// mixed-radix leaf-key computation over a shard's code arrays, and the
// per-lane label tally. Everything here is exact integer arithmetic, so
// the AVX2 and portable paths produce bit-identical results; which one
// runs is a pure CPU-capability question (see Avx2CountingAvailable).

// Mixed-radix packing plan of one node mask over a store's protected
// attributes: key = sum over deterministic positions of code * stride,
// which equals RegionCounter::RowKey's Horner form exactly.
struct LeafKeyPlan {
  std::vector<int> positions;      // deterministic positions, ascending
  std::vector<uint32_t> strides;   // stride per entry of `positions`
  uint64_t key_space = 1;

  // The SIMD key path packs into u32 lanes; keys must fit.
  bool FitsU32() const { return key_space <= (uint64_t{1} << 32); }
};

// Builds the plan for `mask` from the store's protected cardinalities.
LeafKeyPlan MakeLeafKeyPlan(const std::vector<int>& cardinalities,
                            uint32_t mask);

// True when the AVX2 kernel TU was compiled with AVX2 support and this CPU
// executes AVX2. The result never changes within a process.
bool Avx2CountingAvailable();

// Writes keys[i] = packed key of shard row (row_begin + i) for i in
// [0, count). Requires plan.FitsU32() and row_begin + count <= shard rows.
// Kernels read shards through ColumnarShardStore::ShardView, so in-memory
// and mmap-backed stores run the exact same code.
void ComputeShardKeysPortable(const ColumnarShardStore::ShardView& shard,
                              const LeafKeyPlan& plan, int64_t row_begin,
                              int64_t count, uint32_t* keys);
// AVX2 twin (8 rows per iteration, scalar tail). Only callable when
// Avx2CountingAvailable(); output is bit-identical to the portable kernel.
void ComputeShardKeysAvx2(const ColumnarShardStore::ShardView& shard,
                          const LeafKeyPlan& plan, int64_t row_begin,
                          int64_t count, uint32_t* keys);
// Dispatches to the AVX2 kernel when available, else the portable one.
void ComputeShardKeys(const ColumnarShardStore::ShardView& shard,
                      const LeafKeyPlan& plan, int64_t row_begin,
                      int64_t count, uint32_t* keys);

// Number of interleaved partial tally tables the lane tally splits small
// key spaces across (merged lane-by-lane afterwards), breaking the
// store-to-load dependence of consecutive increments to the same region.
inline constexpr int kTallyLanes = 4;
// Key spaces at or below this use the per-lane layout; larger dense tables
// would blow the cache kTallyLanes times over instead.
inline constexpr uint64_t kLaneTallyKeyLimit = uint64_t{1} << 14;
inline bool UseLaneTally(uint64_t key_space) {
  return key_space <= kLaneTallyKeyLimit;
}

// tally[2 * key + label] += 1 for each of the `count` (key, label) pairs.
// `tally` holds 2 * key_space entries (positives at 2k + 1, negatives at
// 2k, matching label codes).
void TallyKeysSingle(const uint32_t* keys, const uint8_t* labels,
                     int64_t count, int64_t* tally);
// Per-lane variant: pair i lands in table (i mod kTallyLanes) of `lanes`
// (kTallyLanes * 2 * key_space entries, caller-zeroed, reusable across
// blocks of one scan). MergeTallyLanes folds the lanes into `tally` in
// ascending lane order.
void TallyKeysLanes(const uint32_t* keys, const uint8_t* labels,
                    int64_t count, uint64_t key_space, int64_t* lanes);
void MergeTallyLanes(const int64_t* lanes, uint64_t key_space,
                     int64_t* tally);

}  // namespace remedy

#endif  // REMEDY_CORE_COUNTING_KERNELS_H_
