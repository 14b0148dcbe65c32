// AVX2 half of the counting kernels. This translation unit is the only one
// compiled with -mavx2 (when the toolchain supports it — see the
// REMEDY_COMPILE_AVX2 probe in src/CMakeLists.txt), so AVX2 instructions
// never leak into code that runs on pre-AVX2 hosts; the portable build
// compiles the stubs below instead. Whether the kernel may run is decided
// once per process from the CPU feature bits.
//
// The kernel is exact u32 integer arithmetic (mullo + add per attribute),
// so its output is bit-identical to ComputeShardKeysPortable — the
// counting-paths parity suite pins that on every test run.

#include "core/counting_kernels.h"

#include "common/check.h"

#if defined(REMEDY_COMPILE_AVX2)

#include <immintrin.h>

namespace remedy {

bool Avx2CountingAvailable() {
  static const bool available = __builtin_cpu_supports("avx2");
  return available;
}

void ComputeShardKeysAvx2(const ColumnarShardStore::ShardView& shard,
                          const LeafKeyPlan& plan, int64_t row_begin,
                          int64_t count, uint32_t* keys) {
  REMEDY_DCHECK(plan.FitsU32());
  REMEDY_DCHECK(row_begin >= 0 && row_begin + count <= shard.num_rows);
  if (plan.positions.empty()) {
    for (int64_t i = 0; i < count; ++i) keys[i] = 0;
    return;
  }
  bool first = true;
  for (size_t p = 0; p < plan.positions.size(); ++p) {
    const ColumnarShardStore::ShardView::Column& column =
        shard.columns[plan.positions[p]];
    const __m256i stride = _mm256_set1_epi32(
        static_cast<int>(plan.strides[p]));
    const bool narrow = column.wide == nullptr;
    const uint8_t* codes8 = narrow ? column.narrow + row_begin : nullptr;
    const uint16_t* codes16 = narrow ? nullptr : column.wide + row_begin;
    int64_t i = 0;
    for (; i + 8 <= count; i += 8) {
      // 8 codes -> 8 u32 lanes; key lane += code * stride (exact in u32:
      // every partial sum is bounded by the final key < key_space <= 2^32).
      __m256i codes;
      if (narrow) {
        codes = _mm256_cvtepu8_epi32(_mm_loadl_epi64(
            reinterpret_cast<const __m128i*>(codes8 + i)));
      } else {
        codes = _mm256_cvtepu16_epi32(_mm_loadu_si128(
            reinterpret_cast<const __m128i*>(codes16 + i)));
      }
      const __m256i term = _mm256_mullo_epi32(codes, stride);
      __m256i* slot = reinterpret_cast<__m256i*>(keys + i);
      if (first) {
        _mm256_storeu_si256(slot, term);
      } else {
        _mm256_storeu_si256(slot,
                            _mm256_add_epi32(_mm256_loadu_si256(slot), term));
      }
    }
    for (; i < count; ++i) {
      const uint32_t code = narrow ? codes8[i] : codes16[i];
      const uint32_t term = code * plan.strides[p];
      keys[i] = first ? term : keys[i] + term;
    }
    first = false;
  }
}

}  // namespace remedy

#else  // !REMEDY_COMPILE_AVX2

namespace remedy {

bool Avx2CountingAvailable() { return false; }

void ComputeShardKeysAvx2(const ColumnarShardStore::ShardView& shard,
                          const LeafKeyPlan& plan, int64_t row_begin,
                          int64_t count, uint32_t* keys) {
  // Unreachable by contract (Avx2CountingAvailable() is false), but keep a
  // correct fallback rather than a trap.
  ComputeShardKeysPortable(shard, plan, row_begin, count, keys);
}

}  // namespace remedy

#endif  // REMEDY_COMPILE_AVX2
