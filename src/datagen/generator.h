#ifndef REMEDY_DATAGEN_GENERATOR_H_
#define REMEDY_DATAGEN_GENERATOR_H_

#include <cstdint>
#include <functional>
#include <string>

#include "common/status.h"
#include "data/columnar.h"
#include "data/dataset.h"
#include "datagen/synthetic_spec.h"

namespace remedy {

// Samples `spec.num_rows` rows: attributes in declaration order (honoring
// conditional dependencies), then the binary label from the logistic model
// base_logit + label terms + matching bias-injection boosts. Deterministic
// given `seed`.
//
// Draw layout (part of the bit-identity contract): an Rng(seed) feeds every
// row exactly m + 1 uniforms (m = attribute count), one engine word each,
// in this order:
//  - one uniform per attribute, in declaration order: the value is the
//    first index whose running weight sum (summed in declaration order)
//    exceeds uniform * total, falling back to the last positive weight
//    when none does;
//  - one uniform for the label: 1 when it is below
//    1 / (1 + exp(-logit)), the logit summed as base_logit, then matching
//    label terms, then matching injections, in spec order.
// Every entry point below emits the same rows for the same (spec, seed),
// and any change to this layout changes every generated dataset.
Dataset GenerateSynthetic(const SyntheticSpec& spec, uint64_t seed);

// Chunk size of the streaming generator entry points below: large enough
// to amortize per-chunk overhead, small enough that peak memory stays at
// one chunk regardless of spec.num_rows.
inline constexpr int64_t kGeneratorChunkRows = 64 * 1024;

// Streams the exact row sequence of GenerateSynthetic(spec, seed) to
// `sink` in Datasets of at most `chunk_rows` rows, so arbitrarily large
// inputs are produced without the full Dataset ever materializing. The RNG
// consumption order is identical to GenerateSynthetic: concatenating the
// chunks reproduces it bit-for-bit, for any chunk size.
void GenerateSyntheticChunks(const SyntheticSpec& spec, uint64_t seed,
                             int64_t chunk_rows,
                             const std::function<void(const Dataset&)>& sink);

// Streams the generated rows straight into a columnar shard store — the
// 10M+-row counting path. Peak memory is the store's code columns (a few
// bytes per row) plus one in-flight row; no chunk Dataset is built at all.
ColumnarShardStore GenerateSyntheticStore(
    const SyntheticSpec& spec, uint64_t seed,
    int64_t shard_rows = ColumnarShardStore::kDefaultShardRows);

// Spill twin of GenerateSyntheticStore: streams the same rows (same RNG
// order, bit-identical shards) through a spill-mode builder into per-shard
// files under `dir`, so peak memory is one in-flight shard no matter how
// large spec.num_rows is. Returns the mmap-backed store re-opened over the
// files — the 100M+-row out-of-core counting path.
StatusOr<ColumnarShardStore> GenerateSyntheticSpilledStore(
    const SyntheticSpec& spec, uint64_t seed, const std::string& dir,
    int64_t shard_rows = ColumnarShardStore::kDefaultShardRows);

// Streams the generated rows to a CSV file (header + one record per row),
// formatting each record straight from the codes and writing every
// `chunk_rows` records. Byte-identical to
// WriteCsvFile(path, GenerateSynthetic(spec, seed).ToCsv()) at any size.
Status GenerateSyntheticCsvFile(const SyntheticSpec& spec, uint64_t seed,
                                const std::string& path,
                                int64_t chunk_rows = kGeneratorChunkRows);

// The label logit of one attribute-value assignment under `spec` — the
// generator's own compiled logit; exposed so tests can verify the
// generator hits the intended regional skews.
double LabelLogit(const SyntheticSpec& spec, const std::vector<int>& values);

}  // namespace remedy

#endif  // REMEDY_DATAGEN_GENERATOR_H_
