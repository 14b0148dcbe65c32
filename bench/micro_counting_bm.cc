// Microbenchmarks of the counting engine behind the lattice: the leaf-node
// tally along both counting paths over the same Adult-schema rows (the
// Dataset row scan and the columnar store's key-kernel scan), and NodeTable
// construction over shuffled entries (exercising the LSD radix sort vs the
// comparison-sort fallback).
//
// Run with --metrics-json <file> to also dump the pipeline-metrics snapshot
// (lattice/shard_rows and lattice/radix_sort_* land here).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "core/region_counter.h"
#include "data/columnar.h"
#include "datagen/adult.h"
#include "datagen/generator.h"

namespace remedy {
namespace {

constexpr int kBenchRows = 1 << 20;

// The same rows as a Dataset and as a store, shared by both path cases and
// built once: the benches time counting, not generation.
struct BenchInput {
  Dataset data;
  ColumnarShardStore store;
};

const BenchInput& Input() {
  static const BenchInput* input = [] {
    SyntheticSpec spec = AdultSpec(kBenchRows);
    DataSchema schema = spec.MakeSchema();
    spec.protected_indices.clear();
    for (const std::string& name : AdultScalabilityProtected(8)) {
      spec.protected_indices.push_back(schema.AttributeIndex(name));
    }
    auto* built = new BenchInput;
    built->data = GenerateSynthetic(spec, /*seed=*/42);
    built->store = ColumnarShardStore::FromDataset(built->data);
    return built;
  }();
  return *input;
}

// `source` is the Dataset (row scan) or the store (key kernel).
template <typename Source>
void BM_CountLeaf(benchmark::State& state, const Source& source) {
  RegionCounter counter(source.schema());
  const uint32_t leaf_mask = (1u << counter.NumProtected()) - 1;
  for (auto _ : state) {
    NodeTable node = counter.CountNode(source, leaf_mask);
    benchmark::DoNotOptimize(node);
  }
  state.SetItemsProcessed(state.iterations() * kBenchRows);
}

void BM_CountLeafDataset(benchmark::State& state) {
  BM_CountLeaf(state, Input().data);
}
void BM_CountLeafStore(benchmark::State& state) {
  BM_CountLeaf(state, Input().store);
}

BENCHMARK(BM_CountLeafDataset);
BENCHMARK(BM_CountLeafStore);

// NodeTable construction from shuffled entries: below the radix threshold
// this is the std::sort path, above it the LSD radix sort.
void BM_NodeTableSort(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(7);
  std::vector<NodeTable::Entry> base;
  base.reserve(n);
  for (int64_t i = 0; i < n; ++i) {
    const uint64_t key =
        static_cast<uint64_t>(rng.UniformInt(static_cast<int>(n) * 4));
    base.push_back({key, RegionCounts{rng.UniformRange(1, 100), 1}});
  }
  for (auto _ : state) {
    std::vector<NodeTable::Entry> entries = base;
    NodeTable table(std::move(entries));
    benchmark::DoNotOptimize(table);
  }
  state.SetItemsProcessed(state.iterations() * n);
}

BENCHMARK(BM_NodeTableSort)->Arg(256)->Arg(4096)->Arg(65536)->Arg(1 << 20);

}  // namespace
}  // namespace remedy

int main(int argc, char** argv) {
  std::string metrics_path;
  std::vector<char*> args;
  args.reserve(argc);
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--metrics-json" && i + 1 < argc) {
      metrics_path = argv[++i];
      continue;
    }
    args.push_back(argv[i]);
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!metrics_path.empty()) {
    remedy::Status written = remedy::WriteMetricsJsonFile(metrics_path);
    if (!written.ok()) {
      std::fprintf(stderr, "metrics snapshot failed: %s\n",
                   written.ToString().c_str());
      return 1;
    }
    std::printf("pipeline metrics written to %s\n", metrics_path.c_str());
  }
  return 0;
}
