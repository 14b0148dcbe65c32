// Microbenchmarks of the counting engine behind the lattice: the leaf-node
// tally along both counting paths over the same Adult-schema rows (the
// Dataset row scan and the columnar store's key-kernel scan), NodeTable
// construction over shuffled entries (exercising the LSD radix sort vs the
// comparison-sort fallback), and the synthetic generator that produces the
// counted rows, through its store, Dataset and CSV entry points (rows/s).
//
// Run with --metrics-json <file> to also dump the pipeline-metrics snapshot
// (lattice/shard_rows and lattice/radix_sort_* land here).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
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

// Adult rows with the Fig. 9 |X| = 8 protected set.
SyntheticSpec BenchSpec() {
  SyntheticSpec spec = AdultSpec(kBenchRows);
  DataSchema schema = spec.MakeSchema();
  spec.protected_indices.clear();
  for (const std::string& name : AdultScalabilityProtected(8)) {
    spec.protected_indices.push_back(schema.AttributeIndex(name));
  }
  return spec;
}

const BenchInput& Input() {
  static const BenchInput* input = [] {
    auto* built = new BenchInput;
    built->data = GenerateSynthetic(BenchSpec(), /*seed=*/42);
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

// Generation of kBenchRows Adult rows through one entry point per case,
// reported as rows/s of wall time (the CSV case includes its file writes).
void SetRowsPerSecond(benchmark::State& state) {
  state.counters["rows_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * kBenchRows,
      benchmark::Counter::kIsRate);
}

void BM_GenerateStore(benchmark::State& state) {
  const SyntheticSpec spec = BenchSpec();
  for (auto _ : state) {
    ColumnarShardStore store = GenerateSyntheticStore(spec, /*seed=*/42);
    benchmark::DoNotOptimize(store);
  }
  SetRowsPerSecond(state);
}

void BM_GenerateDataset(benchmark::State& state) {
  const SyntheticSpec spec = BenchSpec();
  for (auto _ : state) {
    Dataset data = GenerateSynthetic(spec, /*seed=*/42);
    benchmark::DoNotOptimize(data);
  }
  SetRowsPerSecond(state);
}

void BM_GenerateCsv(benchmark::State& state) {
  const SyntheticSpec spec = BenchSpec();
  const std::string path =
      (std::filesystem::temp_directory_path() / "micro_counting_bm_gen.csv")
          .string();
  for (auto _ : state) {
    if (!GenerateSyntheticCsvFile(spec, /*seed=*/42, path).ok()) {
      state.SkipWithError("CSV generation failed");
      break;
    }
  }
  std::filesystem::remove(path);
  SetRowsPerSecond(state);
}

BENCHMARK(BM_GenerateStore)->UseRealTime()->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GenerateDataset)->UseRealTime()->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GenerateCsv)->UseRealTime()->Unit(benchmark::kMillisecond);

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
