// Google-benchmark micro benchmarks for the core operations: region
// counting, hierarchy node materialization, neighbor-count computation
// (naive vs optimized), the whole-lattice identify sweep, the serving
// daemon's incremental identify epoch, and full IBS identification. These
// quantify the constant factors behind the Fig. 9 curves.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "common/check.h"
#include "common/rng.h"
#include "core/hierarchy.h"
#include "core/ibs_identify.h"
#include "core/ibs_incremental.h"
#include "core/imbalance.h"
#include "data/columnar.h"
#include "datagen/adult.h"
#include "datagen/compas.h"
#include "datagen/generator.h"
#include "mining/region_miner.h"

namespace remedy {
namespace {

const Dataset& CompasData() {
  static const Dataset* data = new Dataset(MakeCompas());
  return *data;
}

const Dataset& AdultData(int num_protected) {
  static const Dataset* base = new Dataset(MakeAdult());
  static Dataset* widened = nullptr;
  static int current = -1;
  if (current != num_protected) {
    delete widened;
    widened = new Dataset(*base);
    widened->SetProtected(AdultScalabilityProtected(num_protected));
    current = num_protected;
  }
  return *widened;
}

void BM_CountLeafNode(benchmark::State& state) {
  const Dataset& data = AdultData(static_cast<int>(state.range(0)));
  RegionCounter counter(data.schema());
  const uint32_t leaf = (1u << counter.NumProtected()) - 1u;
  for (auto _ : state) {
    auto counts = counter.CountNode(data, leaf);
    benchmark::DoNotOptimize(counts);
  }
  state.SetItemsProcessed(state.iterations() * data.NumRows());
}
BENCHMARK(BM_CountLeafNode)->Arg(3)->Arg(6)->Arg(8);

void BM_HierarchyAllNodes(benchmark::State& state) {
  const Dataset& data = AdultData(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    Hierarchy hierarchy(data);
    for (uint32_t mask : hierarchy.BottomUpMasks()) {
      benchmark::DoNotOptimize(hierarchy.NodeCounts(mask).size());
    }
  }
}
BENCHMARK(BM_HierarchyAllNodes)->Arg(3)->Arg(5)->Arg(6)->Arg(8);

// One rollup step: derive a level-7 node from the |X| = 8 leaf. This is the
// per-node cost the lattice pays instead of a dataset scan.
void BM_RollUpOneLevel(benchmark::State& state) {
  const Dataset& data = AdultData(8);
  RegionCounter counter(data.schema());
  const uint32_t leaf = (1u << counter.NumProtected()) - 1u;
  const NodeTable leaf_table = counter.CountNode(data, leaf);
  const uint32_t parent = leaf & ~1u;
  for (auto _ : state) {
    benchmark::DoNotOptimize(counter.RollUp(leaf_table, leaf, parent));
  }
  state.SetItemsProcessed(state.iterations() * leaf_table.size());
}
BENCHMARK(BM_RollUpOneLevel);

// Whole-lattice build through EagerBuild at the given worker count.
void BM_EagerBuild(benchmark::State& state) {
  const Dataset& data = AdultData(8);
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Hierarchy hierarchy(data);
    REMEDY_CHECK(hierarchy.EagerBuild(threads).ok());
    benchmark::DoNotOptimize(hierarchy.NodeCounts(hierarchy.LeafMask()));
  }
}
BENCHMARK(BM_EagerBuild)->Arg(1)->Arg(4);

// Binary-search lookups against the flat sorted node storage.
void BM_NodeTableFind(benchmark::State& state) {
  const Dataset& data = AdultData(8);
  RegionCounter counter(data.schema());
  const uint32_t leaf = (1u << counter.NumProtected()) - 1u;
  const NodeTable table = counter.CountNode(data, leaf);
  std::vector<uint64_t> keys;
  keys.reserve(table.size());
  for (const auto& [key, counts] : table) keys.push_back(key);
  for (auto _ : state) {
    for (uint64_t key : keys) {
      benchmark::DoNotOptimize(table.find(key));
    }
  }
  state.SetItemsProcessed(state.iterations() * keys.size());
}
BENCHMARK(BM_NodeTableFind);

void BM_NeighborCountsNaive(benchmark::State& state) {
  const Dataset& data = CompasData();
  Hierarchy hierarchy(data);
  NeighborhoodCalculator neighborhood(hierarchy, 1.0);
  const uint32_t leaf = hierarchy.LeafMask();
  const auto& node = hierarchy.NodeCounts(leaf);
  std::vector<Pattern> patterns;
  for (const auto& [key, counts] : node) {
    patterns.push_back(hierarchy.counter().PatternFor(key, leaf));
  }
  for (auto _ : state) {
    for (const Pattern& pattern : patterns) {
      benchmark::DoNotOptimize(
          neighborhood.NaiveNeighborCounts(pattern));
    }
  }
  state.SetItemsProcessed(state.iterations() * patterns.size());
}
BENCHMARK(BM_NeighborCountsNaive);

void BM_NeighborCountsOptimized(benchmark::State& state) {
  const Dataset& data = CompasData();
  Hierarchy hierarchy(data);
  NeighborhoodCalculator neighborhood(hierarchy, 1.0);
  const uint32_t leaf = hierarchy.LeafMask();
  const auto& node = hierarchy.NodeCounts(leaf);
  std::vector<std::pair<Pattern, RegionCounts>> regions;
  for (const auto& [key, counts] : node) {
    regions.emplace_back(hierarchy.counter().PatternFor(key, leaf), counts);
  }
  // Warm the parent-node caches so the steady-state cost is measured.
  for (const auto& [pattern, counts] : regions) {
    benchmark::DoNotOptimize(
        neighborhood.OptimizedNeighborCounts(pattern, counts));
  }
  for (auto _ : state) {
    for (const auto& [pattern, counts] : regions) {
      benchmark::DoNotOptimize(
          neighborhood.OptimizedNeighborCounts(pattern, counts));
    }
  }
  state.SetItemsProcessed(state.iterations() * regions.size());
}
BENCHMARK(BM_NeighborCountsOptimized);

// The identify sweep alone — every node of a built lattice through one
// NodeSweep, no counting — on 1M Adult-schema rows at the Fig. 9 |X| = 8
// (count_scale's schema and tau_c at a tenth of its rows), the lattice
// built once by EagerBuild(1). Items are lattice entries swept.
void BM_FullSweep(benchmark::State& state) {
  static Hierarchy* hierarchy = [] {
    SyntheticSpec spec = AdultSpec(1'000'000);
    const DataSchema schema = spec.MakeSchema();
    spec.protected_indices.clear();
    for (const std::string& name : AdultScalabilityProtected(8)) {
      spec.protected_indices.push_back(schema.AttributeIndex(name));
    }
    auto* store = new ColumnarShardStore(GenerateSyntheticStore(spec, 42));
    auto* built = new Hierarchy(*store);
    REMEDY_CHECK(built->EagerBuild(1).ok());
    return built;
  }();
  IbsParams params;
  params.imbalance_threshold = 0.5;
  const std::vector<uint32_t> masks = hierarchy->BottomUpMasks();
  int64_t entries = 0;
  for (uint32_t mask : masks) {
    entries += static_cast<int64_t>(hierarchy->NodeCounts(mask).size());
  }
  std::vector<BiasedRegion> biased;
  for (auto _ : state) {
    biased.clear();
    NodeSweep sweep(*hierarchy, params);
    for (uint32_t mask : masks) sweep.Sweep(mask, &biased);
    benchmark::DoNotOptimize(biased.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * entries);
  state.counters["entries"] = static_cast<double>(entries);
}
BENCHMARK(BM_FullSweep)->Unit(benchmark::kMillisecond);

// One identify epoch of the serving daemon: serve_steady's 1.2M-row
// |X| = 8 lattice, an untimed 1k-row ingest batch over 8 leaves, then one
// timed IncrementalIbsState::Identify — the dirty keys' frontier gathered,
// re-scored and merged with the cached verdicts, and the output copied.
void BM_IncrementalIdentify(benchmark::State& state) {
  static Hierarchy* hierarchy = [] {
    static const ColumnarShardStore* store = new ColumnarShardStore(
        GenerateSyntheticStore(bench::ServingSpec(1200000), 17));
    auto* built = new Hierarchy(*store);
    REMEDY_CHECK(built->EagerBuild(1).ok());
    return built;
  }();
  IbsParams params;
  params.imbalance_threshold = 0.5;
  params.distance_threshold = 1.0;
  params.min_region_size = 30;
  IncrementalIbsState incremental;
  (void)incremental.Identify(*hierarchy, params);  // the cold full pass
  const NodeTable& leaves = hierarchy->NodeCounts(hierarchy->LeafMask());
  Rng rng(0xba7c4);
  int64_t rescored = 0;
  for (auto _ : state) {
    state.PauseTiming();
    hierarchy->ApplyDeltas(bench::IngestBatch(leaves, 1000, 8, rng),
                           /*insert_missing=*/true);
    state.ResumeTiming();
    const std::vector<BiasedRegion> ibs =
        incremental.Identify(*hierarchy, params);
    benchmark::DoNotOptimize(ibs.data());
    rescored += incremental.last_stats().rescored_regions;
  }
  state.counters["rescored"] = benchmark::Counter(
      static_cast<double>(rescored), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_IncrementalIdentify)->Unit(benchmark::kMillisecond);

void BM_IdentifyIbs(benchmark::State& state) {
  const Dataset& data = CompasData();
  IbsParams params;
  params.algorithm = state.range(0) == 0 ? IbsAlgorithm::kNaive
                                         : IbsAlgorithm::kOptimized;
  for (auto _ : state) {
    benchmark::DoNotOptimize(IdentifyIbs(data, params).value());
  }
}
BENCHMARK(BM_IdentifyIbs)->Arg(0)->Arg(1);

// Candidate enumeration by FP-growth instead of the full lattice sweep
// (mining/region_miner.h): measures the frequent-pattern view of Theorem 1.
void BM_IdentifyIbsWithMiner(benchmark::State& state) {
  const Dataset& data = CompasData();
  IbsParams params;
  for (auto _ : state) {
    benchmark::DoNotOptimize(IdentifyIbsWithMiner(data, params));
  }
}
BENCHMARK(BM_IdentifyIbsWithMiner);

}  // namespace
}  // namespace remedy

BENCHMARK_MAIN();
