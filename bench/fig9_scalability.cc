// Reproduces Fig. 9: runtime of IBS identification (Naive vs Optimized) and
// of the remedy algorithm per pre-processing technique, varying (a, b) the
// number of protected attributes — Adult widened with education and
// occupation, as in the paper — and (c, d) the data size at the maximal
// 8 protected attributes.
//
// With `--json <path>` (e.g. BENCH_fig9.json) every timing also lands in a
// machine-readable file, seeding the repo's perf trajectory across PRs.
// `--smoke` shrinks the grid (|X| <= 4, 10,000 rows) so the bench doubles
// as a ctest smoke check (label: bench-smoke).

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>

#include "bench_common.h"
#include "common/check.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/ibs_identify.h"
#include "core/remedy.h"
#include "data/columnar.h"
#include "datagen/adult.h"
#include "datagen/generator.h"

namespace remedy {
namespace {

struct BenchOptions {
  int min_protected = 3;
  int max_protected = 8;
  std::vector<int> row_grid = {10000, 20000, 30000, 45222};
  int base_rows = 45222;
  int repeats = 3;  // min-of-N for the short eager-build timings
};

// Identification at small |X| finishes in single-digit milliseconds, where
// one scheduler hiccup swamps the real cost and the optimized column can
// appear slower than the naive one. Min-of-`repeats` is the same noise
// discipline TimeEagerBuild already uses.
double TimeIdentify(const Dataset& data, IbsAlgorithm algorithm,
                    int repeats) {
  IbsParams params;
  params.imbalance_threshold = 0.5;
  params.algorithm = algorithm;
  double best = 0.0;
  for (int i = 0; i < std::max(1, repeats); ++i) {
    WallTimer timer;
    std::vector<BiasedRegion> ibs = IdentifyIbs(data, params).value();
    double seconds = timer.Seconds();
    (void)ibs;
    if (i == 0 || seconds < best) best = seconds;
  }
  return best;
}

// Times only the per-region neighbor aggregation — the phase the two
// algorithms actually differ in ((c-1)·d·T lookups vs d·T) — on a hierarchy
// whose node counts are already materialized, with the one sweep over the
// lattice that IdentifyIbs runs. With the rollup counting
// engine the end-to-end columns are no longer dominated by group-by
// counting, so the total and phase speedups track each other.
double TimeNeighborPhase(const Dataset& data, IbsAlgorithm algorithm,
                         int repeats) {
  IbsParams params;
  params.imbalance_threshold = 0.5;
  params.algorithm = algorithm;
  Hierarchy hierarchy(data);
  for (uint32_t mask : hierarchy.BottomUpMasks()) {
    hierarchy.NodeCounts(mask);  // warm the shared counts
  }
  hierarchy.TotalCounts();
  double best = 0.0;
  for (int i = 0; i < std::max(1, repeats); ++i) {
    WallTimer timer;
    const std::vector<BiasedRegion> ibs = IdentifyIbsInScope(hierarchy, params);
    (void)ibs;
    double seconds = timer.Seconds();
    if (i == 0 || seconds < best) best = seconds;
  }
  return best;
}

// Full-lattice counting cost: one leaf scan plus bottom-up rollups, run via
// EagerBuild with the given worker count. Builds are tens of milliseconds,
// so take the min over a few repeats to shed scheduler noise.
double TimeEagerBuild(const Dataset& data, int threads, int repeats) {
  double best = 0.0;
  for (int i = 0; i < std::max(1, repeats); ++i) {
    WallTimer timer;
    Hierarchy hierarchy(data);
    REMEDY_CHECK(hierarchy.EagerBuild(threads).ok());
    double seconds = timer.Seconds();
    if (i == 0 || seconds < best) best = seconds;
  }
  return best;
}

double TimeRemedy(const Dataset& data, RemedyTechnique technique,
                  RemedyEngine engine) {
  RemedyParams params;
  params.ibs.imbalance_threshold = 0.5;
  params.technique = technique;
  params.engine = engine;
  WallTimer timer;
  Dataset remedied = RemedyDataset(data, params).value();
  double seconds = timer.Seconds();
  (void)remedied;
  return seconds;
}

// One remedy timing row: the four techniques on the incremental engine,
// plus the rebuild reference for the techniques it can afford (oversampling
// grows the dataset by millions of rows; copying it per touched node is the
// exact pathology the incremental engine removes, so the rebuild column
// skips it).
struct RemedyTimings {
  double oversample = 0.0;
  double undersample = 0.0;
  double preferential = 0.0;
  double massaging = 0.0;
  double rebuild_undersample = 0.0;
  double rebuild_preferential = 0.0;
  double rebuild_massaging = 0.0;

  double IncrementalTotal() const {
    return oversample + undersample + preferential + massaging;
  }
  double RebuildTotal() const {
    return rebuild_undersample + rebuild_preferential + rebuild_massaging;
  }
};

RemedyTimings TimeAllRemedies(const Dataset& data) {
  RemedyTimings t;
  t.oversample = TimeRemedy(data, RemedyTechnique::kOversample,
                            RemedyEngine::kIncremental);
  t.undersample = TimeRemedy(data, RemedyTechnique::kUndersample,
                             RemedyEngine::kIncremental);
  t.preferential = TimeRemedy(data, RemedyTechnique::kPreferentialSampling,
                              RemedyEngine::kIncremental);
  t.massaging = TimeRemedy(data, RemedyTechnique::kMassaging,
                           RemedyEngine::kIncremental);
  t.rebuild_undersample = TimeRemedy(data, RemedyTechnique::kUndersample,
                                     RemedyEngine::kRebuild);
  t.rebuild_preferential = TimeRemedy(
      data, RemedyTechnique::kPreferentialSampling, RemedyEngine::kRebuild);
  t.rebuild_massaging = TimeRemedy(data, RemedyTechnique::kMassaging,
                                   RemedyEngine::kRebuild);
  return t;
}

bench::JsonResultWriter::Record RemedyRecord(const RemedyTimings& t,
                                             int num_protected, int rows) {
  return {{"num_protected", static_cast<double>(num_protected)},
          {"rows", static_cast<double>(rows)},
          {"oversample_s", t.oversample},
          {"undersample_s", t.undersample},
          {"preferential_sampling_s", t.preferential},
          {"massaging_s", t.massaging},
          {"undersample_rebuild_s", t.rebuild_undersample},
          {"preferential_sampling_rebuild_s", t.rebuild_preferential},
          {"massaging_rebuild_s", t.rebuild_massaging},
          {"remedy_incremental_s", t.IncrementalTotal()},
          {"remedy_rebuild_s", t.RebuildTotal()}};
}

void AddRemedyRow(TablePrinter& table, const std::string& label,
                  const RemedyTimings& t) {
  // Speedup compares the engines on the techniques both columns run
  // (US + PS + Massaging; the rebuild column skips oversampling).
  const double incremental_comparable =
      t.undersample + t.preferential + t.massaging;
  table.AddRow({label, FormatDouble(t.oversample, 3),
                FormatDouble(t.undersample, 3),
                FormatDouble(t.preferential, 3),
                FormatDouble(t.massaging, 3),
                FormatDouble(t.RebuildTotal(), 3),
                FormatDouble(t.RebuildTotal() /
                                 std::max(incremental_comparable, 1e-9),
                             2) +
                    "x"});
}

void VaryProtectedAttributes(const Dataset& base, const BenchOptions& opts,
                             bench::JsonResultWriter* json) {
  std::printf("(a) IBS identification runtime vs #protected attributes\n");
  TablePrinter identify({"|X|", "naive total (s)", "optimized total (s)",
                         "naive nbr-phase (s)", "opt nbr-phase (s)",
                         "phase speedup"});
  for (int count = opts.min_protected; count <= opts.max_protected; ++count) {
    Dataset data = base;
    data.SetProtected(AdultScalabilityProtected(count));
    double naive = TimeIdentify(data, IbsAlgorithm::kNaive, opts.repeats);
    double optimized =
        TimeIdentify(data, IbsAlgorithm::kOptimized, opts.repeats);
    double naive_phase =
        TimeNeighborPhase(data, IbsAlgorithm::kNaive, opts.repeats);
    double optimized_phase =
        TimeNeighborPhase(data, IbsAlgorithm::kOptimized, opts.repeats);
    identify.AddRow(
        {std::to_string(count), FormatDouble(naive, 3),
         FormatDouble(optimized, 3), FormatDouble(naive_phase, 3),
         FormatDouble(optimized_phase, 3),
         FormatDouble(naive_phase / std::max(optimized_phase, 1e-9), 2) +
             "x"});
    json->AddRecord("identify_vs_num_protected",
                    {{"num_protected", static_cast<double>(count)},
                     {"rows", static_cast<double>(data.NumRows())},
                     {"naive_total_s", naive},
                     {"optimized_total_s", optimized},
                     {"naive_neighbor_phase_s", naive_phase},
                     {"optimized_neighbor_phase_s", optimized_phase}});
  }
  identify.Print(std::cout);

  std::printf(
      "\n(b) remedy runtime vs #protected attributes (incremental engine; "
      "rebuild column sums US+PS+Massaging on the rebuild reference)\n");
  TablePrinter remedy_table({"|X|", "OS (s)", "US (s)", "PS (s)",
                             "Massaging (s)", "rebuild US+PS+M (s)",
                             "speedup"});
  for (int count = opts.min_protected; count <= opts.max_protected; ++count) {
    Dataset data = base;
    data.SetProtected(AdultScalabilityProtected(count));
    RemedyTimings t = TimeAllRemedies(data);
    AddRemedyRow(remedy_table, std::to_string(count), t);
    json->AddRecord("remedy_vs_num_protected",
                    RemedyRecord(t, count, data.NumRows()));
  }
  remedy_table.Print(std::cout);
}

void VaryDataSize(const Dataset& base, const BenchOptions& opts,
                  bench::JsonResultWriter* json) {
  const int max_protected = opts.max_protected;
  std::printf("\n(c) IBS identification runtime vs data size (|X| = %d)\n",
              max_protected);
  TablePrinter identify({"rows", "naive total (s)", "optimized total (s)",
                         "naive nbr-phase (s)", "opt nbr-phase (s)",
                         "phase speedup"});
  Rng rng(99);
  for (int rows : opts.row_grid) {
    Dataset data = base.SampleRows(std::min(rows, base.NumRows()), rng);
    data.SetProtected(AdultScalabilityProtected(max_protected));
    double naive = TimeIdentify(data, IbsAlgorithm::kNaive, opts.repeats);
    double optimized =
        TimeIdentify(data, IbsAlgorithm::kOptimized, opts.repeats);
    double naive_phase =
        TimeNeighborPhase(data, IbsAlgorithm::kNaive, opts.repeats);
    double optimized_phase =
        TimeNeighborPhase(data, IbsAlgorithm::kOptimized, opts.repeats);
    identify.AddRow(
        {std::to_string(data.NumRows()), FormatDouble(naive, 3),
         FormatDouble(optimized, 3), FormatDouble(naive_phase, 3),
         FormatDouble(optimized_phase, 3),
         FormatDouble(naive_phase / std::max(optimized_phase, 1e-9), 2) +
             "x"});
    json->AddRecord("identify_vs_rows",
                    {{"rows", static_cast<double>(data.NumRows())},
                     {"num_protected", static_cast<double>(max_protected)},
                     {"naive_total_s", naive},
                     {"optimized_total_s", optimized},
                     {"naive_neighbor_phase_s", naive_phase},
                     {"optimized_neighbor_phase_s", optimized_phase}});
  }
  identify.Print(std::cout);

  std::printf("\n(d) remedy runtime vs data size (|X| = %d)\n",
              max_protected);
  TablePrinter remedy_table({"rows", "OS (s)", "US (s)", "PS (s)",
                             "Massaging (s)", "rebuild US+PS+M (s)",
                             "speedup"});
  for (int rows : opts.row_grid) {
    Dataset data = base.SampleRows(std::min(rows, base.NumRows()), rng);
    data.SetProtected(AdultScalabilityProtected(max_protected));
    RemedyTimings t = TimeAllRemedies(data);
    AddRemedyRow(remedy_table, std::to_string(data.NumRows()), t);
    json->AddRecord("remedy_vs_rows",
                    RemedyRecord(t, max_protected, data.NumRows()));
  }
  remedy_table.Print(std::cout);
}

void CountingEngine(const Dataset& base, const BenchOptions& opts,
                    bench::JsonResultWriter* json) {
  std::printf(
      "\n(e) full-lattice counting (leaf scan + rollups, EagerBuild)\n");
  TablePrinter table({"|X|", "1 thread (s)", "default threads (s)"});
  const int default_threads = ThreadPool::DefaultThreads();
  for (int count : {opts.max_protected - 2, opts.max_protected}) {
    if (count < 1) continue;
    Dataset data = base;
    data.SetProtected(AdultScalabilityProtected(count));
    double serial = TimeEagerBuild(data, 1, opts.repeats);
    double parallel = TimeEagerBuild(data, default_threads, opts.repeats);
    table.AddRow({std::to_string(count), FormatDouble(serial, 3),
                  FormatDouble(parallel, 3)});
    json->AddRecord("eager_build",
                    {{"num_protected", static_cast<double>(count)},
                     {"rows", static_cast<double>(data.NumRows())},
                     {"serial_s", serial},
                     {"default_threads", static_cast<double>(default_threads)},
                     {"parallel_s", parallel}});
  }
  table.Print(std::cout);
}

// Order-sensitive FNV-1a digest of an identification result: covers every
// region's pattern and both count pairs, so two runs agree iff their IBS
// outputs are identical region for region.
uint64_t IbsDigest(const std::vector<BiasedRegion>& ibs) {
  uint64_t h = 14695981039346656037ull;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  mix(ibs.size());
  for (const BiasedRegion& region : ibs) {
    for (int i = 0; i < region.pattern.Arity(); ++i) {
      mix(static_cast<uint64_t>(
          static_cast<int64_t>(region.pattern.Value(i))));
    }
    mix(static_cast<uint64_t>(region.counts.positives));
    mix(static_cast<uint64_t>(region.counts.negatives));
    mix(static_cast<uint64_t>(region.neighbor_counts.positives));
    mix(static_cast<uint64_t>(region.neighbor_counts.negatives));
  }
  return h;
}

// Up to this many rows, sweeps (f) and (g) also build a reference the same
// rows count to by another path and check the two digests are identical.
constexpr int64_t kVerifyLimit = 10'000'000;

// (f) the large-row sweep: for each requested row count, stream an
// Adult-schema instance (|X| = 8) into a columnar shard store and identify
// its IBS off the store (the key-kernel scan). Up to kVerifyLimit the same
// rows are then materialized as a Dataset and identified by the row scan;
// the digests must match (a mismatch is a hard failure). The peak-RSS
// column is read before the reference Dataset exists, so it shows the
// store path alone. Returns the number of mismatches.
int SweepRows(const std::vector<int64_t>& rows_list,
              bench::JsonResultWriter* json) {
  std::printf(
      "\n(f) IBS identification off a streamed columnar store (|X| = 8)\n");
  TablePrinter table({"rows", "shards", "identify (s)", "digest",
                      "row-scan match", "peak RSS (MB)"});
  int mismatches = 0;
  for (int64_t rows : rows_list) {
    SyntheticSpec spec = AdultSpec(static_cast<int>(rows));
    DataSchema schema = spec.MakeSchema();
    spec.protected_indices.clear();
    for (const std::string& name : AdultScalabilityProtected(8)) {
      spec.protected_indices.push_back(schema.AttributeIndex(name));
    }
    WallTimer generate_timer;
    ColumnarShardStore store = GenerateSyntheticStore(spec, /*seed=*/42);
    const double generate_s = generate_timer.Seconds();
    IbsParams params;
    params.imbalance_threshold = 0.5;
    WallTimer timer;
    std::vector<BiasedRegion> ibs = IdentifyIbs(store, params).value();
    const double identify_s = timer.Seconds();
    const uint64_t digest = IbsDigest(ibs);
    const int64_t peak_rss = bench::PeakRssBytes();
    std::string match = "n/a";
    double matches_row_scan = -1.0;
    if (rows <= kVerifyLimit) {
      const Dataset data = GenerateSynthetic(spec, /*seed=*/42);
      const bool ok =
          IbsDigest(IdentifyIbs(data, params).value()) == digest;
      matches_row_scan = ok ? 1.0 : 0.0;
      match = ok ? "yes" : "NO";
      if (!ok) {
        ++mismatches;
        std::fprintf(stderr,
                     "digest mismatch at %lld rows: store scan != row "
                     "scan\n",
                     static_cast<long long>(rows));
      }
    }
    char digest_hex[32];
    std::snprintf(digest_hex, sizeof(digest_hex), "%016llx",
                  static_cast<unsigned long long>(digest));
    table.AddRow({std::to_string(rows), std::to_string(store.NumShards()),
                  FormatDouble(identify_s, 3), digest_hex, match,
                  std::to_string(peak_rss >> 20)});
    json->AddRecord("identify_vs_rows",
                    {{"rows", static_cast<double>(store.NumRows())},
                     {"num_protected", 8.0},
                     {"num_shards", static_cast<double>(store.NumShards())},
                     {"generate_s", generate_s},
                     {"identify_s", identify_s},
                     {"digest", digest_hex},
                     {"matches_row_scan", matches_row_scan},
                     {"peak_rss_bytes", static_cast<double>(peak_rss)}});
  }
  table.Print(std::cout);
  if (mismatches == 0) {
    std::printf("the store scan matches the row scan on every verified "
                "digest\n");
  }
  return mismatches;
}

// (g) the out-of-core sweep: stream the same Adult-schema rows (|X| = 8)
// through the spill-mode builder into per-shard files under --store-dir,
// then identify the IBS counting straight off the memory-mapped files. Up
// to kVerifyLimit the run also builds the in-memory store and
// checks the two digests are byte-identical (the out-of-core acceptance
// proof); beyond it — the 100M-row cell — only the mmap path runs, and the
// peak-RSS column is the evidence that counting never materializes the
// store. Returns the number of digest mismatches.
int SweepOutOfCore(const std::vector<int64_t>& rows_list,
                   const std::string& store_dir,
                   bench::JsonResultWriter* json) {
  std::printf(
      "\n(g) out-of-core IBS identification (|X| = 8, mmap-backed spilled "
      "store)\n");
  TablePrinter table({"rows", "shards", "store (MB)", "spill (s)",
                      "identify (s)", "digest", "in-mem match",
                      "peak RSS (MB)"});
  int mismatches = 0;
  for (int64_t rows : rows_list) {
    SyntheticSpec spec = AdultSpec(static_cast<int>(rows));
    DataSchema schema = spec.MakeSchema();
    spec.protected_indices.clear();
    for (const std::string& name : AdultScalabilityProtected(8)) {
      spec.protected_indices.push_back(schema.AttributeIndex(name));
    }
    const std::string dir = store_dir + "/oocore-" + std::to_string(rows);
    WallTimer spill_timer;
    StatusOr<ColumnarShardStore> spilled =
        GenerateSyntheticSpilledStore(spec, /*seed=*/42, dir);
    REMEDY_CHECK(spilled.ok()) << spilled.status().ToString();
    const double spill_s = spill_timer.Seconds();
    const ColumnarShardStore& store = spilled.value();
    IbsParams params;
    params.imbalance_threshold = 0.5;
    WallTimer timer;
    std::vector<BiasedRegion> ibs = IdentifyIbs(store, params).value();
    const double identify_s = timer.Seconds();
    const uint64_t digest = IbsDigest(ibs);
    std::string match = "n/a";
    double matches_inmemory = -1.0;
    if (rows <= kVerifyLimit) {
      ColumnarShardStore in_memory = GenerateSyntheticStore(spec, /*seed=*/42);
      std::vector<BiasedRegion> reference =
          IdentifyIbs(in_memory, params).value();
      const bool ok = IbsDigest(reference) == digest;
      matches_inmemory = ok ? 1.0 : 0.0;
      match = ok ? "yes" : "NO";
      if (!ok) {
        ++mismatches;
        std::fprintf(stderr,
                     "out-of-core digest mismatch at %lld rows: mmap-backed "
                     "!= in-memory\n",
                     static_cast<long long>(rows));
      }
    }
    const int64_t store_bytes = store.SpilledBytes();
    const int64_t peak_rss = bench::PeakRssBytes();
    char digest_hex[32];
    std::snprintf(digest_hex, sizeof(digest_hex), "%016llx",
                  static_cast<unsigned long long>(digest));
    table.AddRow({std::to_string(rows), std::to_string(store.NumShards()),
                  std::to_string(store_bytes >> 20), FormatDouble(spill_s, 3),
                  FormatDouble(identify_s, 3), digest_hex, match,
                  std::to_string(peak_rss >> 20)});
    json->AddRecord("identify_oocore",
                    {{"rows", static_cast<double>(store.NumRows())},
                     {"num_protected", 8.0},
                     {"num_shards", static_cast<double>(store.NumShards())},
                     {"spill_s", spill_s},
                     {"identify_s", identify_s},
                     {"digest", digest_hex},
                     {"matches_inmemory", matches_inmemory},
                     {"store_bytes", static_cast<double>(store_bytes)},
                     {"peak_rss_bytes", static_cast<double>(peak_rss)}});
  }
  table.Print(std::cout);
  if (mismatches == 0) {
    std::printf("mmap-backed counting matches in-memory on every verified "
                "digest\n");
  }
  return mismatches;
}

std::vector<int64_t> ParseRowsFlag(const std::string& value) {
  std::vector<int64_t> rows;
  for (const std::string& field : Split(value, ',')) {
    if (field.empty()) continue;
    StatusOr<int64_t> parsed = ParseNumber<int64_t>(field);
    REMEDY_CHECK(parsed.ok() && parsed.value() > 0)
        << "bad --rows value '" << field << "'";
    rows.push_back(parsed.value());
  }
  return rows;
}

}  // namespace
}  // namespace remedy

int main(int argc, char** argv) {
  remedy::bench::PrintBanner(
      "Fig. 9 — runtime of IBS identification and remedy (Adult)",
      "Lin, Gupta & Jagadish, ICDE'24, Figure 9",
      "runtime grows exponentially with |X| (the lattice does); the "
      "optimized identification stays a multiple faster than the naive one "
      "(the paper reports up to ~5x); the incremental remedy engine stays a "
      "multiple faster than the rebuild reference and far below "
      "identification time.");
  remedy::BenchOptions opts;
  if (remedy::bench::HasFlag(argc, argv, "--smoke")) {
    opts.min_protected = 3;
    opts.max_protected = 4;
    opts.row_grid = {10000};
    opts.base_rows = 10000;
    opts.repeats = 1;
  }
  const std::string json_path = remedy::bench::JsonPathFromArgs(argc, argv);
  const std::string metrics_path =
      remedy::bench::FlagValue(argc, argv, "--metrics-json");
  // --rows 1000000,10000000 adds the identify sweep on streamed columnar
  // stores; --sweep-only skips the (a)-(e) Dataset sections.
  const std::vector<int64_t> sweep_rows =
      remedy::ParseRowsFlag(remedy::bench::FlagValue(argc, argv, "--rows"));
  const bool sweep_only = remedy::bench::HasFlag(argc, argv, "--sweep-only");
  // --oocore-rows 10000000,100000000 --store-dir DIR adds the out-of-core
  // sweep: spill to per-shard files under DIR, count mmap-backed.
  const std::vector<int64_t> oocore_rows = remedy::ParseRowsFlag(
      remedy::bench::FlagValue(argc, argv, "--oocore-rows"));
  const std::string store_dir =
      remedy::bench::FlagValue(argc, argv, "--store-dir");
  if (!oocore_rows.empty() && store_dir.empty()) {
    std::fprintf(stderr, "--oocore-rows requires --store-dir\n");
    return 1;
  }
  remedy::bench::JsonResultWriter json;
  if (!sweep_only) {
    remedy::Dataset base = remedy::MakeAdult(opts.base_rows);
    remedy::VaryProtectedAttributes(base, opts, &json);
    remedy::VaryDataSize(base, opts, &json);
    remedy::CountingEngine(base, opts, &json);
  }
  int mismatches = 0;
  if (!sweep_rows.empty()) {
    mismatches = remedy::SweepRows(sweep_rows, &json);
  }
  if (!oocore_rows.empty()) {
    mismatches += remedy::SweepOutOfCore(oocore_rows, store_dir, &json);
  }
  if (!json_path.empty() && json.WriteFile(json_path)) {
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  if (!metrics_path.empty()) {
    remedy::Status written = remedy::WriteMetricsJsonFile(metrics_path);
    if (written.ok()) {
      std::printf("wrote pipeline metrics %s\n", metrics_path.c_str());
    } else {
      std::fprintf(stderr, "metrics write failed: %s\n",
                   written.ToString().c_str());
      return 1;
    }
  }
  return mismatches == 0 ? 0 : 1;
}
