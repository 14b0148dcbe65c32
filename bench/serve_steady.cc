// Steady-state serving bench: small-batch ingest over a 1M+-row lattice at
// the paper's maximal |X| = 8, measuring the identify-epoch latency of the
// dirty-region incremental path (core/ibs_incremental.h) against the
// from-scratch sweep the daemon's --identify-mode=full runs — per epoch,
// with digest-checked parity (the bench exits nonzero the moment the two
// disagree), plus the resulting steady-state batches/s.
//
// With `--json <path>` (default BENCH_serve.json) every per-epoch timing
// and the p50/p99/speedup summary land in a machine-readable file.
// `--smoke` shrinks the lattice (120k rows, 25 epochs) so the bench doubles
// as the serve_steady_smoke ctest (label: bench-smoke), which still
// asserts incremental-equals-full digests at every epoch.
//
// Flags: --rows N, --epochs N, --batch N (rows per delta batch, <= 1000),
// --leaves N (distinct subgroups each batch touches), --threads N
// (EagerBuild fan-out), --json PATH, --metrics-json PATH, --smoke.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/check.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/table_printer.h"
#include "common/timer.h"
#include "core/hierarchy.h"
#include "core/ibs_identify.h"
#include "core/ibs_incremental.h"
#include "data/columnar.h"
#include "datagen/generator.h"
#include "datagen/synthetic_spec.h"

namespace remedy {
namespace {

using bench::JsonResultWriter;

// |X| = 8 protected attributes of cardinality 4: 65,536 leaf combinations
// and 5^8 = 390,625 regions across the 256-node lattice — the serving
// regime where a full per-epoch sweep is real work and a small batch
// touches a sliver of it.
SyntheticSpec ServingSpec(int rows) {
  SyntheticSpec spec;
  spec.name = "serve_steady";
  for (int i = 0; i < 8; ++i) {
    const std::string name = "x" + std::to_string(i);
    spec.attributes.push_back(IndependentAttribute(
        AttributeSchema(name, {name + "_0", name + "_1", name + "_2",
                               name + "_3"}),
        {4.0, 3.0, 2.0, 1.0}));
    spec.protected_indices.push_back(i);
  }
  spec.attributes.push_back(IndependentAttribute(
      AttributeSchema("f", {"f0", "f1"}), {1.0, 1.0}));
  spec.num_rows = rows;
  spec.base_logit = -0.4;
  spec.label_terms = {{0, 0, 0.8}, {1, 3, -0.6}, {2, 1, 0.4}};
  spec.injections = {{{0, 1, -1, -1, -1, -1, -1, -1, -1}, 1.2},
                     {{-1, -1, 2, 3, -1, -1, -1, -1, -1}, -1.0}};
  spec.Validate();
  return spec;
}

// One small ingest batch: `rows` label observations spread over `leaves`
// distinct existing subgroups — the steady-state shape where a delta batch
// touches a handful of regions of a huge lattice.
std::vector<Hierarchy::LeafDelta> IngestBatch(const NodeTable& leaf_table,
                                              int rows, int leaves,
                                              Rng& rng) {
  std::vector<Hierarchy::LeafDelta> deltas;
  const int distinct = std::max(1, leaves);
  const int per_leaf = std::max(1, rows / distinct);
  for (int i = 0; i < distinct; ++i) {
    const uint64_t key =
        std::next(leaf_table.begin(),
                  rng.UniformInt(static_cast<int>(leaf_table.size())))
            ->first;
    const int positives = rng.UniformInt(per_leaf + 1);
    deltas.push_back({key, static_cast<int64_t>(positives),
                      static_cast<int64_t>(per_leaf - positives)});
  }
  // Pre-aggregate duplicates (ApplyDeltas' contract).
  std::sort(deltas.begin(), deltas.end(),
            [](const Hierarchy::LeafDelta& a, const Hierarchy::LeafDelta& b) {
              return a.leaf_key < b.leaf_key;
            });
  std::vector<Hierarchy::LeafDelta> merged;
  for (const Hierarchy::LeafDelta& delta : deltas) {
    if (!merged.empty() && merged.back().leaf_key == delta.leaf_key) {
      merged.back().delta_positives += delta.delta_positives;
      merged.back().delta_negatives += delta.delta_negatives;
    } else {
      merged.push_back(delta);
    }
  }
  return merged;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Sum(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) total += v;
  return total;
}

int Run(int argc, char** argv) {
  const bool smoke = bench::HasFlag(argc, argv, "--smoke");
  const int rows =
      bench::IntFlagValue(argc, argv, "--rows", smoke ? 120000 : 1200000);
  const int epochs =
      bench::IntFlagValue(argc, argv, "--epochs", smoke ? 25 : 200);
  const int batch_rows = bench::IntFlagValue(argc, argv, "--batch", 1000);
  const int batch_leaves = bench::IntFlagValue(argc, argv, "--leaves", 8);
  const int threads = bench::IntFlagValue(argc, argv, "--threads", 0);
  std::string json_path = bench::JsonPathFromArgs(argc, argv);
  if (json_path.empty()) json_path = "BENCH_serve.json";
  REMEDY_CHECK(batch_rows <= 1000)
      << "steady-state batches are <= 1k rows by definition";

  bench::PrintBanner(
      "serve_steady: incremental vs full identify in the serving hot path",
      "serving-layer extension of Sec. V (Fig. 9's |X| = 8 regime)",
      "per-epoch digests match; incremental p50 latency >= 5x lower");

  std::printf("lattice: %d rows, |X| = 8 (cardinality 4), %d epochs of "
              "%d-row batches over %d subgroups each\n",
              rows, epochs, batch_rows, batch_leaves);

  const SyntheticSpec spec = ServingSpec(rows);
  ColumnarShardStore store = GenerateSyntheticStore(spec, /*seed=*/17);
  Hierarchy hierarchy(store);
  WallTimer build_timer;
  REMEDY_CHECK(hierarchy.EagerBuild(threads).ok()) << "EagerBuild failed";
  const double build_s = build_timer.Seconds();
  const NodeTable& leaf_table = hierarchy.NodeCounts(hierarchy.LeafMask());
  std::printf("built in %.2fs: %zu populated leaves\n", build_s,
              leaf_table.size());

  IbsParams params;
  params.imbalance_threshold = 0.5;
  params.distance_threshold = 1.0;
  params.min_region_size = 30;

  IncrementalIbsState state;
  WallTimer warm_timer;
  std::vector<BiasedRegion> warm = state.Identify(hierarchy, params);
  const double cold_full_s = warm_timer.Seconds();
  std::printf("cold full pass: %.1fms, %zu biased regions\n",
              cold_full_s * 1e3, warm.size());

  JsonResultWriter json;
  Rng rng(0xba7c4);
  std::vector<double> full_ms;
  std::vector<double> incr_ms;
  std::vector<double> apply_ms;
  int64_t rescored_total = 0;
  int64_t cached_total = 0;
  bool all_match = true;
  for (int epoch = 0; epoch < epochs; ++epoch) {
    const std::vector<Hierarchy::LeafDelta> batch =
        IngestBatch(leaf_table, batch_rows, batch_leaves, rng);
    WallTimer apply_timer;
    hierarchy.ApplyDeltas(batch, /*insert_missing=*/true);
    apply_ms.push_back(apply_timer.Seconds() * 1e3);

    // Full first (the sweep the daemon's kFull mode runs per identify
    // epoch): it reads the hierarchy without consuming the dirty set, so
    // both paths see the identical epoch state.
    WallTimer full_timer;
    const std::vector<BiasedRegion> full =
        IdentifyIbsInScope(hierarchy, params);
    full_ms.push_back(full_timer.Seconds() * 1e3);

    WallTimer incr_timer;
    const std::vector<BiasedRegion> incremental =
        state.Identify(hierarchy, params);
    incr_ms.push_back(incr_timer.Seconds() * 1e3);

    const uint64_t full_digest = IbsSetDigest(full);
    const uint64_t incr_digest = IbsSetDigest(incremental);
    const bool match =
        full_digest == incr_digest && state.last_stats().incremental;
    all_match = all_match && match;
    rescored_total += state.last_stats().rescored_regions;
    cached_total += state.last_stats().cached_regions;
    json.AddRecord(
        "epochs",
        {{"epoch", static_cast<double>(epoch)},
         {"batch_rows", static_cast<double>(batch_rows)},
         {"dirty_leaves", static_cast<double>(state.last_stats().dirty_leaves)},
         {"rescored_regions",
          static_cast<double>(state.last_stats().rescored_regions)},
         {"cached_regions",
          static_cast<double>(state.last_stats().cached_regions)},
         {"apply_ms", apply_ms.back()},
         {"full_identify_ms", full_ms.back()},
         {"incremental_identify_ms", incr_ms.back()},
         {"digest", static_cast<double>(incr_digest)},
         {"digests_match", match ? 1.0 : 0.0}});
    if (!match) {
      std::fprintf(stderr,
                   "PARITY FAILURE at epoch %d: full %llu vs incremental "
                   "%llu (incremental pass: %s)\n",
                   epoch, static_cast<unsigned long long>(full_digest),
                   static_cast<unsigned long long>(incr_digest),
                   state.last_stats().incremental ? "yes" : "fell back");
    }
  }

  const double full_p50 = Percentile(full_ms, 0.50);
  const double full_p99 = Percentile(full_ms, 0.99);
  const double incr_p50 = Percentile(incr_ms, 0.50);
  const double incr_p99 = Percentile(incr_ms, 0.99);
  const double speedup_p50 = incr_p50 > 0.0 ? full_p50 / incr_p50 : 0.0;
  const double speedup_mean =
      Sum(incr_ms) > 0.0 ? Sum(full_ms) / Sum(incr_ms) : 0.0;
  // Steady state = apply + incremental identify per published batch.
  const double steady_s = (Sum(apply_ms) + Sum(incr_ms)) / 1e3;
  const double batches_per_s =
      steady_s > 0.0 ? static_cast<double>(epochs) / steady_s : 0.0;

  TablePrinter table({"identify path", "p50 ms", "p99 ms", "mean ms"});
  table.AddRow("full sweep",
               {full_p50, full_p99, Sum(full_ms) / static_cast<double>(epochs)},
               2);
  table.AddRow("incremental",
               {incr_p50, incr_p99, Sum(incr_ms) / static_cast<double>(epochs)},
               2);
  table.Print(std::cout);
  std::printf("speedup: %.1fx (p50), %.1fx (mean); steady state %.1f "
              "batches/s; parity: %s\n",
              speedup_p50, speedup_mean, batches_per_s,
              all_match ? "every epoch matched" : "DIVERGED");
  std::printf("re-scored %lld regions vs %lld served from cache across %d "
              "epochs\n",
              static_cast<long long>(rescored_total),
              static_cast<long long>(cached_total), epochs);

  json.AddRecord("summary",
                 {{"rows", static_cast<double>(rows)},
                  {"epochs", static_cast<double>(epochs)},
                  {"batch_rows", static_cast<double>(batch_rows)},
                  {"batch_leaves", static_cast<double>(batch_leaves)},
                  {"populated_leaves", static_cast<double>(leaf_table.size())},
                  {"build_s", build_s},
                  {"cold_full_ms", cold_full_s * 1e3},
                  {"full_identify_p50_ms", full_p50},
                  {"full_identify_p99_ms", full_p99},
                  {"incremental_identify_p50_ms", incr_p50},
                  {"incremental_identify_p99_ms", incr_p99},
                  {"speedup_p50", speedup_p50},
                  {"speedup_mean", speedup_mean},
                  {"steady_batches_per_s", batches_per_s},
                  {"digests_match_all_epochs", all_match ? 1.0 : 0.0},
                  {"peak_rss_bytes",
                   static_cast<double>(bench::PeakRssBytes())}});
  if (!json.WriteFile(json_path)) return 74;
  std::printf("wrote %s\n", json_path.c_str());

  const std::string metrics_path =
      bench::FlagValue(argc, argv, "--metrics-json");
  if (!metrics_path.empty()) {
    if (!WriteMetricsJsonFile(metrics_path).ok()) return 74;
    std::printf("wrote %s\n", metrics_path.c_str());
  }
  return all_match ? 0 : 1;
}

}  // namespace
}  // namespace remedy

int main(int argc, char** argv) { return remedy::Run(argc, argv); }
