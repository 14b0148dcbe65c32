// Load generator of the repository benchmark (see perfbench/README.md).
//
// One process drives one workload through the library's public API only —
// ServeDaemon, LoadCsvDataset, IdentifyIbs, RemedyDataset, MakeClassifier,
// ComputeFairnessIndex, Hierarchy, DeltaWal and RemedyBackend — and prints
// one JSON line with every raw measurement, the output checks and the
// workload's properties. perfbench/run.py turns that line into the
// benchmark's result.
//
//   loadgen --workload serve_narrow --seed 3 --seconds 20 --trace 0
//           --work-dir .bench_work/x
//
// With --trace 1 a TraceSink is armed over every other measured operation
// (in serve_narrow, of its closed loop only) and the generator records a
// span around each of its own calls into a layer ("bench/<layer>"); the
// per-layer self times come from those spans, the rest of the per-layer
// numbers from the MetricsRegistry instruments the library already exports
// and from timers around the layer calls.
//
// Every workload checks its outputs; a mismatch makes the process exit 1.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/csv.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/trace.h"
#include "core/hierarchy.h"
#include "core/ibs_identify.h"
#include "core/ibs_incremental.h"
#include "core/remedy.h"
#include "core/remedy_backend.h"
#include "data/columnar.h"
#include "data/loader.h"
#include "datagen/adult.h"
#include "datagen/generator.h"
#include "datagen/synthetic_spec.h"
#include "fairness/fairness_index.h"
#include "ml/model_factory.h"
#include "serve/daemon.h"
#include "serve/wal.h"

namespace remedy::perfbench {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Small utilities.

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double ToMs(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

// Linear-interpolated percentile, p in [0, 1]; 0 for an empty sample.
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

// trace.overhead_frac: how much slower the traced operations ran than the
// untraced ones; 0 when a run was too short to have both.
double OverheadFrac(double traced, double untraced) {
  return traced > 0 && untraced > 0 ? traced / untraced - 1 : 0;
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

// Instruments of the process-global registry, by name.
struct RegistryView {
  std::map<std::string, MetricSnapshot> by_name;

  static RegistryView Take() {
    RegistryView view;
    for (MetricSnapshot& s : MetricsRegistry::Global().Snapshot()) {
      std::string name = s.name;
      view.by_name.emplace(std::move(name), std::move(s));
    }
    return view;
  }
  int64_t Value(const std::string& name) const {
    auto it = by_name.find(name);
    return it == by_name.end() ? 0 : it->second.value;
  }
  int64_t Max(const std::string& name) const {
    auto it = by_name.find(name);
    return it == by_name.end() ? 0 : it->second.max;
  }
};

// Observations a histogram gained between two views, as (upper bound,
// count) buckets.
struct HistogramDelta {
  std::map<int64_t, int64_t> buckets;
  int64_t count = 0;
  int64_t sum = 0;

  HistogramDelta(const RegistryView& before, const RegistryView& after,
                 const std::string& name) {
    auto add = [&](const RegistryView& view, int64_t sign) {
      auto it = view.by_name.find(name);
      if (it == view.by_name.end()) return;
      sum += sign * it->second.sum;
      for (const auto& [le, n] : it->second.buckets) {
        buckets[le] += sign * n;
        count += sign * n;
      }
    };
    add(after, 1);
    add(before, -1);
  }
  // Upper bound of the bucket holding the q-th observation (the daemon's
  // own Histogram::ApproxQuantile rule); 0 when empty.
  int64_t Quantile(double q) const {
    const int64_t rank = static_cast<int64_t>(std::ceil(q * count));
    int64_t seen = 0;
    for (const auto& [le, n] : buckets) {
      seen += n;
      if (seen >= std::max<int64_t>(1, rank)) return le;
    }
    return 0;
  }
};

// ---------------------------------------------------------------------------
// The result record: raw metrics by name, output checks, and the workload
// properties, written as one JSON line.

class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  void Check(const std::string& name, bool ok, const std::string& detail) {
    checks_.push_back({name, ok, detail});
    std::printf("check %-28s %s  %s\n", name.c_str(), ok ? "ok" : "FAILED",
                detail.c_str());
    std::fflush(stdout);
  }
  // A value perfbench/run.py compares against perfbench/pinned.json.
  void Pin(const std::string& name, const std::string& value) {
    pins_.push_back({name, value});
    std::printf("pin   %-28s %s\n", name.c_str(), value.c_str());
  }
  void Attempt(int64_t attempted, int64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  bool correct() const {
    for (const CheckEntry& c : checks_) {
      if (!c.ok) return false;
    }
    return !checks_.empty();
  }
  std::string ToJson(const std::string& workload, uint64_t seed,
                     bool trace) const {
    std::string out = "{\"workload\": \"" + workload +
                      "\", \"seed\": " + std::to_string(seed) +
                      ", \"trace\": " + (trace ? "1" : "0") +
                      ", \"correct\": " + (correct() ? "true" : "false") +
                      ", \"attempted\": " + std::to_string(attempted_) +
                      ", \"failed\": " + std::to_string(failed_) +
                      ", \"checks\": {";
    for (size_t i = 0; i < checks_.size(); ++i) {
      if (i) out += ", ";
      out += "\"" + checks_[i].name + "\": ";
      out += checks_[i].ok ? "true" : "false";
    }
    out += "}, \"pins\": {";
    for (size_t i = 0; i < pins_.size(); ++i) {
      if (i) out += ", ";
      out += "\"" + pins_[i].first + "\": \"" + pins_[i].second + "\"";
    }
    out += "}, \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      if (i) out += ", ";
      char value[64];
      if (std::isfinite(metrics_[i].value)) {
        std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
      } else {
        std::snprintf(value, sizeof(value), "null");
      }
      out += "\"" + metrics_[i].name + "\": {\"value\": " + value +
             ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    out += "}}";
    return out;
  }

 private:
  struct MetricEntry {
    std::string name;
    double value;
    std::string unit;
  };
  struct CheckEntry {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::vector<MetricEntry> metrics_;
  std::vector<CheckEntry> checks_;
  std::vector<std::pair<std::string, std::string>> pins_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

// The host's clock speed, measured by a fixed reference kernel. The
// benchmark shares its host, whose speed drifts by a fifth or more between
// runs minutes apart. The workloads time the kernel between their
// operations, and perfbench/run.py reports the end-to-end times at the
// reference speed: raw time × host.scale, where host.scale = kNominalMs /
// the run's median kernel time. The kernel is the benchmark's own code, so a
// change to the library moves the reported times as much as the raw ones.
// It is a dependent multiply chain: it sees the clock speed the host gives
// the benchmark's core, not contention for the shared cache and memory
// bandwidth, which a memory-bound kernel tracked too noisily to help (its
// own median moved by up to ±15 % between processes).
class HostReference {
 public:
  // A round figure near the kernel's time on the 4-vCPU Xeon VM the
  // benchmark was tuned on, when its host is quiet (6 ms when busy); it
  // only sets the scale of the reported times.
  static constexpr double kNominalMs = 5.0;

  // Times the kernel `n` times.
  void Sample(int n = 1) {
    for (int i = 0; i < n; ++i) {
      const Clock::time_point start = Clock::now();
      uint64_t x = sink_;
      for (int j = 0; j < 4'000'000; ++j) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
      }
      sink_ = x;
      samples_ms_.push_back(ToMs(Clock::now() - start));
    }
  }

  void Report(Report& report) const {
    const double median = Percentile(samples_ms_, 0.5);
    report.Metric("host.ref_ms", median, "ms");
    report.Metric("host.ref_samples", static_cast<double>(samples_ms_.size()),
                  "count");
    report.Metric("host.scale", kNominalMs / median, "ratio");
  }

 private:
  std::vector<double> samples_ms_;
  volatile uint64_t sink_ = 0;
};

// Arms a TraceSink over chosen windows of a run (a traced run alternates
// traced and untraced operations, so trace.overhead_frac compares like with
// like) and accumulates each bench layer's self time: the duration of its
// "bench/<layer>" spans minus the part covered by nested bench spans.
class LayerTrace {
 public:
  void Arm() {
    if (sink_ == nullptr) sink_ = std::make_unique<TraceSink>();
  }
  void Disarm() {
    if (sink_ == nullptr) return;
    const std::vector<TraceEvent> events = sink_->Events();
    sink_.reset();
    std::unordered_map<uint64_t, const TraceEvent*> by_id;
    for (const TraceEvent& e : events) by_id[e.id] = &e;
    for (const TraceEvent& e : events) {
      if (!IsLayer(e)) continue;
      self_s_[e.name + 6] += static_cast<double>(e.duration_ns) * 1e-9;
      auto parent = by_id.find(e.parent_id);
      if (parent != by_id.end() && IsLayer(*parent->second)) {
        self_s_[parent->second->name + 6] -=
            static_cast<double>(e.duration_ns) * 1e-9;
      }
    }
  }
  void Report(class Report& report) {
    Disarm();
    for (const char* layer : {"csv", "loader", "columnar", "counting", "ibs",
                              "remedy", "wal", "daemon", "ml", "fairness"}) {
      report.Metric(std::string("trace.self_s.") + layer, self_s_[layer], "s");
    }
  }

 private:
  static bool IsLayer(const TraceEvent& e) {
    return std::strncmp(e.name, "bench/", 6) == 0;
  }
  std::unique_ptr<TraceSink> sink_;
  std::map<std::string, double> self_s_;
};

// ---------------------------------------------------------------------------
// Shared generator pieces.

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;
  HostReference* host = nullptr;  // sampled between operations
};

// Leaf-key codec of a count-seeded lattice: mixed radix, first protected
// attribute most significant (the packing ServeDaemon::IngestCsv uses).
struct LeafCodec {
  std::vector<std::string> names;                // protected attribute names
  std::vector<std::vector<std::string>> values;  // value names per attribute
  std::string label;

  explicit LeafCodec(const DataSchema& schema) : label(schema.label_name()) {
    for (int idx : schema.protected_indices()) {
      const AttributeSchema& attribute = schema.attribute(idx);
      names.push_back(attribute.name());
      std::vector<std::string> v;
      for (int c = 0; c < attribute.Cardinality(); ++c) {
        v.push_back(attribute.ValueName(c));
      }
      values.push_back(std::move(v));
    }
  }
  std::string Header(bool with_count) const {
    std::string h;
    for (const std::string& n : names) h += n + ",";
    h += label;
    if (with_count) h += ",__count";
    return h + "\n";
  }
  // Appends "<v0>,...,<vk>," for `key`.
  void AppendValues(uint64_t key, std::string& out) const {
    std::vector<int> codes(names.size());
    for (size_t p = names.size(); p-- > 0;) {
      const uint64_t card = values[p].size();
      codes[p] = static_cast<int>(key % card);
      key /= card;
    }
    for (size_t p = 0; p < names.size(); ++p) {
      out += values[p][codes[p]];
      out += ',';
    }
  }
};

// One `__count` row per populated (leaf, label): the seed form of a census.
std::string CensusCsv(const LeafCodec& codec, const NodeTable& leaves) {
  std::string csv = codec.Header(/*with_count=*/true);
  for (const auto& [key, counts] : leaves) {
    if (counts.positives > 0) {
      codec.AppendValues(key, csv);
      csv += "1," + std::to_string(counts.positives) + "\n";
    }
    if (counts.negatives > 0) {
      codec.AppendValues(key, csv);
      csv += "0," + std::to_string(counts.negatives) + "\n";
    }
  }
  return csv;
}

std::vector<BiasedRegion> FullSweep(Hierarchy& hierarchy,
                                    const IbsParams& params) {
  std::vector<BiasedRegion> ibs;
  for (uint32_t mask : ScopeMasks(hierarchy, params.scope)) {
    std::vector<BiasedRegion> in_node =
        IdentifyIbsInNode(hierarchy, mask, params);
    ibs.insert(ibs.end(), in_node.begin(), in_node.end());
  }
  return ibs;
}

// One generated ingest batch: the CSV the daemon receives and the leaf
// deltas it must aggregate to (sorted by key, the IngestCsv contract).
struct Batch {
  std::string csv;
  std::vector<Hierarchy::LeafDelta> deltas;
  int64_t instances = 0;  // |delta| summed
  int64_t retracted = 0;  // instances removed
  int leaves = 0;
};

std::vector<Hierarchy::LeafDelta> SortedDeltas(
    const std::map<uint64_t, std::pair<int64_t, int64_t>>& agg) {
  std::vector<Hierarchy::LeafDelta> deltas;
  for (const auto& [key, pn] : agg) {
    if (pn.first == 0 && pn.second == 0) continue;
    deltas.push_back({key, pn.first, pn.second});
  }
  return deltas;
}

// Longest the generator waits for a committed batch to become visible
// before it gives the run up as stalled.
constexpr auto kVisibleDeadline = std::chrono::seconds(60);

// Ends a run whose daemon stalled: no result, exit 1. _Exit, because the
// daemon's threads are still running.
[[noreturn]] void Stalled(uint64_t sequence) {
  std::fprintf(stderr, "WAL sequence %" PRIu64 " never became visible\n",
               sequence);
  std::fflush(nullptr);
  std::_Exit(1);
}

// Watches the daemon's published epochs: records (time, wal_sequence) every
// time the newest snapshot's sequence advances. Polls every 100us.
class VisibilityWaiter {
 public:
  explicit VisibilityWaiter(const ServeDaemon& daemon) : daemon_(daemon) {
    thread_ = std::thread([this] { Loop(); });
  }
  ~VisibilityWaiter() { Stop(); }
  VisibilityWaiter(const VisibilityWaiter&) = delete;
  VisibilityWaiter& operator=(const VisibilityWaiter&) = delete;

  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  // First time a snapshot covering `sequence` was observed; false if never.
  bool VisibleAt(uint64_t sequence, Clock::time_point* at) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = std::lower_bound(
        seen_.begin(), seen_.end(), sequence,
        [](const std::pair<uint64_t, Clock::time_point>& e, uint64_t s) {
          return e.first < s;
        });
    if (it == seen_.end()) return false;
    *at = it->second;
    return true;
  }
  // Blocks until a snapshot covering `sequence` was observed.
  void WaitFor(uint64_t sequence) const {
    const Clock::time_point deadline = Clock::now() + kVisibleDeadline;
    while (latest_.load() < sequence) {
      if (Clock::now() > deadline) Stalled(sequence);
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }

 private:
  void Loop() {
    uint64_t last = 0;
    while (!stop_.load()) {
      const uint64_t seq = daemon_.Snapshot()->wal_sequence;
      if (seq > last) {
        const Clock::time_point now = Clock::now();
        {
          std::lock_guard<std::mutex> lock(mu_);
          seen_.emplace_back(seq, now);
        }
        last = seq;
        latest_.store(seq);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }

  const ServeDaemon& daemon_;
  mutable std::mutex mu_;
  std::vector<std::pair<uint64_t, Clock::time_point>> seen_;
  std::atomic<uint64_t> latest_{0};
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// Calls QueryIbs at a fixed interval while armed; records latency and size
// while recording (on by default).
class QueryReader {
 public:
  QueryReader(const ServeDaemon& daemon, std::chrono::microseconds interval)
      : daemon_(daemon), interval_(interval) {
    thread_ = std::thread([this] { Loop(); });
  }
  ~QueryReader() { Stop(); }
  QueryReader(const QueryReader&) = delete;
  QueryReader& operator=(const QueryReader&) = delete;

  void Arm(bool on) { armed_.store(on); }
  void Record(bool on) { recording_.store(on); }
  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  std::vector<double> latencies_us() const {
    std::lock_guard<std::mutex> lock(mu_);
    return latencies_us_;
  }
  std::vector<double> regions() const {
    std::lock_guard<std::mutex> lock(mu_);
    return regions_;
  }

 private:
  void Loop() {
    Clock::time_point next = Clock::now();
    while (!stop_.load()) {
      next += interval_;
      std::this_thread::sleep_until(next);
      if (!armed_.load()) continue;
      const Clock::time_point start = Clock::now();
      const std::vector<BiasedRegion> ibs = daemon_.QueryIbs();
      const double us =
          std::chrono::duration<double, std::micro>(Clock::now() - start)
              .count();
      if (!recording_.load()) continue;
      std::lock_guard<std::mutex> lock(mu_);
      latencies_us_.push_back(us);
      regions_.push_back(static_cast<double>(ibs.size()));
    }
  }

  const ServeDaemon& daemon_;
  const std::chrono::microseconds interval_;
  mutable std::mutex mu_;
  std::vector<double> latencies_us_;
  std::vector<double> regions_;
  std::atomic<bool> armed_{false};
  std::atomic<bool> recording_{true};
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// One open-loop send: the batch's due time, the IngestCsv duration, whether
// it was accepted, and the WAL sequence it was assigned (accepted batches of
// the single submitting thread commit in order, one record each).
struct Send {
  Clock::time_point due;
  double late_ms = 0;
  double ack_us = 0;
  bool accepted = false;
  uint64_t sequence = 0;
};

// Ingests `batch` via IngestCsv at `due` (sleeping until then).
Send SendAt(ServeDaemon& daemon, const Batch& batch, Clock::time_point due,
            uint64_t* next_sequence) {
  std::this_thread::sleep_until(due);
  Send send;
  send.due = due;
  const Clock::time_point start = Clock::now();
  send.late_ms = std::max(0.0, ToMs(start - due));
  Status status;
  {
    REMEDY_TRACE_SPAN("bench/daemon");
    status = daemon.IngestCsv(batch.csv);
  }
  send.ack_us =
      std::chrono::duration<double, std::micro>(Clock::now() - start).count();
  send.accepted = status.ok();
  if (send.accepted) send.sequence = (*next_sequence)++;
  return send;
}

// Freshness (ms) of every accepted send: due time to first observed
// snapshot covering its sequence.
std::vector<double> Freshness(const std::vector<Send>& sends,
                              const VisibilityWaiter& waiter) {
  std::vector<double> ms;
  for (const Send& s : sends) {
    Clock::time_point at;
    if (s.accepted && waiter.VisibleAt(s.sequence, &at)) {
      ms.push_back(ToMs(at - s.due));
    }
  }
  return ms;
}

std::string FreshStateDir(const Options& opt, const std::string& name) {
  const std::string dir = opt.work_dir + "/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// Per-layer numbers from the registry over a measured phase. `own` holds
// counter increments the generator's own replay calls made in the phase;
// they are not the daemon's and are subtracted.
void ReportDaemonLayers(const RegistryView& before, const RegistryView& after,
                        const std::map<std::string, int64_t>& own,
                        Report& report) {
  auto delta = [&](const char* name) {
    auto it = own.find(name);
    return static_cast<double>(after.Value(name) - before.Value(name) -
                               (it == own.end() ? 0 : it->second));
  };
  const HistogramDelta apply(before, after, "serve/apply_ns");
  const double groups = static_cast<double>(apply.count);
  const double applied = delta("serve/batches_applied");
  report.Metric("daemon.apply_ms_p50", apply.Quantile(0.5) * 1e-6, "ms");
  report.Metric("daemon.apply_ms_p99", apply.Quantile(0.99) * 1e-6, "ms");
  report.Metric("daemon.batches_per_group", groups > 0 ? applied / groups : 0,
                "count");
  report.Metric("daemon.queue_depth_max",
                static_cast<double>(after.Max("serve/queue_depth")), "count");
  report.Metric("daemon.batches_rejected", delta("serve/batches_rejected"),
                "count");
  const double dirty = delta("ibs_incr/dirty_leaves");
  const double rescored = delta("ibs_incr/rescored_regions");
  const double hits = delta("ibs_incr/cache_hits");
  report.Metric("ibs.dirty_leaves_per_pass", groups > 0 ? dirty / groups : 0,
                "count");
  report.Metric("ibs.rescored_regions", rescored, "count");
  report.Metric("ibs.cache_hits", hits, "count");
  report.Metric("ibs.cache_hit_ratio",
                hits + rescored > 0 ? hits / (hits + rescored) : 0, "ratio");
  report.Metric("ibs.full_fallbacks", delta("ibs_incr/full_fallbacks"),
                "count");
  const double wal_bytes = delta("wal/bytes_appended");
  const double rows = delta("serve/rows_ingested");
  report.Metric("wal.bytes_per_row", rows > 0 ? wal_bytes / rows : 0, "B");
  report.Metric("wal.syncs_per_batch",
                applied > 0 ? delta("wal/syncs") / applied : 0, "ratio");
  const double plans = delta("remedy_backend/plans");
  const double stale = delta("remedy_backend/stale_plans");
  // The daemon's own planning time per plan (materialize, remedy, diff).
  const HistogramDelta plan(before, after, "remedy_backend/plan_ns");
  report.Metric("remedy.plan_ms",
                plan.count > 0 ? plan.sum * 1e-6 / plan.count : 0, "ms");
  report.Metric("remedy.stale_plans", stale, "count");
  report.Metric("remedy.stale_ratio", plans > 0 ? stale / plans : 0, "ratio");
  report.Metric("remedy.deltas_per_plan",
                plans > 0 ? delta("remedy_backend/deltas_planned") / plans : 0,
                "count");
  report.Metric("counting.delta_rows", delta("lattice/delta_rows"), "count");
  report.Metric("counting.radix_sort_keys", delta("lattice/radix_sort_keys"),
                "count");
  report.Metric("counting.shard_tallies", delta("lattice/shard_tallies"),
                "count");
  report.Metric("columnar.mmap_bytes", delta("lattice/mmap_bytes"), "B");
  report.Metric("columnar.mmap_releases", delta("lattice/mmap_releases"),
                "count");
  report.Metric("csv.records", delta("csv/records"), "count");
}

// A seeded census: schema, leaf counts and totals.
struct Census {
  DataSchema schema;
  NodeTable leaves;
  RegionCounts totals;
  int64_t rows = 0;
};

// The layer replay of a serve workload's batches: the same batches, one
// layer call at a time, on a scratch log and a mirror of the daemon state.
struct LayerReplay {
  std::unique_ptr<Hierarchy> mirror;
  IncrementalIbsState state;
  std::unique_ptr<DeltaWal> wal;
  IbsParams params;
  std::vector<double> parse_ms, append_ms, sync_ms, apply_ms, identify_ms;
  // Registry counter increments made by the replay's own calls (see
  // ReportDaemonLayers).
  std::map<std::string, int64_t> own_counters;

  // Counts the registry increments `calls` make into own_counters.
  void Own(const std::function<void()>& calls) {
    const RegistryView pre = RegistryView::Take();
    calls();
    const RegistryView post = RegistryView::Take();
    for (const auto& [name, snapshot] : post.by_name) {
      own_counters[name] += snapshot.value - pre.Value(name);
    }
  }

  // Points the replay at `leaves`: a fresh mirror, identified once (the
  // cold pass is not recorded), and a scratch log.
  void Reset(const Census& census, const NodeTable& leaves,
             const RegionCounts& totals, const std::string& wal_path) {
    Own([&] {
      mirror = std::make_unique<Hierarchy>(census.schema, leaves, totals);
      if (!mirror->EagerBuild(1).ok()) std::abort();
      state = IncrementalIbsState();
      state.Identify(*mirror, params);
      wal.reset();
      fs::remove(wal_path);
      wal = DeltaWal::Open(wal_path, 1, 1).value();
    });
  }

  void Report(class Report& report) const {
    auto us = [](const std::vector<double>& ms) {
      std::vector<double> out;
      for (double v : ms) out.push_back(v * 1e3);
      return out;
    };
    report.Metric("csv.parse_us_p50", Percentile(us(parse_ms), 0.5), "us");
    report.Metric("counting.apply_deltas_us_p50",
                  Percentile(us(apply_ms), 0.5), "us");
    report.Metric("counting.apply_deltas_us_p99",
                  Percentile(us(apply_ms), 0.99), "us");
    report.Metric("wal.append_us_p50", Percentile(us(append_ms), 0.5), "us");
    report.Metric("wal.sync_us_p50", Percentile(us(sync_ms), 0.5), "us");
    report.Metric("wal.sync_us_p99", Percentile(us(sync_ms), 0.99), "us");
    report.Metric("ibs.incr_identify_ms_p50", Percentile(identify_ms, 0.5),
                  "ms");
    report.Metric("ibs.incr_identify_ms_p99", Percentile(identify_ms, 0.99),
                  "ms");
  }

  // Replays `batch`; records the layer times when `record`.
  void Run(const Batch& batch, bool record) {
    Own([&] { Replay(batch, record); });
  }

  void Replay(const Batch& batch, bool record) {
    const size_t n = parse_ms.size();
    Clock::time_point t = Clock::now();
    {
      REMEDY_TRACE_SPAN("bench/csv");
      StatusOr<CsvTable> table = ParseCsv(batch.csv);
      if (!table.ok()) std::abort();
    }
    parse_ms.push_back(ToMs(Clock::now() - t));
    t = Clock::now();
    {
      REMEDY_TRACE_SPAN("bench/wal");
      if (!wal->Append(batch.deltas).ok()) std::abort();
    }
    append_ms.push_back(ToMs(Clock::now() - t));
    t = Clock::now();
    {
      REMEDY_TRACE_SPAN("bench/wal");
      if (!wal->Sync().ok()) std::abort();
    }
    sync_ms.push_back(ToMs(Clock::now() - t));
    t = Clock::now();
    {
      REMEDY_TRACE_SPAN("bench/counting");
      mirror->ApplyDeltas(batch.deltas, /*insert_missing=*/true);
    }
    apply_ms.push_back(ToMs(Clock::now() - t));
    t = Clock::now();
    {
      REMEDY_TRACE_SPAN("bench/ibs");
      state.Identify(*mirror, params);
    }
    identify_ms.push_back(ToMs(Clock::now() - t));
    if (!record) {
      for (auto* v :
           {&parse_ms, &append_ms, &sync_ms, &apply_ms, &identify_ms}) {
        v->resize(n);
      }
    }
  }
};

// ---------------------------------------------------------------------------
// serve_narrow.

// |X| = 8 protected attributes of cardinality 4 (65,536 leaves, 390,625
// regions): the lattice of the repo's serve_steady bench.
SyntheticSpec NarrowSpec(int rows) {
  SyntheticSpec spec;
  spec.name = "serve_narrow";
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

Census CensusFromStore(const ColumnarShardStore& store) {
  Hierarchy hierarchy(store);
  Census census{store.schema(), hierarchy.NodeCounts(hierarchy.LeafMask()),
                hierarchy.TotalCounts(), store.NumRows()};
  return census;
}

// A running daemon seeded with a census through IngestCsv, and the
// census's populated leaves with their positive rates.
struct SeededDaemon {
  Census census;
  std::vector<uint64_t> keys;
  std::vector<double> rates;
  std::unique_ptr<ServeDaemon> daemon;
  std::string state_dir;
  uint64_t seed_sequence = 0;
};

SeededDaemon SeedDaemon(Census census, const ServeOptions& base,
                        const std::string& state_dir) {
  SeededDaemon out;
  out.census = std::move(census);
  for (const auto& [key, counts] : out.census.leaves) {
    if (counts.Total() == 0) continue;
    out.keys.push_back(key);
    out.rates.push_back(static_cast<double>(counts.positives) /
                        static_cast<double>(counts.Total()));
  }
  ServeOptions options = base;
  options.state_dir = state_dir;
  out.state_dir = state_dir;
  StatusOr<std::unique_ptr<ServeDaemon>> daemon =
      ServeDaemon::Start(out.census.schema, options);
  if (!daemon.ok()) {
    std::fprintf(stderr, "daemon start: %s\n",
                 daemon.status().ToString().c_str());
    std::exit(1);
  }
  out.daemon = std::move(daemon).value();
  const Status ingested =
      out.daemon->IngestCsv(CensusCsv(LeafCodec(out.census.schema),
                                      out.census.leaves));
  const Status flushed = out.daemon->Flush();
  if (!ingested.ok() || !flushed.ok()) {
    std::fprintf(stderr, "seed ingest failed: %s %s\n",
                 ingested.ToString().c_str(), flushed.ToString().c_str());
    std::exit(1);
  }
  out.seed_sequence = out.daemon->Snapshot()->wal_sequence;
  return out;
}

// The serve workloads' set-up, `repeats` times (setup_s is the median):
// generate the census from `spec`, start a daemon on a fresh state
// directory, seed it, and let it publish the cold identify. The last
// repeat's daemon is kept.
SeededDaemon SetUpServe(const SyntheticSpec& spec, const ServeOptions& base,
                        const Options& opt, int repeats, Report& report) {
  SeededDaemon served;
  std::vector<double> setup_s;
  for (int i = 0; i < repeats; ++i) {
    served = SeededDaemon();  // stops the previous repeat's daemon, untimed
    opt.host->Sample(2);
    const Clock::time_point start = Clock::now();
    const ColumnarShardStore store = GenerateSyntheticStore(spec, opt.seed);
    served = SeedDaemon(CensusFromStore(store), base,
                        FreshStateDir(opt, "state" + std::to_string(i)));
    setup_s.push_back(SecondsSince(start));
  }
  report.Metric("setup_s", Percentile(setup_s, 0.5), "s");
  std::printf("%s: %" PRId64 " census rows, %zu populated leaves, IBS %zu "
              "regions after the cold identify\n",
              spec.name.c_str(), served.census.rows, served.keys.size(),
              served.daemon->Snapshot()->ibs.size());
  return served;
}

// Draws one 1k-instance narrow batch: one CSV row per instance, spread over
// `leaves` distinct populated leaves, labels at each leaf's seeded rate.
Batch NarrowBatch(const LeafCodec& codec, const std::vector<uint64_t>& keys,
                  const std::vector<double>& rates, int instances, int leaves,
                  Rng& rng) {
  Batch batch;
  batch.csv = codec.Header(/*with_count=*/false);
  std::map<uint64_t, std::pair<int64_t, int64_t>> agg;
  std::vector<int> picked =
      rng.SampleWithoutReplacement(static_cast<int>(keys.size()), leaves);
  const int per_leaf = instances / leaves;
  for (int index : picked) {
    std::string values;
    codec.AppendValues(keys[index], values);
    for (int i = 0; i < per_leaf; ++i) {
      const bool positive = rng.Bernoulli(rates[index]);
      batch.csv += values;
      batch.csv += positive ? "1\n" : "0\n";
      auto& slot = agg[keys[index]];
      (positive ? slot.first : slot.second) += 1;
    }
  }
  batch.deltas = SortedDeltas(agg);
  batch.instances = static_cast<int64_t>(per_leaf) * leaves;
  batch.leaves = leaves;
  return batch;
}

struct NarrowConfig {
  int rows = 1'200'000;
  int instances = 1000;
  int leaves = 8;
  int closed_batches = 40;
  // Open loop: the nominal rate, well below the closed-loop knee (about
  // 20 batches/s), fills the run; short steps above it then locate the
  // highest rate that still meets the freshness limit.
  double nominal_rate = 10;  // batches/s
  std::vector<double> sweep_rates = {20, 30, 40};
  double sweep_step_s = 1.0;
  double freshness_limit_ms = 200;
  int query_interval_ms = 20;
  int setup_repeats = 2;
};

IbsParams ServeIbsParams() {
  IbsParams params;
  params.imbalance_threshold = 0.5;
  params.distance_threshold = 1.0;
  params.min_region_size = 30;
  return params;
}

void RunServeNarrow(const Options& opt, const NarrowConfig& cfg,
                    Report& report) {
  ServeOptions base;
  base.ibs = ServeIbsParams();
  base.identify_mode = IdentifyMode::kIncremental;

  SeededDaemon served =
      SetUpServe(NarrowSpec(cfg.rows), base, opt, cfg.setup_repeats, report);
  ServeDaemon& daemon = *served.daemon;
  const Census& census = served.census;
  const std::vector<uint64_t>& keys = served.keys;
  const std::vector<double>& rates = served.rates;
  const LeafCodec codec(census.schema);
  const size_t regions_start = daemon.Snapshot()->ibs.size();

  Rng rng(opt.seed * 7919 + 11);
  std::vector<Batch> accepted;  // in commit order
  uint64_t next_sequence = served.seed_sequence + 1;
  int64_t attempted = 0, failed = 0;

  // Phase 1: closed loop. Each batch is sent when the previous one is
  // visible. A traced run sends twice as many, every other one traced, and
  // replays each batch layer by layer on a mirror once it is visible.
  LayerTrace trace;
  LayerReplay replay;
  if (opt.trace) {
    replay.params = base.ibs;
    replay.Reset(census, census.leaves, census.totals,
                 opt.work_dir + "/replay.wal");
  }
  const int closed_total = opt.trace ? 2 * cfg.closed_batches
                                     : cfg.closed_batches;
  std::vector<double> closed_ms, untraced_ms;
  const Clock::time_point closed_start = Clock::now();
  for (int i = 0; i < closed_total; ++i) {
    const bool traced = opt.trace && i % 2 == 1;
    if (traced) trace.Arm();
    Batch batch =
        NarrowBatch(codec, keys, rates, cfg.instances, cfg.leaves, rng);
    const Clock::time_point start = Clock::now();
    const Send send = SendAt(daemon, batch, start, &next_sequence);
    ++attempted;
    if (!send.accepted) {
      ++failed;
      continue;
    }
    while (daemon.Snapshot()->wal_sequence < send.sequence) {
      if (Clock::now() > start + kVisibleDeadline) Stalled(send.sequence);
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    (opt.trace && !traced ? untraced_ms : closed_ms)
        .push_back(ToMs(Clock::now() - start));
    if (opt.trace) replay.Run(batch, traced);
    trace.Disarm();
    accepted.push_back(std::move(batch));
  }
  const double closed_s = SecondsSince(closed_start);
  const double closed_batch_ms = Mean(closed_ms);
  opt.host->Sample(3);
  report.Metric("closed_loop_batch_ms", closed_batch_ms, "ms");
  report.Metric("closed_loop_rows_per_s",
                1000.0 * cfg.instances / Percentile(closed_ms, 0.5),
                "rows/s");
  if (opt.trace) {
    const double parse = Mean(replay.parse_ms);
    const double append = Mean(replay.append_ms);
    const double sync = Mean(replay.sync_ms);
    const double apply = Mean(replay.apply_ms);
    const double identify = Mean(replay.identify_ms);
    const double unattributed =
        closed_batch_ms - (parse + append + sync + apply + identify);
    report.Metric("replay.parse_ms", parse, "ms");
    report.Metric("replay.wal_append_ms", append, "ms");
    report.Metric("replay.wal_sync_ms", sync, "ms");
    report.Metric("replay.apply_deltas_ms", apply, "ms");
    report.Metric("replay.identify_ms", identify, "ms");
    report.Metric("daemon.unattributed_ms", unattributed, "ms");
    report.Metric("daemon.closed_batch_ms", closed_batch_ms, "ms");
    report.Metric("trace.overhead_frac",
                  OverheadFrac(closed_batch_ms, Mean(untraced_ms)), "ratio");
    replay.Report(report);
    std::printf("closed loop (traced): %.2fms/batch = parse %.3f + wal %.3f "
                "+ %.3f + apply %.3f + identify %.3f + unattributed %.3f\n",
                closed_batch_ms, parse, append, sync, apply, identify,
                unattributed);
  }

  // Phase 2: open-loop steps, the nominal rate first with a QueryIbs reader
  // at a fixed interval, then the sweep. Each step drains before the next.
  // It runs untraced in a traced run too, so its figures carry no tracing
  // cost.
  const RegistryView before = RegistryView::Take();
  VisibilityWaiter waiter(daemon);
  QueryReader reader(daemon, std::chrono::milliseconds(cfg.query_interval_ms));
  const double sweep_s = cfg.sweep_step_s * cfg.sweep_rates.size();
  // A traced run's extra closed-loop work does not shorten the nominal step:
  // it gets as long, and as many samples, as in an untraced run.
  const double untraced_closed_s =
      opt.trace ? cfg.closed_batches * Mean(untraced_ms) * 1e-3 : closed_s;
  const double nominal_s =
      std::max(1.0, opt.seconds - untraced_closed_s - sweep_s);
  std::vector<double> nominal_fresh, all_late, nominal_ack;
  double sustainable = 0, peak_rss_mb = 0;
  std::vector<double> steps = {cfg.nominal_rate};
  steps.insert(steps.end(), cfg.sweep_rates.begin(), cfg.sweep_rates.end());
  for (size_t step = 0; step < steps.size(); ++step) {
    const double rate = steps[step];
    const bool nominal = step == 0;
    const double step_s = nominal ? nominal_s : cfg.sweep_step_s;
    reader.Arm(nominal);
    const int count = std::max(1, static_cast<int>(std::lround(rate * step_s)));
    std::vector<Batch> batches;
    for (int i = 0; i < count; ++i) {
      batches.push_back(
          NarrowBatch(codec, keys, rates, cfg.instances, cfg.leaves, rng));
    }
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / rate));
    const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
    std::vector<Send> sends;
    int rejected = 0;
    for (int i = 0; i < count; ++i) {
      Send send = SendAt(daemon, batches[i], t0 + i * period, &next_sequence);
      ++attempted;
      all_late.push_back(send.late_ms);
      if (nominal) nominal_ack.push_back(send.ack_us);
      if (send.accepted) {
        accepted.push_back(std::move(batches[i]));
      } else {
        ++failed;
        ++rejected;
      }
      sends.push_back(send);
    }
    waiter.WaitFor(next_sequence - 1);
    const std::vector<double> fresh = Freshness(sends, waiter);
    const double p50 = Percentile(fresh, 0.5);
    const double p99 = Percentile(fresh, 0.99);
    // Backlog: the step's last quarter must not be slower than its first
    // half by more than the limit allows.
    const size_t n = fresh.size();
    const double early = Percentile(
        std::vector<double>(fresh.begin(), fresh.begin() + n / 2), 0.5);
    const double late = Percentile(
        std::vector<double>(fresh.begin() + 3 * n / 4, fresh.end()), 0.5);
    const bool backlog = late > early + cfg.freshness_limit_ms / 2;
    const bool ok = rejected == 0 && !backlog && p99 <= cfg.freshness_limit_ms;
    if (ok) sustainable = std::max(sustainable, rate * cfg.instances);
    std::printf("step %5.1f batches/s: %d sent, %d rejected, freshness p50 "
                "%.1fms p99 %.1fms, backlog %s -> %s\n",
                rate, count, rejected, p50, p99, backlog ? "yes" : "no",
                ok ? "meets limit" : "over limit");
    report.Metric("step_" + std::to_string(static_cast<int>(rate)) +
                      ".freshness_p99_ms",
                  p99, "ms");
    if (nominal) {
      nominal_fresh = fresh;
      peak_rss_mb = PeakRssMb();  // at the nominal operating point
      reader.Arm(false);
    }
    opt.host->Sample(3);
  }
  reader.Stop();
  waiter.Stop();
  const RegistryView after = RegistryView::Take();

  report.Metric("freshness_p50_ms", Percentile(nominal_fresh, 0.5), "ms");
  report.Metric("freshness_p90_ms", Percentile(nominal_fresh, 0.9), "ms");
  report.Metric("freshness_p99_ms", Percentile(nominal_fresh, 0.99), "ms");
  report.Metric("freshness_samples", static_cast<double>(nominal_fresh.size()),
                "count");
  report.Metric("sustainable_rows_per_s", sustainable, "rows/s");
  report.Metric("ingest_ack_p50_us", Percentile(nominal_ack, 0.5), "us");
  report.Metric("ingest_ack_p99_us", Percentile(nominal_ack, 0.99), "us");
  report.Metric("peak_rss_mb", peak_rss_mb, "MB");
  const std::vector<double> query_us = reader.latencies_us();
  report.Metric("query_p50_us", Percentile(query_us, 0.5), "us");
  report.Metric("query_p99_us", Percentile(query_us, 0.99), "us");
  report.Metric("query_samples", static_cast<double>(query_us.size()), "count");
  report.Metric("daemon.query_regions", Mean(reader.regions()), "count");
  report.Metric("gen.late_p99_ms", Percentile(all_late, 0.99), "ms");
  report.Metric("gen.late_max_ms", Percentile(all_late, 1.0), "ms");
  ReportDaemonLayers(before, after, {}, report);

  // Output check: an independent hierarchy built from the seed plus every
  // accepted batch, identified by a full sweep.
  if (!daemon.Flush().ok()) report.Check("daemon_healthy", false, "flush");
  const std::shared_ptr<const EpochSnapshot> snap = daemon.Snapshot();
  const size_t regions_end = snap->ibs.size();
  report.Metric("ibs.regions_start", static_cast<double>(regions_start),
                "count");
  report.Metric("ibs.regions_end", static_cast<double>(regions_end), "count");
  Hierarchy oracle(census.schema, census.leaves, census.totals);
  if (!oracle.EagerBuild(1).ok()) std::abort();
  for (const Batch& batch : accepted) {
    oracle.ApplyDeltas(batch.deltas, /*insert_missing=*/true);
  }
  const uint64_t oracle_counts = oracle.CountsDigest();
  const Clock::time_point sweep_start = Clock::now();
  const uint64_t oracle_ibs = IbsSetDigest(FullSweep(oracle, base.ibs));
  report.Metric("ibs.full_sweep_s", SecondsSince(sweep_start), "s");
  report.Check("counts_digest", oracle_counts == snap->counts_digest,
               Hex(snap->counts_digest) + " vs oracle " + Hex(oracle_counts));
  report.Check("ibs_digest", oracle_ibs == IbsSetDigest(snap->ibs),
               Hex(IbsSetDigest(snap->ibs)) + " vs full sweep " +
                   Hex(oracle_ibs));
  report.Check("sequence", snap->wal_sequence == next_sequence - 1,
               std::to_string(snap->wal_sequence));
  report.Metric("workload.batch_leaves", cfg.leaves, "count");
  report.Metric("workload.retraction_share", 0, "ratio");
  report.Metric("workload.populated_leaves", static_cast<double>(keys.size()),
                "count");
  report.Metric("workload.census_rows", static_cast<double>(census.rows),
                "count");
  report.Attempt(attempted, failed);
  if (opt.trace) trace.Report(report);
  served = SeededDaemon();
}

// ---------------------------------------------------------------------------
// serve_remedy.

struct RemedyConfig {
  int rows = 450'000;
  double tau = 0.1;  // the library default tau_c
  int instances = 1000;  // |delta| per batch
  int leaves = 200;      // leaves per batch
  double retract_share = 0.1;
  int burst_batches = 10;
  double burst_rate = 20;  // batches/s within a burst
  int query_interval_ms = 20;
  int setup_repeats = 5;
  // Burst-and-round cycles per second of --seconds. The count is fixed
  // rather than filling the time: rounds shrink as the census gets
  // remedied, so a run that fitted more rounds on a fast host would take its
  // median over cheaper ones.
  double cycles_per_second = 1.0;
};

// A wide `__count` batch over `cfg.leaves` leaves: increments at each leaf's
// rate, plus retractions of instances the generator knows exist. `view` is
// the census the burst was planned from, minus retractions already planned,
// so no batch of a burst can underflow whatever subset of it is accepted.
Batch WideBatch(const LeafCodec& codec, const RemedyConfig& cfg,
                const std::vector<uint64_t>& keys,
                const std::vector<double>& rates,
                std::unordered_map<uint64_t, RegionCounts>& view, Rng& rng) {
  Batch batch;
  batch.csv = codec.Header(/*with_count=*/true);
  std::map<uint64_t, std::pair<int64_t, int64_t>> agg;
  const int retract_leaves =
      static_cast<int>(std::lround(cfg.leaves * cfg.retract_share));
  const int add_leaves = cfg.leaves - retract_leaves;
  const int per_leaf = cfg.instances / cfg.leaves;
  auto row = [&](uint64_t key, bool positive, int64_t count) {
    codec.AppendValues(key, batch.csv);
    batch.csv += positive ? "1," : "0,";
    batch.csv += std::to_string(count) + "\n";
    auto& slot = agg[key];
    (positive ? slot.first : slot.second) += count;
  };
  for (int index : rng.SampleWithoutReplacement(static_cast<int>(keys.size()),
                                                add_leaves)) {
    int positives = 0;
    for (int i = 0; i < per_leaf; ++i) positives += rng.Bernoulli(rates[index]);
    if (positives > 0) row(keys[index], true, positives);
    if (per_leaf - positives > 0) row(keys[index], false, per_leaf - positives);
  }
  int retracted = 0;
  for (int tries = 0; retracted < retract_leaves && tries < 100 * cfg.leaves;
       ++tries) {
    const uint64_t key = keys[rng.UniformInt(static_cast<int>(keys.size()))];
    RegionCounts& have = view[key];
    const bool positive = rng.Bernoulli(0.5);
    int64_t& count = positive ? have.positives : have.negatives;
    if (count < per_leaf || agg.count(key)) continue;
    count -= per_leaf;
    row(key, positive, -per_leaf);
    ++retracted;
  }
  batch.deltas = SortedDeltas(agg);
  batch.instances = static_cast<int64_t>(per_leaf) * (add_leaves + retracted);
  batch.retracted = static_cast<int64_t>(per_leaf) * retracted;
  batch.leaves = add_leaves + retracted;
  return batch;
}

void RunServeRemedy(const Options& opt, const RemedyConfig& cfg,
                    Report& report) {
  SyntheticSpec spec = AdultSpec(cfg.rows);  // six protected attributes
  ServeOptions base;
  base.ibs = ServeIbsParams();
  base.ibs.imbalance_threshold = cfg.tau;
  base.enable_remedy = true;
  base.remedy_backend = RemedyBackendKind::kStreaming;
  RemedyParams params;
  params.ibs = base.ibs;
  params.technique = RemedyTechnique::kPreferentialSampling;
  params.seed = opt.seed;
  params.planning_threads = 1;
  base.remedy = params;

  SeededDaemon served =
      SetUpServe(spec, base, opt, cfg.setup_repeats, report);
  ServeDaemon& daemon = *served.daemon;
  const Census& census = served.census;
  const std::vector<uint64_t>& keys = served.keys;
  const std::vector<double>& rates = served.rates;
  const LeafCodec codec(census.schema);
  const size_t regions_start = daemon.Snapshot()->ibs.size();

  // A traced run traces every other burst-and-round cycle. The untraced
  // cycles alone give the run's freshness, ack, query and remedy figures,
  // and are the baseline of trace.overhead_frac.
  LayerTrace trace;
  LayerReplay replay;
  replay.params = base.ibs;
  std::vector<double> traced_ms, untraced_ms;
  const RegistryView before = RegistryView::Take();
  VisibilityWaiter waiter(daemon);
  QueryReader reader(daemon, std::chrono::milliseconds(cfg.query_interval_ms));
  Rng rng(opt.seed * 104729 + 5);
  uint64_t next_sequence = served.seed_sequence + 1;
  int64_t attempted = 0, failed = 0, retries = 0;
  int64_t instances = 0, retracted = 0, batch_leaves = 0, batches_sent = 0;
  size_t rounds = 0;
  std::vector<double> fresh, late, ack, remedy_ms, materialize_ms, deltas;
  reader.Arm(true);
  const size_t cycles = static_cast<size_t>(
      std::max(2.0, std::round(opt.seconds * cfg.cycles_per_second)));
  while (rounds < cycles) {
    const bool traced = opt.trace && rounds % 2 == 1;
    reader.Record(!traced);
    if (traced) trace.Arm();
    // Burst: open-loop wide batches planned from the newest census.
    const std::shared_ptr<const EpochSnapshot> pinned = daemon.Snapshot();
    std::unordered_map<uint64_t, RegionCounts> view;
    for (const auto& [key, counts] : *pinned->leaf_counts) view[key] = counts;
    std::vector<Batch> burst;
    for (int i = 0; i < cfg.burst_batches; ++i) {
      burst.push_back(WideBatch(codec, cfg, keys, rates, view, rng));
    }
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / cfg.burst_rate));
    const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);
    std::vector<Send> sends;
    for (int i = 0; i < cfg.burst_batches; ++i) {
      const Send send = SendAt(daemon, burst[i], t0 + i * period,
                               &next_sequence);
      ++attempted;
      late.push_back(send.late_ms);
      if (!traced) ack.push_back(send.ack_us);
      if (!send.accepted) ++failed;
      instances += burst[i].instances;
      retracted += burst[i].retracted;
      batch_leaves += burst[i].leaves;
      ++batches_sent;
      sends.push_back(send);
    }
    waiter.WaitFor(next_sequence - 1);
    if (!traced) {
      for (double ms : Freshness(sends, waiter)) fresh.push_back(ms);
    }
    if (traced) {
      // Layer replay of the burst on a mirror of the census it was planned
      // from.
      replay.Reset(census, *pinned->leaf_counts, pinned->totals,
                   opt.work_dir + "/replay.wal");
      for (int i = 0; i < cfg.burst_batches; ++i) {
        if (sends[i].accepted) replay.Run(burst[i], /*record=*/true);
      }
    }

    // Quiet gap: one preferential-sampling remedy round, waited for.
    if (traced) {
      // The census materialization the round's plan starts with, replayed
      // on the same cut (the whole plan's time is the daemon's own
      // remedy_backend/plan_ns).
      const std::shared_ptr<const EpochSnapshot> cut = daemon.Snapshot();
      const Clock::time_point t = Clock::now();
      replay.Own([&] {
        REMEDY_TRACE_SPAN("bench/remedy");
        (void)MaterializeLeafCounts(census.schema, *cut->leaf_counts);
      });
      materialize_ms.push_back(ToMs(Clock::now() - t));
    }
    StatusOr<RemedyCommitResult> result = InternalError("not run");
    const Clock::time_point t = Clock::now();
    for (int attempt = 0; attempt < 5; ++attempt) {
      {
        REMEDY_TRACE_SPAN("bench/daemon");
        result = daemon.SubmitRemedy(params);
      }
      if (result.ok() ||
          result.status().code() != StatusCode::kResourceExhausted) {
        break;
      }
      ++retries;  // stale plan: re-plan against the newer epoch
    }
    const double round_ms = ToMs(Clock::now() - t);
    ++rounds;
    std::printf("remedy round %zu%s: %.1fms, %zu deltas, IBS %zu regions\n",
                rounds, traced ? " (traced)" : "", round_ms,
                result.ok() ? result.value().deltas : 0,
                daemon.Snapshot()->ibs.size());
    trace.Disarm();
    if (!traced) remedy_ms.push_back(round_ms);
    // The first round plans against the unremedied census; it is no
    // baseline for the traced rounds.
    if (rounds > 1) (traced ? traced_ms : untraced_ms).push_back(round_ms);
    ++attempted;
    opt.host->Sample();
    if (!result.ok()) {
      ++failed;
      std::printf("remedy round failed: %s\n",
                  result.status().ToString().c_str());
    } else {
      deltas.push_back(static_cast<double>(result.value().deltas));
      if (result.value().committed) {
        next_sequence = daemon.Snapshot()->wal_sequence + 1;
      }
    }
  }
  reader.Arm(false);
  reader.Stop();
  waiter.Stop();
  const RegistryView after = RegistryView::Take();
  report.Metric("peak_rss_mb", PeakRssMb(), "MB");
  std::printf("serve_remedy: %zu rounds, untraced remedy p50 %.1fms (first "
              "%.1fms), %" PRId64 " retries\n",
              rounds, Percentile(remedy_ms, 0.5),
              remedy_ms.empty() ? 0.0 : remedy_ms.front(), retries);

  report.Metric("freshness_p50_ms", Percentile(fresh, 0.5), "ms");
  report.Metric("freshness_p99_ms", Percentile(fresh, 0.99), "ms");
  report.Metric("freshness_samples", static_cast<double>(fresh.size()),
                "count");
  report.Metric("remedy_p50_ms", Percentile(remedy_ms, 0.5), "ms");
  report.Metric("remedy_p90_ms", Percentile(remedy_ms, 0.9), "ms");
  report.Metric("remedy_samples", static_cast<double>(remedy_ms.size()),
                "count");
  report.Metric("ingest_ack_p50_us", Percentile(ack, 0.5), "us");
  report.Metric("ingest_ack_p99_us", Percentile(ack, 0.99), "us");
  const std::vector<double> query_us = reader.latencies_us();
  report.Metric("query_p50_us", Percentile(query_us, 0.5), "us");
  report.Metric("query_p99_us", Percentile(query_us, 0.99), "us");
  report.Metric("query_samples", static_cast<double>(query_us.size()), "count");
  report.Metric("daemon.query_regions", Mean(reader.regions()), "count");
  report.Metric("gen.late_p99_ms", Percentile(late, 0.99), "ms");
  report.Metric("gen.late_max_ms", Percentile(late, 1.0), "ms");
  report.Metric("remedy.retries", static_cast<double>(retries), "count");
  if (opt.trace) {
    report.Metric("trace.overhead_frac",
                  OverheadFrac(Percentile(traced_ms, 0.5),
                               Percentile(untraced_ms, 0.5)),
                  "ratio");
    replay.Report(report);
    report.Metric("remedy.materialize_ms", Percentile(materialize_ms, 0.5),
                  "ms");
  }
  ReportDaemonLayers(before, after, replay.own_counters, report);

  // Output checks: the final IBS against a full sweep over the final census,
  // and a restart from the state directory reproducing the counts.
  if (!daemon.Flush().ok()) report.Check("daemon_healthy", false, "flush");
  const std::shared_ptr<const EpochSnapshot> snap = daemon.Snapshot();
  report.Metric("ibs.regions_start", static_cast<double>(regions_start),
                "count");
  report.Metric("ibs.regions_end", static_cast<double>(snap->ibs.size()),
                "count");
  Hierarchy oracle(census.schema, *snap->leaf_counts, snap->totals);
  const Clock::time_point sweep_start = Clock::now();
  const uint64_t oracle_ibs = IbsSetDigest(FullSweep(oracle, base.ibs));
  report.Metric("ibs.full_sweep_s", SecondsSince(sweep_start), "s");
  report.Check("ibs_digest", oracle_ibs == IbsSetDigest(snap->ibs),
               Hex(IbsSetDigest(snap->ibs)) + " vs full sweep " +
                   Hex(oracle_ibs));
  report.Check("remedy_rounds", rounds > 0 && failed == 0,
               std::to_string(rounds) + " rounds, " +
                   std::to_string(failed) + " failed");
  const uint64_t counts = snap->counts_digest;
  const std::string state_dir = served.state_dir;
  const Status stopped = served.daemon->Stop();
  served.daemon.reset();
  ServeOptions restart = base;
  restart.state_dir = state_dir;
  StatusOr<std::unique_ptr<ServeDaemon>> again =
      ServeDaemon::Start(census.schema, restart);
  const uint64_t restarted =
      again.ok() ? again.value()->Snapshot()->counts_digest : 0;
  report.Check("restart_counts_digest", stopped.ok() && restarted == counts,
               Hex(restarted) + " vs " + Hex(counts));
  if (again.ok()) (void)again.value()->Stop();

  report.Metric("workload.batch_leaves",
                batches_sent ? static_cast<double>(batch_leaves) / batches_sent
                             : 0,
                "count");
  report.Metric("workload.retraction_share",
                instances ? static_cast<double>(retracted) / instances : 0,
                "ratio");
  report.Metric("workload.populated_leaves", static_cast<double>(keys.size()),
                "count");
  report.Metric("workload.census_rows", static_cast<double>(census.rows),
                "count");
  report.Metric("remedy.deltas_per_round", Mean(deltas), "count");
  report.Attempt(attempted, failed);
  if (opt.trace) trace.Report(report);
}

// ---------------------------------------------------------------------------
// batch_pipeline.

struct PipelineConfig {
  int rows = 200'000;
  int threads = 2;  // model training and remedy planning
  int setup_repeats = 5;
};

std::string FormatDouble17(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// What one pipeline pass produced, for the output checks.
struct PipelineOutput {
  uint64_t ibs_digest = 0;
  uint64_t remedied_digest = 0;
  std::vector<double> fairness;  // FPR then FNR index per model

  bool operator==(const PipelineOutput& o) const {
    return ibs_digest == o.ibs_digest && remedied_digest == o.remedied_digest &&
           fairness == o.fairness;
  }
};

void RunBatchPipeline(const Options& opt, const PipelineConfig& cfg,
                      Report& report) {
  const SyntheticSpec spec = AdultSpec(cfg.rows);
  const std::string csv = opt.work_dir + "/adult.csv";
  std::vector<double> setup_s;
  for (int i = 0; i < cfg.setup_repeats; ++i) {
    opt.host->Sample(2);
    const Clock::time_point start = Clock::now();
    fs::remove(csv);
    if (!GenerateSyntheticCsvFile(spec, opt.seed, csv).ok()) {
      report.Check("generate_csv", false, csv);
      return;
    }
    setup_s.push_back(SecondsSince(start));
  }
  report.Metric("setup_s", Percentile(setup_s, 0.5), "s");

  LoaderOptions loader;
  const DataSchema schema = spec.MakeSchema();
  for (int idx : spec.protected_indices) {
    loader.protected_attributes.push_back(schema.attribute(idx).name());
  }
  loader.label_column = schema.label_name();
  IbsParams ibs;
  ibs.imbalance_threshold = 0.5;  // the paper's Adult setting
  RemedyParams remedy;
  remedy.ibs = ibs;
  remedy.technique = RemedyTechnique::kPreferentialSampling;
  remedy.seed = opt.seed;
  remedy.planning_threads = cfg.threads;
  const std::vector<std::pair<const char*, ModelType>> models = {
      {"dt", ModelType::kDecisionTree},
      {"rf", ModelType::kRandomForest},
      {"lr", ModelType::kLogisticRegression},
      {"nn", ModelType::kNeuralNetwork}};

  // A traced run traces the second pass; the first, untraced pass is the
  // baseline of trace.overhead_frac.
  LayerTrace trace;
  std::vector<double> pipeline_s, load_s, identify_s, remedy_s, predict_s,
      index_s;
  std::map<std::string, std::vector<double>> fit_s;
  std::vector<PipelineOutput> outputs;
  int64_t rows_loaded = 0, ibs_size = 0;
  const Clock::time_point run_start = Clock::now();
  // Passes run while another one fits in the run time (at least one; a
  // traced run needs two).
  while (pipeline_s.empty() || (opt.trace && pipeline_s.size() < 2) ||
         (!opt.trace &&
          SecondsSince(run_start) + Mean(pipeline_s) <= opt.seconds)) {
    const bool timed_layers = !opt.trace || pipeline_s.size() == 1;
    if (opt.trace && timed_layers) trace.Arm();
    PipelineOutput out;
    const Clock::time_point start = Clock::now();
    Clock::time_point t = start;
    StatusOr<Dataset> loaded = InternalError("not run");
    {
      REMEDY_TRACE_SPAN("bench/loader");
      loaded = LoadCsvDataset(csv, loader);
    }
    if (!loaded.ok()) {
      report.Check("load", false, loaded.status().ToString());
      return;
    }
    if (timed_layers) load_s.push_back(SecondsSince(t));
    rows_loaded = loaded.value().NumRows();
    Rng split_rng(opt.seed);
    auto [train, test] = loaded.value().TrainTestSplit(0.7, split_rng);
    t = Clock::now();
    std::vector<BiasedRegion> found;
    {
      REMEDY_TRACE_SPAN("bench/ibs");
      found = IdentifyIbs(train, ibs).value();
    }
    if (timed_layers) identify_s.push_back(SecondsSince(t));
    ibs_size = static_cast<int64_t>(found.size());
    out.ibs_digest = IbsSetDigest(found);
    t = Clock::now();
    StatusOr<Dataset> remedied = InternalError("not run");
    {
      REMEDY_TRACE_SPAN("bench/remedy");
      remedied = RemedyDataset(train, remedy);
    }
    if (!remedied.ok()) {
      report.Check("remedy", false, remedied.status().ToString());
      return;
    }
    if (timed_layers) remedy_s.push_back(SecondsSince(t));
    out.remedied_digest = LeafCountsDigest(LeafCountsOf(remedied.value()));
    double predict = 0, index = 0;
    for (const auto& [name, type] : models) {
      ClassifierPtr model = MakeClassifier(type, opt.seed, cfg.threads);
      t = Clock::now();
      {
        REMEDY_TRACE_SPAN("bench/ml");
        model->Fit(remedied.value());
      }
      if (timed_layers) fit_s[name].push_back(SecondsSince(t));
      t = Clock::now();
      std::vector<int> predictions;
      {
        REMEDY_TRACE_SPAN("bench/ml");
        predictions = model->PredictAll(test);
      }
      predict += SecondsSince(t);
      t = Clock::now();
      {
        REMEDY_TRACE_SPAN("bench/fairness");
        out.fairness.push_back(
            ComputeFairnessIndex(test, predictions, Statistic::kFpr));
        out.fairness.push_back(
            ComputeFairnessIndex(test, predictions, Statistic::kFnr));
      }
      index += SecondsSince(t);
    }
    if (timed_layers) {
      predict_s.push_back(predict);
      index_s.push_back(index);
    }
    pipeline_s.push_back(SecondsSince(start));
    trace.Disarm();
    outputs.push_back(std::move(out));
    std::printf("pipeline pass %zu: %.3fs\n", pipeline_s.size(),
                pipeline_s.back());
    opt.host->Sample(3);
  }

  std::vector<double> untraced = pipeline_s;
  if (opt.trace) {
    untraced.resize(1);
    report.Metric("trace.overhead_frac",
                  OverheadFrac(pipeline_s[1], pipeline_s[0]), "ratio");
  }
  report.Metric("pipeline_s", Percentile(untraced, 0.5), "s");
  report.Metric("pipeline_s_p90", Percentile(untraced, 0.9), "s");
  report.Metric("pipeline_samples", static_cast<double>(untraced.size()),
                "count");
  report.Metric("pipeline_rows_per_s",
                static_cast<double>(cfg.rows) / Percentile(untraced, 0.5),
                "rows/s");
  report.Metric("loader.load_s", Percentile(load_s, 0.5), "s");
  report.Metric("loader.rows_per_s",
                static_cast<double>(rows_loaded) / Percentile(load_s, 0.5),
                "rows/s");
  report.Metric("ibs.full_sweep_s", Percentile(identify_s, 0.5), "s");
  report.Metric("remedy.dataset_s", Percentile(remedy_s, 0.5), "s");
  for (const auto& [name, values] : fit_s) {
    report.Metric("ml.fit_s." + name, Percentile(values, 0.5), "s");
  }
  report.Metric("ml.predict_s", Percentile(predict_s, 0.5), "s");
  report.Metric("fairness.index_s", Percentile(index_s, 0.5), "s");
  report.Metric("ibs.regions_end", static_cast<double>(ibs_size), "count");
  report.Metric("workload.census_rows", static_cast<double>(rows_loaded),
                "count");

  // Output checks: every pass of the run agrees, and run.py compares the
  // pinned values for this seed.
  bool same = true;
  for (const PipelineOutput& o : outputs) same = same && o == outputs.front();
  report.Check("passes_agree", same,
               std::to_string(outputs.size()) + " passes");
  report.Check("fairness_finite",
               std::all_of(outputs.front().fairness.begin(),
                           outputs.front().fairness.end(),
                           [](double v) { return std::isfinite(v); }),
               "8 index values");
  report.Pin("ibs_digest", Hex(outputs.front().ibs_digest));
  report.Pin("remedied_leaf_counts_digest",
             Hex(outputs.front().remedied_digest));
  for (size_t i = 0; i < models.size(); ++i) {
    report.Pin(std::string("fairness_fpr.") + models[i].first,
               FormatDouble17(outputs.front().fairness[2 * i]));
    report.Pin(std::string("fairness_fnr.") + models[i].first,
               FormatDouble17(outputs.front().fairness[2 * i + 1]));
  }
  report.Attempt(static_cast<int64_t>(pipeline_s.size()), 0);
  report.Metric("peak_rss_mb", PeakRssMb(), "MB");
  fs::remove(csv);
  if (opt.trace) trace.Report(report);
}

// ---------------------------------------------------------------------------
// count_scale.

struct CountConfig {
  int64_t rows = 10'000'000;
  int setup_repeats = 1;  // one set-up is two 10M-row generations
};

void RunCountScale(const Options& opt, const CountConfig& cfg,
                   Report& report) {
  // fig9_scalability's backend-sweep store: Adult schema widened to |X| = 8.
  SyntheticSpec spec = AdultSpec(static_cast<int>(cfg.rows));
  const DataSchema full_schema = spec.MakeSchema();
  spec.protected_indices.clear();
  for (const std::string& name : AdultScalabilityProtected(8)) {
    spec.protected_indices.push_back(full_schema.AttributeIndex(name));
  }
  const std::string dir = opt.work_dir + "/store";
  std::unique_ptr<ColumnarShardStore> memory, mapped;
  std::vector<double> setup_s, spill_s;
  for (int i = 0; i < cfg.setup_repeats; ++i) {
    memory.reset();
    mapped.reset();
    fs::remove_all(dir);
    opt.host->Sample(2);
    const Clock::time_point start = Clock::now();
    {
      REMEDY_TRACE_SPAN("bench/columnar");
      memory = std::make_unique<ColumnarShardStore>(
          GenerateSyntheticStore(spec, opt.seed));
    }
    const Clock::time_point spill_start = Clock::now();
    {
      REMEDY_TRACE_SPAN("bench/columnar");
      StatusOr<ColumnarShardStore> spilled =
          GenerateSyntheticSpilledStore(spec, opt.seed, dir);
      if (!spilled.ok()) {
        report.Check("spill", false, spilled.status().ToString());
        return;
      }
      mapped = std::make_unique<ColumnarShardStore>(std::move(spilled).value());
    }
    spill_s.push_back(SecondsSince(spill_start));
    setup_s.push_back(SecondsSince(start));
  }
  report.Metric("setup_s", Percentile(setup_s, 0.5), "s");
  report.Metric("columnar.spill_s", Percentile(spill_s, 0.5), "s");

  IbsParams params;  // default counting backend
  params.imbalance_threshold = 0.5;
  LayerTrace trace;
  const RegistryView before = RegistryView::Take();
  std::vector<double> memory_s, mapped_s, traced_s;
  std::vector<uint64_t> memory_digests, mapped_digests;
  size_t ibs_size = 0;
  const Clock::time_point run_start = Clock::now();
  // Alternate in-memory and mmap passes; a traced run traces every other
  // pair, and only the untraced pairs give the run's identify times.
  for (int pair = 0; pair < 4 || SecondsSince(run_start) < opt.seconds;
       ++pair) {
    const bool traced = opt.trace && pair % 2 == 1;
    opt.host->Sample();
    if (traced) trace.Arm();
    for (bool in_memory : {true, false}) {
      const Clock::time_point t = Clock::now();
      std::vector<BiasedRegion> ibs;
      {
        REMEDY_TRACE_SPAN("bench/counting");
        ibs = IdentifyIbs(in_memory ? *memory : *mapped, params).value();
      }
      if (traced) {
        if (in_memory) traced_s.push_back(SecondsSince(t));
      } else {
        (in_memory ? memory_s : mapped_s).push_back(SecondsSince(t));
      }
      (in_memory ? memory_digests : mapped_digests)
          .push_back(IbsSetDigest(ibs));
      ibs_size = ibs.size();
    }
    trace.Disarm();
  }
  const RegistryView after = RegistryView::Take();
  if (opt.trace) {
    // Decomposed pass through the layers: leaf scan, rollup, sweep.
    trace.Arm();
    Hierarchy hierarchy(*memory);
    Clock::time_point t = Clock::now();
    {
      REMEDY_TRACE_SPAN("bench/counting");
      if (!hierarchy.PrepareCounting().ok()) std::abort();
      (void)hierarchy.NodeCounts(hierarchy.LeafMask());
    }
    report.Metric("counting.leaf_scan_s", SecondsSince(t), "s");
    t = Clock::now();
    {
      REMEDY_TRACE_SPAN("bench/counting");
      for (uint32_t mask : hierarchy.BottomUpMasks()) {
        (void)hierarchy.NodeCounts(mask);
      }
    }
    report.Metric("counting.rollup_s", SecondsSince(t), "s");
    t = Clock::now();
    std::vector<BiasedRegion> swept;
    {
      REMEDY_TRACE_SPAN("bench/ibs");
      swept = FullSweep(hierarchy, params);
    }
    report.Metric("ibs.full_sweep_s", SecondsSince(t), "s");
    report.Check("decomposed_digest",
                 IbsSetDigest(swept) == memory_digests.front(),
                 Hex(IbsSetDigest(swept)));
    trace.Disarm();
    report.Metric("trace.overhead_frac",
                  OverheadFrac(Percentile(traced_s, 0.5),
                               Percentile(memory_s, 0.5)),
                  "ratio");
  }
  report.Metric("identify_s_p50", Percentile(memory_s, 0.5), "s");
  report.Metric("identify_s_p90", Percentile(memory_s, 0.9), "s");
  report.Metric("identify_mmap_s_p50", Percentile(mapped_s, 0.5), "s");
  report.Metric("identify_rows_per_s",
                static_cast<double>(cfg.rows) / Percentile(memory_s, 0.5),
                "rows/s");
  report.Metric("identify_mmap_rows_per_s",
                static_cast<double>(cfg.rows) / Percentile(mapped_s, 0.5),
                "rows/s");
  report.Metric("identify_samples", static_cast<double>(memory_s.size()),
                "count");
  ReportDaemonLayers(before, after, {}, report);
  report.Metric("ibs.regions_end", static_cast<double>(ibs_size), "count");
  report.Metric("workload.census_rows", static_cast<double>(cfg.rows), "count");

  bool agree = true;
  for (const auto* digests : {&memory_digests, &mapped_digests}) {
    for (uint64_t d : *digests) agree = agree && d == memory_digests.front();
  }
  report.Check("mmap_matches_memory", agree,
               Hex(memory_digests.front()) + " over " +
                   std::to_string(memory_digests.size() +
                                  mapped_digests.size()) +
                   " passes");
  report.Pin("ibs_digest", Hex(memory_digests.front()));
  report.Attempt(static_cast<int64_t>(memory_s.size() + mapped_s.size()), 0);
  report.Metric("peak_rss_mb", PeakRssMb(), "MB");
  mapped.reset();
  fs::remove_all(dir);
  if (opt.trace) trace.Report(report);
}

// ---------------------------------------------------------------------------

int Main(int argc, char** argv) {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  Options opt;
  const NarrowConfig narrow;
  const RemedyConfig remedy;
  const PipelineConfig pipeline;
  const CountConfig count;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") opt.workload = value;
    else if (flag == "--seed") opt.seed = std::stoull(value);
    else if (flag == "--seconds") opt.seconds = std::stod(value);
    else if (flag == "--trace") opt.trace = value == "1";
    else if (flag == "--work-dir") opt.work_dir = value;
    else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (opt.work_dir.empty()) {
    std::fprintf(stderr, "--work-dir is required\n");
    return 2;
  }
  fs::create_directories(opt.work_dir);
  std::printf("workload %s, seed %" PRIu64 ", %.0fs, trace %d\n",
              opt.workload.c_str(), opt.seed, opt.seconds, opt.trace ? 1 : 0);
  HostReference host;
  opt.host = &host;
  host.Sample(5);
  Report report;
  if (opt.workload == "serve_narrow") {
    RunServeNarrow(opt, narrow, report);
  } else if (opt.workload == "serve_remedy") {
    RunServeRemedy(opt, remedy, report);
  } else if (opt.workload == "batch_pipeline") {
    RunBatchPipeline(opt, pipeline, report);
  } else if (opt.workload == "count_scale") {
    RunCountScale(opt, count, report);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  host.Sample(5);
  host.Report(report);
  std::printf("%s\n", report.ToJson(opt.workload, opt.seed, opt.trace).c_str());
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace remedy::perfbench

int main(int argc, char** argv) { return remedy::perfbench::Main(argc, argv); }
