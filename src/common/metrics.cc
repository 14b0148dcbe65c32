#include "common/metrics.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <ostream>
#include <utility>

#include "common/check.h"
#include "common/table_printer.h"

namespace remedy {

namespace metrics_internal {

int ShardIndex() {
  // One shard per thread, assigned round-robin on first use. Wraps past
  // kShards, so long-lived pools (the common case) get distinct shards and
  // thread churn degrades to sharing, never to unbounded growth.
  static std::atomic<int> next{0};
  thread_local const int shard =
      next.fetch_add(1, std::memory_order_relaxed) % kShards;
  return shard;
}

}  // namespace metrics_internal

int64_t Counter::Value() const {
  int64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard.value.load(std::memory_order_relaxed);
  }
  return total;
}

void Counter::Reset() {
  for (auto& shard : shards_) {
    shard.value.store(0, std::memory_order_relaxed);
  }
}

void Gauge::Set(int64_t value) {
  value_.store(value, std::memory_order_relaxed);
  RaiseMax(value);
}

void Gauge::Add(int64_t delta) {
  const int64_t now = value_.fetch_add(delta, std::memory_order_relaxed) +
                      delta;
  if (delta > 0) RaiseMax(now);
}

void Gauge::RaiseMax(int64_t candidate) {
  int64_t seen = max_.load(std::memory_order_relaxed);
  while (candidate > seen &&
         !max_.compare_exchange_weak(seen, candidate,
                                     std::memory_order_relaxed)) {
  }
}

void Gauge::Reset() {
  value_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

int Histogram::BucketFor(int64_t value) {
  if (value <= 1) return 0;
  // Bucket i holds (2^(i-1), 2^i]: bit_width(value - 1) for value >= 2.
  int bits = 0;
  for (uint64_t v = static_cast<uint64_t>(value - 1); v != 0; v >>= 1) {
    ++bits;
  }
  return std::min(bits, kNumBuckets - 1);
}

int64_t Histogram::BucketUpperBound(int b) {
  REMEDY_CHECK(b >= 0 && b < kNumBuckets);
  if (b == kNumBuckets - 1) return std::numeric_limits<int64_t>::max();
  return int64_t{1} << b;
}

void Histogram::Observe(int64_t value) {
  if (value < 0) value = 0;
  Shard& shard = shards_[metrics_internal::ShardIndex()];
  shard.count.fetch_add(1, std::memory_order_relaxed);
  shard.sum.fetch_add(value, std::memory_order_relaxed);
  shard.buckets[BucketFor(value)].fetch_add(1, std::memory_order_relaxed);
}

int64_t Histogram::Count() const {
  int64_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.count.load(std::memory_order_relaxed);
  }
  return total;
}

int64_t Histogram::Sum() const {
  int64_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.sum.load(std::memory_order_relaxed);
  }
  return total;
}

std::array<int64_t, Histogram::kNumBuckets> Histogram::BucketCounts() const {
  std::array<int64_t, kNumBuckets> totals{};
  for (const Shard& shard : shards_) {
    for (int b = 0; b < kNumBuckets; ++b) {
      totals[b] += shard.buckets[b].load(std::memory_order_relaxed);
    }
  }
  return totals;
}

int64_t Histogram::ApproxQuantile(double q) const {
  const std::array<int64_t, kNumBuckets> totals = BucketCounts();
  int64_t count = 0;
  for (int64_t n : totals) count += n;
  if (count == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const int64_t rank = std::max<int64_t>(
      1, static_cast<int64_t>(q * static_cast<double>(count) + 0.5));
  int64_t seen = 0;
  for (int b = 0; b < kNumBuckets; ++b) {
    seen += totals[b];
    if (seen >= rank) return BucketUpperBound(b);
  }
  return BucketUpperBound(kNumBuckets - 1);
}

void Histogram::Reset() {
  for (Shard& shard : shards_) {
    shard.count.store(0, std::memory_order_relaxed);
    shard.sum.store(0, std::memory_order_relaxed);
    for (auto& bucket : shard.buckets) {
      bucket.store(0, std::memory_order_relaxed);
    }
  }
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* const registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(std::string_view name,
                                     std::string_view unit,
                                     std::string_view help) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = instruments_.try_emplace(std::string(name));
  if (inserted) {
    it->second.type = MetricType::kCounter;
    it->second.unit = std::string(unit);
    it->second.help = std::string(help);
    it->second.counter = std::make_unique<Counter>();
  }
  REMEDY_CHECK(it->second.type == MetricType::kCounter)
      << "metric '" << it->first << "' re-registered with a different type";
  return it->second.counter.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name, std::string_view unit,
                                 std::string_view help) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = instruments_.try_emplace(std::string(name));
  if (inserted) {
    it->second.type = MetricType::kGauge;
    it->second.unit = std::string(unit);
    it->second.help = std::string(help);
    it->second.gauge = std::make_unique<Gauge>();
  }
  REMEDY_CHECK(it->second.type == MetricType::kGauge)
      << "metric '" << it->first << "' re-registered with a different type";
  return it->second.gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name,
                                         std::string_view unit,
                                         std::string_view help) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = instruments_.try_emplace(std::string(name));
  if (inserted) {
    it->second.type = MetricType::kHistogram;
    it->second.unit = std::string(unit);
    it->second.help = std::string(help);
    it->second.histogram = std::make_unique<Histogram>();
  }
  REMEDY_CHECK(it->second.type == MetricType::kHistogram)
      << "metric '" << it->first << "' re-registered with a different type";
  return it->second.histogram.get();
}

std::vector<MetricSnapshot> MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricSnapshot> snapshots;
  snapshots.reserve(instruments_.size());
  for (const auto& [name, entry] : instruments_) {
    MetricSnapshot snap;
    snap.name = name;
    snap.type = entry.type;
    snap.unit = entry.unit;
    snap.help = entry.help;
    switch (entry.type) {
      case MetricType::kCounter:
        snap.value = entry.counter->Value();
        break;
      case MetricType::kGauge:
        snap.value = entry.gauge->Value();
        snap.max = entry.gauge->Max();
        break;
      case MetricType::kHistogram: {
        snap.count = entry.histogram->Count();
        snap.sum = entry.histogram->Sum();
        snap.p50 = entry.histogram->ApproxQuantile(0.5);
        snap.p99 = entry.histogram->ApproxQuantile(0.99);
        const auto buckets = entry.histogram->BucketCounts();
        for (int b = 0; b < Histogram::kNumBuckets; ++b) {
          if (buckets[b] > 0) {
            snap.buckets.emplace_back(Histogram::BucketUpperBound(b),
                                      buckets[b]);
          }
        }
        break;
      }
    }
    snapshots.push_back(std::move(snap));
  }
  std::sort(snapshots.begin(), snapshots.end(),
            [](const MetricSnapshot& a, const MetricSnapshot& b) {
              return a.name < b.name;
            });
  return snapshots;
}

std::vector<std::string> MetricsRegistry::Names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(instruments_.size());
  for (const auto& [name, entry] : instruments_) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, entry] : instruments_) {
    switch (entry.type) {
      case MetricType::kCounter:
        entry.counter->Reset();
        break;
      case MetricType::kGauge:
        entry.gauge->Reset();
        break;
      case MetricType::kHistogram:
        entry.histogram->Reset();
        break;
    }
  }
}

namespace {

void AppendJsonString(const std::string& text, std::string* out) {
  out->push_back('"');
  for (char c : text) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out->append(buffer);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

const char* TypeName(MetricType type) {
  switch (type) {
    case MetricType::kCounter:
      return "counter";
    case MetricType::kGauge:
      return "gauge";
    case MetricType::kHistogram:
      return "histogram";
  }
  return "unknown";
}

}  // namespace

std::string MetricsToJson(const std::vector<MetricSnapshot>& snapshots) {
  std::string out = "{";
  bool first = true;
  for (const MetricSnapshot& snap : snapshots) {
    if (!first) out.push_back(',');
    first = false;
    out.append("\n  ");
    AppendJsonString(snap.name, &out);
    out.append(": {\"type\": ");
    AppendJsonString(TypeName(snap.type), &out);
    out.append(", \"unit\": ");
    AppendJsonString(snap.unit, &out);
    switch (snap.type) {
      case MetricType::kCounter:
        out.append(", \"value\": " + std::to_string(snap.value));
        break;
      case MetricType::kGauge:
        out.append(", \"value\": " + std::to_string(snap.value) +
                   ", \"max\": " + std::to_string(snap.max));
        break;
      case MetricType::kHistogram: {
        out.append(", \"count\": " + std::to_string(snap.count) +
                   ", \"sum\": " + std::to_string(snap.sum) +
                   ", \"p50\": " + std::to_string(snap.p50) +
                   ", \"p99\": " + std::to_string(snap.p99) +
                   ", \"buckets\": [");
        bool first_bucket = true;
        for (const auto& [le, n] : snap.buckets) {
          if (!first_bucket) out.append(", ");
          first_bucket = false;
          out.append("[")
              .append(std::to_string(le))
              .append(", ")
              .append(std::to_string(n))
              .append("]");
        }
        out.push_back(']');
        break;
      }
    }
    out.push_back('}');
  }
  out.append("\n}\n");
  return out;
}

void PrintMetricsTable(const std::vector<MetricSnapshot>& snapshots,
                       std::ostream& out) {
  TablePrinter table({"metric", "type", "unit", "value"});
  for (const MetricSnapshot& snap : snapshots) {
    std::string value;
    switch (snap.type) {
      case MetricType::kCounter:
        value = std::to_string(snap.value);
        break;
      case MetricType::kGauge:
        value = std::to_string(snap.value) + " (max " +
                std::to_string(snap.max) + ")";
        break;
      case MetricType::kHistogram:
        value = "n=" + std::to_string(snap.count) +
                " p50<=" + std::to_string(snap.p50) +
                " p99<=" + std::to_string(snap.p99);
        break;
    }
    table.AddRow({snap.name, TypeName(snap.type), snap.unit, value});
  }
  table.Print(out);
}

Status WriteMetricsJsonFile(const std::string& path) {
  const std::string json =
      MetricsToJson(MetricsRegistry::Global().Snapshot());
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return IoError("cannot open " + path + " for metrics export");
  }
  const size_t written = std::fwrite(json.data(), 1, json.size(), file);
  const bool failed = written != json.size() || std::fclose(file) != 0;
  if (failed) return IoError("write of metrics JSON to " + path + " failed");
  return OkStatus();
}

}  // namespace remedy
