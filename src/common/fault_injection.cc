#include "common/fault_injection.h"

#include "common/check.h"
#include "common/pipeline_metrics.h"
#include "common/rng.h"

namespace remedy {
namespace {

// The active injector. The injector must outlive every operation it drives
// (it is meant to be scoped around the calls under test), so the
// check-then-use in REMEDY_FAULT_POINT needs no further synchronization.
std::atomic<FaultInjector*> g_active{nullptr};

}  // namespace

bool FaultInjectionActive() {
  return g_active.load(std::memory_order_acquire) != nullptr;
}

const std::vector<std::string>& RegisteredFaultPoints() {
  // Keep in sync with the REMEDY_FAULT_POINT sites; fault_injection_test
  // arms each name and drives the code path that crosses it.
  static const std::vector<std::string>* const kPoints =
      new std::vector<std::string>{
          "csv/read",             // per read attempt in ReadCsvFile
          "csv/write",            // WriteCsvFile
          "loader/build",         // BuildDataset / LoadCsvDataset
          "threadpool/dispatch",  // ThreadPool::ParallelFor fan-out
          "remedy/apply",         // RemedyDataset / streaming plan entry
          "store/spill_write",    // per shard file written by the spill mode
          "store/mmap_map",       // per shard file mapped by EnsureMapped
          "store/shard_read",     // per spilled shard header read / map
                                  // attempt (retried with backoff)
          "wal/append",           // per record framed into the delta WAL
          "wal/fsync",            // per WAL group-commit / checkpoint sync
          "wal/replay",           // per record decoded during WAL recovery
          "serve/ingest",         // per batch parsed by the serve daemon
          "serve/apply",          // per committed batch applied to the
                                  // daemon's lattice
      };
  return *kPoints;
}

FaultInjector::FaultInjector() {
  FaultInjector* expected = nullptr;
  REMEDY_CHECK(g_active.compare_exchange_strong(expected, this,
                                                std::memory_order_acq_rel))
      << "another FaultInjector is already active";
}

FaultInjector::~FaultInjector() {
  g_active.store(nullptr, std::memory_order_release);
}

FaultInjector* FaultInjector::Active() {
  return g_active.load(std::memory_order_acquire);
}

void FaultInjector::FailNth(const std::string& point, int64_t nth,
                            StatusCode code) {
  REMEDY_CHECK(nth >= 1) << "hit numbering is 1-based";
  std::lock_guard<std::mutex> lock(mu_);
  Arming arming;
  arming.mode = Mode::kNth;
  arming.nth = nth;
  arming.code = code;
  armed_[point] = arming;
}

void FaultInjector::FailAlways(const std::string& point, StatusCode code) {
  std::lock_guard<std::mutex> lock(mu_);
  Arming arming;
  arming.mode = Mode::kAlways;
  arming.code = code;
  armed_[point] = arming;
}

void FaultInjector::FailWithProbability(const std::string& point, double p,
                                        uint64_t seed, StatusCode code) {
  REMEDY_CHECK(p >= 0.0 && p <= 1.0) << "probability out of range";
  std::lock_guard<std::mutex> lock(mu_);
  Arming arming;
  arming.mode = Mode::kProbability;
  arming.probability = p;
  arming.rng_state = seed;
  arming.code = code;
  armed_[point] = arming;
}

void FaultInjector::Disarm(const std::string& point) {
  std::lock_guard<std::mutex> lock(mu_);
  armed_.erase(point);
}

int64_t FaultInjector::HitCount(const std::string& point) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = hits_.find(point);
  return it == hits_.end() ? 0 : it->second;
}

Status FaultInjector::Hit(const char* point) {
  PipelineMetrics::Get().fault_points_crossed->Increment();
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t hit = ++hits_[point];
  auto it = armed_.find(point);
  if (it == armed_.end()) return OkStatus();
  Arming& arming = it->second;
  bool fire = false;
  switch (arming.mode) {
    case Mode::kNth:
      fire = hit == arming.nth;
      break;
    case Mode::kAlways:
      fire = true;
      break;
    case Mode::kProbability: {
      arming.rng_state = SplitMix64(arming.rng_state);
      const double draw =
          static_cast<double>(arming.rng_state >> 11) * 0x1.0p-53;
      fire = draw < arming.probability;
      break;
    }
  }
  if (!fire) return OkStatus();
  PipelineMetrics::Get().fault_faults_fired->Increment();
  return Status(arming.code, std::string("injected fault at ") + point +
                                 " (hit " + std::to_string(hit) + ")");
}

}  // namespace remedy
