#ifndef REMEDY_COMMON_THREAD_POOL_H_
#define REMEDY_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <new>
#include <thread>
#include <vector>

#include "common/status.h"

namespace remedy {

// Small reusable worker pool for data-parallel phases (e.g. the hierarchy's
// EagerBuild, which evaluates all lattice nodes of one level concurrently).
//
// Tasks are plain std::function<void()> drained FIFO by `num_threads` worker
// threads. The pool is intentionally minimal: no futures, no task stealing —
// callers that need a barrier use Wait() or the blocking ParallelFor().
//
// Failure model: a task that throws no longer takes the process down via
// std::terminate. The first exception (per barrier) is captured into a
// kInternal Status and surfaced at the next Wait() / by the ParallelFor()
// return value; subsequent tasks still run (ParallelFor stops claiming new
// indices once one has failed).
class ThreadPool {
 public:
  // Spawns max(1, num_threads) workers.
  explicit ThreadPool(int num_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Joins the workers after draining already-submitted tasks.
  ~ThreadPool();

  int num_threads() const { return static_cast<int>(workers_.size()); }

  // Drains already-submitted tasks and joins the workers. Idempotent; the
  // destructor calls it. Further Submit()/ParallelFor() calls fail with a
  // Status instead of aborting.
  void Shutdown();

  // Enqueues one task. Fails with kInternal after Shutdown().
  Status Submit(std::function<void()> task);

  // Blocks until every submitted task has finished, then reports (and
  // clears) the first failure captured from a throwing task since the last
  // Wait(). OK when every task returned normally.
  Status Wait();

  // Runs fn(i) for every i in [0, count) across the pool and blocks until
  // all calls have returned. Work is claimed one index at a time off a
  // shared counter, so uneven per-index costs balance automatically. If an
  // fn(i) throws, no further indices are claimed and the first exception
  // comes back as kInternal; indices already claimed still complete. The
  // sweep enqueues atomically with respect to Shutdown(): it either fails
  // cleanly with no index run, or every index completes.
  Status ParallelFor(int64_t count, const std::function<void(int64_t)>& fn);

  // CPUs actually usable by this process: hardware_concurrency(), further
  // restricted by the scheduling affinity mask and (on Linux) the cgroup v2
  // cpu quota, with a floor of 1. Containers routinely pin far fewer CPUs
  // than the host exposes; sizing pools by the raw core count there just
  // buys contention.
  static int DefaultThreads();

 private:
  void WorkerLoop();
  void RecordFailure(Status status);  // keeps the first failure only
  // Enqueues every task or none (all-or-nothing against Shutdown); the
  // atomic dispatch behind ParallelFor's shutdown guarantee.
  Status SubmitAll(std::vector<std::function<void()>> tasks);

  // Queued task plus its enqueue timestamp, so the dequeueing worker can
  // charge the queue-wait histogram.
  struct QueuedTask {
    std::function<void()> fn;
    int64_t enqueue_ns;
  };

  std::vector<std::thread> workers_;
  std::deque<QueuedTask> queue_;
  std::mutex mu_;
  std::condition_variable work_cv_;  // signals workers: task queued / stop
  std::condition_variable idle_cv_;  // signals Wait(): pending_ hit zero
  int64_t pending_ = 0;              // queued + currently running tasks
  bool stop_ = false;
  Status first_failure_;  // first throwing Submit() task since last Wait()
};

// Worker count denoted by a `threads` knob as used across the library:
// values <= 0 mean "every usable CPU" (ThreadPool::DefaultThreads());
// positive values are taken literally, so 1 = serial.
inline int ResolveThreadCount(int threads) {
  return threads <= 0 ? ThreadPool::DefaultThreads() : threads;
}

// Per-unit partial-result slots of (at least) `doubles` doubles each, for
// the ordered-combine reductions. Every slot starts on its own 64-byte
// cache line and the stride is a whole number of lines, so workers filling
// neighboring slots never write the same line. The contents start
// uninitialized; each unit clears its slot before accumulating.
class CacheLineSlots {
 public:
  static constexpr size_t kLineBytes = 64;
  static constexpr size_t kLineDoubles = kLineBytes / sizeof(double);

  CacheLineSlots(size_t slots, size_t doubles)
      : stride_((doubles + kLineDoubles - 1) / kLineDoubles * kLineDoubles),
        data_(static_cast<double*>(
            ::operator new(slots * stride_ * sizeof(double),
                           std::align_val_t{kLineBytes}))) {}

  double* slot(size_t index) const { return data_.get() + index * stride_; }

 private:
  struct Free {
    void operator()(double* p) const {
      ::operator delete(p, std::align_val_t{kLineBytes});
    }
  };

  size_t stride_;
  std::unique_ptr<double, Free> data_;
};

}  // namespace remedy

#endif  // REMEDY_COMMON_THREAD_POOL_H_
