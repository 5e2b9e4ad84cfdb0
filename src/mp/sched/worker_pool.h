// WorkerPool: the scheduler's generic work-stealing driver. N workers
// (the calling thread included) pull item indices from a shared cursor,
// for any dispatch policy: run-to-completion tasks (the paper's parallel
// JA, Section 11), per-round hybrid IC3 slices, or anything else shaped
// "run fn(i) for i in [0, n)".
//
// Threads are spawned once and parked between run() calls, so per-round
// dispatch (the hybrid policy calls run() every round) costs no respawn.
//
// Concurrency contract (checked by -Wthread-safety, see
// base/thread_annotations.h): the job descriptor and pool control state
// are guarded by mutex_; a parked worker observes the new generation
// under the lock and copies the job descriptor out before draining, so
// the drain loop itself touches only the atomic cursor. next_ needs
// atomicity only (each fetch_add claims a distinct index; the job data
// it indexes is published by the mutex handshake).
#ifndef JAVER_MP_SCHED_WORKER_POOL_H
#define JAVER_MP_SCHED_WORKER_POOL_H

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "base/sync.h"
#include "obs/trace.h"

namespace javer::obs {
class MetricsRegistry;
}  // namespace javer::obs

namespace javer::mp::sched {

// Resolves a requested worker count: 0 means all hardware threads,
// clamped to the number of parallel items and to at least 1. The one
// rule every scheduler sizes its pool by.
unsigned resolve_worker_count(unsigned requested, std::size_t num_items);

class WorkerPool {
 public:
  // `num_threads` >= 1 is the total worker count including the caller;
  // num_threads - 1 threads are spawned.
  explicit WorkerPool(unsigned num_threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  unsigned num_threads() const {
    return static_cast<unsigned>(workers_.size()) + 1;
  }

  // Runs fn(i) for every i in [0, n); blocks until all items completed.
  // The caller participates. If any fn throws, the first exception is
  // rethrown here — but the remaining queued items still run (isolation:
  // one bad item must not starve its siblings).
  void run(std::size_t n, const std::function<void(std::size_t)>& fn)
      EXCLUDES(mutex_);

  // Observability (src/obs): per-drain "pool" spans on `sink`'s tracer
  // and pool.items_caller / pool.items_stolen / pool.idle_wakeups
  // counters on `metrics` (either may be disabled/null). Call between
  // run() calls, not during one: the handles are read by drains without
  // the mutex, under the quiescence run() guarantees on return.
  void set_observability(const obs::TraceSink& sink,
                         obs::MetricsRegistry* metrics) {
    trace_ = sink;
    metrics_ = metrics;
  }

 private:
  // One dispatched run(): what a participant needs to drain it. Copied
  // out of the guarded members under mutex_, then used lock-free.
  struct Job {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t count = 0;
  };

  void worker_loop();
  // One participant's share of job `job`; `caller` distinguishes the
  // calling thread from the spawned (stealing) workers in the counters.
  void drain(const Job& job, bool caller) EXCLUDES(mutex_);

  base::Mutex mutex_;
  base::CondVar start_cv_;
  base::CondVar done_cv_;
  std::vector<std::thread> workers_;

  // Current job, guarded by mutex_ for publication; participants copy it
  // into a local Job under the lock and then race on next_ only.
  Job job_ GUARDED_BY(mutex_);
  // Work cursor: claims item indices. Atomicity is the whole contract —
  // the data a claimed index addresses is published by the mutex_
  // generation handshake, not by this variable's ordering.
  std::atomic<std::size_t> next_{0};
  std::size_t active_ GUARDED_BY(mutex_) = 0;  // workers inside the job
  std::uint64_t generation_ GUARDED_BY(mutex_) = 0;
  bool shutdown_ GUARDED_BY(mutex_) = false;
  std::exception_ptr error_ GUARDED_BY(mutex_);

  // Observability handles (value sink; null tracer/metrics = off). Set
  // between runs only — see set_observability.
  obs::TraceSink trace_;
  obs::MetricsRegistry* metrics_ = nullptr;
};

}  // namespace javer::mp::sched

#endif  // JAVER_MP_SCHED_WORKER_POOL_H
