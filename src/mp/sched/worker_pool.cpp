#include "mp/sched/worker_pool.h"

#include <algorithm>
#include <string>

#include "obs/metrics.h"

namespace javer::mp::sched {

unsigned resolve_worker_count(unsigned requested, std::size_t num_items) {
  unsigned threads = requested;
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  threads = std::min<unsigned>(threads, std::max<std::size_t>(num_items, 1));
  return std::max(threads, 1u);
}

WorkerPool::WorkerPool(unsigned num_threads) {
  if (num_threads == 0) num_threads = 1;
  workers_.reserve(num_threads - 1);
  for (unsigned t = 1; t < num_threads; ++t) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

WorkerPool::~WorkerPool() {
  {
    base::MutexLock lock(mutex_);
    shutdown_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void WorkerPool::drain(const Job& job, bool caller) {
  const std::uint64_t begin = trace_.begin();
  std::uint64_t executed = 0;
  std::size_t i;
  while ((i = next_.fetch_add(1)) < job.count) {
    executed++;
    try {
      (*job.fn)(i);
    } catch (...) {
      // Record the first error for run() to rethrow, but keep draining:
      // one bad item must not starve the healthy ones still queued.
      base::MutexLock lock(mutex_);
      if (!error_) error_ = std::current_exception();
    }
  }
  if (metrics_ != nullptr) {
    metrics_->add(caller ? "pool.items_caller" : "pool.items_stolen",
                  executed);
    if (!caller && executed == 0) metrics_->add("pool.idle_wakeups");
  }
  if (executed > 0 && trace_.enabled()) {
    std::string args = "\"items\":" + std::to_string(executed) +
                       ",\"caller\":" + (caller ? "true" : "false");
    trace_.complete("pool", "drain", begin, -1, std::move(args));
  }
}

void WorkerPool::worker_loop() {
  std::uint64_t seen = 0;
  while (true) {
    Job job;
    {
      base::MutexLock lock(mutex_);
      while (!shutdown_ && generation_ == seen) start_cv_.wait(mutex_);
      if (shutdown_) return;
      seen = generation_;
      job = job_;
    }
    drain(job, /*caller=*/false);
    {
      base::MutexLock lock(mutex_);
      active_--;
    }
    done_cv_.notify_one();
  }
}

void WorkerPool::run(std::size_t n,
                     const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  Job job{&fn, n};
  {
    base::MutexLock lock(mutex_);
    job_ = job;
    next_.store(0);
    active_ = workers_.size();
    error_ = nullptr;
    generation_++;
  }
  start_cv_.notify_all();
  drain(job, /*caller=*/true);  // the caller is a worker too
  base::MutexLock lock(mutex_);
  while (active_ != 0) done_cv_.wait(mutex_);
  job_ = Job{};
  if (error_) {
    std::exception_ptr e = error_;
    error_ = nullptr;
    std::rethrow_exception(e);
  }
}

}  // namespace javer::mp::sched
