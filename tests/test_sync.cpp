// Synchronization-layer tests (src/base/sync.h) plus TSan regression
// tests for the concrete races the thread-safety annotation pass
// surfaced and fixed:
//
//  * WorkerPool publishes each run's job descriptor under its mutex; the
//    back-to-back-runs test pins that no worker ever drains a stale one.
//
//  * ProgressMonitor::start/stop used to assign thread_ outside any
//    lock, and two concurrent stop() calls could double-join the
//    sampling thread and race on final_rendered_ (rendering the final
//    summary twice). Both are serialized by control_mu_ now; the
//    concurrent-stop tests pin join-once and render-once.
//
// The plain Mutex/MutexLock/CondVar tests exist so the annotated
// wrappers keep behaving exactly like the std primitives they wrap.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "base/sync.h"
#include "mp/sched/worker_pool.h"
#include "obs/monitor.h"

namespace {

using javer::mp::sched::WorkerPool;
using javer::obs::MonitorOptions;
using javer::obs::ProgressBoard;
using javer::obs::ProgressMonitor;
using javer::obs::ProgressState;
using javer::obs::TaskProgress;

TEST(Sync, MutexLockExcludes) {
  javer::base::Mutex mu;
  int counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) {
        javer::base::MutexLock lock(mu);
        counter++;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter, 4000);
}

TEST(Sync, TryLockReportsContention) {
  javer::base::Mutex mu;
  ASSERT_TRUE(mu.try_lock());
  std::thread other([&] { EXPECT_FALSE(mu.try_lock()); });
  other.join();
  mu.unlock();
}

TEST(Sync, CondVarHandshake) {
  javer::base::Mutex mu;
  javer::base::CondVar cv;
  bool ready = false;
  std::thread waiter([&] {
    javer::base::MutexLock lock(mu);
    while (!ready) cv.wait(mu);
  });
  {
    javer::base::MutexLock lock(mu);
    ready = true;
  }
  cv.notify_one();
  waiter.join();
}

TEST(Sync, CondVarWaitForTimesOut) {
  javer::base::Mutex mu;
  javer::base::CondVar cv;
  javer::base::MutexLock lock(mu);
  // Nobody notifies: wait_for must come back on its own, lock held.
  cv.wait_for(mu, std::chrono::milliseconds(1));
}

// Regression (TSan): the job descriptor is copied out under the mutex;
// back-to-back runs with different item counts and bodies must never
// let a worker observe a stale descriptor.
TEST(Sync, WorkerPoolBackToBackRunsPublishJob) {
  WorkerPool pool(4);
  for (int round = 1; round <= 50; ++round) {
    std::atomic<int> executed{0};
    pool.run(static_cast<std::size_t>(round), [&](std::size_t) {
      executed.fetch_add(1, std::memory_order_relaxed);
    });
    ASSERT_EQ(executed.load(), round);
  }
}

// Regression (TSan): two threads calling stop() concurrently used to
// double-join the sampling thread and race on final_rendered_.
TEST(Sync, MonitorConcurrentStopJoinsOnceRendersOnce) {
  for (int round = 0; round < 20; ++round) {
    ProgressBoard board;
    TaskProgress* cell = board.register_task(/*property=*/0, /*shard=*/0);
    cell->set_state(ProgressState::kHolds);
    MonitorOptions opts;
    opts.interval_seconds = 0.001;
    std::ostringstream out;
    opts.out = &out;
    ProgressMonitor monitor(&board, opts);
    monitor.start();
    std::vector<std::thread> stoppers;
    for (int t = 0; t < 4; ++t) {
      stoppers.emplace_back([&] { monitor.stop(); });
    }
    for (std::thread& t : stoppers) t.join();
    std::string text = out.str();
    std::size_t finals = 0;
    for (std::size_t pos = text.find("progress: final");
         pos != std::string::npos;
         pos = text.find("progress: final", pos + 1)) {
      finals++;
    }
    EXPECT_EQ(finals, 1u) << text;
  }
}

// Regression (TSan): start() used to assign thread_ with no lock, racing
// a concurrent stop()'s joinable() check.
TEST(Sync, MonitorConcurrentStartStop) {
  for (int round = 0; round < 20; ++round) {
    ProgressBoard board;
    MonitorOptions opts;
    opts.interval_seconds = 0.001;
    ProgressMonitor monitor(&board, opts);
    std::thread starter([&] { monitor.start(); });
    std::thread stopper([&] { monitor.stop(); });
    starter.join();
    stopper.join();
    // Whatever the interleaving resolved to, a final stop() must leave
    // the monitor idle and destructible.
    monitor.stop();
  }
}

TEST(Sync, MonitorRestartAfterStop) {
  ProgressBoard board;
  MonitorOptions opts;
  opts.interval_seconds = 0.001;
  ProgressMonitor monitor(&board, opts);
  monitor.start();
  monitor.start();  // second start is a no-op, not a second thread
  monitor.stop();
  monitor.start();
  monitor.stop();
}

}  // namespace
