// Run-health monitor (src/obs): live progress for in-flight runs. The
// PR-6 layer exports post-mortem timelines; the ROADMAP daemon needs to
// know *during* a run which tasks are moving and which are stuck.
//
// Three pieces:
//
//  * TaskProgress — one cache-line-ish cell of relaxed atomics per
//    scheduled unit (a PropertyTask, or a shard's BMC sweep). The
//    publishing side (task/engine threads) does plain atomic stores —
//    no locks, no allocation — at slice boundaries and from the IC3
//    budget poll, so publishing costs nanoseconds on the hot path.
//
//  * ProgressBoard — owns the cells (deque: stable addresses) and the
//    steady-clock epoch activity timestamps are measured against.
//    register_task() is mutex-guarded and happens once per task.
//
//  * ProgressMonitor — a background thread sampling the board (plus the
//    MetricsRegistry, when present) every interval, rendering one-line
//    or verbose progress reports, and running the stall watchdog: a
//    Running cell whose last-activity age exceeds the threshold emits
//    one `watchdog/stall` trace instant + `obs.stalls` metric per stall
//    episode. The watchdog only observes: it never suspends or
//    reschedules a task.
//
// The monitor thread only ever reads the cells (it owns the one
// non-atomic per-cell field, the stall-episode latch). poll() is public
// so tests drive the watchdog deterministically without the thread.
#ifndef JAVER_OBS_MONITOR_H
#define JAVER_OBS_MONITOR_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <thread>
#include <vector>

#include "base/sync.h"

namespace javer::obs {

class Tracer;
class MetricsRegistry;
class ProgressBoard;

enum class ProgressState : std::uint8_t {
  kPending = 0,
  kRunning = 1,
  kHolds = 2,
  kFails = 3,
  kUnknown = 4,
};

// Per-task progress cell. Writers use the set_*/touch API (relaxed
// stores); the monitor reads the same fields. `property` is -1 for
// non-property units (a shard's BMC sweep).
class TaskProgress {
 public:
  TaskProgress(ProgressBoard* board, long long property, int shard);
  TaskProgress(const TaskProgress&) = delete;
  TaskProgress& operator=(const TaskProgress&) = delete;

  long long property() const { return property_; }

  // --- publisher side (task / engine threads) ---
  void set_shard(int shard) {
    shard_.store(shard, std::memory_order_relaxed);
  }
  void set_state(ProgressState s);  // also touches
  void set_frames(int frames) {
    frames_.store(frames, std::memory_order_relaxed);
  }
  void set_depth(int depth) {
    depth_.store(depth, std::memory_order_relaxed);
  }
  void set_obligations(std::uint64_t n) {
    obligations_.store(n, std::memory_order_relaxed);
  }
  void set_slices(std::uint64_t n) {
    slices_.store(n, std::memory_order_relaxed);
  }
  // Stamps last-activity to now; the watchdog measures age from here.
  void touch();
  // One call for the IC3 budget-poll hot path: frames + obligations +
  // activity stamp.
  void publish_engine(int frames, std::uint64_t obligations) {
    frames_.store(frames, std::memory_order_relaxed);
    obligations_.store(obligations, std::memory_order_relaxed);
    touch();
  }

  // --- monitor side ---
  int shard() const { return shard_.load(std::memory_order_relaxed); }
  ProgressState state() const {
    return static_cast<ProgressState>(
        state_.load(std::memory_order_relaxed));
  }
  int frames() const { return frames_.load(std::memory_order_relaxed); }
  int depth() const { return depth_.load(std::memory_order_relaxed); }
  std::uint64_t obligations() const {
    return obligations_.load(std::memory_order_relaxed);
  }
  std::uint64_t slices() const {
    return slices_.load(std::memory_order_relaxed);
  }
  std::int64_t last_activity_us() const {
    return last_activity_us_.load(std::memory_order_relaxed);
  }

 private:
  friend class ProgressMonitor;

  ProgressBoard* board_;
  long long property_;
  std::atomic<int> shard_;
  std::atomic<std::uint8_t> state_{
      static_cast<std::uint8_t>(ProgressState::kPending)};
  std::atomic<int> frames_{0};
  std::atomic<int> depth_{0};
  std::atomic<std::uint64_t> obligations_{0};
  std::atomic<std::uint64_t> slices_{0};
  std::atomic<std::int64_t> last_activity_us_{0};
  bool stalled_ = false;  // watchdog episode latch; monitor thread only
};

class ProgressBoard {
 public:
  ProgressBoard();
  ProgressBoard(const ProgressBoard&) = delete;
  ProgressBoard& operator=(const ProgressBoard&) = delete;

  // Microseconds since board construction (the activity timebase).
  std::int64_t now_us() const;

  // Registers a cell; the pointer stays valid for the board's lifetime.
  TaskProgress* register_task(long long property, int shard = -1);

  // Stable-pointer snapshot of all cells (cells registered after the
  // call are picked up by the next one).
  std::vector<TaskProgress*> entries() const;

 private:
  const std::chrono::steady_clock::time_point epoch_;
  mutable base::Mutex mu_;
  std::deque<TaskProgress> cells_ GUARDED_BY(mu_);
};

struct MonitorOptions {
  double interval_seconds = 5.0;
  bool verbose = false;
  double stall_seconds = 30.0;
  std::ostream* out = nullptr;  // progress lines; null = no rendering
  std::size_t verbose_max_rows = 12;
};

class ProgressMonitor {
 public:
  ProgressMonitor(ProgressBoard* board, MonitorOptions opts,
                  Tracer* tracer = nullptr,
                  MetricsRegistry* metrics = nullptr);
  ~ProgressMonitor();
  ProgressMonitor(const ProgressMonitor&) = delete;
  ProgressMonitor& operator=(const ProgressMonitor&) = delete;

  // start/stop are safe to call from any thread in any order (a second
  // concurrent stop() waits for the first to finish joining before it
  // returns); each is serialized by control_mu_.
  void start() EXCLUDES(control_mu_, mu_);
  // Joins the thread (if started) and renders the final summary line
  // exactly once across all stop() calls.
  void stop() EXCLUDES(control_mu_, mu_);

  // One sampling pass: watchdog, then (if `out`) one progress report.
  // Public so tests drive it without the background thread.
  void poll();

  std::uint64_t stall_events() const {
    return stalls_.load(std::memory_order_relaxed);
  }

 private:
  struct Totals {
    std::size_t props = 0;
    std::size_t holds = 0;
    std::size_t fails = 0;
    std::size_t unknown = 0;
    std::size_t running = 0;
    int max_frames = 0;
    int max_depth = 0;
    std::uint64_t obligations = 0;
  };
  Totals run_watchdog(const std::vector<TaskProgress*>& cells);
  void render(std::ostream& out, const Totals& t,
              const std::vector<TaskProgress*>& cells, bool final) const;
  void thread_main();

  ProgressBoard* board_;
  MonitorOptions opts_;
  Tracer* tracer_;
  MetricsRegistry* metrics_;

  // Relaxed counter: a monotonic tally read via stall_events(); no
  // ordering with the stall episodes it counts is required.
  std::atomic<std::uint64_t> stalls_{0};

  // Serializes start()/stop() against each other (the annotation pass
  // surfaced the previous scheme: thread_ was assigned outside any lock
  // and two concurrent stop() calls could double-join and render the
  // final line twice). thread_main never takes control_mu_, so stop()
  // may join while holding it.
  base::Mutex control_mu_ ACQUIRED_BEFORE(mu_);
  std::thread thread_ GUARDED_BY(control_mu_);
  bool final_rendered_ GUARDED_BY(control_mu_) = false;

  // Handshake with the sampling thread only.
  base::Mutex mu_;
  base::CondVar cv_;
  bool stop_requested_ GUARDED_BY(mu_) = false;
};

}  // namespace javer::obs

#endif  // JAVER_OBS_MONITOR_H
