// Parallel JA-verification (paper Section 11). JA-verification decomposes
// into independent per-property jobs; this demo verifies a one-hot ring
// design (the Table X structure) sequentially and with a worker pool, and
// reports the speed-up.
//
//   $ ./example_parallel_demo [ring_size] [threads]
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "base/timer.h"
#include "gen/synthetic.h"
#include "mp/report.h"
#include "mp/sched/scheduler.h"

int main(int argc, char** argv) {
  using namespace javer;
  std::size_t ring = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 64;
  unsigned threads =
      argc > 2 ? static_cast<unsigned>(std::strtoul(argv[2], nullptr, 10))
               : std::max(1u, std::thread::hardware_concurrency());

  aig::Aig design = gen::make_ring(ring);
  ts::TransitionSystem ts(design);
  std::printf("one-hot ring: %zu latches, %zu adjacency properties\n",
              design.num_latches(), design.num_properties());

  double sequential_seconds = 0.0;
  {
    Timer t;
    mp::sched::SchedulerOptions opts;  // JA-verification, one thread
    mp::MultiResult result = mp::sched::Scheduler(ts, opts).run();
    sequential_seconds = t.seconds();
    std::printf("1 thread : %s  (%zu proved, %zu unsolved)\n",
                mp::format_duration(sequential_seconds).c_str(),
                result.num_proved(), result.num_unsolved());
  }
  {
    Timer t;
    mp::sched::SchedulerOptions opts;
    opts.num_threads = threads;
    mp::MultiResult result = mp::sched::Scheduler(ts, opts).run();
    double parallel_seconds = t.seconds();
    std::printf("%u threads: %s  (%zu proved, %zu unsolved)\n", threads,
                mp::format_duration(parallel_seconds).c_str(),
                result.num_proved(), result.num_unsolved());
    if (parallel_seconds > 0) {
      std::printf("speed-up: %.2fx\n", sequential_seconds / parallel_seconds);
    }
    // Every local proof is one-frame: with one processor per property,
    // "verification would be finished in a matter of seconds" (§11).
    int max_frames = 0;
    for (const auto& pr : result.per_property) {
      max_frames = std::max(max_frames, pr.frames);
    }
    std::printf("max time frames across local proofs: %d\n", max_frames);
  }
  return 0;
}
