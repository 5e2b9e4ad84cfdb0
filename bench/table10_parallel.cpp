// Table X + Section 11 reproduction: individual properties of a large
// many-property design proved globally vs locally (no clause exchange),
// then the parallel-computing argument as a wall-clock measurement.
// Paper shape: local proofs need 1 time frame and near-zero time while
// global proofs need many frames; with one worker per property the whole
// design verifies "in a matter of seconds".
#include <cstdio>
#include <thread>
#include <vector>

#include "base/timer.h"
#include "bench_util.h"
#include "gen/synthetic.h"
#include "mp/sched/scheduler.h"
#include "ts/transition_system.h"

using namespace javer;

int main() {
  bench::BenchJson json("table10");
  bench::print_title(
      "Table X + Section 11",
      "Verification of single properties of a many-property one-hot-ring "
      "design using global and local proofs (no clause exchange), plus "
      "the parallel JA wall-clock comparison.");

  std::size_t ring = static_cast<std::size_t>(60 * bench::scale());
  aig::Aig design = gen::make_ring(ring);
  ts::TransitionSystem ts(design);
  std::printf("design: one-hot ring, %zu latches, %zu properties\n\n",
              design.num_latches(), design.num_properties());

  // Sample of individual property indices, like the paper's Table X.
  std::vector<std::size_t> samples{0, 1, 2, ring / 4, ring / 3, ring / 2,
                                   2 * ring / 3, ring - 2, ring - 1};

  std::printf("%6s | %14s %9s | %14s %9s\n", "prop", "glob #frames", "time",
              "loc #frames", "time");
  std::printf("-------+------------------------+-----------------------\n");

  // One property alone under `mode` proofs, with no exchange of
  // strengthening clauses.
  auto verify_single = [&](mp::sched::ProofMode mode, std::size_t p) {
    mp::sched::SchedulerOptions so;
    so.proof_mode = mode;
    so.engine.clause_reuse = false;
    so.engine.time_limit_per_property = bench::budget(10.0);
    so.engine.order = {p};
    return mp::sched::Scheduler(ts, so).run().per_property[p];
  };

  int max_global_frames = 0, max_local_frames = 0;
  double max_global_time = 0, max_local_time = 0;
  bool all_local_one_frame = true;

  for (std::size_t p : samples) {
    mp::PropertyResult g = verify_single(mp::sched::ProofMode::Global, p);
    mp::PropertyResult l = verify_single(mp::sched::ProofMode::Local, p);
    std::printf("%6zu | %14d %9s | %14d %9s\n", p, g.frames,
                bench::fmt_time(g.seconds).c_str(), l.frames,
                bench::fmt_time(l.seconds).c_str());
    max_global_frames = std::max(max_global_frames, g.frames);
    max_local_frames = std::max(max_local_frames, l.frames);
    max_global_time = std::max(max_global_time, g.seconds);
    max_local_time = std::max(max_local_time, l.seconds);
    all_local_one_frame &= (l.frames <= 1);
  }
  std::printf("%6s | %14d %9s | %14d %9s\n", "max", max_global_frames,
              bench::fmt_time(max_global_time).c_str(), max_local_frames,
              bench::fmt_time(max_local_time).c_str());

  // Section 11: parallel JA over all properties.
  unsigned threads = std::max(1u, std::thread::hardware_concurrency());
  std::printf("\nparallel JA-verification over all %zu properties:\n",
              ts.num_properties());
  double seq_time = 0;
  for (unsigned n : {1u, threads}) {
    mp::sched::SchedulerOptions opts;
    opts.num_threads = n;
    opts.engine.clause_reuse = false;
    Timer t;
    mp::MultiResult result = mp::sched::Scheduler(ts, opts).run();
    double elapsed = t.seconds();
    if (n == 1) seq_time = elapsed;
    bench::Summary s = bench::summarize(result);
    s.seconds = elapsed;
    bench::record_row("ring", "parallel-ja-" + std::to_string(n) +
                                  "-threads", s);
    std::printf("  %2u thread(s): %s (%zu proved, %zu unsolved)\n", n,
                bench::fmt_time(elapsed).c_str(), result.num_proved(),
                result.num_unsolved());
  }

  bench::record_metric("max_global_seconds", max_global_time);
  bench::record_metric("max_local_seconds", max_local_time);
  bench::print_shape("local proofs use exactly 1 time frame",
                     all_local_one_frame);
  bench::print_shape("global proofs need several time frames",
                     max_global_frames > 1);
  bench::print_shape("local time is a small fraction of global time",
                     max_local_time < 0.5 * std::max(max_global_time, 1e-3));
  (void)seq_time;
  return 0;
}
