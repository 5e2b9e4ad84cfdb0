// Run-health monitor tests (src/obs/monitor): the progress cell / board
// plumbing, the stall watchdog's one-instant-per-episode latch, the
// rendered report lines, and the end-to-end acceptance criteria — a
// scheduler run's final board totals match the report verdict counts, and
// an artificially stalled task (the fault plan's task.stall site)
// triggers exactly one watchdog/stall instant while its run and verdicts
// stay untouched.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "gen/synthetic.h"
#include "mp/sched/scheduler.h"
#include "obs/metrics.h"
#include "obs/monitor.h"
#include "obs/trace.h"
#include "ts/transition_system.h"

namespace javer {
namespace {

void sleep_seconds(double s) {
  std::this_thread::sleep_for(std::chrono::duration<double>(s));
}

// --- TaskProgress / ProgressBoard ------------------------------------------

TEST(ProgressBoard, CellsPublishAndReadBackThroughStablePointers) {
  obs::ProgressBoard board;
  obs::TaskProgress* a = board.register_task(/*property=*/4, /*shard=*/1);
  obs::TaskProgress* sweep = board.register_task(/*property=*/-1);
  ASSERT_EQ(board.entries().size(), 2u);
  EXPECT_EQ(board.entries()[0], a);  // registration order, stable pointers

  EXPECT_EQ(a->property(), 4);
  EXPECT_EQ(a->shard(), 1);
  EXPECT_EQ(a->state(), obs::ProgressState::kPending);
  a->set_state(obs::ProgressState::kRunning);
  a->set_frames(6);
  a->set_obligations(42);
  a->set_slices(3);
  EXPECT_EQ(a->state(), obs::ProgressState::kRunning);
  EXPECT_EQ(a->frames(), 6);
  EXPECT_EQ(a->obligations(), 42u);
  EXPECT_EQ(a->slices(), 3u);

  EXPECT_EQ(sweep->property(), -1);
  EXPECT_EQ(sweep->shard(), -1);
  sweep->set_depth(9);
  EXPECT_EQ(sweep->depth(), 9);

  // publish_engine is the budget-poll fast path: frames + obligations +
  // a fresh activity stamp.
  std::int64_t before = a->last_activity_us();
  sleep_seconds(0.002);
  a->publish_engine(7, 50);
  EXPECT_EQ(a->frames(), 7);
  EXPECT_EQ(a->obligations(), 50u);
  EXPECT_GT(a->last_activity_us(), before);
  EXPECT_LE(a->last_activity_us(), board.now_us());
}

// --- the stall watchdog ----------------------------------------------------

TEST(ProgressMonitor, WatchdogEmitsOneInstantPerStallEpisode) {
  obs::ProgressBoard board;
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  obs::MonitorOptions mo;
  mo.stall_seconds = 0.05;
  mo.out = nullptr;  // watchdog only, no rendering
  obs::ProgressMonitor monitor(&board, mo, &tracer, &metrics);

  obs::TaskProgress* cell = board.register_task(/*property=*/3, /*shard=*/1);
  cell->set_state(obs::ProgressState::kRunning);

  // Age past the threshold: the first poll opens a stall episode; the
  // latch keeps further polls of the same episode silent.
  sleep_seconds(0.15);
  monitor.poll();
  monitor.poll();
  monitor.poll();
  EXPECT_EQ(monitor.stall_events(), 1u);
  EXPECT_EQ(metrics.counter("obs.stalls"), 1u);

  // Activity resumes: the latch resets without a new event...
  cell->touch();
  monitor.poll();
  EXPECT_EQ(monitor.stall_events(), 1u);

  // ...and the next quiet spell is a fresh episode.
  sleep_seconds(0.15);
  monitor.poll();
  EXPECT_EQ(monitor.stall_events(), 2u);

  // Terminal cells never stall, however old their last activity.
  cell->set_state(obs::ProgressState::kHolds);
  sleep_seconds(0.15);
  monitor.poll();
  EXPECT_EQ(monitor.stall_events(), 2u);

  // Each episode produced exactly one tagged watchdog/stall instant.
  std::size_t stall_instants = 0;
  for (const obs::TraceEvent& ev : tracer.events()) {
    if (std::string_view(ev.category) == "watchdog" &&
        std::string_view(ev.name) == "stall") {
      stall_instants++;
      EXPECT_EQ(ev.phase, 'i');
      EXPECT_EQ(ev.shard, 1);
      EXPECT_EQ(ev.property, 3);
      EXPECT_NE(ev.args.find("\"age_ms\":"), std::string::npos);
    }
  }
  EXPECT_EQ(stall_instants, 2u);
}

// --- rendered reports ------------------------------------------------------

TEST(ProgressMonitor, ReportsRenderCellTotalsAndFoldFinalUnknowns) {
  obs::ProgressBoard board;
  obs::MonitorOptions mo;
  std::ostringstream out;
  mo.out = &out;
  mo.verbose = true;
  obs::ProgressMonitor monitor(&board, mo);

  obs::TaskProgress* h1 = board.register_task(0, 0);
  obs::TaskProgress* h2 = board.register_task(1, 0);
  obs::TaskProgress* f = board.register_task(2, 0);
  obs::TaskProgress* running = board.register_task(3, 0);
  board.register_task(5, 0);  // stays pending
  obs::TaskProgress* sweep = board.register_task(-1, 0);
  h1->set_state(obs::ProgressState::kHolds);
  h1->set_obligations(4);
  h2->set_state(obs::ProgressState::kHolds);
  f->set_state(obs::ProgressState::kFails);
  running->set_state(obs::ProgressState::kRunning);
  running->set_frames(5);
  running->set_obligations(5);
  running->set_slices(2);
  sweep->set_state(obs::ProgressState::kRunning);
  sweep->set_depth(7);

  monitor.poll();
  std::string periodic = out.str();
  EXPECT_NE(periodic.find("props=5 closed=3/5 (holds=2 fails=1 unknown=0) "
                          "running=1 frames<=5 depth<=7 obls=9 stalls=0"),
            std::string::npos)
      << periodic;
  // Verbose mode lists the open cells: the running task and the sweep
  // (terminal cells are not repeated every tick).
  EXPECT_NE(periodic.find("P3 running frames=5"), std::string::npos);
  EXPECT_NE(periodic.find("sweep running depth=7"), std::string::npos);
  EXPECT_EQ(periodic.find("P0 "), std::string::npos);

  // stop() renders the final summary once (idempotently), folding the
  // still-open cells into `unknown` so the totals match what a report
  // would say about an interrupted run.
  out.str("");
  monitor.stop();
  monitor.stop();
  std::string final_line = out.str();
  EXPECT_NE(final_line.find("progress: final "), std::string::npos);
  EXPECT_NE(final_line.find(
                "props=5 holds=2 fails=1 unknown=2 stalls=0"),
            std::string::npos)
      << final_line;
  EXPECT_EQ(final_line.find("final", final_line.find("final") + 1),
            std::string::npos)
      << "final summary rendered twice: " << final_line;
}

TEST(ProgressMonitor, InfiniteIntervalRendersOnlyTheFinalLine) {
  // An interval past the clock's range must wait, not busy-poll.
  obs::ProgressBoard board;
  board.register_task(0, 0);
  obs::MonitorOptions mo;
  std::ostringstream out;
  mo.out = &out;
  mo.interval_seconds = std::numeric_limits<double>::infinity();
  obs::ProgressMonitor monitor(&board, mo);
  monitor.start();
  sleep_seconds(0.05);
  monitor.stop();
  const std::string text = out.str();
  std::size_t lines = 0;
  for (std::size_t at = text.find("progress: "); at != std::string::npos;
       at = text.find("progress: ", at + 1)) {
    ++lines;
  }
  EXPECT_EQ(lines, 1u) << text.substr(0, 200);
  EXPECT_EQ(text.rfind("progress: final ", 0), 0u);
}

// --- end-to-end: schedulers under the monitor ------------------------------

gen::SyntheticSpec small_multi_cone() {
  gen::SyntheticSpec spec;
  spec.seed = 181;
  spec.wrap_counter_bits = 8;
  spec.rings = 2;
  spec.ring_size = 4;
  spec.ring_props = 4;
  spec.pair_props = 2;
  spec.unreachable_props = 2;
  spec.det_fail_props = 1;
  spec.input_fail_props = 1;
  return spec;
}

// A tiny all-true design for the stall test: the injected stall
// dominates the runtime, everything else proves in one frame.
gen::SyntheticSpec tiny_ring() {
  gen::SyntheticSpec spec;
  spec.seed = 7;
  spec.rings = 1;
  spec.ring_size = 4;
  spec.ring_props = 4;
  spec.pair_props = 2;
  spec.unreachable_props = 0;
  return spec;
}

TEST(MonitorEndToEnd, FinalBoardTotalsMatchTheReportVerdicts) {
  aig::Aig aig = gen::make_synthetic(small_multi_cone());
  ts::TransitionSystem ts(aig);

  obs::ProgressBoard board;
  mp::sched::SchedulerOptions so;
  so.proof_mode = mp::sched::ProofMode::Local;
  so.dispatch = mp::sched::DispatchPolicy::HybridBmcIc3;
  so.ic3_slice_seconds = 0.05;
  so.bmc_depth_per_sweep = 4;
  so.bmc_max_depth = 32;
  so.engine.progress = &board;
  mp::MultiResult r = mp::sched::Scheduler(ts, so).run();

  std::size_t holds = 0, fails = 0, unknown = 0;
  for (const mp::PropertyResult& pr : r.per_property) {
    switch (pr.verdict) {
      case mp::PropertyVerdict::HoldsGlobally:
      case mp::PropertyVerdict::HoldsLocally:
        holds++;
        break;
      case mp::PropertyVerdict::FailsLocally:
      case mp::PropertyVerdict::FailsGlobally:
        fails++;
        break;
      case mp::PropertyVerdict::Unknown:
        unknown++;
        break;
    }
  }

  // Every property registered a cell, every cell ended terminal, and the
  // board's totals are exactly the report's verdict counts.
  std::size_t cell_holds = 0, cell_fails = 0, cell_unknown = 0,
              property_cells = 0, sweep_cells = 0;
  for (obs::TaskProgress* cell : board.entries()) {
    if (cell->property() < 0) {
      sweep_cells++;
      continue;
    }
    property_cells++;
    switch (cell->state()) {
      case obs::ProgressState::kHolds:
        cell_holds++;
        break;
      case obs::ProgressState::kFails:
        cell_fails++;
        break;
      case obs::ProgressState::kUnknown:
        cell_unknown++;
        break;
      default:
        ADD_FAILURE() << "non-terminal cell for property "
                      << cell->property();
    }
  }
  EXPECT_EQ(property_cells, ts.num_properties());
  EXPECT_EQ(property_cells, r.per_property.size());
  EXPECT_GE(sweep_cells, 1u);  // the hybrid dispatch ran a BMC sweep
  EXPECT_EQ(cell_holds, holds);
  EXPECT_EQ(cell_fails, fails);
  EXPECT_EQ(cell_unknown, unknown);

  // The final rendered summary agrees with the same numbers.
  std::ostringstream out;
  obs::MonitorOptions mo;
  mo.out = &out;
  obs::ProgressMonitor monitor(&board, mo);
  monitor.stop();
  std::string expect = "props=" + std::to_string(r.per_property.size()) +
                       " holds=" + std::to_string(holds) +
                       " fails=" + std::to_string(fails) +
                       " unknown=" + std::to_string(unknown);
  EXPECT_NE(out.str().find(expect), std::string::npos) << out.str();
}

// A sweep with no depth budget starts exhausted; the rounds still call it
// (for its near-miss seeds), and its cell must end terminal so the
// watchdog never reports it as a stalled running unit.
TEST(MonitorEndToEnd, SweepThatStartsExhaustedEndsTerminal) {
  aig::Aig aig = gen::make_synthetic(small_multi_cone());
  ts::TransitionSystem ts(aig);

  obs::ProgressBoard board;
  mp::sched::SchedulerOptions so;
  so.proof_mode = mp::sched::ProofMode::Local;
  so.dispatch = mp::sched::DispatchPolicy::HybridBmcIc3;
  so.bmc_max_depth = 0;
  so.engine.progress = &board;
  mp::sched::Scheduler(ts, so).run();

  std::size_t sweep_cells = 0;
  for (obs::TaskProgress* cell : board.entries()) {
    if (cell->property() >= 0) continue;
    sweep_cells++;
    EXPECT_EQ(cell->state(), obs::ProgressState::kUnknown);
  }
  EXPECT_GE(sweep_cells, 1u);
}

TEST(MonitorEndToEnd, InjectedStallTriggersExactlyOneWatchdogInstant) {
  aig::Aig aig = gen::make_synthetic(tiny_ring());
  ts::TransitionSystem ts(aig);

  obs::ProgressBoard board;
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  obs::MonitorOptions mo;
  mo.stall_seconds = 0.15;
  mo.out = nullptr;
  obs::ProgressMonitor monitor(&board, mo, &tracer, &metrics);

  mp::sched::SchedulerOptions so;
  so.proof_mode = mp::sched::ProofMode::Local;
  so.dispatch = mp::sched::DispatchPolicy::RunToCompletion;
  so.engine.progress = &board;
  so.engine.fault_plan = "task.stall:prop=0,stall=0.75";
  mp::sched::Scheduler sched(ts, so);

  // The scheduler runs in a worker; the test thread *is* the monitor,
  // polling on a fast cadence so the watchdog fires deterministically
  // inside the injected 0.75s quiet window.
  std::atomic<bool> done{false};
  mp::MultiResult r;
  std::thread runner([&] {
    r = sched.run();
    done.store(true);
  });
  while (!done.load()) {
    monitor.poll();
    sleep_seconds(0.01);
  }
  runner.join();
  monitor.poll();  // every cell is terminal now; must not add stalls

  EXPECT_EQ(monitor.stall_events(), 1u);
  EXPECT_EQ(metrics.counter("obs.stalls"), 1u);
  std::size_t stall_instants = 0;
  for (const obs::TraceEvent& ev : tracer.events()) {
    if (std::string_view(ev.category) == "watchdog" &&
        std::string_view(ev.name) == "stall") {
      stall_instants++;
      EXPECT_EQ(ev.property, 0);
    }
  }
  EXPECT_EQ(stall_instants, 1u);

  // The watchdog only observes: the run itself is untouched and every
  // property still proves.
  for (const mp::PropertyResult& pr : r.per_property) {
    EXPECT_EQ(pr.verdict, mp::PropertyVerdict::HoldsLocally);
  }
}

}  // namespace
}  // namespace javer
