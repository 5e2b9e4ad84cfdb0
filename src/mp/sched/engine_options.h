// EngineOptions: the engine configuration every verification mode shares.
// The per-property modes take it inside sched::SchedulerOptions, and the
// two named modes take it directly (mp::JaOptions and mp::JointOptions
// are aliases of it). What is not a knob: the IC3 SAT-context layout (one
// template-replayed frame solver plus a lift companion, ic3/frames.h),
// and the retry ladder's length (a constant in property_task.cpp).
#ifndef JAVER_MP_SCHED_ENGINE_OPTIONS_H
#define JAVER_MP_SCHED_ENGINE_OPTIONS_H

#include <cstddef>
#include <string>
#include <vector>

#include "mp/simfilter/options.h"

namespace javer::obs {
class Tracer;
class MetricsRegistry;
class ProgressBoard;
class PhaseProfiler;
}  // namespace javer::obs

namespace javer::mp::sched {

struct EngineOptions {
  // Accumulate/seed strengthening clauses through a ClauseDb (§6-B/§7-B).
  bool clause_reuse = true;
  // Warm-start persistence (src/persist): directory for the on-disk cache
  // of CNF templates and shard ClauseDb snapshots, keyed by design
  // fingerprint. Empty = no persistence. A re-run of an unchanged design
  // skips the encode+simplify pass and seeds shards from the previous
  // run's proven invariants; everything loaded is re-validated, so a
  // stale or corrupted cache degrades to a cold run, never a wrong
  // verdict.
  std::string cache_dir;
  // §7-A: lifting respects the assumed-property constraints from the
  // start (no spurious local CEXs) instead of the detect-and-retry loop.
  bool lifting_respects_constraints = false;
  // Simplify each IC3 transition-relation template once when it is built
  // (sat/simp/). BMC unrollings are never simplified.
  bool simplify = false;
  double time_limit_per_property = 0.0;  // seconds; 0 = unlimited
  double total_time_limit = 0.0;         // seconds; 0 = unlimited
  // Verification order (property indices); empty = design order, the
  // paper's default ("properties are verified in the order they are
  // given").
  std::vector<std::size_t> order;
  // Bit-parallel simulation prefilter (mp/simfilter): runs before any SAT
  // work in the task-based schedulers, falsifying shallow properties with
  // certified replayed counterexamples, harvesting behavior signatures
  // for clustering, and (Full mode) seeding BmcSweep with near-miss
  // prefix states. Off by default; javer_cli --sim-prefilter.
  simfilter::SimFilterOptions sim_filter;
  // Observability (src/obs), both non-owning and optional. `tracer`
  // collects per-slice timeline spans and instant events (Chrome-trace /
  // JSONL export); `metrics` absorbs the run's counters (Ic3Stats, SAT
  // backend, LemmaBus, persist, worker pool) behind one snapshot API and
  // receives a heartbeat snapshot per scheduler round. Null = off: every
  // instrumentation site reduces to one pointer test. Must outlive the
  // run.
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  // Run-health monitor (obs/monitor.h): when set, every PropertyTask and
  // BmcSweep registers a progress cell and publishes state / frames /
  // depth / activity lock-free; a ProgressMonitor sampling the board
  // renders live reports and runs the stall watchdog, which only
  // observes.
  obs::ProgressBoard* progress = nullptr;
  // Phase profiler (obs/profile.h): per-(phase, shard, property) latency
  // histograms for SAT queries and engine phases; --profile-out.
  obs::PhaseProfiler* profiler = nullptr;
  // Deterministic fault injection (src/fault): a --fault-inject spec the
  // task-based schedulers parse into the run's FaultPlan and install for
  // the run's duration. Empty = no injection (the default; every
  // instrumented site then costs one relaxed atomic load). A task whose
  // slice throws is retried on the degrade ladder (property_task.h).
  std::string fault_plan;
};

}  // namespace javer::mp::sched

#endif  // JAVER_MP_SCHED_ENGINE_OPTIONS_H
