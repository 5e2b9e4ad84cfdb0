// Scheduler: the one front end of the per-property verification modes,
// which differ only in these options: JA-verification (mp::JaVerifier;
// separate verification with local proofs is the same run) is the
// default, separate verification with global proofs sets proof_mode
// Global, and parallel JA sets num_threads. A run with engine.order = {p}
// verifies property p alone. (JointVerifier, the paper's Jnt-ver
// baseline, runs its own aggregate loop: it has no per-property tasks.)
//
// There is one task loop, shard::ShardedScheduler, and Scheduler is its
// one-partition entry: both policies hand it every property in
// verification order as a single shard, with lemma exchange off, the
// caller's ClauseDb as the shard's database, and no shard tag on trace,
// profile or progress output.
//
// Policies:
//  * RunToCompletion — each property gets one engine run bounded by its
//    per-property budget, in order. With num_threads > 1 the tasks are
//    dispatched onto the worker pool (the paper's Section 11 parallel
//    mode); with local proofs this is Sep-loc/JA, with global proofs
//    Sep-glob.
//  * HybridBmcIc3 — rounds interleaving a *shared* BMC falsification
//    sweep over every still-open property (one incremental unrolling,
//    "just assume" constraints on the prefix) with round-robin IC3 budget
//    slices. Failing-heavy workloads (the paper's Tables III/V/VIII
//    substrate) die cheaply in the BMC sweeps before IC3 spends anything
//    on them; the surviving properties get proven by the sliced IC3
//    engines, which keep their frames between slices.
#ifndef JAVER_MP_SCHED_SCHEDULER_H
#define JAVER_MP_SCHED_SCHEDULER_H

#include <cstdint>
#include <memory>
#include <vector>

#include "mp/clause_db.h"
#include "mp/report.h"
#include "mp/sched/engine_options.h"
#include "mp/sched/property_task.h"
#include "ts/transition_system.h"

namespace javer::mp::sched {

enum class ProofMode : std::uint8_t {
  Local,   // other ETH properties assumed (T_P projection, §4)
  Global,  // no assumptions
};

enum class DispatchPolicy : std::uint8_t {
  RunToCompletion,
  HybridBmcIc3,
};

struct SchedulerOptions {
  EngineOptions engine;
  ProofMode proof_mode = ProofMode::Local;
  DispatchPolicy dispatch = DispatchPolicy::RunToCompletion;
  unsigned num_threads = 1;  // 0 = hardware concurrency

  // --- HybridBmcIc3 knobs ---
  // IC3 budget slice per open property per round.
  double ic3_slice_seconds = 0.5;
  // Unrolling depth added per BMC sweep and the hard cap on the shared
  // unrolling. A sweep's only wall-clock cap is what is left of the run's
  // total time limit.
  int bmc_depth_per_sweep = 8;
  int bmc_max_depth = 64;
};

class Scheduler {
 public:
  Scheduler(const ts::TransitionSystem& ts, SchedulerOptions opts);

  MultiResult run();
  MultiResult run(ClauseDb& db);

 private:
  std::vector<std::size_t> resolve_order() const;

  const ts::TransitionSystem& ts_;
  SchedulerOptions opts_;
};

}  // namespace javer::mp::sched

#endif  // JAVER_MP_SCHED_SCHEDULER_H
