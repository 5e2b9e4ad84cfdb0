// BmcSweep: the shared BMC falsification state living across a policy's
// rounds — one incremental unrolling, extended window by window, with the
// "just assume" constraints asserted on every completed bound. Extracted
// from the Scheduler's hybrid policy so the sharded scheduler (mp/shard)
// can run one sweep per cluster shard; it is also the producer of the
// cross-engine lemma exchange (mp/exchange): learned prefix units flow
// out to the shard's IC3 tasks as candidates.
#ifndef JAVER_MP_SCHED_BMC_SWEEP_H
#define JAVER_MP_SCHED_BMC_SWEEP_H

#include <cstdint>
#include <vector>

#include "bmc/bmc.h"
#include "mp/sched/scheduler.h"
#include "mp/simfilter/sim_filter.h"
#include "ts/transition_system.h"

namespace javer::obs {
class TaskProgress;
}  // namespace javer::obs

namespace javer::mp::sched {

class BmcSweep {
 public:
  // `local_mode` selects the "just assume" prefix set: every non-ETF
  // property for local proofs (a failure found at the final bound is then
  // a first failure, i.e. a local CEX), empty for global proofs. Only the
  // hybrid knobs of `opts` are read.
  BmcSweep(const ts::TransitionSystem& ts, const SchedulerOptions& opts,
           bool local_mode);

  // One falsification window over the open tasks (closed ones are
  // skipped); resolves every task that fails inside the window and
  // returns how many it closed. `remaining_seconds` caps the window
  // (0 = unlimited).
  std::size_t sweep(const std::vector<PropertyTask*>& tasks,
                    double remaining_seconds);

  // Quarantines the sweep after a caught failure (fault isolation): the
  // shared unrolling is marked exhausted and pending seeds are dropped,
  // so the IC3 slices carry the remaining work alone.
  void disable() {
    exhausted_ = true;
    seeds_.clear();
  }

  // --- lemma exchange producer (mp/exchange) ---

  // Candidate invariant cubes mined from the solver's root-level facts
  // about the completed prefix, each at most once per sweep. Candidates
  // only: consumers re-validate.
  std::vector<ts::Cube> harvest_unit_candidates();

  // Shard tag for this sweep's trace events and counters (src/obs); -1 =
  // unsharded. The tracer/metrics handles come from the engine options.
  void set_trace_shard(int shard) { trace_shard_ = shard; }

  // --- near-miss prefix seeding (mp/simfilter, Full mode) ---

  // Queues "just assume" prefix seeds for the next sweep() call. Each seed
  // opens a dedicated bounded unrolling (simfilter::kSeedWindow deep) from
  // the seed's final simulated state; a counterexample found there is
  // stitched onto the prefix and re-validated through the witness-checker
  // oracle before it may close the task. Seeds are consumed even when the
  // shared unrolling is exhausted.
  void add_near_miss_seeds(std::vector<simfilter::NearMissSeed> seeds);
  std::uint64_t seed_hits() const { return seed_hits_; }
  std::uint64_t seed_discarded() const { return seed_discarded_; }

 private:
  // Runs the queued seeds against the open tasks in `by_prop` (indexed by
  // property; closed entries nulled). Returns how many tasks it closed.
  std::size_t process_seeds(std::vector<PropertyTask*>& by_prop);
  // Registers the sweep's progress cell (property -1) lazily — at the
  // first sweep(), when the shard tag is final.
  void ensure_progress();

  const ts::TransitionSystem& ts_;
  SchedulerOptions opts_;  // copied: a sweep may outlive a caller's round
  bool local_mode_;
  bmc::Bmc bmc_;
  std::vector<std::size_t> assumed_;
  std::vector<simfilter::NearMissSeed> seeds_;  // pending, next sweep()
  std::uint64_t seed_hits_ = 0;
  std::uint64_t seed_discarded_ = 0;
  int depth_done_ = 0;    // completed bounds of the shared unrolling
  // Consecutive fully clean windows; kEmptySweepsToStop of them stop the
  // sweep: the open set is (probably) all-true and BMC money is better
  // spent on IC3.
  int empty_streak_ = 0;
  static constexpr int kEmptySweepsToStop = 2;
  bool exhausted_ = false;
  int trace_shard_ = -1;
  // Live-progress cell (obs/monitor.h, property -1); null = monitor off.
  obs::TaskProgress* progress_ = nullptr;
};

}  // namespace javer::mp::sched

#endif  // JAVER_MP_SCHED_BMC_SWEEP_H
