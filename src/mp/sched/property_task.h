// PropertyTask: the per-property state machine the scheduler drives.
//
//   Pending ──first slice──> Running ──verdict──> HoldsLocally
//                               │                 HoldsGlobally
//                               │                 FailsLocally
//                               │                 FailsGlobally
//                               └──budget gone──> Unknown
//
// A task owns one resumable ic3::Ic3 engine, created lazily at the first
// slice (so clause-database seeds are as fresh as possible) and kept
// across slices: the scheduler can hand out small budget slices and
// round-robin them over many open properties instead of burning a full
// one-shot timeout on the first hard one. A slice is bounded by the
// budget it is given, nothing else. The §7-A spurious-counterexample
// strict-lifting retry lives here too: a spurious local CEX discards the
// engine and restarts with lifting that respects the constraints.
//
// Verdicts can also be injected from outside the IC3 engine — the hybrid
// policy resolves shallow failures with shared BMC sweeps and calls
// resolve_fails() with the trace.
#ifndef JAVER_MP_SCHED_PROPERTY_TASK_H
#define JAVER_MP_SCHED_PROPERTY_TASK_H

#include <cstdint>
#include <memory>
#include <vector>

#include "ic3/ic3.h"
#include "mp/clause_db.h"
#include "mp/exchange/lemma_bus.h"
#include "mp/report.h"
#include "mp/sched/engine_options.h"
#include "ts/transition_system.h"

namespace javer::obs {
class TaskProgress;
}  // namespace javer::obs

namespace javer::mp::sched {

enum class TaskState : std::uint8_t {
  Pending,   // no engine work done yet
  Running,   // engine suspended between slices
  Holds,     // closed: HoldsLocally / HoldsGlobally per proof mode
  Fails,     // closed: FailsLocally / FailsGlobally per proof mode
  Unknown,   // closed: budget exhausted
};

const char* to_string(TaskState s);

// The local-proof assumption set for target `prop` (Section 5): every ETH
// property except the target — also correct when the target itself is
// expected to fail. The one place this rule lives; every mode's
// assumption plumbing goes through it.
std::vector<std::size_t> local_assumptions(const ts::TransitionSystem& ts,
                                           std::size_t prop);

// --- degrade-and-retry ladder (resilience) --------------------------------
//
// A task whose slice throws (engine exception, std::bad_alloc, injected
// fault) is retried with a fresh engine under a progressively *safer*
// config, up to 4 times; later retries stay on the last rung, and a task
// that fails once more lands at PropertyVerdict::Unknown with its failure
// chain. The rungs are cumulative — each keeps every downgrade below it:
//   0  default        the configured options, untouched
//   1  simplify-off   no SAT preprocessing pass
//   2  isolated       no clause-reuse seeds, lemma exchange detached,
//                     sim-prefilter off: the engine runs from first
//                     principles with nothing shared
// num_ladder_rungs() is the last rung's index. Pure helpers so tests can
// pin the rung order and contents.
int num_ladder_rungs();
const char* rung_name(int rung);
EngineOptions degrade_for_rung(EngineOptions opts, int rung);

class PropertyTask {
 public:
  // `local_mode` selects the verdict labels (Locally/Globally) and enables
  // the spurious-CEX strict-lifting retry; `assumed` is this target's
  // assumption set (empty for global proofs).
  PropertyTask(const ts::TransitionSystem& ts, std::size_t prop,
               std::vector<std::size_t> assumed, const EngineOptions& engine,
               bool local_mode);
  ~PropertyTask();

  std::size_t prop() const { return prop_; }
  TaskState state() const { return state_; }
  bool open() const {
    return state_ == TaskState::Pending || state_ == TaskState::Running;
  }
  const std::vector<std::size_t>& assumed() const { return assumed_; }

  // Subscribes this task to `shard`'s channel on `bus` (the sharded
  // scheduler's lemma exchange): every slice first feeds newly published
  // BMC prefix units into the engine as candidates and afterwards reports
  // how many of them the engine imported. Call before the first slice.
  void attach_exchange(exchange::LemmaBus* bus, std::size_t shard);

  // Points this task's engine at a shared transition-relation template
  // memo (cnf/template.h): sibling tasks whose {target} ∪ assumed sets
  // coincide then encode the one-step cone once per run instead of once
  // each. The cache must outlive the task. Call before the first slice.
  void attach_templates(cnf::TemplateCache* templates);

  // Shard tag stamped onto this task's trace events, profile slots and
  // progress cell (src/obs); -1 (the default) means unsharded. Call
  // before the first slice so the engine's own events inherit it.
  void set_shard_tag(int shard);

  // Runs one engine slice bounded by `budget` (zero fields = unlimited)
  // and by what is left of the per-property time budget. When `db` is
  // non-null and clause re-use is on, the engine is seeded from it and
  // completed proofs publish their strengthenings back.
  //
  // Isolation boundary: any exception escaping the slice (engine failure,
  // bad_alloc, injected fault) is caught here, recorded in the result's
  // failure_chain, and answered with a degrade-and-retry ladder restart —
  // never rethrown, so one bad property cannot take down its siblings. A
  // verdict reached after a retry is re-validated through the witness /
  // certify oracles before it is accepted (an oracle failure counts as
  // another task failure), so faults can never flip a verdict.
  void run_slice(const ic3::Ic3Budget& budget, ClauseDb* db);

  // Closes the task with a failure verdict from an externally found
  // counterexample (a BMC sweep); `frames` is the trace depth.
  void resolve_fails(ts::Trace cex, int frames);
  // Closes the task as Unknown (scheduler ran out of total budget).
  void close_unknown();

  // The per-property row for MultiResult; valid any time, final once the
  // task is closed.
  PropertyResult& result() { return result_; }

 private:
  // The real slice body; run_slice wraps it in the isolation boundary.
  void run_slice_impl(const ic3::Ic3Budget& budget, ClauseDb* db);
  // Handles one caught slice failure: records it, discards the engine,
  // and either climbs the retry ladder or closes the task Unknown.
  void fail_slice(const std::string& reason);
  // Discards the engine and everything tied to it (its slice time, its
  // import counters, the bus cursor), so the next slice starts a fresh
  // engine that also sees every lemma the old one consumed.
  void reset_engine();
  void ensure_engine(ClauseDb* db);
  // Publishes state (and touches activity) on the progress cell, if any.
  void publish_state();
  void close_holds(std::vector<ts::Cube> invariant, ClauseDb* db);
  void finish_fails(ts::Trace cex);
  // Folds the final engine's Ic3Stats into EngineOptions::metrics, once
  // per task lifetime. Every close path funnels through this, which is
  // what makes the registry totals reconcile exactly with the summed
  // per-property engine_stats: a task closes exactly once, and engines
  // discarded by the strict-lifting retry (whose stats never reach
  // result_.engine_stats) are never folded either.
  void fold_final_metrics();

  const ts::TransitionSystem& ts_;
  std::size_t prop_;
  std::vector<std::size_t> assumed_;
  EngineOptions engine_opts_;
  bool local_mode_;
  bool strict_lifting_ = false;  // set after a spurious-CEX retry
  int rung_ = 0;  // current degrade-ladder rung (== min(retries, rungs))

  TaskState state_ = TaskState::Pending;
  std::unique_ptr<ic3::Ic3> engine_;
  // Seeds captured at first engine creation; the strict-lifting retry
  // re-uses the same snapshot (matching the one-shot verifiers).
  std::shared_ptr<const std::vector<ts::Cube>> seeds_;
  double engine_seconds_ = 0.0;  // this engine's accumulated slice time
  // Shared template memo (null = the engine keeps a private one).
  cnf::TemplateCache* templates_ = nullptr;
  // Lemma exchange plumbing (null = not attached).
  exchange::LemmaBus* bus_ = nullptr;
  std::size_t shard_ = 0;
  exchange::LemmaBus::Cursor bus_cursor_;
  // Already-reported slices of the engine's cumulative import counters
  // (reset with the engine on a strict-lifting retry).
  std::uint64_t reported_imported_ = 0;
  std::uint64_t reported_rejected_ = 0;
  std::uint64_t reported_known_ = 0;
  // Observability: shard tag for trace events and the fold-once latch.
  int obs_shard_ = -1;
  bool metrics_folded_ = false;
  // Live-progress cell on EngineOptions::progress (null = monitoring
  // off). Registered at construction; the engine publishes through it
  // from the budget poll, the task at slice boundaries and close.
  obs::TaskProgress* progress_ = nullptr;
  PropertyResult result_;
};

}  // namespace javer::mp::sched

#endif  // JAVER_MP_SCHED_PROPERTY_TASK_H
