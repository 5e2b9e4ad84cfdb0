// SimFilter: the bit-parallel simulation prefilter that runs before any
// SAT work (ROADMAP "Bit-parallel simulation prefilter"). One sweep
// simulates N rounds of 64 random patterns each (bit i of every word =
// pattern i) to a configurable depth and extracts three things:
//
//  * kills — properties falsified by some pattern. Every hit is replayed
//    pattern-exactly into a full input trace and validated through the
//    witness checker (ts::is_local_cex / is_global_cex) before it may
//    close a task, so the paper's soundness story carries over verbatim:
//    simulation is a cheap, possibly-wrong information source, and the
//    witness path is the oracle — a sim hit can never flip a verdict,
//    only save the SAT work of deriving it.
//  * signatures — each property's output words across the sweep, hashed
//    into a 64-bit behavior signature. Equal signatures nominate
//    candidate-equivalent properties; mp/clustering uses them as an
//    optional behavior-aware similarity term (MPBMC's falsification-aware
//    clustering without the GNN).
//  * near-miss seeds (Full mode) — constraint-clean prefix traces whose
//    final state satisfies all but one conjunct of some property's bad
//    cone. BmcSweep opens a bounded "just assume" unrolling from each
//    seed state; any counterexample found is stitched onto the prefix and
//    re-validated by the same oracle.
//
// Pattern semantics mirror the paper's local-CEX definition: a pattern
// dies the step a design constraint is violated, and (in local mode) the
// step any non-ETF property fails — so every surviving candidate is a
// first failure with a clean assumed prefix by construction, and the
// oracle replay almost never discards.
#ifndef JAVER_MP_SIMFILTER_SIM_FILTER_H
#define JAVER_MP_SIMFILTER_SIM_FILTER_H

#include <cstdint>
#include <vector>

#include "aig/aig.h"
#include "mp/simfilter/options.h"
#include "ts/trace.h"
#include "ts/transition_system.h"

namespace javer::obs {
class Tracer;
class MetricsRegistry;
}  // namespace javer::obs

namespace javer::mp::sched {
class WorkerPool;
}  // namespace javer::mp::sched

namespace javer::mp::simfilter {

// A certified shallow failure: `cex` passed the witness-checker oracle
// for `prop` under the run's proof mode. `depth` = cex.length().
struct SimKill {
  std::size_t prop = 0;
  int depth = 0;
  ts::Trace cex;
};

// A "just assume" prefix seed: a simulated, constraint-clean trace whose
// final state satisfies all but one conjunct of `prop`'s bad cone
// (`score` = satisfied conjuncts). Consumers must re-validate anything
// they derive from it.
struct NearMissSeed {
  std::size_t prop = 0;
  int score = 0;
  ts::Trace prefix;
};

class SimFilter {
 public:
  // `local_mode` selects the pattern-death rule and the validation oracle
  // (is_local_cex with the target's local assumptions vs is_global_cex).
  // `tracer`/`metrics` are the optional src/obs handles (null = off).
  SimFilter(const ts::TransitionSystem& ts, const SimFilterOptions& opts,
            bool local_mode, obs::Tracer* tracer,
            obs::MetricsRegistry* metrics);

  // Runs the sweep over the target property indices. Rounds are
  // independent and dispatched onto `pool` when given (null = caller
  // thread); results are combined in round order, so the outcome is
  // deterministic regardless of thread count.
  void run(const std::vector<std::size_t>& targets,
           sched::WorkerPool* pool);

  const std::vector<SimKill>& kills() const { return kills_; }
  // Behavior signature per property index (0 for non-targets; never 0
  // for a swept target).
  const std::vector<std::uint64_t>& signatures() const {
    return signatures_;
  }
  std::vector<NearMissSeed> take_seeds() { return std::move(seeds_); }
  const SimFilterStats& stats() const { return stats_; }

 private:
  // Per-round record: everything needed to replay any pattern of the
  // round exactly (initial latch words + input words per step), plus the
  // round's first-failure / near-miss / signature harvest. Written only
  // by the worker that owns the round.
  struct Round {
    std::vector<std::uint64_t> init;                 // [latch]
    std::vector<std::vector<std::uint64_t>> inputs;  // [step][input]
    std::vector<std::uint64_t> digest;               // [target]
    struct Hit {
      int step = -1;  // -1 = none
      int pattern = 0;
    };
    std::vector<Hit> cand;       // [target] first failure
    std::vector<Hit> near;       // [target] first near-miss
    std::vector<int> near_score; // [target]
    std::uint64_t steps = 0;
    std::uint64_t candidates = 0;
  };

  void run_round(std::size_t r);
  // Replays pattern `pattern` of round `rd` through the scalar simulator
  // into a trace of steps 0..last_step (inclusive).
  ts::Trace replay(const Round& rd, int pattern, int last_step) const;
  bool validate(const ts::Trace& trace, std::size_t prop) const;

  const ts::TransitionSystem& ts_;
  SimFilterOptions opts_;
  bool local_mode_;
  obs::Tracer* tracer_;
  obs::MetricsRegistry* metrics_;

  std::vector<std::size_t> targets_;
  std::vector<std::vector<aig::Lit>> conjuncts_;  // [target] bad-cone leaves
  std::vector<Round> rounds_;

  std::vector<SimKill> kills_;
  std::vector<std::uint64_t> signatures_;
  std::vector<NearMissSeed> seeds_;
  SimFilterStats stats_;
};

}  // namespace javer::mp::simfilter

#endif  // JAVER_MP_SIMFILTER_SIM_FILTER_H
