// Incremental bounded model checking over the functional transition
// relation (step t+1 state variables are the step-t next-state function
// literals — no equality clauses needed).
//
// Supports the paper's two modes:
//  * global: find a shortest trace to a step violating any target property;
//  * local ("Just-Assume"): additionally assert the assumed properties on
//    every non-final step, which is BMC w.r.t. the projection T_P.
#ifndef JAVER_BMC_BMC_H
#define JAVER_BMC_BMC_H

#include <set>
#include <vector>

#include "base/status.h"
#include "base/timer.h"
#include "cnf/tseitin.h"
#include "obs/profile.h"
#include "sat/solver.h"
#include "ts/trace.h"
#include "ts/transition_system.h"

namespace javer::bmc {

struct BmcOptions {
  int max_depth = 100000;
  // First bound to query. A later run() may continue a previous one's
  // unrolling by passing the previous result's frames_explored here —
  // sound as long as the assumed set never changes across the calls on
  // one Bmc instance (the scheduler's interleaved sweeps rely on this).
  int start_depth = 0;
  double time_limit_seconds = 0.0;     // 0 = unlimited
  // Property indices asserted to hold on all non-final steps (the "just
  // assume" constraints). A property may be both assumed and a target:
  // the assumption binds only the trace prefix, so the first failure of
  // the target at the final step is still found — this is exactly the
  // debugging-set ("first to fail") semantics the scheduler's hybrid
  // sweeps use.
  std::vector<std::size_t> assumed;
  // Phase profiler (obs/profile.h): one "bmc/solve" latency sample per
  // depth query, keyed by the sink's (shard, property) tags. Disabled
  // sink = one branch per run(), no clock reads.
  obs::ProfileSink profile;
};

struct BmcResult {
  CheckStatus status = CheckStatus::Unknown;  // Fails or Unknown (BMC
                                              // cannot prove Holds)
  int depth = -1;               // CEX length when status == Fails
  int frames_explored = 0;      // number of completed bounds
  ts::Trace cex;
  std::vector<std::size_t> failed_targets;  // targets false at final step
};

class Bmc {
 public:
  // `init_override`, when given, replaces the design's initial states with
  // the single concrete latch assignment it points to (one bool per
  // latch). Frame 0 is then fully bound to constants — the "just assume"
  // prefix-seed queries of the simulation prefilter open a bounded search
  // from a simulated near-miss state this way. The pointee is copied.
  explicit Bmc(const ts::TransitionSystem& ts,
               const std::vector<bool>* init_override = nullptr);

  // Searches for a trace whose final step falsifies at least one target.
  BmcResult run(const std::vector<std::size_t>& targets,
                const BmcOptions& opts = {});

  // --- cross-engine lemma exchange (mp/exchange) ---

  // Singleton *candidate* invariant cubes mined from the solver's root
  // facts: a latch literal fixed at decision level 0 in some step
  // t <= max_step means every trace the current clause set admits pins
  // that latch at step t, which nominates "the latch never takes the
  // opposite value" as a lemma. Candidates carry no proof — a consumer
  // (IC3) must re-validate them in its own context before use. Each cube
  // is returned at most once per Bmc lifetime.
  std::vector<ts::Cube> prefix_unit_candidates(int max_step);

 private:
  void make_next_frame();
  ts::Trace extract_trace(std::size_t depth);

  const ts::TransitionSystem& ts_;
  sat::Solver solver_;
  cnf::Encoder encoder_;
  std::vector<cnf::Encoder::Frame> frames_;
  // Cubes prefix_unit_candidates already returned.
  std::set<ts::Cube> mined_units_;
};

}  // namespace javer::bmc

#endif  // JAVER_BMC_BMC_H
