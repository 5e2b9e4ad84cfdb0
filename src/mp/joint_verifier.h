// Joint verification (the baseline the paper compares against): verify the
// aggregate property P = P1 ∧ ... ∧ Pk with a single IC3 run. When the
// aggregate fails, the counterexample's final state identifies a subset of
// failed properties; those are removed and the procedure restarts on the
// remaining conjunction (the paper's Jnt-ver script). Each iteration is
// bounded only by what is left of total_time_limit. The loop lives here,
// not in the property scheduler: it has no per-property tasks, so the
// clause database, sim prefilter, persistence and fault ladder of the
// task-based modes do not apply to it.
#ifndef JAVER_MP_JOINT_VERIFIER_H
#define JAVER_MP_JOINT_VERIFIER_H

#include <utility>
#include <vector>

#include "mp/report.h"
#include "mp/sched/engine_options.h"
#include "ts/transition_system.h"

namespace javer::mp {

// The shared engine knobs (the paper's joint runs used a 10-hour
// total_time_limit; clause re-use, per-property limits and order do not
// apply to the aggregate run).
using JointOptions = sched::EngineOptions;

class JointVerifier {
 public:
  JointVerifier(const ts::TransitionSystem& ts, JointOptions opts = {});

  MultiResult run();

 private:
  const ts::TransitionSystem& ts_;
  JointOptions opts_;
};

// Builds a copy of `aig` extended with one new property that is the
// conjunction of the given properties; returns the copy and the index of
// the aggregate property within it.
std::pair<aig::Aig, std::size_t> make_aggregate(
    const aig::Aig& aig, const std::vector<std::size_t>& props);

}  // namespace javer::mp

#endif  // JAVER_MP_JOINT_VERIFIER_H
