#include "bmc/bmc.h"

#include <algorithm>
#include <stdexcept>

#include "base/log.h"
#include "fault/fault.h"

namespace javer::bmc {

Bmc::Bmc(const ts::TransitionSystem& ts,
         const std::vector<bool>* init_override)
    : ts_(ts), encoder_(ts.aig(), solver_) {
  if (init_override != nullptr &&
      init_override->size() != ts.num_latches()) {
    throw std::invalid_argument("bmc: init override size mismatch");
  }
  // Frame 0: latches bound to their reset values; X-reset latches get
  // fresh variables (any initial value). With an init override every
  // latch is bound to the given constant instead.
  cnf::Encoder::Frame f0 = encoder_.make_frame();
  const std::vector<aig::Latch>& latches = ts.aig().latches();
  for (std::size_t i = 0; i < latches.size(); ++i) {
    const aig::Latch& l = latches[i];
    if (init_override != nullptr) {
      encoder_.bind(f0, l.var,
                    (*init_override)[i] ? encoder_.true_lit()
                                        : ~encoder_.true_lit());
      continue;
    }
    switch (l.reset) {
      case Ternary::False:
        encoder_.bind(f0, l.var, ~encoder_.true_lit());
        break;
      case Ternary::True:
        encoder_.bind(f0, l.var, encoder_.true_lit());
        break;
      case Ternary::X:
        encoder_.bind(f0, l.var, sat::Lit::make(solver_.new_var()));
        break;
    }
  }
  frames_.push_back(std::move(f0));
}

void Bmc::make_next_frame() {
  cnf::Encoder::Frame& cur = frames_.back();
  cnf::Encoder::Frame next = encoder_.make_frame();
  for (const aig::Latch& l : ts_.aig().latches()) {
    encoder_.bind(next, l.var, encoder_.lit(cur, l.next));
  }
  frames_.push_back(std::move(next));
}

std::vector<ts::Cube> Bmc::prefix_unit_candidates(int max_step) {
  std::vector<ts::Cube> out;
  const aig::Aig& aig = ts_.aig();
  const int last =
      std::min<int>(max_step, static_cast<int>(frames_.size()) - 1);
  for (int t = 0; t <= last; ++t) {
    const cnf::Encoder::Frame& f = frames_[t];
    for (std::size_t i = 0; i < aig.num_latches(); ++i) {
      aig::Var v = aig.latches()[i].var;
      if (!f.mapped(v)) continue;
      sat::Value val = solver_.fixed_value(f.at(v));
      if (val == sat::kUndef) continue;
      // Latch i is pinned to `val` at step t: nominate "latch i never
      // takes the opposite value" by offering the opposite-value cube.
      ts::Cube c{ts::StateLit{static_cast<int>(i), val == sat::kFalse}};
      if (mined_units_.insert(c).second) out.push_back(std::move(c));
    }
  }
  return out;
}

ts::Trace Bmc::extract_trace(std::size_t depth) {
  ts::Trace trace;
  const aig::Aig& aig = ts_.aig();
  for (std::size_t t = 0; t <= depth; ++t) {
    cnf::Encoder::Frame& f = frames_[t];
    ts::Step step;
    step.state.resize(aig.num_latches());
    step.inputs.resize(aig.num_inputs());
    for (std::size_t i = 0; i < aig.num_latches(); ++i) {
      aig::Var v = aig.latches()[i].var;
      step.state[i] =
          f.mapped(v) && solver_.model_value(f.at(v)) == sat::kTrue;
    }
    for (std::size_t i = 0; i < aig.num_inputs(); ++i) {
      aig::Var v = aig.inputs()[i];
      step.inputs[i] =
          f.mapped(v) && solver_.model_value(f.at(v)) == sat::kTrue;
    }
    trace.steps.push_back(std::move(step));
  }
  return trace;
}

BmcResult Bmc::run(const std::vector<std::size_t>& targets,
                   const BmcOptions& opts) {
  if (targets.empty()) {
    throw std::invalid_argument("bmc: no targets");
  }
  Deadline deadline(opts.time_limit_seconds);
  solver_.set_deadline(opts.time_limit_seconds > 0 ? &deadline : nullptr);

  BmcResult result;
  result.frames_explored = opts.start_depth;
  obs::LatencyHisto* prof_solve = opts.profile.slot("bmc/solve");
  for (int depth = opts.start_depth; depth <= opts.max_depth; ++depth) {
    while (static_cast<int>(frames_.size()) <= depth) make_next_frame();
    cnf::Encoder::Frame& f = frames_[depth];

    // Design constraints hold at every step, including the final one.
    // (Encoded as units the first time the frame becomes a query target.)
    for (aig::Lit c : ts_.aig().constraints()) {
      solver_.add_unit(encoder_.lit(f, c));
    }

    // Target clause: at least one target property fails at this depth.
    sat::Lit act = sat::Lit::make(solver_.new_var());
    std::vector<sat::Lit> clause{~act};
    for (std::size_t p : targets) {
      clause.push_back(~encoder_.lit(f, ts_.property_lit(p)));
    }
    solver_.add_clause(clause);

    fault::inject_point("bmc.solve");
    sat::SolveResult res;
    {
      obs::ProfileTimer timer(prof_solve);
      res = solver_.solve({act});
    }
    if (res == sat::SolveResult::Sat) {
      result.status = CheckStatus::Fails;
      result.depth = depth;
      result.cex = extract_trace(depth);
      for (std::size_t p : targets) {
        if (solver_.model_value(encoder_.lit(f, ts_.property_lit(p))) ==
            sat::kFalse) {
          result.failed_targets.push_back(p);
        }
      }
      JAVER_LOG(Verbose) << "bmc: cex at depth " << depth;
      return result;
    }
    solver_.add_unit(~act);  // retire this depth's target clause
    if (res == sat::SolveResult::Undecided) {
      result.status = CheckStatus::Unknown;
      return result;
    }

    result.frames_explored = depth + 1;
    if (deadline.expired()) {
      result.status = CheckStatus::Unknown;
      return result;
    }

    // This depth is now a non-final step of any longer trace: assert the
    // assumed ("just assume") properties here permanently.
    for (std::size_t p : opts.assumed) {
      solver_.add_unit(encoder_.lit(f, ts_.property_lit(p)));
    }
  }
  result.status = CheckStatus::Unknown;
  return result;
}

}  // namespace javer::bmc
