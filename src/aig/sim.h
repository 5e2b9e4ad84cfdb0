// AIG simulation: 64-way parallel and single-pattern bit simulation. Used
// for counterexample validation, first-failure analysis, the mp/simfilter
// falsification sweeps and workload-generator sanity checks.
#ifndef JAVER_AIG_SIM_H
#define JAVER_AIG_SIM_H

#include <cstdint>
#include <vector>

#include "aig/aig.h"
#include "base/status.h"

namespace javer::aig {

// Evaluates all nodes for 64 parallel patterns (bit i of every word belongs
// to pattern i). The node-value buffer is allocated once at construction
// and reused across eval() calls, so a sweep loop (eval + step_state per
// time frame) performs zero heap allocations per step.
class Simulator64 {
 public:
  explicit Simulator64(const Aig& aig);

  // state[j] = 64 packed values of latch j; inputs[j] likewise for input j.
  void eval(const std::vector<std::uint64_t>& state,
            const std::vector<std::uint64_t>& inputs);

  std::uint64_t value(Lit l) const;
  std::vector<std::uint64_t> next_state() const;
  // In-place form of next_state(): resizes `out` to the latch count. `out`
  // may alias the state vector last passed to eval() — the batch-sweep
  // step is `sim.eval(state, inputs); sim.step_state(state);`.
  void step_state(std::vector<std::uint64_t>& out) const;

 private:
  const Aig& aig_;
  std::vector<std::uint64_t> values_;
};

// Single-pattern simulator over bool vectors. Evaluates byte-wide instead
// of delegating to Simulator64 — the witness-replay path (trace analysis,
// prefilter candidate certification) is single-pattern and must not pay
// the 64x word work per node. Buffers persist across eval() calls.
class Simulator {
 public:
  explicit Simulator(const Aig& aig);

  void eval(const std::vector<bool>& state, const std::vector<bool>& inputs);

  bool value(Lit l) const {
    return (values_[l.var()] != 0) != l.complemented();
  }
  std::vector<bool> next_state() const;
  // In-place form of next_state(); `out` may alias the last eval() state.
  void step_state(std::vector<bool>& out) const;

 private:
  const Aig& aig_;
  std::vector<std::uint8_t> values_;
};

// The design's initial state; latches with X reset get `x_fill`.
std::vector<bool> initial_state(const Aig& aig, bool x_fill = false);

// True if `state` is an initial state (matches every non-X reset).
bool is_initial_state(const Aig& aig, const std::vector<bool>& state);

}  // namespace javer::aig

#endif  // JAVER_AIG_SIM_H
