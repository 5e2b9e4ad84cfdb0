#include "aig/sim.h"

#include <stdexcept>

namespace javer::aig {

Simulator64::Simulator64(const Aig& aig) : aig_(aig) {
  values_.resize(aig.num_nodes(), 0);
}

void Simulator64::eval(const std::vector<std::uint64_t>& state,
                       const std::vector<std::uint64_t>& inputs) {
  if (state.size() != aig_.num_latches() ||
      inputs.size() != aig_.num_inputs()) {
    throw std::invalid_argument("sim: state/input size mismatch");
  }
  values_[0] = 0;  // constant false
  for (std::size_t i = 0; i < aig_.num_inputs(); ++i) {
    values_[aig_.inputs()[i]] = inputs[i];
  }
  for (std::size_t i = 0; i < aig_.num_latches(); ++i) {
    values_[aig_.latches()[i].var] = state[i];
  }
  // And-gates are topologically ordered by variable index.
  for (Var v = 1; v < aig_.num_nodes(); ++v) {
    const Node& n = aig_.node(v);
    if (n.type == NodeType::And) {
      values_[v] = value(n.fanin0) & value(n.fanin1);
    }
  }
}

std::uint64_t Simulator64::value(Lit l) const {
  std::uint64_t v = values_[l.var()];
  return l.complemented() ? ~v : v;
}

std::vector<std::uint64_t> Simulator64::next_state() const {
  std::vector<std::uint64_t> next;
  step_state(next);
  return next;
}

void Simulator64::step_state(std::vector<std::uint64_t>& out) const {
  out.resize(aig_.num_latches());
  for (std::size_t i = 0; i < aig_.num_latches(); ++i) {
    out[i] = value(aig_.latches()[i].next);
  }
}

Simulator::Simulator(const Aig& aig) : aig_(aig) {
  values_.resize(aig.num_nodes(), 0);
}

void Simulator::eval(const std::vector<bool>& state,
                     const std::vector<bool>& inputs) {
  if (state.size() != aig_.num_latches() ||
      inputs.size() != aig_.num_inputs()) {
    throw std::invalid_argument("sim: state/input size mismatch");
  }
  values_[0] = 0;
  for (std::size_t i = 0; i < aig_.num_inputs(); ++i) {
    values_[aig_.inputs()[i]] = inputs[i] ? 1 : 0;
  }
  for (std::size_t i = 0; i < aig_.num_latches(); ++i) {
    values_[aig_.latches()[i].var] = state[i] ? 1 : 0;
  }
  for (Var v = 1; v < aig_.num_nodes(); ++v) {
    const Node& n = aig_.node(v);
    if (n.type == NodeType::And) {
      values_[v] = (value(n.fanin0) && value(n.fanin1)) ? 1 : 0;
    }
  }
}

std::vector<bool> Simulator::next_state() const {
  std::vector<bool> next;
  step_state(next);
  return next;
}

void Simulator::step_state(std::vector<bool>& out) const {
  out.resize(aig_.num_latches());
  for (std::size_t i = 0; i < aig_.num_latches(); ++i) {
    out[i] = value(aig_.latches()[i].next);
  }
}

std::vector<bool> initial_state(const Aig& aig, bool x_fill) {
  std::vector<bool> s(aig.num_latches());
  for (std::size_t i = 0; i < aig.num_latches(); ++i) {
    const Latch& l = aig.latches()[i];
    s[i] = (l.reset == Ternary::True) ||
           (l.reset == Ternary::X && x_fill);
  }
  return s;
}

bool is_initial_state(const Aig& aig, const std::vector<bool>& state) {
  for (std::size_t i = 0; i < aig.num_latches(); ++i) {
    const Latch& l = aig.latches()[i];
    if (l.reset == Ternary::X) continue;
    if (state[i] != (l.reset == Ternary::True)) return false;
  }
  return true;
}

}  // namespace javer::aig
