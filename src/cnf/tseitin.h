// Tseitin encoding of AIG cones into an incremental SAT solver.
//
// A Frame maps AIG node variables to SAT literals for one time step.
// Latches and inputs get fresh SAT variables on first use (or an explicit
// mapping, which BMC uses to chain step t+1 state to step t next-state
// functions); and-gates are encoded on demand with the standard three
// clauses per gate.
//
// The encoder writes into a sat::ClauseSink, so the same encoding serves a
// Solver directly or the clause buffer a cnf::CnfTemplate is built from.
#ifndef JAVER_CNF_TSEITIN_H
#define JAVER_CNF_TSEITIN_H

#include <vector>

#include "aig/aig.h"
#include "sat/clause_sink.h"

namespace javer::cnf {

class Encoder {
 public:
  // A per-time-step mapping from AIG node variable to SAT literal.
  class Frame {
   public:
    explicit Frame(std::size_t num_nodes)
        : map_(num_nodes, sat::kUndefLit) {}

    bool mapped(aig::Var v) const { return map_[v] != sat::kUndefLit; }
    sat::Lit at(aig::Var v) const { return map_[v]; }
    void set(aig::Var v, sat::Lit l) { map_[v] = l; }

   private:
    std::vector<sat::Lit> map_;
  };

  Encoder(const aig::Aig& aig, sat::ClauseSink& sink);

  Frame make_frame() const { return Frame(aig_.num_nodes()); }

  // SAT literal for AIG literal `l` in `frame`; encodes the cone on demand.
  sat::Lit lit(Frame& frame, aig::Lit l);

  // Pre-binds a node (latch/input) to an existing SAT literal. Must happen
  // before the node is first used in this frame.
  void bind(Frame& frame, aig::Var v, sat::Lit l) { frame.set(v, l); }

  const aig::Aig& aig() const { return aig_; }
  sat::ClauseSink& sink() { return sink_; }

  // A SAT literal that is constant true in the sink.
  sat::Lit true_lit() const { return true_lit_; }

 private:
  sat::Lit encode_var(Frame& frame, aig::Var v);

  const aig::Aig& aig_;
  sat::ClauseSink& sink_;
  sat::Lit true_lit_;
};

}  // namespace javer::cnf

#endif  // JAVER_CNF_TSEITIN_H
