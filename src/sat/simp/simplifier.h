// SatELite-style CNF simplification (Eén & Biere 2005): top-level unit
// propagation, backward subsumption, self-subsuming resolution, and bounded
// variable elimination with a clause-growth cutoff. Runs as a preprocessing
// pass over any sat::Cnf before it enters a solver.
//
// Frozen variables are never eliminated or dropped; anything the caller
// still needs to reference afterwards (assumption literals, model
// variables, interface literals of an incremental encoding) must be frozen.
// Models of the simplified formula extend to models of the original one via
// extend_model(), which replays the elimination stack in reverse.
#ifndef JAVER_SAT_SIMP_SIMPLIFIER_H
#define JAVER_SAT_SIMP_SIMPLIFIER_H

#include <cstdint>
#include <vector>

#include "sat/cnf.h"
#include "sat/simp/occ_lists.h"
#include "sat/types.h"

namespace javer::sat::simp {

struct SimplifyConfig {
  // Variable elimination may add at most this many clauses beyond the
  // number it removes (SatELite's growth cutoff; 0 = never grow).
  int growth_limit = 0;
  // Resolvents longer than this abort the elimination of their variable.
  std::size_t max_resolvent_size = 32;
  // Variables with more occurrences of either polarity are not considered
  // for elimination (their resolvent check would be quadratic).
  std::size_t max_occurrences = 400;
  // Upper bound on simplification rounds (each round runs unit propagation,
  // subsumption, and elimination to their local fixpoints).
  int max_rounds = 4;
};

struct SimpStats {
  std::size_t clauses_in = 0;
  std::size_t clauses_out = 0;
  std::size_t lits_in = 0;
  std::size_t lits_out = 0;
  std::size_t vars_eliminated = 0;  // removed by bounded variable elimination
  std::size_t vars_fixed = 0;       // forced at top level
  std::size_t clauses_subsumed = 0;
  std::size_t clauses_strengthened = 0;  // self-subsuming resolutions
  std::size_t rounds = 0;
};

class Simplifier {
 public:
  explicit Simplifier(SimplifyConfig cfg = {});

  // Marks a variable as part of the caller's interface: it is never
  // eliminated, and a value forced for it stays in the output as a unit.
  void freeze(Var v);
  void freeze(Lit l) { freeze(l.var()); }

  // Simplifies `cnf` in place (num_vars is preserved). Returns false iff
  // the formula was proved unsatisfiable.
  bool simplify(Cnf& cnf);

  // True when simplify() removed the variable (eliminated, or fixed while
  // unfrozen). Such variables occur in no output clause.
  bool is_eliminated(Var v) const {
    return v < static_cast<Var>(eliminated_.size()) && eliminated_[v] != 0;
  }
  const std::vector<Var>& eliminated_vars() const { return elim_order_; }

  // Extends a model of the simplified formula (indexed by original
  // variable; kUndef allowed for untouched variables) to a model of the
  // original formula by replaying the elimination stack in reverse.
  void extend_model(std::vector<Value>& model) const;

  const SimpStats& stats() const { return stats_; }

 private:
  struct SClause {
    std::vector<Lit> lits;   // sorted, duplicate-free
    std::uint64_t sig = 0;   // variable-hash abstraction for subsumption
    bool deleted = false;

    std::size_t size() const { return lits.size(); }
  };

  // One entry per removed variable: the clauses it occurred in at removal
  // time, replayed in reverse by extend_model.
  struct ElimEntry {
    Var var;
    std::vector<std::vector<Lit>> clauses;
  };

  static std::uint64_t signature(const std::vector<Lit>& lits);

  Value value(Lit l) const {
    Value v = val_[l.var()];
    return l.sign() ? static_cast<Value>(-v) : v;
  }

  bool add_input_clause(const std::vector<Lit>& lits);
  std::size_t install_clause(std::vector<Lit> lits);
  void delete_clause(std::size_t ci);
  void strengthen_clause(std::size_t ci, Lit l);
  bool enqueue_unit(Lit l);

  bool propagate_units();
  bool subsumption_pass();
  // Returns 1 if `c` subsumes `d`, 2 if it subsumes `d` after flipping
  // exactly one literal (reported in `flipped`, as it occurs in `c`),
  // 0 otherwise.
  int subsumes(const SClause& c, const SClause& d, Lit& flipped) const;
  bool eliminate_vars(bool& changed);
  bool try_eliminate(Var v);
  bool resolve(const std::vector<Lit>& a, const std::vector<Lit>& b, Var v,
               std::vector<Lit>& out) const;

  bool eliminable(Var v) const {
    return !frozen_[v] && !eliminated_[v] && val_[v] == kUndef;
  }

  SimplifyConfig cfg_;
  int num_vars_ = 0;

  std::vector<SClause> clauses_;
  OccLists occ_;
  std::vector<std::uint8_t> frozen_;
  std::vector<std::uint8_t> eliminated_;
  std::vector<Value> val_;  // top-level forced values

  std::vector<Lit> unit_queue_;
  std::size_t unit_head_ = 0;
  std::vector<std::size_t> subsumption_queue_;
  std::vector<std::uint8_t> in_subsumption_queue_;
  std::vector<std::uint8_t> touched_;  // vars to revisit for elimination

  std::vector<ElimEntry> elim_stack_;
  std::vector<Var> elim_order_;
  bool contradiction_ = false;

  SimpStats stats_;
};

}  // namespace javer::sat::simp

#endif  // JAVER_SAT_SIMP_SIMPLIFIER_H
