// A from-scratch CDCL SAT solver in the MiniSat lineage.
//
// Features: two-watched-literal propagation with blockers, EVSIDS decision
// heuristic, phase saving, Luby restarts, first-UIP conflict analysis with
// recursive clause minimization, LBD-based learned-clause reduction,
// incremental solving under assumptions, and final-conflict (assumption
// core) extraction. This is the backend for BMC and IC3; IC3 additionally
// relies on assumption cores for inductive generalization and state lifting.
//
// Clauses live in a contiguous arena (clause_arena.h) and are addressed by
// 32-bit offsets; dead clauses are compacted away by a copying garbage
// collection when the wasted fraction exceeds ~20%.
#ifndef JAVER_SAT_SOLVER_H
#define JAVER_SAT_SOLVER_H

#include <cstdint>
#include <span>
#include <vector>

#include "base/timer.h"
#include "sat/clause_arena.h"
#include "sat/clause_sink.h"
#include "sat/types.h"

namespace javer::sat {

struct SolverStats {
  std::uint64_t conflicts = 0;
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;
  std::uint64_t restarts = 0;
  std::uint64_t learned_deleted = 0;
  std::uint64_t solves = 0;
  std::uint64_t garbage_collections = 0;
};

class Solver : public ClauseSink {
 public:
  Solver();

  // Creates a fresh variable and returns it. Variables are dense ints.
  Var new_var() override;
  int num_vars() const { return static_cast<int>(assign_.size()); }

  // Bulk-load fast path: pre-reserves every per-variable array, the watch
  // lists, and the clause arena for `vars` additional variables and
  // `clauses` clauses totalling `literals` literals, eliminating the
  // incremental realloc churn when a cnf::CnfTemplate (which knows its
  // counts up front) is replayed into a fresh solver.
  void reserve(int vars, std::size_t clauses, std::size_t literals);

  // Adds a clause over existing variables. Returns false if the formula
  // became trivially unsatisfiable (empty clause at level 0).
  bool add_clause(std::span<const Lit> lits) override;
  using ClauseSink::add_binary;
  using ClauseSink::add_clause;
  using ClauseSink::add_ternary;
  using ClauseSink::add_unit;

  // Solves under the given assumptions. Undecided is returned only when
  // the deadline expires.
  SolveResult solve(std::span<const Lit> assumptions = {});
  SolveResult solve(std::initializer_list<Lit> assumptions);

  // After Sat: value of a variable / literal in the model.
  Value model_value(Var v) const { return model_[v]; }
  Value model_value(Lit l) const {
    Value v = model_[l.var()];
    return l.sign() ? static_cast<Value>(-v) : v;
  }

  // After Unsat under assumptions: a subset of the assumptions that is
  // already inconsistent with the clauses (the "final conflict" core).
  const std::vector<Lit>& conflict_core() const { return conflict_core_; }

  // kUndef unless the literal is fixed by the clause set alone (assigned
  // at decision level 0). Valid between solves: the trail is backtracked
  // to level 0 after every solve() call, so everything still assigned is a
  // root-level fact. BMC mines these for cross-engine lemma candidates.
  Value fixed_value(Lit l) const {
    Value v = assign_[l.var()];
    if (v == kUndef || level_[l.var()] != 0) return kUndef;
    return l.sign() ? static_cast<Value>(-v) : v;
  }

  // True while the clause set is still possibly satisfiable at level 0.
  bool ok() const { return ok_; }

  // Time budget for every later solve(); null disables it.
  void set_deadline(const Deadline* deadline) { deadline_ = deadline; }

  // Prefer this polarity when branching on v (phase saving overrides later).
  void set_polarity(Var v, bool positive) { polarity_[v] = positive ? 1 : 0; }

  // Excludes v from branching (used for variables a simplified
  // cnf::CnfTemplate eliminated: they have no clauses left, so deciding
  // them is waste).
  // Non-decision variables stay kUndef in models.
  void set_decision_var(Var v, bool decision) {
    decision_[v] = decision ? 1 : 0;
  }

  const SolverStats& stats() const { return stats_; }

  // Number of problem (non-learned) clauses currently alive.
  std::size_t num_problem_clauses() const { return num_problem_clauses_; }

 private:
  struct Watcher {
    CRef cref;
    Lit blocker;
  };

  // --- clause management ---
  CRef alloc_clause(std::span<const Lit> lits, bool learnt);
  void attach_clause(CRef cr);
  void detach_clause(CRef cr);
  void remove_clause(CRef cr);
  bool clause_satisfied(const Clause& c) const;
  void reduce_learned();
  void simplify_level0();
  void check_garbage();
  void garbage_collect();

  // --- search ---
  SolveResult search(std::int64_t conflicts_before_restart);
  CRef propagate();
  void analyze(CRef conflict, std::vector<Lit>& out_learnt, int& out_level);
  bool literal_redundant(Lit l, std::uint32_t abstract_levels);
  void analyze_final(Lit p);
  Lit pick_branch_lit();
  void enqueue(Lit l, CRef reason);
  void cancel_until(int level);
  int decision_level() const { return static_cast<int>(trail_lim_.size()); }
  std::uint32_t compute_lbd(const std::vector<Lit>& lits);

  Value value(Lit l) const {
    Value v = assign_[l.var()];
    return l.sign() ? static_cast<Value>(-v) : v;
  }
  Value value(Var v) const { return assign_[v]; }

  // --- heuristics ---
  void var_bump(Var v);
  void var_decay();
  void clause_bump(Clause& c);
  void heap_insert(Var v);
  void heap_update(Var v);
  Var heap_pop();
  bool heap_empty() const { return heap_.empty(); }
  void heap_sift_up(int pos);
  void heap_sift_down(int pos);

  // --- data ---
  ClauseArena ca_;                 // all clauses, inline
  std::vector<CRef> clauses_;      // problem clauses
  std::vector<CRef> learnts_;      // learned clauses
  std::vector<std::vector<Watcher>> watches_;  // indexed by Lit::code()

  std::vector<Value> assign_;
  std::vector<int> level_;
  std::vector<CRef> reason_;
  std::vector<Lit> trail_;
  std::vector<int> trail_lim_;
  std::size_t qhead_ = 0;

  std::vector<double> activity_;
  double var_inc_ = 1.0;
  double cla_inc_ = 1.0;
  std::vector<int> heap_pos_;  // -1 when not in heap
  std::vector<Var> heap_;
  std::vector<std::uint8_t> polarity_;
  std::vector<std::uint8_t> decision_;
  std::vector<std::uint8_t> seen_;
  std::vector<Lit> analyze_stack_;
  std::vector<Lit> analyze_clear_;

  std::vector<Lit> assumptions_;
  std::vector<Lit> conflict_core_;
  std::vector<Value> model_;

  bool ok_ = true;
  std::size_t num_problem_clauses_ = 0;
  // Learned-clause cap: initialized to a fraction of the problem clauses on
  // first use and grown geometrically at every reduction (MiniSat's
  // learntsize factor/increment). Persists across incremental solves.
  double max_learnts_ = 0.0;
  const Deadline* deadline_ = nullptr;
  SolverStats stats_;
};

}  // namespace javer::sat

#endif  // JAVER_SAT_SOLVER_H
