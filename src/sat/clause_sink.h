// ClauseSink: the minimal interface for anything clauses can be encoded
// into — a Solver directly (BMC, certification), or the clause buffer a
// cnf::CnfTemplate is built from (and simplified in, once). The Tseitin
// encoder targets this interface so the encoding logic is shared by both.
#ifndef JAVER_SAT_CLAUSE_SINK_H
#define JAVER_SAT_CLAUSE_SINK_H

#include <span>

#include "sat/types.h"

namespace javer::sat {

class ClauseSink {
 public:
  virtual ~ClauseSink() = default;

  // Creates a fresh variable and returns it. Variables are dense ints.
  virtual Var new_var() = 0;

  // Adds a clause over existing variables. Returns false if the formula
  // became trivially unsatisfiable.
  virtual bool add_clause(std::span<const Lit> lits) = 0;

  bool add_clause(std::initializer_list<Lit> lits) {
    return add_clause(std::span<const Lit>(lits.begin(), lits.size()));
  }
  bool add_unit(Lit l) { return add_clause({l}); }
  bool add_binary(Lit a, Lit b) { return add_clause({a, b}); }
  bool add_ternary(Lit a, Lit b, Lit c) { return add_clause({a, b, c}); }
};

}  // namespace javer::sat

#endif  // JAVER_SAT_CLAUSE_SINK_H
