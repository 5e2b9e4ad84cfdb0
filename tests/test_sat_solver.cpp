// Unit tests for the CDCL solver on hand-crafted formulas: propagation,
// conflicts, assumptions, cores, incremental use.
#include <gtest/gtest.h>

#include "base/timer.h"
#include "sat/solver.h"

namespace javer::sat {
namespace {

Lit pos(Var v) { return Lit::make(v); }
Lit neg(Var v) { return Lit::make(v, true); }

TEST(Lit, Encoding) {
  Lit a = Lit::make(3);
  EXPECT_EQ(a.var(), 3);
  EXPECT_FALSE(a.sign());
  Lit b = ~a;
  EXPECT_EQ(b.var(), 3);
  EXPECT_TRUE(b.sign());
  EXPECT_EQ(~b, a);
  EXPECT_EQ(a ^ true, b);
  EXPECT_EQ(a ^ false, a);
  EXPECT_NE(a, b);
}

TEST(Solver, EmptyFormulaIsSat) {
  Solver s;
  EXPECT_EQ(s.solve(), SolveResult::Sat);
}

TEST(Solver, SingleUnit) {
  Solver s;
  Var v = s.new_var();
  EXPECT_TRUE(s.add_unit(pos(v)));
  EXPECT_EQ(s.solve(), SolveResult::Sat);
  EXPECT_EQ(s.model_value(v), kTrue);
}

TEST(Solver, ContradictingUnits) {
  Solver s;
  Var v = s.new_var();
  EXPECT_TRUE(s.add_unit(pos(v)));
  EXPECT_FALSE(s.add_unit(neg(v)));
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.solve(), SolveResult::Unsat);
}

TEST(Solver, BinaryImplicationChain) {
  Solver s;
  std::vector<Var> v;
  for (int i = 0; i < 10; ++i) v.push_back(s.new_var());
  for (int i = 0; i + 1 < 10; ++i) {
    s.add_binary(neg(v[i]), pos(v[i + 1]));  // v[i] -> v[i+1]
  }
  s.add_unit(pos(v[0]));
  EXPECT_EQ(s.solve(), SolveResult::Sat);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(s.model_value(v[i]), kTrue) << "var " << i;
  }
}

TEST(Solver, PigeonHole3Into2IsUnsat) {
  // 3 pigeons, 2 holes: p[i][h] with per-pigeon at-least-one and per-hole
  // at-most-one constraints.
  Solver s;
  Var p[3][2];
  for (auto& row : p) {
    for (Var& v : row) v = s.new_var();
  }
  for (int i = 0; i < 3; ++i) {
    s.add_binary(pos(p[i][0]), pos(p[i][1]));
  }
  for (int h = 0; h < 2; ++h) {
    for (int i = 0; i < 3; ++i) {
      for (int j = i + 1; j < 3; ++j) {
        s.add_binary(neg(p[i][h]), neg(p[j][h]));
      }
    }
  }
  EXPECT_EQ(s.solve(), SolveResult::Unsat);
}

TEST(Solver, TautologyIgnored) {
  Solver s;
  Var v = s.new_var();
  Var w = s.new_var();
  EXPECT_TRUE(s.add_clause({pos(v), neg(v), pos(w)}));
  EXPECT_EQ(s.solve(), SolveResult::Sat);
}

TEST(Solver, DuplicateLiteralsCollapsed) {
  Solver s;
  Var v = s.new_var();
  EXPECT_TRUE(s.add_clause({pos(v), pos(v), pos(v)}));
  EXPECT_EQ(s.solve(), SolveResult::Sat);
  EXPECT_EQ(s.model_value(v), kTrue);
}

TEST(Solver, AssumptionsSatAndUnsat) {
  Solver s;
  Var a = s.new_var();
  Var b = s.new_var();
  s.add_binary(neg(a), pos(b));  // a -> b
  EXPECT_EQ(s.solve({pos(a)}), SolveResult::Sat);
  EXPECT_EQ(s.model_value(b), kTrue);
  // Incremental: same solver, different assumptions.
  EXPECT_EQ(s.solve({pos(a), neg(b)}), SolveResult::Unsat);
  EXPECT_EQ(s.solve({neg(b)}), SolveResult::Sat);
  EXPECT_EQ(s.model_value(a), kFalse);
}

TEST(Solver, ConflictCoreIsSubsetOfAssumptions) {
  Solver s;
  Var a = s.new_var();
  Var b = s.new_var();
  Var c = s.new_var();
  Var d = s.new_var();
  s.add_binary(neg(a), neg(b));  // a -> !b
  EXPECT_EQ(s.solve({pos(a), pos(b), pos(c), pos(d)}), SolveResult::Unsat);
  const auto& core = s.conflict_core();
  // Core must mention only a and b, and both are needed.
  for (Lit l : core) {
    EXPECT_TRUE(l == pos(a) || l == pos(b)) << "unexpected core lit";
  }
  EXPECT_GE(core.size(), 1u);
  EXPECT_LE(core.size(), 2u);
}

TEST(Solver, CoreWithImpliedAssumption) {
  Solver s;
  Var a = s.new_var();
  Var b = s.new_var();
  Var c = s.new_var();
  s.add_binary(neg(a), pos(b));  // a -> b
  s.add_binary(neg(b), pos(c));  // b -> c
  // a forces c; assuming !c contradicts.
  EXPECT_EQ(s.solve({pos(a), neg(c)}), SolveResult::Unsat);
  const auto& core = s.conflict_core();
  for (Lit l : core) {
    EXPECT_TRUE(l == pos(a) || l == neg(c));
  }
  EXPECT_FALSE(core.empty());
}

TEST(Solver, FalseAssumptionAtLevelZero) {
  Solver s;
  Var a = s.new_var();
  s.add_unit(pos(a));
  EXPECT_EQ(s.solve({neg(a)}), SolveResult::Unsat);
  ASSERT_EQ(s.conflict_core().size(), 1u);
  EXPECT_EQ(s.conflict_core()[0], neg(a));
}

TEST(Solver, SolveIsRepeatable) {
  Solver s;
  Var a = s.new_var();
  Var b = s.new_var();
  s.add_binary(pos(a), pos(b));
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(s.solve(), SolveResult::Sat);
    EXPECT_EQ(s.solve({neg(a)}), SolveResult::Sat);
    EXPECT_EQ(s.model_value(b), kTrue);
    EXPECT_EQ(s.solve({neg(a), neg(b)}), SolveResult::Unsat);
  }
}

TEST(Solver, AddClausesBetweenSolves) {
  Solver s;
  Var a = s.new_var();
  Var b = s.new_var();
  EXPECT_EQ(s.solve(), SolveResult::Sat);
  s.add_binary(pos(a), pos(b));
  EXPECT_EQ(s.solve(), SolveResult::Sat);
  s.add_unit(neg(a));
  s.add_unit(neg(b));
  EXPECT_EQ(s.solve(), SolveResult::Unsat);
}

TEST(Solver, DeadlineReturnsUndecided) {
  // A hard instance (pigeonhole 10 into 9, seconds to refute) under a
  // 20 ms deadline must come back Undecided from inside the search rather
  // than run to the end.
  Solver s;
  constexpr int n = 10;
  std::vector<std::vector<Var>> p(n, std::vector<Var>(n - 1));
  for (auto& row : p) {
    for (Var& v : row) v = s.new_var();
  }
  for (int i = 0; i < n; ++i) {
    std::vector<Lit> clause;
    for (int h = 0; h < n - 1; ++h) clause.push_back(pos(p[i][h]));
    s.add_clause(clause);
  }
  for (int h = 0; h < n - 1; ++h) {
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        s.add_binary(neg(p[i][h]), neg(p[j][h]));
      }
    }
  }
  Deadline deadline(0.02);
  s.set_deadline(&deadline);
  EXPECT_EQ(s.solve(), SolveResult::Undecided);
}

TEST(Solver, StatsAccumulate) {
  Solver s;
  Var a = s.new_var();
  Var b = s.new_var();
  s.add_binary(pos(a), pos(b));
  s.solve();
  EXPECT_GE(s.stats().solves, 1u);
}

TEST(Solver, ManyVariablesLargeChain) {
  Solver s;
  constexpr int n = 2000;
  std::vector<Var> v;
  for (int i = 0; i < n; ++i) v.push_back(s.new_var());
  for (int i = 0; i + 1 < n; ++i) s.add_binary(neg(v[i]), pos(v[i + 1]));
  s.add_unit(pos(v[0]));
  ASSERT_EQ(s.solve(), SolveResult::Sat);
  EXPECT_EQ(s.model_value(v[n - 1]), kTrue);
  EXPECT_EQ(s.solve({neg(v[n - 1])}), SolveResult::Unsat);
}

TEST(Solver, PolarityHintRespectedWhenFree) {
  Solver s;
  Var a = s.new_var();
  s.set_polarity(a, true);
  EXPECT_EQ(s.solve(), SolveResult::Sat);
  EXPECT_EQ(s.model_value(a), kTrue);
  Solver s2;
  Var b = s2.new_var();
  s2.set_polarity(b, false);
  EXPECT_EQ(s2.solve(), SolveResult::Sat);
  EXPECT_EQ(s2.model_value(b), kFalse);
}

}  // namespace
}  // namespace javer::sat
