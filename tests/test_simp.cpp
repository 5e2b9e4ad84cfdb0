// Simplification subsystem tests: equisatisfiability + model
// reconstruction fuzzing against the reference DPLL (≥500 random CNFs),
// unit-level checks of subsumption / self-subsuming resolution / bounded
// variable elimination, DIMACS roundtrips, and a JA run over simplified
// templates agreeing with a plain one.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "aig/aig.h"
#include "base/rng.h"
#include "gen/synthetic.h"
#include "mp/ja_verifier.h"
#include "sat/dimacs.h"
#include "sat/ref_dpll.h"
#include "sat/simp/simplifier.h"
#include "sat/solver.h"

namespace javer::sat {
namespace {

Cnf random_cnf(Rng& rng, int num_vars, int num_clauses, int max_len) {
  Cnf cnf;
  cnf.num_vars = num_vars;
  for (int c = 0; c < num_clauses; ++c) {
    int len = 1 + static_cast<int>(rng.below(max_len));
    std::vector<Lit> clause;
    for (int i = 0; i < len; ++i) {
      Var v = static_cast<Var>(rng.below(num_vars));
      clause.push_back(Lit::make(v, rng.chance(1, 2)));
    }
    cnf.clauses.push_back(clause);
  }
  return cnf;
}

// Simplify + CDCL-solve `cnf`; on Sat, reconstruct a full model of the
// original formula. Returns the solver verdict.
SolveResult simplify_and_solve(const Cnf& original, simp::SimplifyConfig cfg,
                               const std::vector<Var>& frozen,
                               std::vector<bool>* out_model) {
  Cnf work = original;
  simp::Simplifier simplifier(cfg);
  for (Var v : frozen) simplifier.freeze(v);
  if (!simplifier.simplify(work)) return SolveResult::Unsat;

  Solver solver;
  for (int v = 0; v < work.num_vars; ++v) solver.new_var();
  bool trivially_unsat = false;
  for (const auto& clause : work.clauses) {
    if (!solver.add_clause(clause)) trivially_unsat = true;
  }
  SolveResult res = trivially_unsat ? SolveResult::Unsat : solver.solve();
  if (res != SolveResult::Sat || out_model == nullptr) return res;

  std::vector<Value> model(work.num_vars, kUndef);
  for (int v = 0; v < work.num_vars; ++v) model[v] = solver.model_value(v);
  simplifier.extend_model(model);
  out_model->assign(original.num_vars, false);
  for (int v = 0; v < original.num_vars; ++v) {
    (*out_model)[v] = model[v] == kTrue;
  }
  return res;
}

TEST(SimplifierFuzz, EquisatAndModelReconstruction) {
  // ≥500 random CNFs around and below the phase transition; the
  // Simplifier+CDCL verdict must agree with the reference DPLL, and every
  // reconstructed model must satisfy the *original* clauses.
  int sat_seen = 0;
  int unsat_seen = 0;
  for (std::uint64_t round = 0; round < 520; ++round) {
    Rng rng(round * 0x9e37 + 17);
    int num_vars = 5 + static_cast<int>(rng.below(20));
    // Mostly width-2..4 clauses with an occasional unit, at densities
    // straddling the phase transition so both verdicts appear often.
    double density = 1.2 + rng.uniform() * 3.0;
    int num_clauses = static_cast<int>(num_vars * density);
    Cnf cnf;
    cnf.num_vars = num_vars;
    for (int c = 0; c < num_clauses; ++c) {
      int len = rng.chance(1, 12) ? 1 : 2 + static_cast<int>(rng.below(3));
      std::vector<Lit> clause;
      for (int i = 0; i < len; ++i) {
        Var v = static_cast<Var>(rng.below(num_vars));
        clause.push_back(Lit::make(v, rng.chance(1, 2)));
      }
      cnf.clauses.push_back(clause);
    }

    // A random sprinkling of frozen variables, as an incremental caller
    // would have.
    std::vector<Var> frozen;
    for (Var v = 0; v < cnf.num_vars; ++v) {
      if (rng.chance(1, 4)) frozen.push_back(v);
    }

    simp::SimplifyConfig cfg;
    cfg.growth_limit = static_cast<int>(rng.below(3));
    std::vector<bool> model;
    SolveResult res = simplify_and_solve(cnf, cfg, frozen, &model);

    auto ref = ref_dpll_solve(cnf.num_vars, cnf.clauses);
    if (ref.has_value()) {
      sat_seen++;
      ASSERT_EQ(res, SolveResult::Sat) << "round " << round;
      EXPECT_TRUE(ref_check_model(cnf.clauses, model)) << "round " << round;
    } else {
      unsat_seen++;
      ASSERT_EQ(res, SolveResult::Unsat) << "round " << round;
    }
  }
  // The generator must actually exercise both outcomes.
  EXPECT_GT(sat_seen, 50);
  EXPECT_GT(unsat_seen, 50);
}

TEST(Simplifier, SubsumptionRemovesWeakerClauses) {
  Cnf cnf;
  cnf.num_vars = 3;
  Lit a = Lit::make(0), b = Lit::make(1), c = Lit::make(2);
  cnf.add_clause({a, b});
  cnf.add_clause({a, b, c});  // subsumed
  simp::Simplifier s;
  for (Var v = 0; v < 3; ++v) s.freeze(v);
  ASSERT_TRUE(s.simplify(cnf));
  EXPECT_EQ(s.stats().clauses_subsumed, 1u);
  EXPECT_EQ(cnf.clauses.size(), 1u);
}

TEST(Simplifier, SelfSubsumingResolutionStrengthens) {
  Cnf cnf;
  cnf.num_vars = 3;
  Lit a = Lit::make(0), b = Lit::make(1), c = Lit::make(2);
  cnf.add_clause({a, b, c});   // strengthened to {b, c} by {~a, b}
  cnf.add_clause({~a, b});
  simp::Simplifier s;
  for (Var v = 0; v < 3; ++v) s.freeze(v);
  ASSERT_TRUE(s.simplify(cnf));
  EXPECT_GE(s.stats().clauses_strengthened, 1u);
  for (const auto& clause : cnf.clauses) {
    EXPECT_LE(clause.size(), 2u);
  }
}

TEST(Simplifier, EliminatesUnfrozenAuxiliaries) {
  // g <-> a & b (Tseitin), g frozen nowhere: eliminating g must keep the
  // projection onto {a, b} intact.
  Cnf cnf;
  cnf.num_vars = 3;
  Lit a = Lit::make(0), b = Lit::make(1), g = Lit::make(2);
  cnf.add_clause({~g, a});
  cnf.add_clause({~g, b});
  cnf.add_clause({g, ~a, ~b});
  cnf.add_clause({g});  // force the gate on: a & b must hold
  simp::Simplifier s;
  s.freeze(a);
  s.freeze(b);
  ASSERT_TRUE(s.simplify(cnf));
  EXPECT_TRUE(s.is_eliminated(2));

  // Remaining formula forces a and b true.
  Solver solver;
  for (int v = 0; v < 3; ++v) solver.new_var();
  for (const auto& clause : cnf.clauses) solver.add_clause(clause);
  ASSERT_EQ(solver.solve(), SolveResult::Sat);
  EXPECT_EQ(solver.model_value(Var{0}), kTrue);
  EXPECT_EQ(solver.model_value(Var{1}), kTrue);

  // And the eliminated gate reconstructs to true.
  std::vector<Value> model(3, kUndef);
  model[0] = kTrue;
  model[1] = kTrue;
  s.extend_model(model);
  EXPECT_EQ(model[2], kTrue);
}

TEST(Simplifier, DetectsTopLevelContradiction) {
  Cnf cnf;
  cnf.num_vars = 1;
  Lit a = Lit::make(0);
  cnf.add_clause({a});
  cnf.add_clause({~a});
  simp::Simplifier s;
  EXPECT_FALSE(s.simplify(cnf));
}

TEST(Simplifier, FrozenVariablesSurviveWithTheirUnits) {
  Cnf cnf;
  cnf.num_vars = 2;
  Lit a = Lit::make(0), b = Lit::make(1);
  cnf.add_clause({a});
  cnf.add_clause({~a, b});
  simp::Simplifier s;
  s.freeze(a);
  s.freeze(b);
  ASSERT_TRUE(s.simplify(cnf));
  // Both variables are fixed; their values must stay visible as units.
  Solver solver;
  solver.new_var();
  solver.new_var();
  for (const auto& clause : cnf.clauses) solver.add_clause(clause);
  ASSERT_EQ(solver.solve(), SolveResult::Sat);
  EXPECT_EQ(solver.model_value(Var{0}), kTrue);
  EXPECT_EQ(solver.model_value(Var{1}), kTrue);
}

TEST(Dimacs, ReadWriteReadRoundtrip) {
  Rng rng(42);
  Cnf cnf = random_cnf(rng, 12, 30, 4);
  std::ostringstream first;
  write_dimacs(first, cnf);

  std::istringstream in(first.str());
  Cnf back = read_dimacs(in);
  EXPECT_EQ(back.num_vars, cnf.num_vars);
  ASSERT_EQ(back.clauses.size(), cnf.clauses.size());
  for (std::size_t i = 0; i < cnf.clauses.size(); ++i) {
    EXPECT_EQ(back.clauses[i], cnf.clauses[i]) << "clause " << i;
  }

  std::ostringstream second;
  write_dimacs(second, back);
  EXPECT_EQ(first.str(), second.str());
}

}  // namespace
}  // namespace javer::sat

namespace javer {
namespace {

TEST(SimplifyEngines, JaVerificationAgreesWithPlainRun) {
  gen::SyntheticSpec spec;
  spec.seed = 7;
  spec.rings = 1;
  spec.ring_size = 4;
  spec.ring_props = 4;
  spec.pair_props = 2;
  spec.unreachable_props = 2;
  spec.det_fail_props = 1;
  aig::Aig design = gen::make_synthetic(spec);
  ts::TransitionSystem ts(design);

  mp::JaOptions with_simp;
  with_simp.simplify = true;

  mp::MultiResult a = mp::JaVerifier(ts).run();
  mp::MultiResult b = mp::JaVerifier(ts, with_simp).run();
  ASSERT_EQ(a.per_property.size(), b.per_property.size());
  for (std::size_t p = 0; p < a.per_property.size(); ++p) {
    EXPECT_EQ(a.per_property[p].verdict, b.per_property[p].verdict)
        << "property " << p;
  }
}

}  // namespace
}  // namespace javer
