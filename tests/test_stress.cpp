// Stress and robustness tests: the SAT solver's restart/reduceDB paths
// under load, IC3 under aggressive solver rebuilding, and randomized ETF
// assignments — all cross-checked where an oracle exists.
#include <gtest/gtest.h>

#include <string_view>

#include "base/rng.h"
#include "gen/random_design.h"
#include "ic3/ic3.h"
#include "mp/ja_verifier.h"
#include "obs/trace.h"
#include "ref/explicit_checker.h"
#include "sat/solver.h"
#include "ts/trace.h"

namespace javer {
namespace {

// Pigeonhole n+1 into n: UNSAT instances that force conflict analysis,
// clause learning, reduceDB and restarts.
void add_pigeonhole(sat::Solver& s, int holes) {
  int pigeons = holes + 1;
  std::vector<std::vector<sat::Var>> p(pigeons, std::vector<sat::Var>(holes));
  for (auto& row : p) {
    for (auto& v : row) v = s.new_var();
  }
  for (int i = 0; i < pigeons; ++i) {
    std::vector<sat::Lit> clause;
    for (int h = 0; h < holes; ++h) clause.push_back(sat::Lit::make(p[i][h]));
    s.add_clause(clause);
  }
  for (int h = 0; h < holes; ++h) {
    for (int i = 0; i < pigeons; ++i) {
      for (int j = i + 1; j < pigeons; ++j) {
        s.add_binary(sat::Lit::make(p[i][h], true),
                     sat::Lit::make(p[j][h], true));
      }
    }
  }
}

TEST(SatStress, PigeonholeUnsatUpTo7) {
  for (int holes = 3; holes <= 7; ++holes) {
    sat::Solver s;
    add_pigeonhole(s, holes);
    EXPECT_EQ(s.solve(), sat::SolveResult::Unsat) << "holes " << holes;
    EXPECT_GT(s.stats().conflicts, 0u);
  }
}

TEST(SatStress, LargeSatisfiableRandomInstances) {
  // Below the phase transition: satisfiable with high probability; the
  // model is verified directly, no oracle needed.
  Rng rng(99);
  for (int round = 0; round < 10; ++round) {
    int num_vars = 150;
    int num_clauses = static_cast<int>(num_vars * 3.0);
    sat::Solver s;
    std::vector<std::vector<sat::Lit>> clauses;
    for (int v = 0; v < num_vars; ++v) s.new_var();
    bool ok = true;
    for (int c = 0; c < num_clauses && ok; ++c) {
      std::vector<sat::Lit> clause;
      for (int k = 0; k < 3; ++k) {
        clause.push_back(sat::Lit::make(
            static_cast<sat::Var>(rng.below(num_vars)), rng.chance(1, 2)));
      }
      clauses.push_back(clause);
      ok = s.add_clause(clause);
    }
    if (!ok) continue;
    if (s.solve() != sat::SolveResult::Sat) continue;  // rare: truly unsat
    for (const auto& clause : clauses) {
      bool satisfied = false;
      for (sat::Lit l : clause) {
        satisfied |= (s.model_value(l) == sat::kTrue);
      }
      EXPECT_TRUE(satisfied) << "model violates a clause, round " << round;
    }
  }
}

TEST(SatStress, ManySolveCallsWithChangingAssumptions) {
  // Incremental workload shaped like IC3's: thousands of short solves
  // with shifting assumptions over one growing clause set.
  Rng rng(7);
  sat::Solver s;
  constexpr int kVars = 60;
  for (int v = 0; v < kVars; ++v) s.new_var();
  for (int round = 0; round < 2000; ++round) {
    if (rng.chance(1, 3)) {
      std::vector<sat::Lit> clause;
      int len = 2 + static_cast<int>(rng.below(3));
      for (int k = 0; k < len; ++k) {
        clause.push_back(sat::Lit::make(
            static_cast<sat::Var>(rng.below(kVars)), rng.chance(1, 2)));
      }
      if (!s.add_clause(clause)) break;  // formula became unsat at level 0
    }
    std::vector<sat::Lit> assumptions;
    for (int k = 0; k < 4; ++k) {
      assumptions.push_back(sat::Lit::make(
          static_cast<sat::Var>(rng.below(kVars)), rng.chance(1, 2)));
    }
    sat::SolveResult r = s.solve(assumptions);
    if (r == sat::SolveResult::Sat) {
      for (sat::Lit a : assumptions) {
        ASSERT_EQ(s.model_value(a), sat::kTrue) << "round " << round;
      }
    } else {
      ASSERT_EQ(r, sat::SolveResult::Unsat);
      ASSERT_FALSE(s.conflict_core().empty() && s.ok())
          << "unsat under assumptions must produce a core, round " << round;
    }
  }
}

TEST(RebuildStressTest, AggressiveSolverRebuildsPreserveCorrectness) {
  // rebuild_threshold=2 forces frame-solver and lift-companion
  // reconstruction, exercising the clause re-installation path. Each
  // rebuild records one ic3/rebuild_mono or ic3/rebuild_lift instant, so
  // the tracer tells the two kinds apart; only a few runs rebuild at all,
  // hence the suite-wide totals.
  obs::Tracer tracer;
  std::uint64_t rebuilds = 0;
  for (std::uint64_t seed = 600; seed < 615; ++seed) {
    gen::RandomDesignSpec spec;
    spec.seed = seed;
    spec.num_latches = 4;
    spec.num_inputs = 2;
    spec.num_properties = 3;
    aig::Aig aig = gen::make_random_design(spec);
    ts::TransitionSystem ts(aig);
    ref::ExplicitResult expected = ref::explicit_check(ts);

    for (std::size_t p = 0; p < ts.num_properties(); ++p) {
      ic3::Ic3Options opts;
      opts.rebuild_threshold = 2;
      opts.trace = obs::TraceSink(&tracer);
      ic3::Ic3 engine(ts, p, opts);
      ic3::Ic3Result r = engine.run();
      if (expected.fails_globally(p)) {
        ASSERT_EQ(r.status, CheckStatus::Fails)
            << "seed " << seed << " prop " << p;
        EXPECT_TRUE(ts::is_global_cex(ts, r.cex, p))
            << "seed " << seed << " prop " << p;
      } else {
        ASSERT_EQ(r.status, CheckStatus::Holds)
            << "seed " << seed << " prop " << p;
      }
      rebuilds += r.stats.solver_rebuilds;
    }
  }

  std::uint64_t mono = 0;
  std::uint64_t lift = 0;
  for (const obs::TraceEvent& ev : tracer.events()) {
    if (std::string_view(ev.category) != "ic3") continue;
    if (std::string_view(ev.name) == "rebuild_mono") mono++;
    if (std::string_view(ev.name) == "rebuild_lift") lift++;
  }
  EXPECT_GT(mono, 0u) << "no frame-solver rebuild ran";
  EXPECT_GT(lift, 0u) << "no lift-companion rebuild ran";
  EXPECT_EQ(mono + lift, rebuilds);
}

class EtfRandomTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EtfRandomTest, RandomEtfSubsetsMatchOracle) {
  // Mark a random subset of properties ETF; the verifier's verdicts must
  // match the oracle run with the same ETH assumption set.
  gen::RandomDesignSpec spec;
  spec.seed = GetParam();
  spec.num_latches = 4;
  spec.num_inputs = 2;
  spec.num_properties = 4;
  aig::Aig aig = gen::make_random_design(spec);
  Rng rng(GetParam() * 3 + 1);
  for (auto& prop : aig.properties()) {
    prop.expected_to_fail = rng.chance(1, 3);
  }
  ts::TransitionSystem ts(aig);
  ref::ExplicitResult expected = ref::explicit_check(ts);  // ETH-aware

  mp::MultiResult result = mp::JaVerifier(ts).run();
  for (std::size_t p = 0; p < ts.num_properties(); ++p) {
    if (expected.fails_locally(p)) {
      EXPECT_EQ(result.per_property[p].verdict,
                mp::PropertyVerdict::FailsLocally)
          << "seed " << GetParam() << " prop " << p
          << (ts.expected_to_fail(p) ? " (etf)" : " (eth)");
    } else {
      EXPECT_EQ(result.per_property[p].verdict,
                mp::PropertyVerdict::HoldsLocally)
          << "seed " << GetParam() << " prop " << p
          << (ts.expected_to_fail(p) ? " (etf)" : " (eth)");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EtfRandomTest,
                         ::testing::Range<std::uint64_t>(700, 720));

}  // namespace
}  // namespace javer
