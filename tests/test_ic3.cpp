// IC3 engine tests on designs with known semantics: proofs, CEX traces,
// invariant validity (checked by independent SAT queries), local proofs,
// clause seeding, lifting modes, and the frames metric.
#include <gtest/gtest.h>

#include "aig/builder.h"
#include "cnf/tseitin.h"
#include "gen/counter.h"
#include "gen/synthetic.h"
#include "ic3/ic3.h"
#include "mp/sched/property_task.h"
#include "ts/trace.h"
#include "test_util.h"

namespace javer::ic3 {
namespace {

TEST(Ic3, TrivialHoldingProperty) {
  aig::Aig aig;
  aig::Lit l = aig.add_latch(Ternary::False);
  aig.set_latch_next(l, l);
  aig.add_property(~l, "stays_zero");
  ts::TransitionSystem ts(aig);
  Ic3 engine(ts, 0);
  Ic3Result r = engine.run();
  EXPECT_EQ(r.status, CheckStatus::Holds);
  testutil::expect_valid_invariant(ts, 0, {}, r.invariant);
}

TEST(Ic3, ToggleCexAtDepthOne) {
  aig::Aig aig;
  aig::Lit l = aig.add_latch(Ternary::False);
  aig.set_latch_next(l, ~l);
  aig.add_property(~l, "never_one");
  ts::TransitionSystem ts(aig);
  Ic3 engine(ts, 0);
  Ic3Result r = engine.run();
  ASSERT_EQ(r.status, CheckStatus::Fails);
  EXPECT_EQ(r.cex.length(), 1u);
  EXPECT_TRUE(ts::is_global_cex(ts, r.cex, 0));
}

TEST(Ic3, DepthZeroCexOnInput) {
  aig::Aig aig;
  aig::Lit in = aig.add_input();
  aig::Lit l = aig.add_latch();
  aig.set_latch_next(l, l);
  aig.add_property(in, "input_stuck_high");
  ts::TransitionSystem ts(aig);
  Ic3 engine(ts, 0);
  Ic3Result r = engine.run();
  ASSERT_EQ(r.status, CheckStatus::Fails);
  EXPECT_EQ(r.cex.length(), 0u);
  EXPECT_EQ(r.frames, 0);
  EXPECT_TRUE(ts::is_global_cex(ts, r.cex, 0));
}

TEST(Ic3, SaturatingCounterHolds) {
  // scnt freezes once the top bit sets; values above 2^(n-1) unreachable.
  aig::Aig aig;
  aig::Builder b(aig);
  aig::Word scnt = b.latch_word(5);
  b.set_next(scnt,
             b.mux_word(scnt.back(), scnt,
                        b.inc_word(scnt, aig::Lit::true_lit())));
  aig.add_property(~b.eq_const(scnt, 21), "unreachable_value");
  ts::TransitionSystem ts(aig);
  Ic3 engine(ts, 0);
  Ic3Result r = engine.run();
  ASSERT_EQ(r.status, CheckStatus::Holds);
  EXPECT_FALSE(r.invariant.empty());
  testutil::expect_valid_invariant(ts, 0, {}, r.invariant);
}

TEST(Ic3, BuggyCounterGlobalCexIsDeep) {
  aig::Aig aig = gen::make_counter({.bits = 4, .buggy = true});
  ts::TransitionSystem ts(aig);
  Ic3 engine(ts, 1);  // P1: val <= rval
  Ic3Result r = engine.run();
  ASSERT_EQ(r.status, CheckStatus::Fails);
  EXPECT_EQ(r.cex.length(), 9u);  // 2^3 + 1 steps
  EXPECT_TRUE(ts::is_global_cex(ts, r.cex, 1));
}

TEST(Ic3, BuggyCounterLocalProofIsImmediate) {
  // Under the assumption P0 (req==1) the counter always resets at rval,
  // so P1 holds locally — the paper's Example 1 punchline.
  aig::Aig aig = gen::make_counter({.bits = 8, .buggy = true});
  ts::TransitionSystem ts(aig);
  Ic3Options opts;
  opts.assumed = {0};
  Ic3 engine(ts, 1, opts);
  Ic3Result r = engine.run();
  ASSERT_EQ(r.status, CheckStatus::Holds);
  EXPECT_LE(r.frames, 3);
  testutil::expect_valid_invariant(ts, 1, {0}, r.invariant);
}

TEST(Ic3, LocalCexForP0IsShallow) {
  aig::Aig aig = gen::make_counter({.bits = 6, .buggy = true});
  ts::TransitionSystem ts(aig);
  Ic3Options opts;
  opts.assumed = {1};
  Ic3 engine(ts, 0, opts);
  Ic3Result r = engine.run();
  ASSERT_EQ(r.status, CheckStatus::Fails);
  EXPECT_EQ(r.cex.length(), 0u);
  EXPECT_TRUE(ts::is_local_cex(ts, r.cex, 0, {1}));
}

TEST(Ic3, MaskedPropertyHoldsLocallyFailsGlobally) {
  // cnt: 0,1,2,...; P0: cnt!=1 (fails at 1), P1: cnt!=3 (fails at 3 but
  // masked by P0 under T_P).
  aig::Aig aig;
  aig::Builder b(aig);
  aig::Word cnt = b.latch_word(3);
  b.set_next(cnt, b.inc_word(cnt, aig::Lit::true_lit()));
  aig.add_property(~b.eq_const(cnt, 1), "p0");
  aig.add_property(~b.eq_const(cnt, 3), "p1");
  ts::TransitionSystem ts(aig);
  {
    Ic3Options opts;
    opts.assumed = {0};
    Ic3 engine(ts, 1, opts);
    Ic3Result r = engine.run();
    EXPECT_EQ(r.status, CheckStatus::Holds) << "masked property holds locally";
    testutil::expect_valid_invariant(ts, 1, {0}, r.invariant);
  }
  {
    Ic3 engine(ts, 1);
    Ic3Result r = engine.run();
    ASSERT_EQ(r.status, CheckStatus::Fails) << "but fails globally";
    EXPECT_EQ(r.cex.length(), 3u);
    EXPECT_TRUE(ts::is_global_cex(ts, r.cex, 1));
  }
}

TEST(Ic3, SeedClausesAcceptedAndInvalidOnesDropped) {
  aig::Aig aig;
  aig::Builder b(aig);
  aig::Word scnt = b.latch_word(4);
  b.set_next(scnt,
             b.mux_word(scnt.back(), scnt,
                        b.inc_word(scnt, aig::Lit::true_lit())));
  aig.add_property(~b.eq_const(scnt, 11), "p");
  ts::TransitionSystem ts(aig);

  Ic3Options opts;
  // Valid invariant clause of this system: ¬(scnt[3] ∧ scnt[0]).
  ts::Cube good{{0, true}, {3, true}};
  // Invalid: ¬scnt[1] is not inductive (bit 1 does get set).
  ts::Cube bad{{1, true}};
  // Intersects init: ¬(¬scnt[0] ∧ ¬scnt[1]) excludes the reset state.
  ts::Cube init_violating{{0, false}, {1, false}};
  opts.seed_clauses = {good, bad, init_violating};
  Ic3 engine(ts, 0, opts);
  Ic3Result r = engine.run();
  EXPECT_EQ(r.status, CheckStatus::Holds);
  EXPECT_EQ(r.stats.seed_clauses_kept, 1u);
  EXPECT_EQ(r.stats.seed_clauses_dropped, 2u);
  testutil::expect_valid_invariant(ts, 0, {}, r.invariant);
}

TEST(Ic3, LemmaCandidatesImportedOnlyWhenTheyRevalidate) {
  // One-hot ring: P0's local proof needs one strengthening cube. Under
  // local JA every sibling has the same path set (all non-ETF
  // properties), so that cube is inductive in their contexts too.
  aig::Aig aig = gen::make_ring(6);
  ts::TransitionSystem ts(aig);
  Ic3Options p0;
  p0.assumed = mp::sched::local_assumptions(ts, 0);
  Ic3Result proof = Ic3(ts, 0, p0).run();
  ASSERT_EQ(proof.status, CheckStatus::Holds);
  ASSERT_EQ(proof.invariant.size(), 1u);

  // The proven cube plus both values of latch 0: one of those contains
  // the reset state, the other is not inductive.
  std::vector<ts::Cube> candidates = proof.invariant;
  candidates.push_back(ts::Cube{ts::StateLit{0, true}});
  candidates.push_back(ts::Cube{ts::StateLit{0, false}});
  for (std::size_t p = 1; p < ts.num_properties(); ++p) {
    Ic3Options opts;
    opts.assumed = mp::sched::local_assumptions(ts, p);
    const CheckStatus plain = Ic3(ts, p, opts).run().status;
    ASSERT_EQ(plain, CheckStatus::Holds) << "P" << p;
    Ic3 engine(ts, p, opts);
    engine.add_lemma_candidates(candidates);
    Ic3Result r = engine.run();
    EXPECT_EQ(r.status, plain) << "P" << p;
    EXPECT_EQ(r.stats.lemmas_imported, 1u) << "P" << p;
    EXPECT_EQ(r.stats.lemmas_rejected, 2u) << "P" << p;
    testutil::expect_valid_invariant(ts, p, opts.assumed, r.invariant);
  }
}

TEST(Ic3, BothLiftingModesAgreeOnCounter) {
  for (bool respect : {false, true}) {
    aig::Aig aig = gen::make_counter({.bits = 4, .buggy = true});
    ts::TransitionSystem ts(aig);
    Ic3Options opts;
    opts.assumed = {0};
    opts.lifting_respects_constraints = respect;
    Ic3 engine(ts, 1, opts);
    EXPECT_EQ(engine.run().status, CheckStatus::Holds)
        << "respect=" << respect;
  }
}

TEST(Ic3, TimeLimitReturnsUnknown) {
  // Very wide buggy counter, global proof: the CEX is ~2^19 steps deep and
  // cannot be produced within the budget.
  aig::Aig aig = gen::make_counter({.bits = 20, .buggy = true});
  ts::TransitionSystem ts(aig);
  Ic3Options opts;
  opts.time_limit_seconds = 0.05;
  Ic3 engine(ts, 1, opts);
  Ic3Result r = engine.run();
  EXPECT_EQ(r.status, CheckStatus::Unknown);
}

TEST(Ic3, MaxFramesReturnsUnknown) {
  aig::Aig aig = gen::make_counter({.bits = 8, .buggy = true});
  ts::TransitionSystem ts(aig);
  Ic3Options opts;
  opts.max_frames = 2;
  Ic3 engine(ts, 1, opts);
  Ic3Result r = engine.run();
  EXPECT_EQ(r.status, CheckStatus::Unknown);
  EXPECT_LE(r.frames, 2);
}

TEST(Ic3, RejectsBadArguments) {
  aig::Aig aig;
  aig::Lit l = aig.add_latch();
  aig.set_latch_next(l, l);
  aig.add_property(~l, "p");
  ts::TransitionSystem ts(aig);
  EXPECT_THROW(Ic3(ts, 5), std::invalid_argument);
  Ic3Options self_assumed;
  self_assumed.assumed = {0};
  EXPECT_THROW(Ic3(ts, 0, self_assumed), std::invalid_argument);
}

TEST(Ic3, DesignConstraintBlocksCex) {
  aig::Aig aig;
  aig::Lit in = aig.add_input();
  aig::Lit l = aig.add_latch();
  aig.set_latch_next(l, in);
  aig.add_property(~l, "never");
  aig.add_constraint(~in);
  ts::TransitionSystem ts(aig);
  Ic3 engine(ts, 0);
  Ic3Result r = engine.run();
  EXPECT_EQ(r.status, CheckStatus::Holds);
  testutil::expect_valid_invariant(ts, 0, {}, r.invariant);
}

TEST(Ic3, XResetLatchFreeInitialValue) {
  aig::Aig aig;
  aig::Lit l = aig.add_latch(Ternary::X);
  aig.set_latch_next(l, l);
  aig.add_property(~l, "zero");
  ts::TransitionSystem ts(aig);
  Ic3 engine(ts, 0);
  Ic3Result r = engine.run();
  ASSERT_EQ(r.status, CheckStatus::Fails);
  EXPECT_EQ(r.cex.length(), 0u);
  EXPECT_TRUE(ts::is_global_cex(ts, r.cex, 0));
}

}  // namespace
}  // namespace javer::ic3
