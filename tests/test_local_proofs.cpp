// Engine-level tests of the local-proof machinery from Sections 2-4 and
// the two observations of Section 11: (a) the larger the property set,
// the easier each local proof; (b) clause re-use matters less as the
// assumption set grows.
#include <gtest/gtest.h>

#include "aig/builder.h"
#include "gen/synthetic.h"
#include "ic3/ic3.h"
#include "mp/clause_db.h"
#include "mp/sched/scheduler.h"
#include "ts/trace.h"

namespace javer {
namespace {

// Ring adjacency property: locally one-frame inductive when the
// neighbouring property is assumed (the Table X mechanism).
TEST(LocalProofs, RingPropertyOneFrameWithNeighbourAssumed) {
  aig::Aig aig = gen::make_ring(10);
  ts::TransitionSystem ts(aig);
  for (std::size_t p = 0; p < ts.num_properties(); ++p) {
    std::vector<std::size_t> assumed;
    for (std::size_t j = 0; j < ts.num_properties(); ++j) {
      if (j != p) assumed.push_back(j);
    }
    ic3::Ic3Options opts;
    opts.assumed = assumed;
    ic3::Ic3 engine(ts, p, opts);
    ic3::Ic3Result r = engine.run();
    ASSERT_EQ(r.status, CheckStatus::Holds) << "prop " << p;
    EXPECT_LE(r.frames, 1) << "prop " << p
                           << ": local ring proofs are one-frame";
  }
}

TEST(LocalProofs, RingPropertyGlobalNeedsMoreFrames) {
  aig::Aig aig = gen::make_ring(10);
  ts::TransitionSystem ts(aig);
  int max_frames = 0;
  for (std::size_t p = 0; p < ts.num_properties(); ++p) {
    ic3::Ic3 engine(ts, p);
    ic3::Ic3Result r = engine.run();
    ASSERT_EQ(r.status, CheckStatus::Holds) << "prop " << p;
    max_frames = std::max(max_frames, r.frames);
  }
  EXPECT_GT(max_frames, 1)
      << "global proofs need the one-hot invariant (Table X shape)";
}

// Section 11, observation 1: growing the assumption set cannot make a
// local proof harder; with all neighbours assumed the proof is immediate.
TEST(LocalProofs, MoreAssumptionsFewerFrames) {
  aig::Aig aig = gen::make_ring(8);
  ts::TransitionSystem ts(aig);
  std::size_t target = 3;  // an interior adjacency property

  // No assumptions (global), neighbour only, everything.
  std::vector<std::vector<std::size_t>> assumption_sets;
  assumption_sets.push_back({});
  assumption_sets.push_back({2});  // P2 = ¬(r2 ∧ r3) is the key neighbour
  std::vector<std::size_t> all;
  for (std::size_t j = 0; j < ts.num_properties(); ++j) {
    if (j != target) all.push_back(j);
  }
  assumption_sets.push_back(all);

  std::vector<int> frames;
  for (const auto& assumed : assumption_sets) {
    ic3::Ic3Options opts;
    opts.assumed = assumed;
    ic3::Ic3 engine(ts, target, opts);
    ic3::Ic3Result r = engine.run();
    ASSERT_EQ(r.status, CheckStatus::Holds);
    frames.push_back(r.frames);
  }
  EXPECT_LE(frames[1], frames[0]) << "one assumption must not hurt";
  EXPECT_LE(frames[2], frames[1]) << "all assumptions must not hurt";
  EXPECT_LE(frames[2], 1);
}

// The projection semantics at engine level: a property failing only
// *after* another property is proven locally true, and its local "Holds"
// really means every CEX breaks the other property first (checked by
// obtaining the global CEX and analysing it).
TEST(LocalProofs, LocalHoldsMeansOtherPropertyBreaksFirst) {
  aig::Aig aig;
  aig::Builder b(aig);
  aig::Word cnt = b.latch_word(4);
  b.set_next(cnt, b.inc_word(cnt, aig::Lit::true_lit()));
  aig.add_property(~b.eq_const(cnt, 3), "gate");    // fails at depth 3
  aig.add_property(~b.eq_const(cnt, 9), "masked");  // fails at depth 9
  ts::TransitionSystem ts(aig);

  ic3::Ic3Options local;
  local.assumed = {0};
  ic3::Ic3 local_engine(ts, 1, local);
  EXPECT_EQ(local_engine.run().status, CheckStatus::Holds);

  ic3::Ic3 global_engine(ts, 1);
  ic3::Ic3Result g = global_engine.run();
  ASSERT_EQ(g.status, CheckStatus::Fails);
  ts::TraceAnalysis a = ts::analyze_trace(ts, g.cex);
  ASSERT_GE(a.first_failure[0], 0);
  EXPECT_LT(a.first_failure[0], a.first_failure[1])
      << "every CEX for 'masked' must break 'gate' first (Prop 2B)";
}

// Clause re-use across properties sharing one invariant: the second proof
// should need (far) fewer of its own clauses.
TEST(LocalProofs, ClauseReuseShrinksLaterProofs) {
  aig::Aig aig;
  aig::Builder b(aig);
  aig::Word scnt = b.latch_word(6);
  b.set_next(scnt,
             b.mux_word(scnt.back(), scnt,
                        b.inc_word(scnt, aig::Lit::true_lit())));
  // Ten properties, each "scnt never equals an unreachable value".
  for (std::uint64_t u = 33; u < 43; ++u) {
    aig.add_property(~b.eq_const(scnt, u), "u" + std::to_string(u));
  }
  ts::TransitionSystem ts(aig);

  // Global separate verification (so assumptions don't trivialize the
  // comparison), with and without re-use.
  std::uint64_t queries_with = 0, queries_without = 0;
  for (bool reuse : {false, true}) {
    mp::sched::SchedulerOptions so;
    so.proof_mode = mp::sched::ProofMode::Global;
    so.engine.clause_reuse = reuse;
    mp::MultiResult result = mp::sched::Scheduler(ts, so).run();
    std::uint64_t total_queries = 0;
    for (const auto& pr : result.per_property) {
      EXPECT_EQ(pr.verdict, mp::PropertyVerdict::HoldsGlobally);
      total_queries += pr.engine_stats.consecution_queries;
    }
    (reuse ? queries_with : queries_without) = total_queries;
  }
  EXPECT_LT(queries_with, queries_without)
      << "re-used strengthening clauses must cut the work (Table VII)";
}

// Seeded clauses from a *different* property's proof must be re-validated
// rather than trusted: stale or target-specific clauses get dropped.
TEST(LocalProofs, SeedValidationDropsNonInductiveClauses) {
  aig::Aig aig;
  aig::Builder b(aig);
  aig::Word scnt = b.latch_word(6);  // saturating counter, range [0, 32]
  b.set_next(scnt,
             b.mux_word(scnt.back(), scnt,
                        b.inc_word(scnt, aig::Lit::true_lit())));
  aig.add_property(~b.eq_const(scnt, 40), "never40");  // 40 unreachable
  ts::TransitionSystem ts(aig);

  ic3::Ic3Options opts;
  // None of these clauses is inductive: low counter bits do get set.
  opts.seed_clauses = {{{0, true}}, {{1, true}}, {{3, true}, {2, true}}};
  ic3::Ic3 engine(ts, 0, opts);
  ic3::Ic3Result r = engine.run();
  EXPECT_EQ(r.status, CheckStatus::Holds);
  EXPECT_EQ(r.stats.seed_clauses_kept, 0u);
  EXPECT_EQ(r.stats.seed_clauses_dropped, 3u);
}

}  // namespace
}  // namespace javer
