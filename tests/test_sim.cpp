// Simulation tests: 64-way parallel vs single-pattern consistency,
// initial-state helpers.
#include <gtest/gtest.h>

#include "aig/builder.h"
#include "aig/sim.h"
#include "base/rng.h"
#include "gen/random_design.h"

namespace javer::aig {
namespace {

TEST(Simulator64, AndGate) {
  Aig aig;
  Lit a = aig.add_input();
  Lit b = aig.add_input();
  Lit g = aig.add_and(a, b);
  Simulator64 sim(aig);
  sim.eval({}, {0b1100, 0b1010});
  EXPECT_EQ(sim.value(g) & 0xf, 0b1000u);
  EXPECT_EQ(sim.value(~g) & 0xf, 0b0111u);
}

TEST(Simulator64, SizeMismatchThrows) {
  Aig aig;
  aig.add_input();
  Simulator64 sim(aig);
  EXPECT_THROW(sim.eval({}, {}), std::invalid_argument);
  EXPECT_THROW(sim.eval({1}, {2}), std::invalid_argument);
}

TEST(Simulator, MatchesParallelOnRandomDesigns) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    gen::RandomDesignSpec spec;
    spec.seed = seed;
    spec.num_latches = 5;
    spec.num_inputs = 3;
    spec.num_ands = 30;
    Aig aig = gen::make_random_design(spec);

    javer::Rng rng(seed * 13);
    std::vector<bool> state(aig.num_latches()), inputs(aig.num_inputs());
    for (auto&& s : state) s = rng.chance(1, 2);
    for (auto&& i : inputs) i = rng.chance(1, 2);

    Simulator single(aig);
    single.eval(state, inputs);

    std::vector<std::uint64_t> state64(state.size()), inputs64(inputs.size());
    for (std::size_t i = 0; i < state.size(); ++i) {
      state64[i] = state[i] ? ~0ULL : 0;
    }
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      inputs64[i] = inputs[i] ? ~0ULL : 0;
    }
    Simulator64 parallel(aig);
    parallel.eval(state64, inputs64);

    for (Var v = 1; v < aig.num_nodes(); ++v) {
      Lit l = Lit::make(v);
      EXPECT_EQ(single.value(l), (parallel.value(l) & 1) != 0)
          << "seed " << seed << " node " << v;
    }
    auto n1 = single.next_state();
    auto n64 = parallel.next_state();
    for (std::size_t i = 0; i < n1.size(); ++i) {
      EXPECT_EQ(n1[i], (n64[i] & 1) != 0);
    }
  }
}

TEST(InitialState, ResetsRespected) {
  Aig aig;
  aig.add_latch(Ternary::False);
  aig.add_latch(Ternary::True);
  aig.add_latch(Ternary::X);
  auto s0 = initial_state(aig, /*x_fill=*/false);
  EXPECT_EQ(s0, (std::vector<bool>{false, true, false}));
  auto s1 = initial_state(aig, /*x_fill=*/true);
  EXPECT_EQ(s1, (std::vector<bool>{false, true, true}));
  EXPECT_TRUE(is_initial_state(aig, s0));
  EXPECT_TRUE(is_initial_state(aig, s1));  // X latch free
  EXPECT_FALSE(is_initial_state(aig, {true, true, false}));
  EXPECT_FALSE(is_initial_state(aig, {false, false, true}));
}

TEST(Simulator, NextStateSequence) {
  // 2-bit counter: verify a few steps of sequential evaluation.
  Aig aig;
  Builder b(aig);
  Word cnt = b.latch_word(2);
  b.set_next(cnt, b.inc_word(cnt, Lit::true_lit()));
  Simulator sim(aig);
  std::vector<bool> state = initial_state(aig);
  std::vector<std::uint64_t> seen;
  for (int step = 0; step < 6; ++step) {
    seen.push_back((state[0] ? 1 : 0) | (state[1] ? 2 : 0));
    sim.eval(state, {});
    state = sim.next_state();
  }
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{0, 1, 2, 3, 0, 1}));
}

}  // namespace
}  // namespace javer::aig
