// AIGER reader/writer tests: hand-written files, both formats,
// round-trips through ASCII and binary, error handling, 1.9 extensions.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <sstream>

#include "aig/aiger_io.h"
#include "aig/builder.h"
#include "aig/sim.h"
#include "base/rng.h"
#include "gen/counter.h"
#include "gen/random_design.h"

namespace javer::aig {
namespace {

TEST(AigerRead, ToggleLatchAscii) {
  // A latch that toggles: next = ~latch; bad when latch is 1.
  std::istringstream in(
      "aag 1 0 1 0 0 1\n"
      "2 3\n"
      "2\n");
  Aig aig = read_aiger(in);
  EXPECT_EQ(aig.num_latches(), 1u);
  EXPECT_EQ(aig.num_properties(), 1u);
  // bad literal 2 => property holds-literal is ~latch.
  EXPECT_EQ(aig.properties()[0].lit, ~Lit::make(aig.latches()[0].var));
}

TEST(AigerRead, AndGateAscii) {
  std::istringstream in(
      "aag 3 2 0 1 1\n"
      "2\n"
      "4\n"
      "6\n"
      "6 2 4\n");
  Aig aig = read_aiger(in);
  EXPECT_EQ(aig.num_inputs(), 2u);
  EXPECT_EQ(aig.num_ands(), 1u);
  // Old-style single output becomes a bad-state property by default.
  EXPECT_EQ(aig.num_properties(), 1u);
  Simulator sim(aig);
  sim.eval({}, {true, true});
  EXPECT_FALSE(sim.value(aig.properties()[0].lit));  // bad=and(1,1)=1
  sim.eval({}, {true, false});
  EXPECT_TRUE(sim.value(aig.properties()[0].lit));
}

TEST(AigerRead, AsciiGatesMayReferToLaterLines) {
  // bad = and(g, a) with g = and(a, b) defined on the next line; the
  // reader resolves the forward reference (and finds no cycle).
  std::istringstream in(
      "aag 4 2 0 1 2\n"
      "2\n"
      "4\n"
      "8\n"
      "8 6 2\n"
      "6 2 4\n");
  Aig aig = read_aiger(in);
  EXPECT_EQ(aig.num_ands(), 2u);
  Simulator sim(aig);
  sim.eval({}, {true, true});
  EXPECT_FALSE(sim.value(aig.properties()[0].lit));
  sim.eval({}, {true, false});
  EXPECT_TRUE(sim.value(aig.properties()[0].lit));
}

TEST(AigerRead, OutputsKeptWhenFallbackDisabled) {
  std::istringstream in(
      "aag 1 1 0 1 0\n"
      "2\n"
      "2\n");
  AigerReadOptions opts;
  opts.outputs_as_bad_fallback = false;
  Aig aig = read_aiger(in, opts);
  EXPECT_EQ(aig.num_properties(), 0u);
  EXPECT_EQ(aig.outputs().size(), 1u);
}

TEST(AigerRead, LatchResetValues) {
  std::istringstream in(
      "aag 3 0 3 0 0\n"
      "2 2 0\n"
      "4 4 1\n"
      "6 6 6\n");
  Aig aig = read_aiger(in);
  ASSERT_EQ(aig.num_latches(), 3u);
  EXPECT_EQ(aig.latches()[0].reset, Ternary::False);
  EXPECT_EQ(aig.latches()[1].reset, Ternary::True);
  EXPECT_EQ(aig.latches()[2].reset, Ternary::X);
}

TEST(AigerRead, BadAndConstraintSections) {
  // Header: M I L O A B C
  std::istringstream in(
      "aag 2 2 0 0 0 1 1\n"
      "2\n"
      "4\n"
      "2\n"
      "4\n");
  Aig aig = read_aiger(in);
  EXPECT_EQ(aig.num_properties(), 1u);
  EXPECT_EQ(aig.constraints().size(), 1u);
}

TEST(AigerRead, SymbolTable) {
  std::istringstream in(
      "aag 1 1 0 0 0 1\n"
      "2\n"
      "2\n"
      "b0 my_property\n");
  Aig aig = read_aiger(in);
  ASSERT_EQ(aig.num_properties(), 1u);
  EXPECT_EQ(aig.properties()[0].name, "my_property");
}

TEST(AigerRead, MalformedInputsThrow) {
  {
    std::istringstream in("not_aiger\n");
    EXPECT_THROW(read_aiger(in), std::runtime_error);
  }
  {
    std::istringstream in("aag 1 1 1 0 0\n");  // truncated
    EXPECT_THROW(read_aiger(in), std::runtime_error);
  }
  {
    std::istringstream in("aag 1 0 0 0 0 0 0 1\n");  // justice section
    EXPECT_THROW(read_aiger(in), std::runtime_error);
  }
  {
    // And gate with out-of-range fanin.
    std::istringstream in("aag 1 0 0 0 1\n2 4 6\n");
    EXPECT_THROW(read_aiger(in), std::runtime_error);
  }
  {
    // M past Lit's variable range (M + 1 wraps to 0 in 64 bits).
    std::istringstream in("aag 18446744073709551615 0 0 0 0\n");
    EXPECT_THROW(read_aiger(in), std::runtime_error);
  }
  {
    // Two-gate cycle through the second fanin.
    std::istringstream in("aag 3 0 0 0 2 1 0\n0\n4 0 6\n6 0 4\n");
    EXPECT_THROW(read_aiger(in), std::runtime_error);
  }
  {
    // Binary header whose implicit inputs exceed M.
    std::istringstream in("aig 3 100000000000 0 0 0\n");
    EXPECT_THROW(read_aiger(in), std::runtime_error);
  }
}

long peak_rss_kib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

TEST(AigerRead, MapsSpanTheDefinedVariablesNotTheHeaderM) {
  // ASCII lets M exceed I + L + A: a header-only file with a huge M
  // defines nothing and must not allocate maps over M (800 MB here).
  const long before = peak_rss_kib();
  std::istringstream empty("aag 200000000 0 0 0 0\n");
  EXPECT_EQ(read_aiger(empty).num_properties(), 0u);
  EXPECT_LT(peak_rss_kib() - before, 64 * 1024);

  // A literal past the defined variables but within M is undefined and
  // reads as constant false, as one below them does.
  std::istringstream past("aag 1000 1 0 0 0 1\n2\n2000\n");
  Aig a = read_aiger(past);
  ASSERT_EQ(a.num_properties(), 1u);
  EXPECT_EQ(a.properties()[0].lit, Lit::true_lit());  // bad = false
}

// Round-trip helper: write then read, then compare semantics by
// simulating both designs on identical stimuli.
void expect_equivalent(const Aig& a, const Aig& b, std::uint64_t seed) {
  ASSERT_EQ(a.num_inputs(), b.num_inputs());
  ASSERT_EQ(a.num_latches(), b.num_latches());
  ASSERT_EQ(a.num_properties(), b.num_properties());
  javer::Rng rng(seed);
  std::vector<bool> sa = initial_state(a), sb = initial_state(b);
  Simulator sim_a(a), sim_b(b);
  for (int step = 0; step < 30; ++step) {
    std::vector<bool> inputs(a.num_inputs());
    for (auto&& i : inputs) i = rng.chance(1, 2);
    sim_a.eval(sa, inputs);
    sim_b.eval(sb, inputs);
    for (std::size_t p = 0; p < a.num_properties(); ++p) {
      ASSERT_EQ(sim_a.value(a.properties()[p].lit),
                sim_b.value(b.properties()[p].lit))
          << "step " << step << " property " << p;
    }
    sa = sim_a.next_state();
    sb = sim_b.next_state();
    ASSERT_EQ(sa, sb) << "state diverged at step " << step;
  }
}

class AigerRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AigerRoundTrip, AsciiPreservesSemantics) {
  gen::RandomDesignSpec spec;
  spec.seed = GetParam();
  spec.num_latches = 6;
  spec.num_inputs = 3;
  spec.num_ands = 40;
  spec.num_properties = 4;
  Aig original = gen::make_random_design(spec);

  std::ostringstream out;
  write_aiger(out, original, /*binary=*/false);
  std::istringstream in(out.str());
  Aig back = read_aiger(in);
  expect_equivalent(original, back, GetParam());
}

TEST_P(AigerRoundTrip, BinaryPreservesSemantics) {
  gen::RandomDesignSpec spec;
  spec.seed = GetParam() + 1000;
  spec.num_latches = 6;
  spec.num_inputs = 3;
  spec.num_ands = 40;
  spec.num_properties = 4;
  Aig original = gen::make_random_design(spec);

  std::ostringstream out;
  write_aiger(out, original, /*binary=*/true);
  std::istringstream in(out.str());
  Aig back = read_aiger(in);
  expect_equivalent(original, back, GetParam());
}

TEST_P(AigerRoundTrip, BinaryAndAsciiAgree) {
  gen::RandomDesignSpec spec;
  spec.seed = GetParam() + 2000;
  Aig original = gen::make_random_design(spec);

  std::ostringstream ascii_out, binary_out;
  write_aiger(ascii_out, original, false);
  write_aiger(binary_out, original, true);
  std::istringstream ascii_in(ascii_out.str()), binary_in(binary_out.str());
  Aig from_ascii = read_aiger(ascii_in);
  Aig from_binary = read_aiger(binary_in);
  expect_equivalent(from_ascii, from_binary, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, AigerRoundTrip,
                         ::testing::Range<std::uint64_t>(1, 16));

TEST(AigerRoundTrip, CounterDesign) {
  Aig counter = gen::make_counter({.bits = 6, .buggy = true});
  std::ostringstream out;
  write_aiger(out, counter, /*binary=*/true);
  std::istringstream in(out.str());
  Aig back = read_aiger(in);
  expect_equivalent(counter, back, 99);
  EXPECT_EQ(back.properties()[0].name, "P0: req == 1");
}

}  // namespace
}  // namespace javer::aig
