// Synthetic HWMCC-like generator tests: every property class must behave
// as designed — verified with the explicit oracle on small instances and
// with the engines on larger ones.
#include <gtest/gtest.h>

#include "gen/synthetic.h"
#include "mp/ja_verifier.h"
#include "ref/explicit_checker.h"

namespace javer::gen {
namespace {

SyntheticSpec small_spec(std::uint64_t seed) {
  SyntheticSpec spec;
  spec.seed = seed;
  spec.wrap_counter_bits = 4;
  spec.sat_counter_bits = 4;
  spec.rings = 1;
  spec.ring_size = 4;
  spec.ring_props = 4;
  spec.pair_props = 2;
  spec.unreachable_props = 3;
  spec.det_fail_props = 1;
  spec.input_fail_props = 2;
  spec.masked_fail_props = 2;
  spec.fail_window_log2 = 2;
  return spec;
}

class SyntheticOracleTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SyntheticOracleTest, ClassesMatchExplicitCheck) {
  aig::Aig aig = make_synthetic(small_spec(GetParam()));
  ts::TransitionSystem ts(aig);
  ref::ExplicitLimits limits;
  limits.max_inputs = 16;
  ref::ExplicitResult r = ref::explicit_check(ts, limits);
  auto classes = synthetic_expected_classes(aig);
  ASSERT_EQ(classes.size(), ts.num_properties());
  for (std::size_t p = 0; p < classes.size(); ++p) {
    SCOPED_TRACE("seed " + std::to_string(GetParam()) + " prop " +
                 std::to_string(p) + " (" + ts.property_name(p) + ")");
    switch (classes[p]) {
      case 0:
        EXPECT_FALSE(r.fails_globally(p));
        break;
      case 1:
        EXPECT_TRUE(r.fails_locally(p));
        break;
      case 2:
        EXPECT_TRUE(r.fails_globally(p));
        EXPECT_FALSE(r.fails_locally(p));
        break;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SyntheticOracleTest,
                         ::testing::Range<std::uint64_t>(1, 6));

TEST(Synthetic, JaVerifierRecoversClassesOnMediumDesign) {
  SyntheticSpec spec;
  spec.seed = 7;
  spec.wrap_counter_bits = 6;
  spec.sat_counter_bits = 6;
  spec.rings = 2;
  spec.ring_size = 6;
  spec.ring_props = 12;
  spec.pair_props = 4;
  spec.unreachable_props = 6;
  spec.det_fail_props = 1;
  spec.input_fail_props = 3;
  spec.masked_fail_props = 2;
  aig::Aig aig = make_synthetic(spec);
  ts::TransitionSystem ts(aig);

  mp::JaOptions opts;
  opts.time_limit_per_property = 30.0;
  mp::JaVerifier ja(ts, opts);
  mp::MultiResult result = ja.run();

  auto classes = synthetic_expected_classes(aig);
  for (std::size_t p = 0; p < classes.size(); ++p) {
    SCOPED_TRACE("prop " + std::to_string(p) + " (" + ts.property_name(p) +
                 ")");
    switch (classes[p]) {
      case 0:
      case 2:  // masked failures hold locally
        EXPECT_EQ(result.per_property[p].verdict,
                  mp::PropertyVerdict::HoldsLocally);
        break;
      case 1:
        EXPECT_EQ(result.per_property[p].verdict,
                  mp::PropertyVerdict::FailsLocally);
        break;
    }
  }
}

TEST(Synthetic, RingDesignShape) {
  aig::Aig aig = make_ring(8);
  SyntheticSpec defaults;
  EXPECT_EQ(aig.num_properties(), 8u);
  // ring latches plus the two shared counters.
  EXPECT_EQ(aig.num_latches(), 8u + defaults.wrap_counter_bits +
                                   defaults.sat_counter_bits);
  auto classes = synthetic_expected_classes(aig);
  for (int c : classes) EXPECT_EQ(c, 0);
}

TEST(Synthetic, SpecValidation) {
  SyntheticSpec bad = small_spec(1);
  bad.det_fail_props = 0;  // masked failures need the deterministic gate
  EXPECT_THROW(make_synthetic(bad), std::invalid_argument);

  SyntheticSpec bad2 = small_spec(1);
  bad2.fail_window_log2 = bad2.wrap_counter_bits;
  EXPECT_THROW(make_synthetic(bad2), std::invalid_argument);
}

TEST(Synthetic, DeterministicForSameSeed) {
  aig::Aig a = make_synthetic(small_spec(9));
  aig::Aig b = make_synthetic(small_spec(9));
  ASSERT_EQ(a.num_properties(), b.num_properties());
  for (std::size_t p = 0; p < a.num_properties(); ++p) {
    EXPECT_EQ(a.properties()[p].name, b.properties()[p].name);
    EXPECT_EQ(a.properties()[p].lit.code(), b.properties()[p].lit.code());
  }
}

TEST(Synthetic, ChainPropertiesHoldAndShareInvariant) {
  SyntheticSpec spec;
  spec.seed = 12;
  spec.rings = 0;
  spec.ring_props = 0;
  spec.pair_props = 0;
  spec.unreachable_props = 0;
  spec.wrap_counter_bits = 4;
  spec.sat_counter_bits = 4;
  spec.fail_window_log2 = 2;
  spec.chain_props = 3;
  spec.chain_depth = 4;
  spec.shuffle_properties = false;
  aig::Aig aig = make_synthetic(spec);
  ts::TransitionSystem ts(aig);
  // Small enough for the exact oracle: all chain properties are true.
  ref::ExplicitLimits limits;
  limits.max_inputs = 8;
  ref::ExplicitResult r = ref::explicit_check(ts, limits);
  for (std::size_t p = 0; p < ts.num_properties(); ++p) {
    EXPECT_FALSE(r.fails_globally(p)) << "prop " << p;
  }
  // And the re-use effect is visible: fewer queries with a shared DB.
  std::uint64_t with = 0, without = 0;
  for (bool reuse : {false, true}) {
    mp::JaOptions opts;
    opts.clause_reuse = reuse;
    mp::MultiResult result = mp::JaVerifier(ts, opts).run();
    std::uint64_t q = 0;
    for (const auto& pr : result.per_property) {
      q += pr.engine_stats.consecution_queries;
    }
    (reuse ? with : without) = q;
  }
  EXPECT_LE(with, without);
}

TEST(Synthetic, ShuffleChangesOrderOnly) {
  SyntheticSpec spec = small_spec(3);
  spec.shuffle_properties = false;
  aig::Aig ordered = make_synthetic(spec);
  spec.shuffle_properties = true;
  aig::Aig shuffled = make_synthetic(spec);
  ASSERT_EQ(ordered.num_properties(), shuffled.num_properties());
  std::multiset<std::string> names_a, names_b;
  for (const auto& p : ordered.properties()) names_a.insert(p.name);
  for (const auto& p : shuffled.properties()) names_b.insert(p.name);
  EXPECT_EQ(names_a, names_b);
}

}  // namespace
}  // namespace javer::gen
