// Simulation-prefilter tests (mp/simfilter): batch-vs-scalar simulator
// fuzzing, the soundness contract (every prefilter kill is a certified
// witness; the filter can never flip a verdict — off/falsify/full agree
// with the explicit-state oracle, including ETF and constrained designs),
// determinism across thread counts, and signature-guided clustering.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "aig/aig.h"
#include "aig/sim.h"
#include "base/rng.h"
#include "gen/random_design.h"
#include "mp/clustering.h"
#include "mp/sched/property_task.h"
#include "mp/sched/scheduler.h"
#include "mp/sched/worker_pool.h"
#include "mp/shard/sharded_scheduler.h"
#include "mp/simfilter/sim_filter.h"
#include "obs/metrics.h"
#include "ref/explicit_checker.h"
#include "ts/trace.h"
#include "ts/transition_system.h"

namespace javer::mp::simfilter {
namespace {

aig::Aig small_design(std::uint64_t seed, std::size_t props = 4,
                      unsigned weaken_percent = 50) {
  gen::RandomDesignSpec spec;
  spec.seed = seed;
  spec.num_latches = 4;
  spec.num_inputs = 2;
  spec.num_ands = 18;
  spec.num_properties = props;
  spec.weaken_percent = weaken_percent;
  return gen::make_random_design(spec);
}

SimFilterOptions filter_opts(SimFilterMode mode) {
  SimFilterOptions o;
  o.mode = mode;
  o.depth = 12;
  o.patterns = 128;
  return o;
}

std::vector<std::size_t> all_props(const ts::TransitionSystem& ts) {
  std::vector<std::size_t> targets(ts.num_properties());
  for (std::size_t p = 0; p < targets.size(); ++p) targets[p] = p;
  return targets;
}

// An input-fed latch whose property fails one step after the input is
// raised — the shallowest possible non-initial failure.
aig::Aig shallow_fail_design() {
  aig::Aig aig;
  aig::Lit in = aig.add_input();
  aig::Lit l = aig.add_latch(Ternary::False);
  aig.set_latch_next(l, in);
  aig.add_property(~l);
  return aig;
}

// The same latch, but a design constraint pins the feeding input to 0, so
// the "failing" pattern is unreachable and the property holds. A filter
// that ignored constraint death would kill it unsoundly.
aig::Aig constrained_design() {
  aig::Aig aig;
  aig::Lit in = aig.add_input();
  aig::Lit l = aig.add_latch(Ternary::False);
  aig.set_latch_next(l, in);
  aig.add_constraint(~in);
  aig.add_property(~l);
  return aig;
}

// --- batch simulator fuzz ---------------------------------------------------

TEST(Simulator64Fuzz, MultiStepBatchMatchesScalarPerPattern) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    gen::RandomDesignSpec spec;
    spec.seed = seed;
    spec.num_latches = 5;
    spec.num_inputs = 3;
    spec.num_ands = 30;
    aig::Aig aig = gen::make_random_design(spec);

    Rng rng(seed * 101);
    std::vector<std::uint64_t> state64(aig.num_latches());
    for (auto& w : state64) w = rng.next();
    std::vector<std::vector<std::uint64_t>> inputs64(6);
    for (auto& step : inputs64) {
      step.resize(aig.num_inputs());
      for (auto& w : step) w = rng.next();
    }

    // Walk every step once with the 64-wide simulator, then re-walk three
    // sampled pattern lanes with the scalar one and compare every node.
    aig::Simulator64 batch(aig);
    aig::Simulator scalar(aig);
    for (int pattern : {0, 17, 63}) {
      std::vector<std::uint64_t> s64 = state64;
      std::vector<bool> s(aig.num_latches());
      for (std::size_t i = 0; i < s.size(); ++i) {
        s[i] = (state64[i] >> pattern) & 1;
      }
      for (const auto& in64 : inputs64) {
        std::vector<bool> in(aig.num_inputs());
        for (std::size_t i = 0; i < in.size(); ++i) {
          in[i] = (in64[i] >> pattern) & 1;
        }
        batch.eval(s64, in64);
        scalar.eval(s, in);
        for (aig::Var v = 1; v < aig.num_nodes(); ++v) {
          aig::Lit l = aig::Lit::make(v);
          ASSERT_EQ(scalar.value(l), ((batch.value(l) >> pattern) & 1) != 0)
              << "seed " << seed << " pattern " << pattern << " node " << v;
        }
        batch.step_state(s64);
        scalar.step_state(s);
      }
    }
  }
}

// --- kill soundness ---------------------------------------------------------

TEST(SimFilter, EveryKillIsACertifiedWitness) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    // Bias towards failing properties so kills actually happen.
    aig::Aig aig = small_design(seed, 4, /*weaken_percent=*/20);
    ts::TransitionSystem ts(aig);
    ref::ExplicitResult oracle = ref::explicit_check(ts);

    for (bool local : {true, false}) {
      SimFilter filter(ts, filter_opts(SimFilterMode::Falsify), local,
                       nullptr, nullptr);
      filter.run(all_props(ts), nullptr);
      for (const SimKill& k : filter.kills()) {
        EXPECT_EQ(static_cast<std::size_t>(k.depth), k.cex.length());
        if (local) {
          EXPECT_TRUE(ts::is_local_cex(ts, k.cex, k.prop,
                                       sched::local_assumptions(ts, k.prop)))
              << "seed " << seed << " P" << k.prop;
          EXPECT_TRUE(oracle.fails_locally(k.prop));
        } else {
          EXPECT_TRUE(ts::is_global_cex(ts, k.cex, k.prop))
              << "seed " << seed << " P" << k.prop;
          EXPECT_TRUE(oracle.fails_globally(k.prop));
        }
      }
      EXPECT_EQ(filter.stats().kills, filter.kills().size());
      // Targets always get a nonzero signature, swept or not.
      for (std::size_t p = 0; p < ts.num_properties(); ++p) {
        EXPECT_NE(filter.signatures()[p], 0u);
      }
    }
  }
}

TEST(SimFilter, ShallowFailureIsKilledAtDepthOne) {
  aig::Aig aig = shallow_fail_design();
  ts::TransitionSystem ts(aig);
  SimFilter filter(ts, filter_opts(SimFilterMode::Falsify), /*local=*/true,
                   nullptr, nullptr);
  filter.run(all_props(ts), nullptr);
  ASSERT_EQ(filter.kills().size(), 1u);
  EXPECT_EQ(filter.kills()[0].prop, 0u);
  EXPECT_EQ(filter.kills()[0].depth, 1);
  EXPECT_EQ(filter.stats().discarded, 0u);
}

TEST(SimFilter, ConstraintViolatingPatternsAreNeverKills) {
  aig::Aig aig = constrained_design();
  ts::TransitionSystem ts(aig);
  ref::ExplicitResult oracle = ref::explicit_check(ts);
  ASSERT_FALSE(oracle.fails_locally(0));  // constraint makes it hold

  SimFilterOptions o = filter_opts(SimFilterMode::Full);
  o.patterns = 512;  // plenty of chances to get it wrong
  SimFilter filter(ts, o, /*local=*/true, nullptr, nullptr);
  filter.run(all_props(ts), nullptr);
  EXPECT_TRUE(filter.kills().empty());
  EXPECT_EQ(filter.stats().kills, 0u);
}

// --- near-miss seeds --------------------------------------------------------

TEST(SimFilter, ExportedSeedsAreConstraintCleanInitializedPrefixes) {
  std::uint64_t seeds_seen = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    aig::Aig aig = small_design(seed, 4, /*weaken_percent=*/80);
    ts::TransitionSystem ts(aig);
    SimFilter filter(ts, filter_opts(SimFilterMode::Full), /*local=*/true,
                     nullptr, nullptr);
    filter.run(all_props(ts), nullptr);
    for (const NearMissSeed& s : filter.take_seeds()) {
      seeds_seen++;
      ASSERT_LT(s.prop, ts.num_properties());
      EXPECT_GE(s.score, 1);
      ASSERT_FALSE(s.prefix.steps.empty());
      ts::TraceAnalysis ta = ts::analyze_trace(ts, s.prefix);
      EXPECT_TRUE(ta.starts_initial) << "seed " << seed;
      EXPECT_TRUE(ta.transitions_valid) << "seed " << seed;
      EXPECT_TRUE(ta.constraints_ok) << "seed " << seed;
    }
  }
  EXPECT_GT(seeds_seen, 0u);  // the corpus must actually exercise seeding
}

// --- determinism ------------------------------------------------------------

TEST(SimFilter, ResultsAreIdenticalAcrossThreadCounts) {
  aig::Aig aig = small_design(7, 4, /*weaken_percent=*/30);
  ts::TransitionSystem ts(aig);
  SimFilterOptions o = filter_opts(SimFilterMode::Full);
  o.patterns = 256;

  SimFilter sequential(ts, o, /*local=*/true, nullptr, nullptr);
  sequential.run(all_props(ts), nullptr);

  sched::WorkerPool pool(4);
  SimFilter parallel(ts, o, /*local=*/true, nullptr, nullptr);
  parallel.run(all_props(ts), &pool);

  EXPECT_EQ(sequential.signatures(), parallel.signatures());
  ASSERT_EQ(sequential.kills().size(), parallel.kills().size());
  for (std::size_t i = 0; i < sequential.kills().size(); ++i) {
    EXPECT_EQ(sequential.kills()[i].prop, parallel.kills()[i].prop);
    EXPECT_EQ(sequential.kills()[i].depth, parallel.kills()[i].depth);
  }
  EXPECT_EQ(sequential.stats().candidates, parallel.stats().candidates);
  EXPECT_EQ(sequential.stats().steps, parallel.stats().steps);
  std::vector<NearMissSeed> a = sequential.take_seeds();
  std::vector<NearMissSeed> b = parallel.take_seeds();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].prop, b[i].prop);
    EXPECT_EQ(a[i].score, b[i].score);
    EXPECT_EQ(a[i].prefix.steps.size(), b[i].prefix.steps.size());
  }
}

// --- signature-guided clustering --------------------------------------------

TEST(SimFilter, EquivalentPropertiesShareASignature) {
  aig::Aig aig;
  aig::Lit in = aig.add_input();
  aig::Lit l = aig.add_latch(Ternary::False);
  aig.set_latch_next(l, in);
  aig.add_property(~l);          // P0 and P1: literally the same behavior
  aig.add_property(~l);
  aig.add_property(aig::Lit::true_lit());  // P2: trivially holds
  ts::TransitionSystem ts(aig);

  SimFilter filter(ts, filter_opts(SimFilterMode::Falsify), /*local=*/false,
                   nullptr, nullptr);
  filter.run(all_props(ts), nullptr);
  const std::vector<std::uint64_t>& sig = filter.signatures();
  EXPECT_EQ(sig[0], sig[1]);
  EXPECT_NE(sig[0], sig[2]);

  // The clustering pass unions equal signatures even when the structural
  // similarity threshold alone would not merge anything.
  ClusterOptions copts;
  copts.min_similarity = 1.1;  // structural pass merges nothing
  copts.signatures = sig;
  std::size_t merges = 0;
  auto clusters = cluster_properties(ts, copts, &merges);
  EXPECT_EQ(merges, 1u);
  bool found_pair = false;
  for (const auto& c : clusters) {
    if (c.size() == 2) {
      EXPECT_EQ(c[0] + c[1], 1u);  // {0, 1}
      found_pair = true;
    }
  }
  EXPECT_TRUE(found_pair);
}

// --- end-to-end: the filter can never flip a verdict ------------------------

void expect_matches_oracle(const ts::TransitionSystem& ts,
                           const MultiResult& r,
                           const ref::ExplicitResult& oracle,
                           const std::string& tag) {
  ASSERT_EQ(r.per_property.size(), ts.num_properties()) << tag;
  for (std::size_t p = 0; p < ts.num_properties(); ++p) {
    EXPECT_EQ(r.per_property[p].verdict,
              oracle.fails_locally(p) ? PropertyVerdict::FailsLocally
                                      : PropertyVerdict::HoldsLocally)
        << tag << " P" << p;
  }
}

class SimFilterE2E : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimFilterE2E, AllModesAgreeWithOracleAndEachOther) {
  aig::Aig aig = small_design(GetParam(), 4, /*weaken_percent=*/35);
  if (GetParam() % 2 == 0) {
    // Alternate designs mark a property Expected-To-Fail: the filter must
    // respect the changed assumption sets (ETF is never assumed).
    aig.properties()[0].expected_to_fail = true;
  }
  ts::TransitionSystem ts(aig);
  ref::ExplicitResult oracle = ref::explicit_check(ts);

  for (SimFilterMode mode :
       {SimFilterMode::Off, SimFilterMode::Falsify, SimFilterMode::Full}) {
    for (sched::DispatchPolicy dispatch :
         {sched::DispatchPolicy::RunToCompletion,
          sched::DispatchPolicy::HybridBmcIc3}) {
      sched::SchedulerOptions so;
      so.proof_mode = sched::ProofMode::Local;
      so.dispatch = dispatch;
      so.engine.sim_filter = filter_opts(mode);
      MultiResult r = sched::Scheduler(ts, so).run();
      std::string tag = std::string(to_string(mode)) + "/" +
                        (dispatch == sched::DispatchPolicy::HybridBmcIc3
                             ? "hybrid"
                             : "rtc");
      expect_matches_oracle(ts, r, oracle, tag);
      // Every filter-closed property carries a replayable certified CEX.
      for (std::size_t p = 0; p < ts.num_properties(); ++p) {
        const PropertyResult& pr = r.per_property[p];
        if (pr.verdict == PropertyVerdict::FailsLocally) {
          EXPECT_TRUE(ts::is_local_cex(ts, pr.cex, p,
                                       sched::local_assumptions(ts, p)))
              << tag << " P" << p;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimFilterE2E,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(SimFilterE2E, ShardedRunWithSignaturesMatchesOracle) {
  aig::Aig aig = small_design(9, 6, /*weaken_percent=*/35);
  ts::TransitionSystem ts(aig);
  ref::ExplicitResult oracle = ref::explicit_check(ts);

  shard::ShardedOptions so;
  so.base.proof_mode = sched::ProofMode::Local;
  so.base.dispatch = sched::DispatchPolicy::HybridBmcIc3;
  so.base.engine.sim_filter = filter_opts(SimFilterMode::Full);
  MultiResult r = shard::ShardedScheduler(ts, so).run();
  expect_matches_oracle(ts, r, oracle, "sharded-full");
  EXPECT_GT(r.sim_stats.patterns, 0u);
  EXPECT_GT(r.sim_stats.signature_groups, 0u);
}

// A sweep that starts exhausted (no BMC depth budget) still runs the
// near-miss seeds routed to it: BmcSweep::sweep consumes pending seeds
// before its own exhausted check, so the scheduler must call it anyway.
TEST(SimFilterE2E, ExhaustedSweepStillRunsItsSeeds) {
  aig::Aig aig = small_design(12, 4, /*weaken_percent=*/80);
  ts::TransitionSystem ts(aig);
  ref::ExplicitResult oracle = ref::explicit_check(ts);

  obs::MetricsRegistry metrics;
  shard::ShardedOptions so;
  so.base.proof_mode = sched::ProofMode::Local;
  so.base.dispatch = sched::DispatchPolicy::HybridBmcIc3;
  so.base.bmc_max_depth = 0;
  so.base.engine.sim_filter = filter_opts(SimFilterMode::Full);
  so.base.engine.metrics = &metrics;
  MultiResult r = shard::ShardedScheduler(ts, so).run();
  expect_matches_oracle(ts, r, oracle, "exhausted-sweep");
  EXPECT_GT(metrics.counter("sim.seeds"), 0u);
  EXPECT_EQ(metrics.counter("sim.seed_queries"), metrics.counter("sim.seeds"));
}

TEST(SimFilterE2E, ConstrainedDesignHoldsInEveryMode) {
  aig::Aig aig = constrained_design();
  ts::TransitionSystem ts(aig);
  for (SimFilterMode mode :
       {SimFilterMode::Off, SimFilterMode::Falsify, SimFilterMode::Full}) {
    sched::SchedulerOptions so;
    so.proof_mode = sched::ProofMode::Local;
    so.dispatch = sched::DispatchPolicy::HybridBmcIc3;
    so.engine.sim_filter = filter_opts(mode);
    MultiResult r = sched::Scheduler(ts, so).run();
    ASSERT_EQ(r.per_property.size(), 1u);
    EXPECT_EQ(r.per_property[0].verdict, PropertyVerdict::HoldsLocally)
        << to_string(mode);
  }
}

}  // namespace
}  // namespace javer::mp::simfilter
