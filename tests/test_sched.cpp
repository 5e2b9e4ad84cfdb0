// Scheduler tests: verdict equivalence between every dispatch policy (and
// the joint aggregate loop) and the explicit-state oracle (and hence the
// legacy verifiers, which are now thin presets over the scheduler),
// verification-order validation, plus IC3 suspend/resume — a
// budget-sliced run must reach the same verdict and a certifiable
// strengthening as a one-shot run.
#include <gtest/gtest.h>

#include <stdexcept>

#include "gen/counter.h"
#include "gen/random_design.h"
#include "gen/synthetic.h"
#include "ic3/ic3.h"
#include "mp/ja_verifier.h"
#include "mp/joint_verifier.h"
#include "mp/sched/scheduler.h"
#include "mp/shard/sharded_scheduler.h"
#include "obs/metrics.h"
#include "ref/explicit_checker.h"
#include "test_util.h"
#include "ts/trace.h"

namespace javer::mp::sched {
namespace {

SchedulerOptions hybrid_opts() {
  SchedulerOptions so;
  so.proof_mode = ProofMode::Local;
  so.dispatch = DispatchPolicy::HybridBmcIc3;
  // Small slices and windows so suspensions and multiple rounds actually
  // happen on the tiny test designs.
  so.ic3_slice_seconds = 0.05;
  so.bmc_depth_per_sweep = 4;
  so.bmc_max_depth = 32;
  return so;
}

void expect_verdicts_match_oracle(const ts::TransitionSystem& ts,
                                  const MultiResult& result,
                                  const ref::ExplicitResult& oracle,
                                  bool local, const std::string& tag) {
  ASSERT_EQ(result.per_property.size(), ts.num_properties()) << tag;
  for (std::size_t p = 0; p < ts.num_properties(); ++p) {
    const PropertyResult& pr = result.per_property[p];
    bool fails = local ? oracle.fails_locally(p) : oracle.fails_globally(p);
    if (fails) {
      EXPECT_EQ(pr.verdict, local ? PropertyVerdict::FailsLocally
                                  : PropertyVerdict::FailsGlobally)
          << tag << " P" << p;
    } else {
      EXPECT_EQ(pr.verdict, local ? PropertyVerdict::HoldsLocally
                                  : PropertyVerdict::HoldsGlobally)
          << tag << " P" << p;
    }
  }
}

class SchedPolicyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedPolicyTest, AllPoliciesMatchOracle) {
  gen::RandomDesignSpec spec;
  spec.seed = GetParam();
  spec.num_latches = 4;
  spec.num_inputs = 2;
  spec.num_ands = 18;
  spec.num_properties = 4;
  aig::Aig aig = gen::make_random_design(spec);
  ts::TransitionSystem ts(aig);
  ref::ExplicitResult oracle = ref::explicit_check(ts);

  // Local proofs, run-to-completion (the JA preset).
  {
    SchedulerOptions so;
    so.proof_mode = ProofMode::Local;
    MultiResult r = Scheduler(ts, so).run();
    expect_verdicts_match_oracle(ts, r, oracle, /*local=*/true, "ja");
  }
  // Global proofs, run-to-completion (the Sep-glob preset).
  {
    SchedulerOptions so;
    so.proof_mode = ProofMode::Global;
    so.engine.clause_reuse = false;
    MultiResult r = Scheduler(ts, so).run();
    expect_verdicts_match_oracle(ts, r, oracle, /*local=*/false, "sep-glob");
  }
  // Local proofs on the worker pool (the parallel JA preset).
  {
    SchedulerOptions so;
    so.proof_mode = ProofMode::Local;
    so.num_threads = 2;
    MultiResult r = Scheduler(ts, so).run();
    expect_verdicts_match_oracle(ts, r, oracle, /*local=*/true, "parallel");
  }
  // The hybrid BMC/IC3 interleaving policy.
  {
    MultiResult r = Scheduler(ts, hybrid_opts()).run();
    expect_verdicts_match_oracle(ts, r, oracle, /*local=*/true, "hybrid");
    // Hybrid proofs still export certifiable strengthenings.
    for (std::size_t p = 0; p < ts.num_properties(); ++p) {
      const PropertyResult& pr = r.per_property[p];
      if (pr.verdict == PropertyVerdict::HoldsLocally) {
        std::vector<std::size_t> assumed;
        for (std::size_t j = 0; j < ts.num_properties(); ++j) {
          if (j != p) assumed.push_back(j);
        }
        testutil::expect_valid_invariant(ts, p, assumed, pr.invariant);
      } else if (pr.verdict == PropertyVerdict::FailsLocally) {
        std::vector<std::size_t> assumed;
        for (std::size_t j = 0; j < ts.num_properties(); ++j) {
          if (j != p) assumed.push_back(j);
        }
        EXPECT_TRUE(ts::is_local_cex(ts, pr.cex, p, assumed))
            << "hybrid P" << p;
      }
    }
  }
  // Joint aggregation: every FailsGlobally verdict it produces must be a
  // genuine global failure, and a fully-Holds outcome must match the
  // oracle exactly (a failing aggregate CEX refutes *some* failing subset,
  // so partial fail sets are a subset of the oracle's).
  {
    MultiResult r = JointVerifier(ts).run();
    for (std::size_t p = 0; p < ts.num_properties(); ++p) {
      const PropertyResult& pr = r.per_property[p];
      if (pr.verdict == PropertyVerdict::FailsGlobally) {
        EXPECT_TRUE(oracle.fails_globally(p)) << "joint P" << p;
      } else {
        EXPECT_EQ(pr.verdict, PropertyVerdict::HoldsGlobally)
            << "joint P" << p;
        EXPECT_FALSE(oracle.fails_globally(p)) << "joint P" << p;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedPolicyTest,
                         ::testing::Range<std::uint64_t>(300, 320));

TEST(Scheduler, HybridOnSyntheticFailingDesign) {
  // A Table III-class substrate: shallow failures for the BMC sweeps, a
  // masked deep failure that must be proven *locally true*, and true
  // filler properties for the IC3 slices.
  gen::SyntheticSpec spec;
  spec.seed = 91;
  spec.wrap_counter_bits = 10;
  spec.rings = 1;
  spec.ring_size = 5;
  spec.ring_props = 5;
  spec.pair_props = 2;
  spec.unreachable_props = 2;
  spec.det_fail_props = 1;
  spec.input_fail_props = 1;
  spec.masked_fail_props = 1;
  aig::Aig aig = gen::make_synthetic(spec);
  ts::TransitionSystem ts(aig);

  MultiResult hybrid = Scheduler(ts, hybrid_opts()).run();
  SchedulerOptions ja;
  ja.proof_mode = ProofMode::Local;
  MultiResult reference = Scheduler(ts, ja).run();

  ASSERT_EQ(hybrid.per_property.size(), reference.per_property.size());
  for (std::size_t p = 0; p < hybrid.per_property.size(); ++p) {
    EXPECT_EQ(hybrid.per_property[p].verdict,
              reference.per_property[p].verdict)
        << "P" << p;
  }
  EXPECT_EQ(hybrid.debugging_set(), reference.debugging_set());
}

TEST(Scheduler, RespectsTotalTimeLimit) {
  gen::SyntheticSpec spec;
  spec.seed = 92;
  spec.wrap_counter_bits = 16;
  spec.rings = 2;
  spec.ring_size = 8;
  spec.ring_props = 16;
  spec.pair_props = 8;
  spec.unreachable_props = 8;
  aig::Aig aig = gen::make_synthetic(spec);
  ts::TransitionSystem ts(aig);

  SchedulerOptions so = hybrid_opts();
  so.engine.total_time_limit = 0.2;
  Timer timer;
  MultiResult r = Scheduler(ts, so).run();
  EXPECT_LT(timer.seconds(), 5.0);
  // Every property still gets a (possibly Unknown) verdict slot.
  EXPECT_EQ(r.per_property.size(), ts.num_properties());

  // A limit that has expired before the first task starts: both task
  // policies close every task as Unknown, and count each close.
  for (DispatchPolicy dispatch :
       {DispatchPolicy::RunToCompletion, DispatchPolicy::HybridBmcIc3}) {
    SCOPED_TRACE(dispatch == DispatchPolicy::RunToCompletion
                     ? "run-to-completion"
                     : "hybrid");
    obs::MetricsRegistry metrics;
    SchedulerOptions expired = hybrid_opts();
    expired.dispatch = dispatch;
    expired.engine.total_time_limit = 1e-9;
    expired.engine.metrics = &metrics;
    MultiResult e = Scheduler(ts, expired).run();
    ASSERT_EQ(e.per_property.size(), ts.num_properties());
    for (std::size_t p = 0; p < ts.num_properties(); ++p) {
      EXPECT_EQ(e.per_property[p].verdict, PropertyVerdict::Unknown)
          << "P" << p;
    }
    EXPECT_EQ(metrics.counter("task.closed"), ts.num_properties());
  }
}

TEST(Scheduler, RejectsMalformedOrder) {
  // Both entries to the task loop reject an order naming a property out
  // of range or twice, instead of indexing past the results or verifying
  // a property twice.
  aig::Aig aig = gen::make_counter({.bits = 4, .buggy = true});
  ts::TransitionSystem ts(aig);
  ASSERT_EQ(ts.num_properties(), 2u);
  for (const std::vector<std::size_t>& bad :
       {std::vector<std::size_t>{0, 7}, std::vector<std::size_t>{0, 0, 1}}) {
    JaOptions ja;
    ja.order = bad;
    EXPECT_THROW(JaVerifier(ts, ja).run(), std::invalid_argument);
    shard::ShardedOptions sharded;
    sharded.base.engine.order = bad;
    EXPECT_THROW(shard::ShardedScheduler(ts, sharded).run(),
                 std::invalid_argument);
  }

  // A subset order stays legal: only the named property is verified.
  obs::MetricsRegistry metrics;
  JaOptions subset;
  subset.order = {1};
  subset.metrics = &metrics;
  MultiResult r = JaVerifier(ts, subset).run();
  EXPECT_EQ(r.per_property[0].verdict, PropertyVerdict::Unknown);
  EXPECT_NE(r.per_property[1].verdict, PropertyVerdict::Unknown);
  EXPECT_EQ(metrics.counter("task.closed"), 1u);
}

// --- IC3 suspend/resume ----------------------------------------------------

class SuspendResumeTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SuspendResumeTest, SlicedRunMatchesOneShot) {
  gen::RandomDesignSpec spec;
  spec.seed = GetParam();
  spec.num_latches = 5;
  spec.num_inputs = 2;
  spec.num_ands = 24;
  spec.num_properties = 3;
  aig::Aig aig = gen::make_random_design(spec);
  ts::TransitionSystem ts(aig);

  for (std::size_t p = 0; p < ts.num_properties(); ++p) {
    ic3::Ic3 one_shot(ts, p);
    ic3::Ic3Result reference = one_shot.run();
    ASSERT_NE(reference.status, CheckStatus::Unknown);

    // Conflict-sliced: resume until terminal. The tiny slice forces many
    // suspensions on any non-trivial property.
    ic3::Ic3 sliced(ts, p);
    ic3::Ic3Budget budget;
    budget.conflict_slice = 8;
    ic3::Ic3Result r;
    int slices = 0;
    do {
      r = sliced.run(budget);
      ASSERT_LT(++slices, 100000) << "sliced run failed to converge";
    } while (r.status == CheckStatus::Unknown && r.resumable);

    EXPECT_EQ(r.status, reference.status) << "P" << p;
    if (r.status == CheckStatus::Holds) {
      // The strengthening found through suspensions must be independently
      // certifiable, like the one-shot one.
      testutil::expect_valid_invariant(ts, p, {}, r.invariant);
      testutil::expect_valid_invariant(ts, p, {}, reference.invariant);
    } else if (r.status == CheckStatus::Fails) {
      EXPECT_TRUE(ts::is_global_cex(ts, r.cex, p)) << "P" << p;
      EXPECT_EQ(r.cex.length(), reference.cex.length())
          << "sliced CEX must stay shortest (P" << p << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SuspendResumeTest,
                         ::testing::Range<std::uint64_t>(500, 515));

TEST(SuspendResume, TimeSlicedCounterProof) {
  // An 8-bit counter with a true property needs real frame work; drive it
  // with wall-clock micro-slices and check the invariant survives.
  aig::Aig aig = gen::make_counter({.bits = 8, .buggy = false});
  ts::TransitionSystem ts(aig);
  ic3::Ic3 sliced(ts, 1);
  ic3::Ic3Budget budget;
  budget.time_slice_seconds = 0.002;
  ic3::Ic3Result r;
  do {
    r = sliced.run(budget);
  } while (r.status == CheckStatus::Unknown && r.resumable);
  ASSERT_EQ(r.status, CheckStatus::Holds);
  testutil::expect_valid_invariant(ts, 1, {}, r.invariant);
}

TEST(SuspendResume, CumulativeStatsAndFramesSurviveSuspension) {
  aig::Aig aig = gen::make_counter({.bits = 6, .buggy = false});
  ts::TransitionSystem ts(aig);
  ic3::Ic3 sliced(ts, 1);
  ic3::Ic3Budget budget;
  budget.conflict_slice = 4;
  std::uint64_t last_queries = 0;
  int last_frames = 0;
  ic3::Ic3Result r;
  do {
    r = sliced.run(budget);
    // Stats are cumulative over the engine lifetime, frames never shrink.
    EXPECT_GE(r.stats.consecution_queries, last_queries);
    EXPECT_GE(r.frames, last_frames);
    last_queries = r.stats.consecution_queries;
    last_frames = r.frames;
  } while (r.status == CheckStatus::Unknown && r.resumable);
  EXPECT_EQ(r.status, CheckStatus::Holds);
}

TEST(SuspendResume, HardLimitIsNotResumable) {
  gen::CounterSpec cs;
  cs.bits = 12;
  aig::Aig aig = gen::make_counter(cs);
  ts::TransitionSystem ts(aig);
  ic3::Ic3Options opts;
  opts.max_frames = 2;  // hard stop long before the proof converges
  ic3::Ic3 engine(ts, 1, opts);
  ic3::Ic3Result r = engine.run(ic3::Ic3Budget{});
  EXPECT_EQ(r.status, CheckStatus::Unknown);
  EXPECT_FALSE(r.resumable);
}

}  // namespace
}  // namespace javer::mp::sched
