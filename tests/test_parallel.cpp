// Parallel JA-verification (Section 11): sched::Scheduler with
// num_threads > 1. Verdict equivalence with the sequential run, shared
// clause DB, thread-count configurations.
#include <gtest/gtest.h>

#include "gen/random_design.h"
#include "gen/synthetic.h"
#include "mp/sched/scheduler.h"
#include "ref/explicit_checker.h"

namespace javer::mp {
namespace {

// JA-verification on `threads` workers.
sched::SchedulerOptions parallel_ja(unsigned threads) {
  sched::SchedulerOptions so;
  so.num_threads = threads;
  return so;
}

class ParallelRandomTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParallelRandomTest, VerdictsMatchOracle) {
  gen::RandomDesignSpec spec;
  spec.seed = GetParam();
  spec.num_latches = 4;
  spec.num_inputs = 2;
  spec.num_ands = 18;
  spec.num_properties = 6;
  aig::Aig aig = gen::make_random_design(spec);
  ts::TransitionSystem ts(aig);
  ref::ExplicitResult expected = ref::explicit_check(ts);

  MultiResult result = sched::Scheduler(ts, parallel_ja(4)).run();

  ASSERT_EQ(result.per_property.size(), ts.num_properties());
  EXPECT_EQ(result.debugging_set(), expected.debugging_set())
      << "seed " << GetParam();
  for (std::size_t p = 0; p < ts.num_properties(); ++p) {
    PropertyVerdict v = result.per_property[p].verdict;
    if (expected.fails_locally(p)) {
      EXPECT_EQ(v, PropertyVerdict::FailsLocally) << "prop " << p;
    } else {
      EXPECT_EQ(v, PropertyVerdict::HoldsLocally) << "prop " << p;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelRandomTest,
                         ::testing::Range<std::uint64_t>(300, 315));

TEST(ParallelJa, SingleThreadEqualsMultiThread) {
  gen::RandomDesignSpec spec;
  spec.seed = 77;
  spec.num_properties = 6;
  aig::Aig aig = gen::make_random_design(spec);
  ts::TransitionSystem ts(aig);

  MultiResult a = sched::Scheduler(ts, parallel_ja(1)).run();
  MultiResult b = sched::Scheduler(ts, parallel_ja(8)).run();
  ASSERT_EQ(a.per_property.size(), b.per_property.size());
  for (std::size_t p = 0; p < a.per_property.size(); ++p) {
    EXPECT_EQ(a.per_property[p].verdict, b.per_property[p].verdict)
        << "prop " << p;
  }
}

TEST(ParallelJa, RingDesignAllProvedOneFrame) {
  // The Table X design: every adjacency property of a one-hot ring is
  // one-frame provable locally; the parallel run must prove all.
  aig::Aig aig = gen::make_ring(12);
  ts::TransitionSystem ts(aig);
  MultiResult result = sched::Scheduler(ts, parallel_ja(4)).run();
  for (std::size_t p = 0; p < ts.num_properties(); ++p) {
    EXPECT_EQ(result.per_property[p].verdict, PropertyVerdict::HoldsLocally)
        << "prop " << p;
    EXPECT_LE(result.per_property[p].frames, 1) << "prop " << p;
  }
}

TEST(ParallelJa, SharedClauseDbSeesAllThreads) {
  gen::RandomDesignSpec spec;
  spec.seed = 88;
  spec.num_properties = 8;
  spec.weaken_percent = 95;
  aig::Aig aig = gen::make_random_design(spec);
  ts::TransitionSystem ts(aig);
  ClauseDb db;
  MultiResult result = sched::Scheduler(ts, parallel_ja(4)).run(db);
  EXPECT_EQ(result.num_unsolved(), 0u);
  EXPECT_EQ(db.snapshot().size(), db.size());
}

}  // namespace
}  // namespace javer::mp
