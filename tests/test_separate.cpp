// Separate verification, one property at a time through sched::Scheduler:
// local vs global proof modes, clause re-use, spurious CEX retry, time
// limits, ordering and one-property runs — verdicts cross-checked against
// the explicit-state oracle on random designs.
#include <gtest/gtest.h>

#include "gen/random_design.h"
#include "mp/sched/scheduler.h"
#include "ref/explicit_checker.h"
#include "ts/trace.h"

namespace javer::mp {
namespace {

struct Fixture {
  explicit Fixture(std::uint64_t seed) {
    gen::RandomDesignSpec spec;
    spec.seed = seed;
    spec.num_latches = 4;
    spec.num_inputs = 2;
    spec.num_ands = 18;
    spec.num_properties = 4;
    aig = gen::make_random_design(spec);
    ts = std::make_unique<ts::TransitionSystem>(aig);
    expected = ref::explicit_check(*ts);
  }
  aig::Aig aig;
  std::unique_ptr<ts::TransitionSystem> ts;
  ref::ExplicitResult expected;
};

class SeparateRandomTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeparateRandomTest, LocalVerdictsMatchOracle) {
  Fixture fx(GetParam());
  for (bool reuse : {false, true}) {
    sched::SchedulerOptions so;
    so.engine.clause_reuse = reuse;
    MultiResult result = sched::Scheduler(*fx.ts, so).run();

    ASSERT_EQ(result.per_property.size(), fx.ts->num_properties());
    for (std::size_t p = 0; p < fx.ts->num_properties(); ++p) {
      const PropertyResult& pr = result.per_property[p];
      if (fx.expected.fails_locally(p)) {
        EXPECT_EQ(pr.verdict, PropertyVerdict::FailsLocally)
            << "seed " << GetParam() << " prop " << p << " reuse " << reuse;
        std::vector<std::size_t> assumed;
        for (std::size_t j = 0; j < fx.ts->num_properties(); ++j) {
          if (j != p) assumed.push_back(j);
        }
        EXPECT_TRUE(ts::is_local_cex(*fx.ts, pr.cex, p, assumed))
            << "debugging-set CEX must be genuinely local";
      } else {
        EXPECT_EQ(pr.verdict, PropertyVerdict::HoldsLocally)
            << "seed " << GetParam() << " prop " << p << " reuse " << reuse;
      }
    }
    EXPECT_EQ(result.debugging_set(), fx.expected.debugging_set());
  }
}

TEST_P(SeparateRandomTest, GlobalVerdictsMatchOracle) {
  Fixture fx(GetParam() + 4000);
  for (bool reuse : {false, true}) {
    sched::SchedulerOptions so;
    so.proof_mode = sched::ProofMode::Global;
    so.engine.clause_reuse = reuse;
    MultiResult result = sched::Scheduler(*fx.ts, so).run();

    for (std::size_t p = 0; p < fx.ts->num_properties(); ++p) {
      const PropertyResult& pr = result.per_property[p];
      if (fx.expected.fails_globally(p)) {
        EXPECT_EQ(pr.verdict, PropertyVerdict::FailsGlobally)
            << "seed " << GetParam() + 4000 << " prop " << p;
        EXPECT_TRUE(ts::is_global_cex(*fx.ts, pr.cex, p));
      } else {
        EXPECT_EQ(pr.verdict, PropertyVerdict::HoldsGlobally)
            << "seed " << GetParam() + 4000 << " prop " << p;
      }
    }
  }
}

TEST_P(SeparateRandomTest, BothLiftingModesAgree) {
  Fixture fx(GetParam() + 8000);
  for (bool respect : {false, true}) {
    sched::SchedulerOptions so;
    so.engine.lifting_respects_constraints = respect;
    MultiResult result = sched::Scheduler(*fx.ts, so).run();
    EXPECT_EQ(result.debugging_set(), fx.expected.debugging_set())
        << "seed " << GetParam() + 8000 << " respect " << respect;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeparateRandomTest,
                         ::testing::Range<std::uint64_t>(1, 21));

TEST(Separate, OnePropertyRunsShareClausesThroughDb) {
  // Two one-property runs (engine.order = {p}) on one ClauseDb: a
  // successful proof exports its clauses, and the next run starts from
  // them and still reaches the oracle's verdict.
  Fixture fx(3);
  ClauseDb db;
  auto run_one = [&](std::size_t p) {
    sched::SchedulerOptions so;
    so.engine.order = {p};
    return sched::Scheduler(*fx.ts, so).run(db).per_property[p];
  };
  auto expected = [&](std::size_t p) {
    return fx.expected.fails_locally(p) ? PropertyVerdict::FailsLocally
                                        : PropertyVerdict::HoldsLocally;
  };
  PropertyResult first = run_one(0);
  EXPECT_EQ(first.verdict, expected(0));
  if (first.verdict == PropertyVerdict::HoldsLocally) {
    EXPECT_GT(db.size(), 0u) << "a successful proof must export clauses";
  }
  EXPECT_EQ(run_one(1).verdict, expected(1));
}

TEST(Separate, TotalTimeLimitLeavesRestUnknown) {
  Fixture fx(5);
  sched::SchedulerOptions so;
  so.engine.total_time_limit = 1e-9;  // expires before the first property
  MultiResult result = sched::Scheduler(*fx.ts, so).run();
  EXPECT_EQ(result.num_unsolved(), fx.ts->num_properties());
}

TEST(Separate, CustomOrderVerifiesEverything) {
  Fixture fx(7);
  sched::SchedulerOptions so;
  so.engine.order = {3, 1, 0, 2};
  MultiResult result = sched::Scheduler(*fx.ts, so).run();
  EXPECT_EQ(result.num_unsolved(), 0u);
  EXPECT_EQ(result.debugging_set(), fx.expected.debugging_set());
}

}  // namespace
}  // namespace javer::mp
