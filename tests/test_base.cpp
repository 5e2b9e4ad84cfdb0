// Unit tests for the base utilities: status names, timers, RNG, logging.
#include <gtest/gtest.h>

#include <set>

#include "base/log.h"
#include "base/rng.h"
#include "base/status.h"
#include "base/timer.h"

namespace javer {
namespace {

TEST(Ternary, ToString) {
  EXPECT_STREQ(to_string(Ternary::True), "1");
  EXPECT_STREQ(to_string(Ternary::False), "0");
  EXPECT_STREQ(to_string(Ternary::X), "x");
}

TEST(CheckStatus, ToString) {
  EXPECT_STREQ(to_string(CheckStatus::Holds), "holds");
  EXPECT_STREQ(to_string(CheckStatus::Fails), "fails");
  EXPECT_STREQ(to_string(CheckStatus::Unknown), "unknown");
}

TEST(Log, ParseLogLevelAcceptsNamesAndDigits) {
  EXPECT_EQ(parse_log_level("silent"), LogLevel::Silent);
  EXPECT_EQ(parse_log_level("0"), LogLevel::Silent);
  EXPECT_EQ(parse_log_level("info"), LogLevel::Info);
  EXPECT_EQ(parse_log_level("1"), LogLevel::Info);
  EXPECT_EQ(parse_log_level("verbose"), LogLevel::Verbose);
  EXPECT_EQ(parse_log_level("2"), LogLevel::Verbose);
  EXPECT_EQ(parse_log_level("debug"), LogLevel::Debug);
  EXPECT_EQ(parse_log_level("3"), LogLevel::Debug);
}

TEST(Log, ParseLogLevelRejectsEverythingElse) {
  EXPECT_FALSE(parse_log_level("").has_value());
  EXPECT_FALSE(parse_log_level("Silent").has_value());  // case-sensitive
  EXPECT_FALSE(parse_log_level("4").has_value());
  EXPECT_FALSE(parse_log_level("-1").has_value());
  EXPECT_FALSE(parse_log_level("warn").has_value());
  EXPECT_FALSE(parse_log_level("info ").has_value());
}

TEST(Timer, MeasuresElapsedTime) {
  Timer t;
  double a = t.seconds();
  double b = t.seconds();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
  t.reset();
  EXPECT_GE(t.seconds(), 0.0);
}

TEST(Deadline, UnlimitedNeverExpires) {
  Deadline d;
  EXPECT_FALSE(d.expired());
  EXPECT_TRUE(d.remaining() > 1e12);
}

TEST(Deadline, TinyBudgetExpires) {
  Deadline d(1e-9);
  // A nanosecond budget is over by the time we can observe it.
  while (!d.expired()) {
  }
  EXPECT_TRUE(d.expired());
  EXPECT_EQ(d.remaining(), 0.0);
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool differ = false;
  for (int i = 0; i < 10; ++i) {
    if (a.next() != b.next()) differ = true;
  }
  EXPECT_TRUE(differ);
}

TEST(Rng, BelowRespectsBound) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.below(13), 13u);
  }
}

TEST(Rng, RangeInclusive) {
  Rng r(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    std::int64_t v = r.range(-2, 3);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 6u);  // all values hit
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(11);
  for (int i = 0; i < 1000; ++i) {
    double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng r(13);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(r.chance(0, 10));
    EXPECT_TRUE(r.chance(10, 10));
  }
}

TEST(Log, LevelRoundTrip) {
  LogLevel old = log_level();
  set_log_level(LogLevel::Debug);
  EXPECT_EQ(log_level(), LogLevel::Debug);
  set_log_level(old);
}

}  // namespace
}  // namespace javer
