// Report-layer tests: verdict strings, duration formatting, result
// aggregation and the printed report format.
#include <gtest/gtest.h>

#include <sstream>

#include "aig/builder.h"
#include "mp/report.h"

namespace javer::mp {
namespace {

TEST(Report, VerdictStrings) {
  EXPECT_STREQ(to_string(PropertyVerdict::HoldsGlobally), "holds-globally");
  EXPECT_STREQ(to_string(PropertyVerdict::HoldsLocally), "holds-locally");
  EXPECT_STREQ(to_string(PropertyVerdict::FailsLocally), "fails-locally");
  EXPECT_STREQ(to_string(PropertyVerdict::FailsGlobally), "fails-globally");
  EXPECT_STREQ(to_string(PropertyVerdict::Unknown), "unknown");
}

TEST(Report, DurationFormatting) {
  // Tier boundaries: millisecond precision below 10 ms, two decimals for
  // sub-second values, one decimal for seconds, hours from 3600 s up.
  EXPECT_EQ(format_duration(0.0005), "0.001 s");
  EXPECT_EQ(format_duration(0.009), "0.009 s");
  EXPECT_EQ(format_duration(0.01), "0.01 s");
  EXPECT_EQ(format_duration(0.42), "0.42 s");
  EXPECT_EQ(format_duration(0.5), "0.50 s");
  EXPECT_EQ(format_duration(0.999), "1.00 s");
  EXPECT_EQ(format_duration(1.0), "1.0 s");
  EXPECT_EQ(format_duration(2.26), "2.3 s");
  EXPECT_EQ(format_duration(59.96), "60.0 s");
  EXPECT_EQ(format_duration(3600.0), "1.0 h");
  EXPECT_EQ(format_duration(9000.0), "2.5 h");
}

MultiResult sample_result() {
  MultiResult r;
  r.per_property.resize(5);
  r.per_property[0].verdict = PropertyVerdict::HoldsLocally;
  r.per_property[1].verdict = PropertyVerdict::FailsLocally;
  r.per_property[2].verdict = PropertyVerdict::HoldsGlobally;
  r.per_property[3].verdict = PropertyVerdict::Unknown;
  r.per_property[4].verdict = PropertyVerdict::FailsGlobally;
  r.total_seconds = 1.5;
  return r;
}

TEST(Report, Aggregation) {
  MultiResult r = sample_result();
  EXPECT_EQ(r.count(PropertyVerdict::HoldsLocally), 1u);
  EXPECT_EQ(r.num_proved(), 2u);
  EXPECT_EQ(r.num_failed(), 2u);
  EXPECT_EQ(r.num_unsolved(), 1u);
  EXPECT_EQ(r.debugging_set(), std::vector<std::size_t>{1});
}

TEST(Report, PrintedFormContainsEveryProperty) {
  aig::Aig aig;
  aig::Builder b(aig);
  aig::Word cnt = b.latch_word(2);
  b.set_next(cnt, b.inc_word(cnt, aig::Lit::true_lit()));
  for (int i = 0; i < 5; ++i) {
    aig.add_property(aig::Lit::true_lit(), "prop" + std::to_string(i));
  }
  ts::TransitionSystem ts(aig);

  std::ostringstream out;
  print_report(out, ts, sample_result());
  std::string text = out.str();
  for (int i = 0; i < 5; ++i) {
    EXPECT_NE(text.find("prop" + std::to_string(i)), std::string::npos);
  }
  EXPECT_NE(text.find("fails-locally"), std::string::npos);
  EXPECT_NE(text.find("debugging set {P1}"), std::string::npos);
  EXPECT_NE(text.find("2 proved, 2 failed, 1 unsolved"), std::string::npos);
  // No sharded run, no exchange lines.
  EXPECT_EQ(text.find("exchange shard"), std::string::npos);
}

TEST(Report, PrintsPerShardExchangeLines) {
  aig::Aig aig;
  aig::Builder b(aig);
  aig::Word cnt = b.latch_word(2);
  b.set_next(cnt, b.inc_word(cnt, aig::Lit::true_lit()));
  for (int i = 0; i < 5; ++i) {
    aig.add_property(aig::Lit::true_lit(), "prop" + std::to_string(i));
  }
  ts::TransitionSystem ts(aig);

  MultiResult r = sample_result();
  r.exchange_per_shard.resize(2);
  r.exchange_per_shard[0].published = 4;
  r.exchange_per_shard[0].delivered = 4;
  r.exchange_per_shard[0].imported = 3;
  r.exchange_per_shard[0].rejected = 1;
  r.exchange_per_shard[1].published = 2;
  r.exchange_per_shard[1].delivered = 2;
  r.exchange_per_shard[1].imported = 1;
  r.exchange_per_shard[1].redundant = 1;

  std::ostringstream out;
  print_report(out, ts, r);
  std::string text = out.str();
  EXPECT_NE(text.find("exchange shard 0: published 4, delivered 4, "
                      "imported 3, rejected 1, redundant 0 [hit rate 75%]"),
            std::string::npos);
  EXPECT_NE(text.find("exchange shard 1: published 2, delivered 2, "
                      "imported 1, rejected 0, redundant 1 [hit rate 50%]"),
            std::string::npos);
}

}  // namespace
}  // namespace javer::mp
